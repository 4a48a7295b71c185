#include "finite_log.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::stl
{

namespace
{

/** Pack a stream id into the high half of the journal aux word.
 *  Stream 0 leaves the word untouched, so single-stream journals
 *  stay byte-identical to the historical format. */
std::uint64_t
packAux(std::uint32_t low, std::uint32_t stream)
{
    return static_cast<std::uint64_t>(low) |
           (static_cast<std::uint64_t>(stream) << 32);
}

} // namespace

FiniteLogStructuredLayer::FiniteLogStructuredLayer(
    Pba identity_end, const FiniteLogConfig &config)
    : config_(config), logStart_(identity_end),
      segmentSectors_(bytesToSectors(config.segmentBytes)),
      policy_(gc::makeCleaningPolicy(config.gc.policy))
{
    panicIf(segmentSectors_ == 0,
            "FiniteLogStructuredLayer: segment size must be at "
            "least one sector");
    const SectorCount capacity =
        bytesToSectors(config.capacityBytes);
    const std::uint64_t count = capacity / segmentSectors_;
    panicIf(count < 2,
            "FiniteLogStructuredLayer: need at least two segments");
    panicIf(config.cleanTargetSegments <=
                config.cleanReserveSegments,
            "FiniteLogStructuredLayer: clean target must exceed "
            "the reserve");
    panicIf(config.cleanTargetSegments >= count,
            "FiniteLogStructuredLayer: clean target must be below "
            "the segment count");
    panicIf(config.gc.streams == 0,
            "FiniteLogStructuredLayer: need at least one placement "
            "stream");
    panicIf(config.gc.streams + config.cleanTargetSegments > count,
            "FiniteLogStructuredLayer: streams plus clean target "
            "must not exceed the segment count");
    segments_.resize(count);
    reverse_.resize(count);
    freeCount_ = static_cast<std::uint32_t>(count);
    streams_.resize(config.gc.streams);
    claimSegment(0); // stream 0's initial open segment
    setStream(0, 0, logStart_);
    if (config.gc.streams > 1)
        router_.emplace(config.gc.streams, config.gc.router);

    auto &registry = telemetry::Registry::global();
    const std::string policy_label =
        std::string("policy=\"") + policy_->name() + "\"";
    gcReclaims_ =
        &registry.counter("gc_reclaims_total", policy_label);
    gcMovedBytes_ =
        &registry.counter("gc_moved_bytes_total", policy_label);
    gcVictimUtilization_ = &registry.histogram(
        "gc_victim_utilization_pct", policy_label);
}

std::uint32_t
FiniteLogStructuredLayer::segmentOf(Pba pba) const
{
    panicIf(pba < logStart_,
            "FiniteLogStructuredLayer: sector below the log");
    const auto index =
        static_cast<std::uint32_t>((pba - logStart_) /
                                   segmentSectors_);
    panicIf(index >= segments_.size(),
            "FiniteLogStructuredLayer: sector beyond the log");
    return index;
}

void
FiniteLogStructuredLayer::addLive(Pba pba, Lba lba, SectorCount count)
{
    // Append never places a piece across a segment end, but a
    // journal entry is split anyway so the index stays per segment.
    while (count > 0) {
        const std::uint32_t seg = segmentOf(pba);
        const SectorCount piece = std::min<SectorCount>(
            count, segmentStart(seg + 1ULL) - pba);
        // A segment fills in write-pointer order after it was
        // emptied, so the new entry almost always sorts last.
        std::vector<ReverseEntry> &entries = reverse_[seg];
        const ReverseEntry entry{pba, lba, piece};
        if (entries.empty() || entries.back().pba < pba) {
            entries.push_back(entry);
        } else {
            entries.insert(std::partition_point(
                               entries.begin(), entries.end(),
                               [&](const ReverseEntry &e) {
                                   return e.pba < pba;
                               }),
                           entry);
        }
        claimSegment(seg);
        segments_[seg].live += piece;
        segments_[seg].lastWrite = tick_;
        pba += piece;
        lba += piece;
        count -= piece;
    }
}

void
FiniteLogStructuredLayer::removeLive(const SectorExtent &range)
{
    // A range may straddle segment boundaries; split per segment.
    Pba cursor = range.start;
    while (cursor < range.end()) {
        const std::uint32_t seg = segmentOf(cursor);
        const Pba piece_end =
            std::min<Pba>(range.end(), segmentStart(seg + 1ULL));
        gc::SegmentSummary &state = segments_[seg];
        panicIf(state.live < piece_end - cursor,
                "FiniteLogStructuredLayer: liveness underflow");
        state.live -= piece_end - cursor;

        // Entries [lo, hi) overlap [cursor, piece_end); only the
        // first can keep a head and only the last a tail.
        std::vector<ReverseEntry> &entries = reverse_[seg];
        const auto lo = std::partition_point(
            entries.begin(), entries.end(),
            [&](const ReverseEntry &e) {
                return e.pba + e.count <= cursor;
            });
        const auto hi = std::partition_point(
            lo, entries.end(), [&](const ReverseEntry &e) {
                return e.pba < piece_end;
            });
        if (lo != hi) {
            const ReverseEntry first = *lo;
            const ReverseEntry last = *(hi - 1);
            ReverseEntry kept[2];
            std::ptrdiff_t k = 0;
            if (first.pba < cursor)
                kept[k++] = {first.pba, first.lba, cursor - first.pba};
            if (last.pba + last.count > piece_end)
                kept[k++] = {piece_end,
                             last.lba + (piece_end - last.pba),
                             last.pba + last.count - piece_end};
            if (k > hi - lo) {
                // The range punched a hole in one entry.
                *lo = kept[0];
                entries.insert(lo + 1, kept[1]);
            } else {
                std::copy(kept, kept + k, lo);
                entries.erase(lo + k, hi);
            }
        }
        cursor = piece_end;
    }
}

bool
FiniteLogStructuredLayer::reverseHas(std::uint32_t seg, Pba pba) const
{
    const std::vector<ReverseEntry> &entries = reverse_[seg];
    const auto it = std::partition_point(
        entries.begin(), entries.end(),
        [&](const ReverseEntry &e) { return e.pba < pba; });
    return it != entries.end() && it->pba == pba;
}

void
FiniteLogStructuredLayer::claimSegment(std::uint32_t i)
{
    if (segments_[i].free) {
        segments_[i].free = false;
        --freeCount_;
    }
}

void
FiniteLogStructuredLayer::setStream(std::uint32_t sid,
                                    std::uint32_t open, Pba ptr)
{
    StreamState &stream = streams_[sid];
    if (stream.opened)
        segments_[stream.openSegment].open = false;
    segments_[open].open = true;
    stream = {open, ptr, true};
}

void
FiniteLogStructuredLayer::openFreeSegment(std::uint32_t sid)
{
    if (freeCount_ > 0) {
        for (std::uint32_t i = 0; i < segments_.size(); ++i) {
            if (segments_[i].free) {
                claimSegment(i);
                setStream(sid, i, segmentStart(i));
                return;
            }
        }
    }
    fatal("finite log out of space: no free segment to open "
          "(cleaning could not keep up; increase capacityBytes)");
}

void
FiniteLogStructuredLayer::append(Lba lba, SectorCount count,
                                 SegmentBuffer &out,
                                 std::uint32_t sid)
{
    ++tick_;
    if (journal_ != nullptr)
        journalScratch_.clear();
    StreamState &stream = streams_[sid];
    if (!stream.opened)
        openFreeSegment(sid);
    while (count > 0) {
        if (stream.writePtr == segmentStart(stream.openSegment + 1ULL))
            openFreeSegment(sid);
        const SectorCount take = std::min<SectorCount>(
            count,
            segmentStart(stream.openSegment + 1ULL) - stream.writePtr);

        displacedScratch_.clear();
        map_.mapRange(lba, stream.writePtr, take,
                      &displacedScratch_);
        // Identity holes are never in the forward map, so every
        // displaced range is log-resident.
        for (const auto &dead : displacedScratch_)
            removeLive(dead);
        addLive(stream.writePtr, lba, take);

        out.push(Segment{SectorExtent{lba, take}, stream.writePtr,
                         true});
        if (journal_ != nullptr)
            journalScratch_.push_back({lba, stream.writePtr, take});
        stream.writePtr += take;
        lba += take;
        count -= take;
    }
    // One epoch per append (host write or cleaning re-append); the
    // post-op write pointer and open segment ride along so mount
    // never re-derives free-segment arithmetic. The owning stream
    // travels in the aux high half.
    if (journal_ != nullptr)
        journal_->record(JournalRecordKind::Placement,
                         stream.writePtr,
                         packAux(stream.openSegment, sid),
                         journalScratch_);
}

void
FiniteLogStructuredLayer::translateReadInto(
    const SectorExtent &extent, SegmentBuffer &out) const
{
    panicIf(extent.empty(), "FiniteLogStructuredLayer: empty read");
    map_.translateInto(extent, out);
}

void
FiniteLogStructuredLayer::placeWriteInto(const SectorExtent &extent,
                                         SegmentBuffer &out)
{
    panicIf(extent.empty(), "FiniteLogStructuredLayer: empty write");
    panicIf(extent.end() > logStart_,
            "FiniteLogStructuredLayer: workload LBA above the log "
            "start");
    out.clear();
    const std::uint32_t sid =
        router_ ? router_->route(extent.start, extent.count) : 0;
    append(extent.start, extent.count, out, sid);
}

void
FiniteLogStructuredLayer::relocateInto(const SectorExtent &extent,
                                       SegmentBuffer &out)
{
    panicIf(extent.empty(),
            "FiniteLogStructuredLayer: empty relocate");
    panicIf(extent.end() > logStart_,
            "FiniteLogStructuredLayer: workload LBA above the log "
            "start");
    out.clear();
    append(extent.start, extent.count, out, coldStream());
}

std::size_t
FiniteLogStructuredLayer::staticFragmentCount() const
{
    return map_.entryCount();
}

SectorCount
FiniteLogStructuredLayer::segmentLive(std::uint32_t i) const
{
    panicIf(i >= segments_.size(),
            "FiniteLogStructuredLayer: segment index out of range");
    return segments_[i].live;
}

const std::vector<MediaAccess> &
FiniteLogStructuredLayer::maintenance()
{
    accesses_.clear();
    // Hysteresis: cleaning starts when the reserve is reached and
    // runs until the target is restored.
    if (freeCount_ > config_.cleanReserveSegments)
        return accesses_;
    while (freeCount_ < config_.cleanTargetSegments) {
        const std::optional<std::uint32_t> selected =
            policy_->selectVictim(
                {segments_, segmentSectors_, tick_});
        if (!selected) {
            // All closed segments are fully live: compaction has
            // nothing to reclaim right now. That is fine as long
            // as we are above the reserve; below it the log is
            // genuinely overcommitted.
            if (freeCount_ > config_.cleanReserveSegments)
                break;
            fatal("finite log overcommitted: cleaning cannot "
                  "reclaim space (live data exceeds capacity "
                  "headroom)");
        }
        const std::uint32_t victim = *selected;
        const SectorCount victim_live = segments_[victim].live;
        gcVictimLiveBytes_ += sectorsToBytes(victim_live);
        gcVictimSpanBytes_ += sectorsToBytes(segmentSectors_);
        gcReclaims_->add();
        gcMovedBytes_->add(sectorsToBytes(victim_live));
        gcVictimUtilization_->record(victim_live * 100 /
                                     segmentSectors_);

        // Move the victim's live extents to the frontier.
        const SectorExtent victim_extent{segmentStart(victim),
                                         segmentSectors_};
        victimScratch_.assign(reverse_[victim].begin(),
                              reverse_[victim].end());

        // Zone-granular policies stream the whole victim zone in
        // one sequential read (a single seek) instead of seeking
        // to each live extent individually.
        const bool whole_zone = policy_->wholeZoneRead();
        if (whole_zone && victim_live > 0) {
            accesses_.push_back(
                {victim_extent, trace::IoType::Read});
        }

        for (const ReverseEntry &entry : victimScratch_) {
            // The entry may have been displaced by an earlier
            // rewrite in this same pass; re-check residency.
            if (!reverseHas(victim, entry.pba))
                continue;
            if (!whole_zone) {
                accesses_.push_back(
                    {SectorExtent{entry.pba, entry.count},
                     trace::IoType::Read});
            }
            cleanScratch_.clear();
            append(entry.lba, entry.count, cleanScratch_,
                   coldStream());
            for (const Segment &segment : cleanScratch_) {
                accesses_.push_back({segment.physical(),
                                     trace::IoType::Write});
            }
        }
        panicIf(segments_[victim].live != 0,
                "FiniteLogStructuredLayer: victim still live after "
                "cleaning");
        segments_[victim].free = true;
        ++freeCount_;
        ++cleanings_;
        if (journal_ != nullptr) {
            // Cleaning re-appends went to the cold stream; record
            // its frontier (logStart_ sentinel while unopened, i.e.
            // the victim was fully dead and nothing moved).
            const StreamState &cold = streams_[coldStream()];
            journal_->record(JournalRecordKind::SegmentReset,
                             cold.opened ? cold.writePtr
                                         : logStart_,
                             packAux(victim, coldStream()), {});
        }
    }
    return accesses_;
}

MountStats
FiniteLogStructuredLayer::mountFromJournal(
    const SegmentJournal &journal)
{
    const telemetry::ScopedTimer timer(
        &telemetry::Registry::global().histogram(
            "mount_latency_ns"));
    panicIf(!map_.empty() || tick_ != 0,
            "FiniteLogStructuredLayer: mount on a non-fresh layer");
    const JournalScan scan = scanJournal(journal.image());
    for (const JournalRecord &record : scan.records) {
        switch (record.kind) {
        case JournalRecordKind::Placement: {
            ++tick_;
            for (const JournalEntry &entry : record.entries) {
                displacedScratch_.clear();
                map_.mapRange(entry.lba, entry.pba, entry.count,
                              &displacedScratch_);
                for (const auto &dead : displacedScratch_)
                    removeLive(dead);
                addLive(entry.pba, entry.lba, entry.count);
            }
            const auto open =
                static_cast<std::uint32_t>(record.aux);
            const auto sid =
                static_cast<std::uint32_t>(record.aux >> 32);
            panicIf(sid >= streams_.size(),
                    "FiniteLogStructuredLayer: journal references "
                    "a stream beyond the configuration");
            panicIf(open >= segments_.size(),
                    "FiniteLogStructuredLayer: journal opens a "
                    "segment beyond the log");
            claimSegment(open);
            setStream(sid, open, record.frontierAfter);
            break;
        }
        case JournalRecordKind::SegmentReset: {
            const auto victim =
                static_cast<std::uint32_t>(record.aux);
            const auto sid =
                static_cast<std::uint32_t>(record.aux >> 32);
            panicIf(victim >= segments_.size(),
                    "FiniteLogStructuredLayer: journal reclaims a "
                    "segment beyond the log");
            panicIf(sid >= streams_.size(),
                    "FiniteLogStructuredLayer: journal reset "
                    "references a stream beyond the configuration");
            panicIf(segments_[victim].live != 0,
                    "FiniteLogStructuredLayer: journal reclaims a "
                    "live segment");
            if (!segments_[victim].free) {
                segments_[victim].free = true;
                ++freeCount_;
            }
            // The reset's frontier belongs to the cleaning stream;
            // a logStart_ record while the stream is still closed
            // means the victim was fully dead and nothing moved.
            if (streams_[sid].opened)
                streams_[sid].writePtr = record.frontierAfter;
            ++cleanings_;
            break;
        }
        case JournalRecordKind::MergeReset:
            fatal("FiniteLogStructuredLayer: foreign record kind "
                  "in journal");
        }
    }
    return mountStatsFrom(scan);
}

} // namespace logseek::stl
