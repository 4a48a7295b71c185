#include "reference_finite_log.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace logseek::stl::testing
{

ReferenceFiniteLog::ReferenceFiniteLog(
    Pba identity_end, const FiniteLogConfig &config)
    : config_(config), logStart_(identity_end),
      segmentSectors_(bytesToSectors(config.segmentBytes)),
      writePtr_(identity_end)
{
    panicIf(segmentSectors_ == 0,
            "ReferenceFiniteLog: segment size must be at least one "
            "sector");
    const SectorCount capacity =
        bytesToSectors(config.capacityBytes);
    const std::uint64_t count = capacity / segmentSectors_;
    panicIf(count < 2,
            "ReferenceFiniteLog: need at least two segments");
    panicIf(config.cleanTargetSegments <=
                config.cleanReserveSegments,
            "ReferenceFiniteLog: clean target must exceed the "
            "reserve");
    panicIf(config.cleanTargetSegments >= count,
            "ReferenceFiniteLog: clean target must be below the "
            "segment count");
    segments_.resize(count);
    segments_[0].free = false; // the initial open segment
}

std::uint32_t
ReferenceFiniteLog::segmentOf(Pba pba) const
{
    panicIf(pba < logStart_,
            "ReferenceFiniteLog: sector below the log");
    const auto index =
        static_cast<std::uint32_t>((pba - logStart_) /
                                   segmentSectors_);
    panicIf(index >= segments_.size(),
            "ReferenceFiniteLog: sector beyond the log");
    return index;
}

void
ReferenceFiniteLog::adjustLive(const SectorExtent &range, bool add)
{
    Pba cursor = range.start;
    while (cursor < range.end()) {
        const std::uint32_t seg = segmentOf(cursor);
        const Pba seg_end =
            logStart_ + (seg + 1ULL) * segmentSectors_;
        const SectorCount piece =
            std::min<SectorCount>(range.end(), seg_end) - cursor;
        SegmentState &state = segments_[seg];
        if (add) {
            state.live += piece;
        } else {
            panicIf(state.live < piece,
                    "ReferenceFiniteLog: liveness underflow");
            state.live -= piece;
        }
        cursor += piece;
    }
}

void
ReferenceFiniteLog::removeReverse(const SectorExtent &range)
{
    auto it = reverse_.upper_bound(range.start);
    if (it != reverse_.begin())
        --it;
    while (it != reverse_.end() && it->first < range.end()) {
        const SectorExtent entry{it->first, it->second.second};
        const Lba entry_lba = it->second.first;
        auto next = std::next(it);
        const auto overlap = intersect(entry, range);
        if (overlap) {
            reverse_.erase(it);
            if (entry.start < overlap->start) {
                reverse_.emplace(
                    entry.start,
                    std::make_pair(entry_lba,
                                   overlap->start - entry.start));
            }
            if (overlap->end() < entry.end()) {
                reverse_.emplace(
                    overlap->end(),
                    std::make_pair(entry_lba +
                                       (overlap->end() - entry.start),
                                   entry.end() - overlap->end()));
            }
        }
        it = next;
    }
}

void
ReferenceFiniteLog::openFreeSegment()
{
    for (std::uint32_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i].free) {
            segments_[i].free = false;
            openSegment_ = i;
            writePtr_ = logStart_ + static_cast<Pba>(i) *
                                        segmentSectors_;
            return;
        }
    }
    fatal("reference finite log out of space: no free segment to "
          "open");
}

void
ReferenceFiniteLog::append(Lba lba, SectorCount count,
                           SegmentBuffer &out)
{
    while (count > 0) {
        const Pba open_end =
            logStart_ +
            (static_cast<Pba>(openSegment_) + 1) * segmentSectors_;
        if (writePtr_ == open_end)
            openFreeSegment();
        const Pba open_limit =
            logStart_ +
            (static_cast<Pba>(openSegment_) + 1) * segmentSectors_;
        const SectorCount take =
            std::min<SectorCount>(count, open_limit - writePtr_);

        displacedScratch_.clear();
        map_.mapRange(lba, writePtr_, take, &displacedScratch_);
        for (const auto &dead : displacedScratch_) {
            adjustLive(dead, false);
            removeReverse(dead);
        }
        reverse_.emplace(writePtr_, std::make_pair(lba, take));
        adjustLive({writePtr_, take}, true);

        out.push(Segment{SectorExtent{lba, take}, writePtr_, true});
        writePtr_ += take;
        lba += take;
        count -= take;
    }
}

std::vector<Segment>
ReferenceFiniteLog::placeWrite(const SectorExtent &extent)
{
    panicIf(extent.empty(), "ReferenceFiniteLog: empty write");
    panicIf(extent.end() > logStart_,
            "ReferenceFiniteLog: workload LBA above the log start");
    SegmentBuffer out;
    append(extent.start, extent.count, out);
    return std::move(out).take();
}

std::vector<Segment>
ReferenceFiniteLog::translateRead(const SectorExtent &extent) const
{
    panicIf(extent.empty(), "ReferenceFiniteLog: empty read");
    return map_.translate(extent);
}

std::uint32_t
ReferenceFiniteLog::freeSegments() const
{
    std::uint32_t count = 0;
    for (const auto &segment : segments_) {
        if (segment.free)
            ++count;
    }
    return count;
}

std::vector<MediaAccess>
ReferenceFiniteLog::maintenance()
{
    std::vector<MediaAccess> accesses;
    if (freeSegments() > config_.cleanReserveSegments)
        return accesses;
    while (freeSegments() < config_.cleanTargetSegments) {
        std::uint32_t victim = 0;
        SectorCount best = std::numeric_limits<SectorCount>::max();
        bool found = false;
        for (std::uint32_t i = 0; i < segments_.size(); ++i) {
            if (segments_[i].free || i == openSegment_)
                continue;
            if (segments_[i].live < best) {
                best = segments_[i].live;
                victim = i;
                found = true;
            }
        }
        if (!found || best >= segmentSectors_) {
            if (freeSegments() > config_.cleanReserveSegments)
                break;
            fatal("reference finite log overcommitted");
        }

        const Pba victim_start =
            logStart_ + static_cast<Pba>(victim) * segmentSectors_;
        const SectorExtent victim_extent{victim_start,
                                         segmentSectors_};
        std::vector<std::pair<Pba, std::pair<Lba, SectorCount>>>
            live;
        for (auto it = reverse_.lower_bound(victim_start);
             it != reverse_.end() &&
             it->first < victim_extent.end();
             ++it) {
            live.emplace_back(*it);
        }

        for (const auto &[pba, entry] : live) {
            const auto &[lba, count] = entry;
            if (!reverse_.contains(pba))
                continue;
            accesses.push_back(
                {SectorExtent{pba, count}, trace::IoType::Read});
            cleanScratch_.clear();
            append(lba, count, cleanScratch_);
            for (const Segment &segment : cleanScratch_) {
                accesses.push_back({segment.physical(),
                                    trace::IoType::Write});
            }
        }
        panicIf(segments_[victim].live != 0,
                "ReferenceFiniteLog: victim still live after "
                "cleaning");
        segments_[victim].free = true;
        ++cleanings_;
    }
    return accesses;
}

} // namespace logseek::stl::testing
