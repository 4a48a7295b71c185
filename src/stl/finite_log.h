/**
 * @file
 * Finite-capacity log-structured translation layer with pluggable
 * garbage collection and multi-stream placement.
 *
 * The paper's model assumes an infinite disk — fair for archival
 * systems that never overwrite — but §I and §IV-A note that on a
 * finite device the log must clean, and that opportunistic
 * defragmentation's "use of free space will eventually necessitate
 * running the cleaning algorithm with its attendant overheads."
 * This layer makes that cost measurable: the log lives in a fixed
 * physical region divided into segments; writes fill each placement
 * stream's open segment; when free segments run low, the configured
 * CleaningPolicy picks victims whose live extents are read and
 * rewritten at the coldest stream's frontier (all visible to the
 * simulator as cleaning traffic via maintenance()).
 *
 * With gc.streams == 1 and the greedy policy (the defaults) the
 * layer is byte-identical to its historical single-frontier form:
 * same placements, same journal image, same cleaning traffic —
 * pinned by a differential test against ReferenceFiniteLog.
 */

#ifndef LOGSEEK_STL_FINITE_LOG_H
#define LOGSEEK_STL_FINITE_LOG_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "stl/extent_map.h"
#include "stl/gc/cleaning_policy.h"
#include "stl/translation_layer.h"
#include "telemetry/metrics.h"

namespace logseek::stl
{

/** Configuration of the finite log. */
struct FiniteLogConfig
{
    /** Physical capacity of the log region in bytes. */
    std::uint64_t capacityBytes = 256 * kMiB;

    /** Cleaning granularity (segment size) in bytes. */
    std::uint64_t segmentBytes = 8 * kMiB;

    /** Start cleaning when free segments drop to this count. */
    std::uint32_t cleanReserveSegments = 2;

    /** Clean until at least this many segments are free. */
    std::uint32_t cleanTargetSegments = 4;

    /** Cleaning policy and placement-stream configuration. */
    gc::GcConfig gc;
};

/**
 * Segmented log with pluggable victim selection. Identity-placed
 * data (never written during the run) lives below the log region
 * and is never cleaned, matching the paper's placement for data
 * written before trace collection began.
 */
class FiniteLogStructuredLayer : public TranslationLayer
{
  public:
    /**
     * @param identity_end One past the highest workload LBA; the
     *        log region begins here.
     * @param config Capacity, segment size and cleaning policy.
     */
    FiniteLogStructuredLayer(Pba identity_end,
                             const FiniteLogConfig &config = {});

    void translateReadInto(const SectorExtent &extent,
                           SegmentBuffer &out) const override;

    void placeWriteInto(const SectorExtent &extent,
                        SegmentBuffer &out) override;

    bool hasMaintenance() const override { return true; }

    std::size_t staticFragmentCount() const override;

    std::string name() const override { return "finite-log"; }

    void attachJournal(SegmentJournal *journal) override
    {
        journal_ = journal;
    }

    /**
     * Replays Placement epochs through the same displaced-range
     * bookkeeping as live appends (forward map, reverse index,
     * per-segment liveness, free and open flags) and SegmentReset
     * epochs as victim reclaims, then adopts each stream's recorded
     * write pointer and open segment (the owning stream rides in
     * the aux word's high half). A crash between a cleaning pass's
     * re-appends and its SegmentReset recovers to a consistent
     * mid-clean state: the moved extents are live at their new home
     * and the victim is simply not yet free.
     */
    MountStats
    mountFromJournal(const SegmentJournal &journal) override;

    /**
     * Garbage collection: once the free segments fall to the
     * reserve, reclaims the policy's victims until the target is
     * restored, returning the cleaning reads/rewrites (valid until
     * the next call). fatal() if the log is overcommitted (no
     * cleanable victim can make progress).
     */
    const std::vector<MediaAccess> &maintenance() override;

    /** Defragmentation support: rewrite a range at the frontier. */
    std::vector<Segment>
    relocate(const SectorExtent &extent)
    {
        SegmentBuffer buffer;
        relocateInto(extent, buffer);
        return {buffer.begin(), buffer.end()};
    }

    /**
     * Allocation-free relocate for the replay hot path. Relocations
     * move already-written (hence presumed cold) data, so they go
     * to the coldest stream and bypass the router's interval
     * inference — a defrag rewrite is not evidence the data is hot.
     */
    void relocateInto(const SectorExtent &extent, SegmentBuffer &out);

    /** First physical sector of the log region. */
    Pba logStart() const { return logStart_; }

    /** Number of cleaning segment reclaims so far. */
    std::uint64_t cleanings() const { return cleanings_; }

    /** Live bytes moved out of GC victims so far. */
    std::uint64_t gcVictimLiveBytes() const
    {
        return gcVictimLiveBytes_;
    }

    /** Total bytes spanned by GC victims so far. */
    std::uint64_t gcVictimSpanBytes() const
    {
        return gcVictimSpanBytes_;
    }

    /** Number of segments currently free (kept incrementally). */
    std::uint32_t freeSegments() const { return freeCount_; }

    /** Total segments in the log region. */
    std::uint32_t segmentCount() const
    {
        return static_cast<std::uint32_t>(segments_.size());
    }

    /** Sectors per segment. */
    SectorCount segmentSectors() const { return segmentSectors_; }

    /** True when segment i is on the free list. */
    bool segmentFree(std::uint32_t i) const
    {
        return segments_[i].free;
    }

    /** Live (mapped) sectors in the log. */
    SectorCount liveSectors() const { return map_.mappedSectors(); }

    /** Live sectors in segment i (tests/diagnostics). */
    SectorCount segmentLive(std::uint32_t i) const;

    /** True when segment i is flagged as some stream's open one. */
    bool segmentOpen(std::uint32_t i) const
    {
        return segments_[i].open;
    }

    /** Logical tick of the last write into segment i. */
    std::uint64_t segmentLastWrite(std::uint32_t i) const
    {
        return segments_[i].lastWrite;
    }

    /** Current logical tick (one per append). */
    std::uint64_t now() const { return tick_; }

    /** The active cleaning policy. */
    const gc::CleaningPolicy &policy() const { return *policy_; }

    /** Number of placement streams. */
    std::uint32_t
    streamCount() const
    {
        return static_cast<std::uint32_t>(streams_.size());
    }

    /** True when stream sid has opened a segment. */
    bool
    streamOpened(std::uint32_t sid) const
    {
        return streams_[sid].opened;
    }

    /** Open segment of stream sid (meaningful when opened). */
    std::uint32_t
    streamOpenSegment(std::uint32_t sid) const
    {
        return streams_[sid].openSegment;
    }

    /** Write pointer of stream sid (meaningful when opened). */
    Pba
    streamWritePointer(std::uint32_t sid) const
    {
        return streams_[sid].writePtr;
    }

    /** Index of the currently open segment (stream 0). */
    std::uint32_t openSegment() const
    {
        return streams_[0].openSegment;
    }

    /** Physical sector stream 0's next append will start at. */
    Pba writePointer() const { return streams_[0].writePtr; }

    /** Forward map (read-only; Fsck and diagnostics). */
    const ExtentMap &extentMap() const { return map_; }

    /**
     * Visit every reverse (pba -> lba) entry in ascending pba order
     * as fn(pba, lba, count) (Fsck and diagnostics).
     */
    template <typename Fn>
    void
    forEachReverse(Fn &&fn) const
    {
        for (const auto &entries : reverse_)
            for (const ReverseEntry &entry : entries)
                fn(entry.pba, entry.lba, entry.count);
    }

  private:
    /** Lets Fsck tests seed counter drift the layer never makes. */
    friend struct FiniteLogTestPeer;

    /** One reverse-index entry: count sectors of lba live at pba. */
    struct ReverseEntry
    {
        Pba pba = 0;
        Lba lba = 0;
        SectorCount count = 0;
    };

    struct StreamState
    {
        std::uint32_t openSegment = 0;
        Pba writePtr = 0;

        /** False until the stream claims its first segment. */
        bool opened = false;
    };

    /** Stream cleaning re-appends and relocations land in. */
    std::uint32_t
    coldStream() const
    {
        return static_cast<std::uint32_t>(streams_.size()) - 1;
    }

    /** Segment index of a log sector. */
    std::uint32_t segmentOf(Pba pba) const;

    /** First sector of segment seg (seg == segmentCount() gives one
     *  past the log). */
    Pba
    segmentStart(std::uint64_t seg) const
    {
        return logStart_ + seg * segmentSectors_;
    }

    /**
     * count sectors of lba became live at pba: add them to the
     * reverse index (in pba order) and to the liveness of each
     * segment they cover, which leaves the free list and takes the
     * current tick as its last write.
     */
    void addLive(Pba pba, Lba lba, SectorCount count);

    /**
     * A physical range was displaced from the forward map: drop its
     * liveness and cut it out of the reverse index, segment by
     * segment, splitting or erasing entries in place.
     */
    void removeLive(const SectorExtent &range);

    /** True when segment seg holds a reverse entry keyed at pba. */
    bool reverseHas(std::uint32_t seg, Pba pba) const;

    /** Take segment i off the free list (no-op when not free). */
    void claimSegment(std::uint32_t i);

    /** Point stream sid at segment open, moving the open flag. */
    void setStream(std::uint32_t sid, std::uint32_t open, Pba ptr);

    /** Open the lowest-index free segment for stream sid; fatal if
     *  none. */
    void openFreeSegment(std::uint32_t sid);

    /**
     * Append count sectors of lba at stream sid's frontier,
     * updating both maps and liveness; pushes the placed segments
     * (split at segment boundaries) onto `out` without clearing it.
     * Does not run cleaning.
     */
    void append(Lba lba, SectorCount count, SegmentBuffer &out,
                std::uint32_t sid);

    FiniteLogConfig config_;
    Pba logStart_;
    SectorCount segmentSectors_;

    /** Per-segment state; also the policies' SegmentStateView. */
    std::vector<gc::SegmentSummary> segments_;

    /** Segments with free set, kept in step with segments_. */
    std::uint32_t freeCount_ = 0;

    /** Forward map: lba -> log pba. */
    ExtentMap map_;

    /**
     * Reverse index, one vector per segment: log pba -> (lba,
     * count), disjoint and sorted by pba. An entry never straddles
     * a segment, because append splits at segment ends.
     */
    std::vector<std::vector<ReverseEntry>> reverse_;

    std::vector<StreamState> streams_;
    std::uint64_t cleanings_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t gcVictimLiveBytes_ = 0;
    std::uint64_t gcVictimSpanBytes_ = 0;

    /** Victim selector; never null. */
    std::unique_ptr<gc::CleaningPolicy> policy_;

    /** Host-write classifier; engaged only when streams > 1. */
    std::optional<gc::StreamRouter> router_;

    /** Reusable scratches: displaced ranges from mapRange, the
     *  per-entry placements during cleaning, the victim's reverse
     *  entries and maintenance()'s accesses. clear() keeps their
     *  capacity, so steady-state appends and cleaning passes do not
     *  allocate. */
    std::vector<SectorExtent> displacedScratch_;
    SegmentBuffer cleanScratch_;
    std::vector<ReverseEntry> victimScratch_;
    std::vector<MediaAccess> accesses_;

    /** Durable metadata journal; null = volatile (the default). */
    SegmentJournal *journal_ = nullptr;

    /** Reusable per-op entry scratch for journal records. */
    std::vector<JournalEntry> journalScratch_;

    /** Constructor-resolved gc_* telemetry handles. */
    telemetry::Counter *gcReclaims_ = nullptr;
    telemetry::Counter *gcMovedBytes_ = nullptr;
    telemetry::LatencyHistogram *gcVictimUtilization_ = nullptr;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_FINITE_LOG_H
