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
#include <map>
#include <memory>
#include <optional>
#include <utility>
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
class FiniteLogStructuredLayer : public TranslationLayer,
                                 public gc::SegmentStateView
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
     * bookkeeping as live appends (forward map, reverse map,
     * per-segment liveness, free flags) and SegmentReset epochs as
     * victim reclaims, then adopts each stream's recorded write
     * pointer and open segment (the owning stream rides in the aux
     * word's high half). A crash between a cleaning pass's
     * re-appends and its SegmentReset recovers to a consistent
     * mid-clean state: the moved extents are live at their new home
     * and the victim is simply not yet free.
     */
    MountStats
    mountFromJournal(const SegmentJournal &journal) override;

    /**
     * Garbage collection: runs while the policy's hysteresis says
     * to (by default, free segments at or below the reserve until
     * the target is restored), returning the cleaning
     * reads/rewrites. fatal() if the log is overcommitted (no
     * cleanable victim can make progress).
     */
    std::vector<MediaAccess> maintenance() override;

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

    /** Number of segments currently free. */
    std::uint32_t freeSegments() const;

    /** Total segments in the log region. */
    std::uint32_t segmentCount() const override
    {
        return static_cast<std::uint32_t>(segments_.size());
    }

    /** Sectors per segment. */
    SectorCount segmentSectors() const override
    {
        return segmentSectors_;
    }

    /** True when segment i is on the free list. */
    bool
    segmentFree(std::uint32_t i) const override
    {
        return segments_[i].free;
    }

    /** Live (mapped) sectors in the log. */
    SectorCount liveSectors() const { return map_.mappedSectors(); }

    /** Live sectors in segment i (tests/diagnostics). */
    SectorCount segmentLive(std::uint32_t i) const override;

    /** True when segment i is some stream's open segment. */
    bool segmentOpen(std::uint32_t i) const override;

    /** Logical tick of the last write into segment i. */
    std::uint64_t
    segmentLastWrite(std::uint32_t i) const override
    {
        return segments_[i].lastWrite;
    }

    /** Current logical tick (one per append). */
    std::uint64_t now() const override { return tick_; }

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

    /** Reverse map (read-only; Fsck and diagnostics). */
    const std::map<Pba, std::pair<Lba, SectorCount>> &
    reverseMap() const
    {
        return reverse_;
    }

  private:
    struct SegmentState
    {
        SectorCount live = 0;
        bool free = true;

        /** Logical tick of the last write (0 = never written). */
        std::uint64_t lastWrite = 0;
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

    /** Adjust per-segment liveness for a physical range. */
    void adjustLive(const SectorExtent &range, bool add);

    /** Remove a physical range from the reverse (pba->lba) map. */
    void removeReverse(const SectorExtent &range);

    /** Open a free segment for stream sid; fatal if none. */
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
    std::vector<SegmentState> segments_;

    /** Forward map: lba -> log pba. */
    ExtentMap map_;

    /** Reverse map: log pba -> (lba, count); entries disjoint. */
    std::map<Pba, std::pair<Lba, SectorCount>> reverse_;

    std::vector<StreamState> streams_;
    std::uint64_t cleanings_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t gcVictimLiveBytes_ = 0;
    std::uint64_t gcVictimSpanBytes_ = 0;

    /** Victim selector + hysteresis; never null. */
    std::unique_ptr<gc::CleaningPolicy> policy_;

    /** Host-write classifier; engaged only when streams > 1. */
    std::optional<gc::StreamRouter> router_;

    /** Reusable scratches: displaced ranges from mapRange and the
     *  per-entry placements during cleaning. clear() keeps their
     *  capacity, so steady-state appends do not allocate. */
    std::vector<SectorExtent> displacedScratch_;
    SegmentBuffer cleanScratch_;

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
