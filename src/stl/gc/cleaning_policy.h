/**
 * @file
 * Pluggable garbage-collection policies for the finite log.
 *
 * The finite log's cleaner has two decisions: *when* to clean
 * (fixed trigger/target hysteresis over the free-segment count,
 * owned by the layer) and *which* closed segment to reclaim. The
 * second lives behind CleaningPolicy so the layer's mechanics —
 * moving live extents to the frontier, journaling the reclaim,
 * liveness bookkeeping — stay in one place while the selection
 * economics vary:
 *
 *  - greedy: the segment with the least live data, the layer's
 *    historical behaviour, pinned byte-identical by a differential
 *    regression test against the preserved reference cleaner;
 *  - cost-benefit: Sprite-LFS scoring age x (1-u)/(1+u), which
 *    prefers stable ("cold") fragmented segments over just-filled
 *    ones and lowers write amplification under hot/cold skew;
 *  - zone-granular: SMORE-style whole-zone reclamation that streams
 *    the victim zone in one sequential read (one seek instead of
 *    one per live extent), rewrites the live data at the frontier
 *    and resets the zone.
 *
 * Policies are pure selectors over a read-only SegmentStateView, a
 * plain span of per-segment summaries; they mutate nothing and draw
 * no entropy, so every replay remains byte-identical across jobs
 * and checkpoint/resume.
 */

#ifndef LOGSEEK_STL_GC_CLEANING_POLICY_H
#define LOGSEEK_STL_GC_CLEANING_POLICY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "stl/gc/stream_router.h"
#include "util/units.h"

namespace logseek::stl::gc
{

/** Victim-selection strategy of the finite log's cleaner. */
enum class CleaningPolicyKind
{
    Greedy,
    CostBenefit,
    ZoneGranular,
};

/** Stable lowercase policy name ("greedy", "cost-benefit", ...). */
const char *toString(CleaningPolicyKind kind);

/** GC configuration carried inside FiniteLogConfig. */
struct GcConfig
{
    CleaningPolicyKind policy = CleaningPolicyKind::Greedy;

    /** Placement streams (1 = legacy single-frontier log; 2 =
     *  hot/cold separation). Each stream fills its own open
     *  segment; cleaning re-appends go to the coldest stream. */
    std::uint32_t streams = 1;

    /** Block-invalidation-time inference knobs (streams > 1). */
    StreamRouterConfig router;
};

/** One segment's state as the cleaning policies see it. */
struct SegmentSummary
{
    /** Live (mapped) sectors in the segment. */
    SectorCount live = 0;

    /** Logical tick of the last write (0 = never written). */
    std::uint64_t lastWrite = 0;

    /** On the free list. */
    bool free = true;

    /** Some stream's open segment (never a victim). */
    bool open = false;
};

/**
 * Read-only view of the log's per-segment state a policy selects
 * victims from: the segments in index order plus the segment size
 * and the current logical tick. Ticks are a logical clock advanced
 * once per append, giving age without wall time.
 */
struct SegmentStateView
{
    std::span<const SegmentSummary> segments;
    SectorCount segmentSectors = 0;
    std::uint64_t now = 0;
};

/** The victim-selection interface. */
class CleaningPolicy
{
  public:
    virtual ~CleaningPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Pick the next victim, or nullopt when no closed segment can
     * make progress (everything is fully live). The caller decides
     * whether nullopt is benign (above the reserve) or overcommit.
     */
    virtual std::optional<std::uint32_t>
    selectVictim(const SegmentStateView &view) const = 0;

    /**
     * True when reclamation streams the whole victim zone as one
     * sequential read instead of seeking to each live extent.
     */
    virtual bool wholeZoneRead() const { return false; }
};

/** Policy factory; never returns null. */
std::unique_ptr<CleaningPolicy>
makeCleaningPolicy(CleaningPolicyKind kind);

} // namespace logseek::stl::gc

#endif // LOGSEEK_STL_GC_CLEANING_POLICY_H
