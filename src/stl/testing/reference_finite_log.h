/**
 * @file
 * The pre-policy-refactor finite log, preserved verbatim as a
 * differential oracle.
 *
 * This is the historical FiniteLogStructuredLayer with its greedy
 * cleaning loop hardcoded inline — exactly the behaviour the
 * pluggable-policy layer must reproduce when configured with the
 * defaults (greedy policy, one placement stream). The journal and
 * telemetry hooks are stripped (they do not affect placement or
 * cleaning traffic); everything that decides *where data goes* and
 * *what cleaning reads/writes* is kept byte-for-byte.
 *
 * GcPolicy differential tests replay randomized workloads through
 * both layers and require identical placements, cleaning accesses,
 * maps and segment states. Its map is the std::map
 * ReferenceExtentMap, so the comparison shares no code with the
 * optimised ExtentMap either. Do not modernize this file — its
 * value is that it does not change.
 */

#ifndef LOGSEEK_STL_TESTING_REFERENCE_FINITE_LOG_H
#define LOGSEEK_STL_TESTING_REFERENCE_FINITE_LOG_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "stl/extent_map.h"
#include "stl/finite_log.h"
#include "stl/testing/reference_extent_map.h"
#include "stl/translation_layer.h"

namespace logseek::stl::testing
{

/** The historical greedy finite log (no journal, no telemetry). */
class ReferenceFiniteLog
{
  public:
    ReferenceFiniteLog(Pba identity_end,
                       const FiniteLogConfig &config = {});

    /** Place one host write; returns the placed segments. */
    std::vector<Segment> placeWrite(const SectorExtent &extent);

    /** Translate one host read. */
    std::vector<Segment>
    translateRead(const SectorExtent &extent) const;

    /** Greedy cleaning with the historical hysteresis. */
    std::vector<MediaAccess> maintenance();

    std::uint64_t cleanings() const { return cleanings_; }
    std::uint32_t freeSegments() const;
    Pba writePointer() const { return writePtr_; }
    std::uint32_t openSegment() const { return openSegment_; }
    SectorCount segmentLive(std::uint32_t i) const
    {
        return segments_[i].live;
    }
    bool segmentFree(std::uint32_t i) const
    {
        return segments_[i].free;
    }
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
    };

    std::uint32_t segmentOf(Pba pba) const;
    void adjustLive(const SectorExtent &range, bool add);
    void removeReverse(const SectorExtent &range);
    void openFreeSegment();
    void append(Lba lba, SectorCount count, SegmentBuffer &out);

    FiniteLogConfig config_;
    Pba logStart_;
    SectorCount segmentSectors_;
    std::vector<SegmentState> segments_;
    ReferenceExtentMap map_;
    std::map<Pba, std::pair<Lba, SectorCount>> reverse_;
    std::uint32_t openSegment_ = 0;
    Pba writePtr_;
    std::uint64_t cleanings_ = 0;
    std::vector<SectorExtent> displacedScratch_;
    SegmentBuffer cleanScratch_;
};

} // namespace logseek::stl::testing

#endif // LOGSEEK_STL_TESTING_REFERENCE_FINITE_LOG_H
