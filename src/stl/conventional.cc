#include "conventional.h"

#include "util/logging.h"

namespace logseek::stl
{

void
ConventionalLayer::translateReadInto(const SectorExtent &extent,
                                     SegmentBuffer &out) const
{
    panicIf(extent.empty(), "ConventionalLayer: empty read");
    out.clear();
    out.push(Segment{extent, extent.start, true});
}

void
ConventionalLayer::placeWriteInto(const SectorExtent &extent,
                                  SegmentBuffer &out)
{
    panicIf(extent.empty(), "ConventionalLayer: empty write");
    out.clear();
    out.push(Segment{extent, extent.start, true});
}

} // namespace logseek::stl
