#include "cleaning_policy.h"

#include "util/logging.h"

namespace logseek::stl::gc
{

const char *
toString(CleaningPolicyKind kind)
{
    switch (kind) {
    case CleaningPolicyKind::Greedy:
        return "greedy";
    case CleaningPolicyKind::CostBenefit:
        return "cost-benefit";
    case CleaningPolicyKind::ZoneGranular:
        return "zone-granular";
    }
    fatal("toString: unknown cleaning policy kind");
}

namespace
{

/**
 * Historical behaviour of FiniteLogStructuredLayer: the closed
 * segment with the least live data, lowest index breaking ties, and
 * nullopt once even the best candidate is fully live. The loop shape
 * (strict <, full-live sentinel) is pinned by a differential test
 * against ReferenceFiniteLog — change nothing here without updating
 * that pin.
 */
class GreedyPolicy final : public CleaningPolicy
{
  public:
    const char *name() const override { return "greedy"; }

    std::optional<std::uint32_t>
    selectVictim(const SegmentStateView &view) const override
    {
        std::uint32_t victim = 0;
        SectorCount best = view.segmentSectors;
        bool found = false;
        for (std::uint32_t i = 0; i < view.segments.size(); ++i) {
            const SegmentSummary &segment = view.segments[i];
            if (segment.free || segment.open)
                continue;
            if (segment.live < best) {
                best = segment.live;
                victim = i;
                found = true;
            }
        }
        if (!found || best >= view.segmentSectors)
            return std::nullopt;
        return victim;
    }
};

/**
 * Sprite-LFS cost-benefit cleaning: score each closed segment by
 * age x (1 - u) / (1 + u), where u is the live fraction and age the
 * logical ticks since the segment's last write. Unlike greedy this
 * will reclaim a moderately utilized segment that has been stable
 * for a long time in preference to a just-written emptier one — the
 * stable one's survivors are likely cold and won't be moved again,
 * which is what lowers write amplification under hot/cold skew.
 *
 * Scoring is pure 64-bit integer arithmetic: benefit/cost =
 * age * (S - live) / (S + live) compared cross-multiplied so no
 * division rounding enters the victim choice.
 */
class CostBenefitPolicy final : public CleaningPolicy
{
  public:
    const char *name() const override { return "cost-benefit"; }

    std::optional<std::uint32_t>
    selectVictim(const SegmentStateView &view) const override
    {
        const SectorCount sectors = view.segmentSectors;
        const std::uint64_t now = view.now;
        std::uint32_t victim = 0;
        // Score numerator/denominator of the current best; compare
        // candidates by cross-multiplication to stay exact.
        unsigned __int128 best_num = 0;
        std::uint64_t best_den = 1;
        bool found = false;
        for (std::uint32_t i = 0; i < view.segments.size(); ++i) {
            const SegmentSummary &segment = view.segments[i];
            if (segment.free || segment.open)
                continue;
            const SectorCount live = segment.live;
            if (live >= sectors)
                continue; // fully live: reclaiming frees nothing
            const std::uint64_t age = now - segment.lastWrite + 1;
            const unsigned __int128 num =
                static_cast<unsigned __int128>(age) *
                (sectors - live);
            const std::uint64_t den = sectors + live;
            // num/den > best_num/best_den, lowest index on ties.
            if (!found || num * best_den > best_num * den) {
                best_num = num;
                best_den = den;
                victim = i;
                found = true;
            }
        }
        if (!found)
            return std::nullopt;
        return victim;
    }
};

/**
 * SMORE-style zone-granular reclamation. Victim choice is greedy
 * over whole zones (segments are zone-sized in the finite log), but
 * the reclaim I/O pattern differs: the whole victim zone is streamed
 * in one sequential read — one seek — rather than seeking to each
 * live extent, then the survivors are rewritten at the frontier and
 * the zone is RESET. Ties on live data break toward the older zone,
 * then the lower index, mirroring SMORE's preference for stable
 * zones.
 */
class ZoneGranularPolicy final : public CleaningPolicy
{
  public:
    const char *name() const override { return "zone-granular"; }

    std::optional<std::uint32_t>
    selectVictim(const SegmentStateView &view) const override
    {
        std::uint32_t victim = 0;
        SectorCount best = view.segmentSectors;
        std::uint64_t best_age = 0;
        bool found = false;
        for (std::uint32_t i = 0; i < view.segments.size(); ++i) {
            const SegmentSummary &segment = view.segments[i];
            if (segment.free || segment.open)
                continue;
            const SectorCount live = segment.live;
            if (live >= view.segmentSectors)
                continue;
            const std::uint64_t age = view.now - segment.lastWrite;
            if (!found || live < best ||
                (live == best && age > best_age)) {
                best = live;
                best_age = age;
                victim = i;
                found = true;
            }
        }
        if (!found)
            return std::nullopt;
        return victim;
    }

    bool wholeZoneRead() const override { return true; }
};

} // namespace

std::unique_ptr<CleaningPolicy>
makeCleaningPolicy(CleaningPolicyKind kind)
{
    switch (kind) {
    case CleaningPolicyKind::Greedy:
        return std::make_unique<GreedyPolicy>();
    case CleaningPolicyKind::CostBenefit:
        return std::make_unique<CostBenefitPolicy>();
    case CleaningPolicyKind::ZoneGranular:
        return std::make_unique<ZoneGranularPolicy>();
    }
    fatal("makeCleaningPolicy: unknown cleaning policy kind");
}

} // namespace logseek::stl::gc
