/**
 * @file
 * Property-based tests for PbaRangeCache: random insert/contains
 * sequences validated against a brute-force per-sector reference
 * (coverage correctness) plus budget invariants.
 */

#include <gtest/gtest.h>

#include <set>

#include "disk/pba_cache.h"
#include "util/random.h"

namespace logseek::disk
{
namespace
{

struct FuzzParams
{
    std::uint64_t seed;
    EvictionPolicy policy;
    // gtest names each case after the raw bytes of its parameter, so
    // the four bytes after `policy` are a zeroed member rather than
    // padding: padding holds whatever the stack held and made the
    // case names differ from one build to the next.
    std::uint32_t zeroFill = 0;
    std::uint64_t capacitySectors; // 0 = unlimited-ish (huge)
};
static_assert(sizeof(FuzzParams) == 24);

class PbaCacheFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

TEST_P(PbaCacheFuzz, UnlimitedCacheMatchesSectorSetExactly)
{
    // Without evictions, contains() must agree with a plain set of
    // resident sectors.
    const FuzzParams params = GetParam();
    Rng rng(params.seed);
    PbaRangeCache cache(1ULL << 40, params.policy);
    std::set<std::uint64_t> resident;

    for (int op = 0; op < 2000; ++op) {
        const SectorCount count = 1 + rng.nextUint(16);
        const std::uint64_t start = rng.nextUint(512);
        const SectorExtent extent{start, count};
        if (rng.nextBool(0.5)) {
            cache.insert(extent);
            for (SectorCount i = 0; i < count; ++i)
                resident.insert(start + i);
        } else {
            bool expected = true;
            for (SectorCount i = 0; i < count; ++i) {
                if (!resident.contains(start + i)) {
                    expected = false;
                    break;
                }
            }
            ASSERT_EQ(cache.contains(extent), expected)
                << "op " << op << " extent [" << start << ","
                << extent.end() << ")";
        }
    }
    ASSERT_EQ(cache.usedBytes(),
              resident.size() * kSectorBytes);
}

TEST_P(PbaCacheFuzz, BudgetNeverExceeded)
{
    const FuzzParams params = GetParam();
    if (params.capacitySectors == 0)
        GTEST_SKIP() << "budget case only";
    Rng rng(params.seed ^ 0xabcdef);
    PbaRangeCache cache(params.capacitySectors * kSectorBytes,
                        params.policy);
    for (int op = 0; op < 5000; ++op) {
        const SectorCount count = 1 + rng.nextUint(32);
        const std::uint64_t start = rng.nextUint(1ULL << 30);
        if (rng.nextBool(0.7))
            cache.insert({start, count});
        else
            cache.contains({start, count});
        ASSERT_LE(cache.usedBytes(), cache.capacityBytes());
    }
}

TEST_P(PbaCacheFuzz, HitsOnlyReturnResidentData)
{
    // Under eviction pressure, a hit must still mean "every sector
    // was inserted at some point" — the cache can forget but never
    // invent coverage. Track all ever-inserted sectors as the
    // superset.
    const FuzzParams params = GetParam();
    if (params.capacitySectors == 0)
        GTEST_SKIP() << "budget case only";
    Rng rng(params.seed ^ 0x5555);
    PbaRangeCache cache(params.capacitySectors * kSectorBytes,
                        params.policy);
    std::set<std::uint64_t> ever;

    for (int op = 0; op < 3000; ++op) {
        const SectorCount count = 1 + rng.nextUint(8);
        const std::uint64_t start = rng.nextUint(4096);
        const SectorExtent extent{start, count};
        if (rng.nextBool(0.6)) {
            cache.insert(extent);
            for (SectorCount i = 0; i < count; ++i)
                ever.insert(start + i);
        } else if (cache.contains(extent)) {
            for (SectorCount i = 0; i < count; ++i)
                ASSERT_TRUE(ever.contains(start + i))
                    << "phantom sector " << start + i;
        }
    }
}

using enum EvictionPolicy;

INSTANTIATE_TEST_SUITE_P(
    Mixes, PbaCacheFuzz,
    ::testing::Values(
        FuzzParams{.seed = 1, .policy = Lru, .capacitySectors = 0},
        FuzzParams{.seed = 2, .policy = Fifo, .capacitySectors = 0},
        FuzzParams{.seed = 3, .policy = Lru, .capacitySectors = 64},
        FuzzParams{.seed = 4, .policy = Fifo, .capacitySectors = 64},
        FuzzParams{.seed = 5, .policy = Lru, .capacitySectors = 512},
        FuzzParams{.seed = 6, .policy = Fifo, .capacitySectors = 512},
        FuzzParams{.seed = 7, .policy = Lru, .capacitySectors = 7},
        FuzzParams{.seed = 8, .policy = Fifo, .capacitySectors = 7}));

} // namespace
} // namespace logseek::disk
