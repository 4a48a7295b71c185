/**
 * @file
 * Randomized differential test: the B+-tree ExtentMap against the
 * preserved std::map ReferenceExtentMap, over millions of mixed
 * mapRange/translate/fragmentCount operations.
 *
 * The reference is the seed implementation verbatim, so agreement
 * here pins the tree to the exact historical semantics: entry-for-
 * entry map state (coalescing), displaced-range reporting (order
 * and values), hole emission, and fragment counting. Workloads mix
 * sequential runs, random overwrites and wide rewrites so leaf
 * splits, cross-leaf merges, range erases spanning many leaves and
 * cursor hits/misses are all exercised.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stl/extent_map.h"
#include "stl/testing/reference_extent_map.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

struct FlatEntry
{
    Lba lba;
    Pba pba;
    SectorCount count;

    bool operator==(const FlatEntry &other) const = default;
};

template <typename Map>
std::vector<FlatEntry>
flatten(const Map &map)
{
    std::vector<FlatEntry> entries;
    entries.reserve(map.entryCount());
    map.forEachEntry([&](Lba lba, Pba pba, SectorCount count) {
        entries.push_back(FlatEntry{lba, pba, count});
    });
    return entries;
}

/**
 * The tree and the reference side by side; every write compares the
 * displaced pieces (values and order), the counters and the whole
 * entry list, then a read of the whole space.
 */
class Twin
{
  public:
    void
    map(Lba lba, Pba pba, SectorCount count)
    {
        std::vector<SectorExtent> tree_displaced;
        std::vector<SectorExtent> ref_displaced;
        tree_.mapRange(lba, pba, count, &tree_displaced);
        reference_.mapRange(lba, pba, count, &ref_displaced);
        ASSERT_EQ(tree_displaced, ref_displaced)
            << "write [" << lba << ", +" << count << ")";
        ASSERT_EQ(tree_.entryCount(), reference_.entryCount());
        ASSERT_EQ(tree_.mappedSectors(), reference_.mappedSectors());
        ASSERT_EQ(flatten(tree_), flatten(reference_))
            << "write [" << lba << ", +" << count << ")";
        const SectorExtent all{0, kSpace};
        ASSERT_EQ(tree_.translate(all), reference_.translate(all));
    }

    const ExtentMap &tree() const { return tree_; }

    static constexpr Lba kSpace = 1 << 16;

  private:
    ExtentMap tree_;
    testing::ReferenceExtentMap reference_;
};

/** Entry k of a gapped layout: [10k, 10k + 5) at a PBA far from
 *  every other entry's, so nothing coalesces. */
constexpr Pba
gappedPba(std::uint32_t k)
{
    return 1'000'000 + Pba{1000} * k;
}

void
fillGapped(Twin &twin, std::uint32_t entries)
{
    for (std::uint32_t k = 0; k < entries; ++k)
        ASSERT_NO_FATAL_FAILURE(twin.map(Lba{10} * k, gappedPba(k), 5));
}

TEST(ExtentMapOverwrite, WriteInsideOneEntrySplitsItInThree)
{
    Twin twin;
    ASSERT_NO_FATAL_FAILURE(twin.map(100, 5000, 100));
    ASSERT_NO_FATAL_FAILURE(twin.map(140, 9000, 20));
    EXPECT_EQ(twin.tree().entryCount(), 3u);
    // Writing the old placement back restores the single entry.
    ASSERT_NO_FATAL_FAILURE(twin.map(140, 5040, 20));
    EXPECT_EQ(twin.tree().entryCount(), 1u);
}

TEST(ExtentMapOverwrite, WritesIntoAFullLeaf)
{
    // 64 entries fill the root leaf exactly. Splitting each entry in
    // three adds two entries to a full leaf; splitting the last one
    // puts the tail in the leaf's last slot.
    for (std::uint32_t victim = 0; victim < 64; ++victim) {
        Twin twin;
        ASSERT_NO_FATAL_FAILURE(
            fillGapped(twin, ExtentMap::kNodeCapacity));
        ASSERT_NO_FATAL_FAILURE(
            twin.map(Lba{10} * victim + 1, 9'000'000, 2));
        ASSERT_EQ(twin.tree().entryCount(), 66u) << victim;
    }
    // One new entry in each gap of a full leaf.
    for (std::uint32_t gap = 0; gap <= 64; ++gap) {
        Twin twin;
        ASSERT_NO_FATAL_FAILURE(
            fillGapped(twin, ExtentMap::kNodeCapacity));
        ASSERT_NO_FATAL_FAILURE(
            twin.map(Lba{10} * gap + 6, 9'000'000, 3));
    }
}

TEST(ExtentMapOverwrite, WritesThatDrainWholeLeaves)
{
    // ~600 entries over a dozen leaves. Each wide write starts and
    // ends inside an entry (or a gap) and covers several leaves.
    for (Lba start : {Lba{0}, Lba{3}, Lba{7}, Lba{1234}, Lba{2001}}) {
        for (SectorCount count : {SectorCount{700}, SectorCount{1500},
                                  SectorCount{3333}}) {
            Twin twin;
            ASSERT_NO_FATAL_FAILURE(fillGapped(twin, 600));
            ASSERT_NO_FATAL_FAILURE(twin.map(start, 9'000'000, count));
            // A second wide write over the drained region and past
            // it, then one physically contiguous with the first.
            ASSERT_NO_FATAL_FAILURE(
                twin.map(start + count / 2, 8'000'000, count));
            ASSERT_NO_FATAL_FAILURE(twin.map(
                start + count / 2 - 5, 9'000'000 + count / 2 - 5, 5));
        }
    }
    // One write over everything, from before the first entry to
    // past the last, leaves a single entry.
    Twin twin;
    ASSERT_NO_FATAL_FAILURE(fillGapped(twin, 600));
    ASSERT_NO_FATAL_FAILURE(twin.map(0, 9'000'000, 7000));
    EXPECT_EQ(twin.tree().entryCount(), 1u);
}

TEST(ExtentMapOverwrite, MergesWithBothNeighboursAcrossLeaves)
{
    // Entries laid out so the gap between k and k + 1 maps exactly
    // between their PBAs: filling a gap merges both ways. Every gap
    // is tried, so every leaf boundary among them is crossed.
    constexpr std::uint32_t kEntries = 200;
    auto pba_of = [](Lba lba) { return 500'000 + lba; };
    for (std::uint32_t gap = 0; gap + 1 < kEntries; ++gap) {
        Twin twin;
        for (std::uint32_t k = 0; k < kEntries; ++k)
            ASSERT_NO_FATAL_FAILURE(
                twin.map(Lba{10} * k, pba_of(Lba{10} * k), 5));
        const Lba lba = Lba{10} * gap + 5;
        ASSERT_NO_FATAL_FAILURE(twin.map(lba, pba_of(lba), 5));
        ASSERT_EQ(twin.tree().entryCount(), kEntries - 1) << gap;
    }
    // Fill every gap, in a scattered order, down to one entry.
    Twin twin;
    for (std::uint32_t k = 0; k < kEntries; ++k)
        ASSERT_NO_FATAL_FAILURE(
            twin.map(Lba{10} * k, pba_of(Lba{10} * k), 5));
    for (std::uint32_t i = 0; i + 1 < kEntries; ++i) {
        const std::uint32_t gap = (i * 73) % (kEntries - 1);
        const Lba lba = Lba{10} * gap + 5;
        ASSERT_NO_FATAL_FAILURE(twin.map(lba, pba_of(lba), 5));
    }
    EXPECT_EQ(twin.tree().entryCount(), 1u);
}

TEST(ExtentMapOverwrite, HeadTrimOfAnEntryGrownPastItsSeparator)
{
    // At every entry boundary k | k + 1 (some of them leaf
    // boundaries, whose separator is the lba of entry k + 1):
    //  1. a write contiguous with entry k eats the head of entry
    //     k + 1, so entry k grows past that separator;
    //  2. a write over the head of the grown entry leaves a tail
    //     that starts past the separator and must move to the next
    //     leaf;
    //  3. a write at the separator itself then routes to the next
    //     leaf and must find the tail's remains in order.
    constexpr std::uint32_t kEntries = 200;
    for (std::uint32_t k = 0; k + 1 < kEntries; ++k) {
        Twin twin;
        ASSERT_NO_FATAL_FAILURE(fillGapped(twin, kEntries));
        const Lba base = Lba{10} * k;
        ASSERT_NO_FATAL_FAILURE(twin.map(base + 5, gappedPba(k) + 5, 8));
        ASSERT_NO_FATAL_FAILURE(twin.map(base, 9'000'000, 11));
        ASSERT_NO_FATAL_FAILURE(twin.map(base + 10, 8'000'000, 1));
        ASSERT_NO_FATAL_FAILURE(twin.map(base + 12, 7'000'000, 1));
    }
}

TEST(ExtentMapOverwrite, WritesBeforeTheFirstAndAfterTheLastEntry)
{
    Twin twin;
    ASSERT_NO_FATAL_FAILURE(twin.map(1000, 5000, 10));
    ASSERT_NO_FATAL_FAILURE(twin.map(10, 100, 5));       // before
    ASSERT_NO_FATAL_FAILURE(twin.map(5000, 200, 5));     // after
    ASSERT_NO_FATAL_FAILURE(twin.map(5, 95, 5));         // merges
    ASSERT_NO_FATAL_FAILURE(twin.map(5005, 205, 5));     // merges
    ASSERT_NO_FATAL_FAILURE(twin.map(0, 7000, 8));       // trims head
    ASSERT_NO_FATAL_FAILURE(twin.map(5008, 7100, 100));  // trims tail
    // The same at both ends of a multi-leaf map.
    Twin wide;
    ASSERT_NO_FATAL_FAILURE(fillGapped(wide, 300));
    ASSERT_NO_FATAL_FAILURE(wide.map(0, 9'000'000, 3));
    ASSERT_NO_FATAL_FAILURE(wide.map(2995, 9'100'000, 20));
    ASSERT_NO_FATAL_FAILURE(wide.map(3100, 9'200'000, 4));
}

/** One seeded adversarial run of `ops` mixed operations. */
void
runDifferential(std::uint64_t seed, std::size_t ops, Lba space,
                SectorCount max_write)
{
    Rng rng(seed);
    ExtentMap tree;
    testing::ReferenceExtentMap reference;
    SegmentBuffer scratch;
    Pba frontier = space; // log-style placement above the space

    std::vector<SectorExtent> tree_displaced;
    std::vector<SectorExtent> ref_displaced;

    std::size_t checked_states = 0;
    Lba sequential = 0;

    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t kind = rng.nextUint(10);
        if (kind < 5) {
            // Random write (the defrag/overwrite pattern).
            const SectorCount count = 1 + rng.nextUint(max_write);
            const Lba lba = rng.nextUint(space - count);
            tree_displaced.clear();
            ref_displaced.clear();
            tree.mapRange(lba, frontier, count, &tree_displaced);
            reference.mapRange(lba, frontier, count,
                               &ref_displaced);
            ASSERT_EQ(tree_displaced, ref_displaced)
                << "op " << op << " seed " << seed;
            frontier += count;
        } else if (kind < 7) {
            // Sequential append run: adjacent LBAs at adjacent
            // PBAs, the coalescing + cursor-friendly pattern.
            const SectorCount count = 1 + rng.nextUint(64);
            if (sequential + count >= space)
                sequential = rng.nextUint(space / 2);
            tree.mapRange(sequential, frontier, count);
            reference.mapRange(sequential, frontier, count);
            sequential += count;
            frontier += count;
        } else if (kind < 9) {
            // Random read.
            const SectorCount count = std::min<SectorCount>(
                1 + rng.nextUint(512), space - 1);
            const Lba lba = rng.nextUint(space - count);
            const SectorExtent extent{lba, count};
            tree.translateInto(extent, scratch);
            const auto expected = reference.translate(extent);
            ASSERT_EQ(scratch.segments(), expected)
                << "op " << op << " seed " << seed;
            ASSERT_EQ(tree.translate(extent), expected);
            ASSERT_EQ(tree.fragmentCount(extent),
                      reference.fragmentCount(extent));
        } else {
            // Wide rewrite spanning many entries (bulk displace).
            const SectorCount count = std::min<SectorCount>(
                256 + rng.nextUint(4096), space - 1);
            const Lba lba = rng.nextUint(space - count);
            tree_displaced.clear();
            ref_displaced.clear();
            tree.mapRange(lba, frontier, count, &tree_displaced);
            reference.mapRange(lba, frontier, count,
                               &ref_displaced);
            ASSERT_EQ(tree_displaced, ref_displaced)
                << "op " << op << " seed " << seed;
            frontier += count;
        }

        ASSERT_EQ(tree.entryCount(), reference.entryCount())
            << "op " << op << " seed " << seed;
        ASSERT_EQ(tree.mappedSectors(), reference.mappedSectors());

        // Entry-for-entry comparison is O(n); sample it.
        if (op % 8192 == 0 || op + 1 == ops) {
            ASSERT_EQ(flatten(tree), flatten(reference))
                << "op " << op << " seed " << seed;
            ++checked_states;
        }
    }
    EXPECT_GE(checked_states, 2u);
    EXPECT_FALSE(tree.empty());
}

TEST(ExtentMapDifferential, LeafSpanningWritesMatchReference)
{
    // Writes of up to 2k sectors over a 64k-sector space keep a few
    // hundred entries spread over a handful of leaves, so overwrites
    // regularly start in one leaf and end in another, drain whole
    // leaves and merge across leaf boundaries.
    runDifferential(/*seed=*/2718, /*ops=*/60'000,
                    /*space=*/Lba{1} << 16, /*max_write=*/2048);
}

TEST(ExtentMapDifferential, MillionMixedOpsMatchReference)
{
    // ~1.05M operations against the seed implementation. Space is
    // sized so the map grows past 64k entries, forcing a tree of
    // height >= 2 with splits, drains and cross-leaf merges.
    runDifferential(/*seed=*/42, /*ops=*/1'050'000,
                    /*space=*/Lba{1} << 22, /*max_write=*/24);
}

TEST(ExtentMapDifferential, DenseSmallSpaceHitsCrossLeafMerges)
{
    // A tight space maximizes overwrites, splits of existing
    // entries and coalescing across leaf boundaries.
    runDifferential(/*seed=*/7, /*ops=*/120'000,
                    /*space=*/Lba{1} << 12, /*max_write=*/48);
}

TEST(ExtentMapDifferential, ManySeedsSmallRuns)
{
    for (std::uint64_t seed = 100; seed < 116; ++seed)
        runDifferential(seed, /*ops=*/8'000,
                        /*space=*/Lba{1} << 14, /*max_write=*/32);
}

} // namespace
} // namespace logseek::stl
