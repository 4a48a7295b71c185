/**
 * @file
 * Fsck tests: a clean layer+journal pair passes for every layer
 * kind, and seeded inconsistencies (map/journal divergence,
 * frontier drift, foreign journals) are detected by name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stl/conventional.h"
#include "stl/finite_log.h"
#include "stl/fsck.h"
#include "stl/log_structured.h"
#include "stl/media_cache.h"

namespace logseek::stl
{

/** Seeds counter corruption the finite log's own code never makes. */
struct FiniteLogTestPeer
{
    static std::uint32_t &
    freeCount(FiniteLogStructuredLayer &layer)
    {
        return layer.freeCount_;
    }

    static bool &
    openFlag(FiniteLogStructuredLayer &layer, std::uint32_t i)
    {
        return layer.segments_[i].open;
    }
};

namespace
{

constexpr Pba kEnd = 4096;

bool
hasViolation(const FsckReport &report, const std::string &check)
{
    return std::any_of(
        report.violations.begin(), report.violations.end(),
        [&](const FsckViolation &v) { return v.check == check; });
}

/** Drain a layer's owed background work like the replay engine. */
void
drainMaintenance(TranslationLayer &layer)
{
    while (!layer.maintenance().empty()) {
    }
}

TEST(Fsck, CleanLogStructuredLayerPasses)
{
    SegmentJournal journal;
    LogStructuredLayer layer(kEnd,
                             ZoneConfig{64 * kKiB, 8 * kKiB});
    layer.attachJournal(&journal);
    for (Lba lba = 0; lba < 800; lba += 40)
        layer.placeWrite({lba, 24});

    const FsckReport report = Fsck::check(layer, journal);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_GT(report.checkedEntries, 0U);
}

/**
 * Overwrite a hot region of a small finite log until segments are
 * reclaimed, so the cleaning-count and free-segment invariants see
 * real work.
 */
void
churnFiniteLog(FiniteLogStructuredLayer &layer)
{
    for (int round = 0; round < 8; ++round)
        for (Lba lba = 0; lba < 1000; lba += 50) {
            layer.placeWrite({lba, 40});
            drainMaintenance(layer);
        }
}

FiniteLogConfig
smallFiniteLog()
{
    FiniteLogConfig config;
    config.capacityBytes = kMiB;
    config.segmentBytes = 128 * kKiB;
    return config;
}

TEST(Fsck, CleanFiniteLogPassesThroughCleaning)
{
    SegmentJournal journal;
    FiniteLogStructuredLayer layer(kEnd, smallFiniteLog());
    layer.attachJournal(&journal);
    churnFiniteLog(layer);
    EXPECT_GT(layer.cleanings(), 0U);

    const FsckReport report = Fsck::check(layer, journal);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Fsck, DetectsFreeCountDrift)
{
    SegmentJournal journal;
    FiniteLogStructuredLayer layer(kEnd, smallFiniteLog());
    layer.attachJournal(&journal);
    churnFiniteLog(layer);
    ASSERT_TRUE(Fsck::check(layer, journal).ok());

    // The incremental count drifts from the flags it summarises.
    ++FiniteLogTestPeer::freeCount(layer);
    const FsckReport report = Fsck::check(layer, journal);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(hasViolation(report, "free-count"))
        << report.toString();
}

TEST(Fsck, DetectsOpenFlagDrift)
{
    SegmentJournal journal;
    FiniteLogStructuredLayer layer(kEnd, smallFiniteLog());
    layer.attachJournal(&journal);
    churnFiniteLog(layer);
    ASSERT_TRUE(Fsck::check(layer, journal).ok());

    // The open segment loses its flag...
    const std::uint32_t open = layer.streamOpenSegment(0);
    FiniteLogTestPeer::openFlag(layer, open) = false;
    FsckReport report = Fsck::check(layer, journal);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(hasViolation(report, "open-flag"))
        << report.toString();

    // ...or a closed one gains it (which would hide it from the
    // cleaner for good).
    FiniteLogTestPeer::openFlag(layer, open) = true;
    const std::uint32_t closed = (open + 1) % layer.segmentCount();
    FiniteLogTestPeer::openFlag(layer, closed) = true;
    report = Fsck::check(layer, journal);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(hasViolation(report, "open-flag"))
        << report.toString();
}

TEST(Fsck, CleanMediaCachePassesThroughMerge)
{
    MediaCacheConfig config;
    config.cacheBytes = 64 * kKiB;
    SegmentJournal journal;
    MediaCacheLayer layer(kEnd, config);
    layer.attachJournal(&journal);
    for (int round = 0; round < 4; ++round)
        for (Lba lba = 0; lba < 1000; lba += 50) {
            layer.placeWrite({lba, 40});
            drainMaintenance(layer);
        }
    EXPECT_GT(layer.mergeCount(), 0U);

    const FsckReport report = Fsck::check(layer, journal);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Fsck, DetectsUnjournaledMutation)
{
    SegmentJournal journal;
    LogStructuredLayer layer(kEnd);
    layer.attachJournal(&journal);
    layer.placeWrite({0, 64});
    // The journal "device" detaches, then the map keeps moving:
    // exactly the lost-metadata-write a crash would expose.
    layer.attachJournal(nullptr);
    layer.placeWrite({512, 64});

    const FsckReport report = Fsck::check(layer, journal);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(hasViolation(report, "map-log-agreement") ||
                hasViolation(report, "frontier-alignment"))
        << report.toString();
}

TEST(Fsck, DetectsFrontierDrift)
{
    SegmentJournal journal;
    LogStructuredLayer layer(kEnd);
    layer.attachJournal(&journal);
    layer.placeWrite({0, 64});
    // A journal epoch whose placement never reached the map: the
    // layer is behind its own metadata.
    const JournalEntry phantom{1024, kEnd + 64, 32};
    journal.record(JournalRecordKind::Placement, kEnd + 96, 0,
                   {&phantom, 1});

    const FsckReport report = Fsck::check(layer, journal);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(hasViolation(report, "frontier-alignment"))
        << report.toString();
    EXPECT_TRUE(hasViolation(report, "map-log-agreement"))
        << report.toString();
}

TEST(Fsck, ConventionalLayerRequiresEmptyJournal)
{
    ConventionalLayer layer;
    SegmentJournal empty;
    EXPECT_TRUE(Fsck::check(layer, empty).ok());

    SegmentJournal foreign;
    const JournalEntry entry{0, 4096, 8};
    foreign.record(JournalRecordKind::Placement, 4104, 0,
                   {&entry, 1});
    const FsckReport report = Fsck::check(layer, foreign);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(hasViolation(report, "conventional-journal"))
        << report.toString();
}

TEST(Fsck, MountedLayerPassesAgainstItsJournal)
{
    SegmentJournal journal;
    {
        LogStructuredLayer writer(kEnd,
                                  ZoneConfig{64 * kKiB, 8 * kKiB});
        writer.attachJournal(&journal);
        for (Lba lba = 0; lba < 900; lba += 60)
            writer.placeWrite({lba, 48});
    }
    LogStructuredLayer remounted(
        kEnd, ZoneConfig{64 * kKiB, 8 * kKiB});
    const MountStats stats = remounted.mountFromJournal(journal);
    EXPECT_EQ(stats.epochsApplied, journal.epochs());

    const FsckReport report = Fsck::check(remounted, journal);
    EXPECT_TRUE(report.ok()) << report.toString();
}

} // namespace
} // namespace logseek::stl
