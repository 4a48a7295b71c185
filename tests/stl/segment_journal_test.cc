/**
 * @file
 * SegmentJournal tests: the record codec, the consistent-epoch
 * scan (gap truncation, damage vs torn-tail discrimination) and
 * the seeded determinism of tearTail.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stl/segment_journal.h"
#include "util/checkpoint.h"

namespace logseek::stl
{
namespace
{

JournalRecord
placement(std::uint64_t epoch, Pba frontier,
          std::vector<JournalEntry> entries)
{
    JournalRecord record;
    record.kind = JournalRecordKind::Placement;
    record.epoch = epoch;
    record.frontierAfter = frontier;
    record.aux = epoch * 3;
    record.entries = std::move(entries);
    return record;
}

TEST(SegmentJournal, RecordCodecRoundTrips)
{
    const std::vector<JournalRecord> originals{
        placement(1, 4096, {{0, 4096, 8}, {100, 4104, 16}}),
        placement(7, 9000, {}),
        {JournalRecordKind::SegmentReset, 2, 5120, 3, {}},
        {JournalRecordKind::MergeReset, 3, 4096, 11, {}},
    };
    for (const JournalRecord &original : originals) {
        const std::string payload = encodeJournalRecord(original);
        JournalRecord decoded;
        ASSERT_TRUE(decodeJournalRecord(payload, decoded));
        EXPECT_EQ(decoded, original);
    }
}

TEST(SegmentJournal, DecodeRejectsTruncationAndTrailingBytes)
{
    const std::string payload = encodeJournalRecord(
        placement(1, 4096, {{0, 4096, 8}}));
    JournalRecord decoded;
    EXPECT_FALSE(decodeJournalRecord(
        std::string_view(payload).substr(0, payload.size() - 1),
        decoded));
    EXPECT_FALSE(decodeJournalRecord(payload + "x", decoded));
    EXPECT_FALSE(decodeJournalRecord("", decoded));
}

TEST(SegmentJournal, ScanReplaysCleanJournalCompletely)
{
    SegmentJournal journal;
    for (std::uint64_t i = 0; i < 5; ++i) {
        const JournalEntry entry{i * 16, 4096 + i * 16, 16};
        journal.record(JournalRecordKind::Placement,
                       4096 + (i + 1) * 16, i, {&entry, 1});
    }
    EXPECT_EQ(journal.epochs(), 5U);

    const JournalScan scan = scanJournal(journal.image());
    EXPECT_TRUE(scan.clean());
    ASSERT_EQ(scan.records.size(), 5U);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(scan.records[i].epoch, i + 1);
        ASSERT_EQ(scan.records[i].entries.size(), 1U);
        EXPECT_EQ(scan.records[i].entries[0].lba, i * 16);
    }
}

TEST(SegmentJournal, RecordFramesMatchTheCodec)
{
    // record() encodes each frame straight into the image; the
    // bytes must equal framing the codec's payload.
    const std::vector<JournalRecord> records{
        placement(1, 4096, {{0, 4096, 8}, {100, 4104, 16}}),
        placement(2, 9000, {}),
        {JournalRecordKind::SegmentReset, 3, 5120, 3, {}},
        {JournalRecordKind::MergeReset, 4, 4096, 11, {}},
    };
    SegmentJournal journal;
    std::string want;
    for (const JournalRecord &record : records) {
        journal.record(record.kind, record.frontierAfter, record.aux,
                       record.entries);
        appendCheckpointFrame(want, encodeJournalRecord(record));
    }
    EXPECT_EQ(journal.image(), want);
}

TEST(SegmentJournal, ScanTruncatesAtEpochGap)
{
    // Epochs 1, 2, 4: frame 3 was lost whole (say its media block
    // died). Everything from the gap on is untrustworthy.
    std::string image;
    for (const std::uint64_t epoch : {1ULL, 2ULL, 4ULL})
        appendCheckpointFrame(
            image, encodeJournalRecord(
                       placement(epoch, 4096 + epoch, {})));

    const JournalScan scan = scanJournal(image);
    ASSERT_EQ(scan.records.size(), 2U);
    EXPECT_EQ(scan.records.back().epoch, 2U);
    EXPECT_EQ(scan.truncatedEpochs, 1U);
    EXPECT_FALSE(scan.clean());
    EXPECT_EQ(scan.damagedFrames, 0U);
    EXPECT_FALSE(scan.tornTail);
}

TEST(SegmentJournal, ScanDropsUndecodablePayloadAsTruncation)
{
    std::string image;
    appendCheckpointFrame(
        image, encodeJournalRecord(placement(1, 4096, {})));
    // A CRC-valid frame whose payload is not a journal record:
    // consistent framing, inconsistent content.
    appendCheckpointFrame(image, "not a journal record");

    const JournalScan scan = scanJournal(image);
    ASSERT_EQ(scan.records.size(), 1U);
    EXPECT_EQ(scan.truncatedEpochs, 1U);
    EXPECT_EQ(scan.damagedFrames, 0U);
}

TEST(SegmentJournal, ScanDiscriminatesDamageFromTornTail)
{
    SegmentJournal journal;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const JournalEntry entry{i * 8, 4096 + i * 8, 8};
        journal.record(JournalRecordKind::Placement,
                       4096 + (i + 1) * 8, i, {&entry, 1});
    }

    // Corruption in the middle: a damaged frame, not a tear, and
    // the epoch chain breaks at the damage.
    std::string corrupted = journal.image();
    corrupted[corrupted.size() / 2] ^= 0x40;
    const JournalScan damaged = scanJournal(corrupted);
    EXPECT_GE(damaged.damagedFrames, 1U);
    EXPECT_FALSE(damaged.tornTail);
    EXPECT_LT(damaged.records.size(), 4U);

    // Truncation at the end: a torn tail, not damage, and every
    // whole frame before the tear survives.
    const std::string torn =
        journal.image().substr(0, journal.image().size() - 5);
    const JournalScan teared = scanJournal(torn);
    EXPECT_TRUE(teared.tornTail);
    EXPECT_EQ(teared.damagedFrames, 0U);
    EXPECT_EQ(teared.records.size(), 3U);
}

TEST(SegmentJournal, TearTailIsSeedDeterministic)
{
    const auto build = [] {
        SegmentJournal journal;
        for (std::uint64_t i = 0; i < 6; ++i) {
            const JournalEntry entry{i * 8, 4096 + i * 8, 8};
            journal.record(JournalRecordKind::Placement,
                           4096 + (i + 1) * 8, i, {&entry, 1});
        }
        return journal;
    };

    SegmentJournal a = build();
    SegmentJournal b = build();
    const std::string whole = a.image();
    a.tearTail(0x5eedULL);
    b.tearTail(0x5eedULL);
    EXPECT_EQ(a.image(), b.image());

    // The tear stays within the last frame: all preceding epochs
    // survive and scan consistently.
    const JournalScan scan = scanJournal(a.image());
    EXPECT_GE(scan.records.size(), 5U);
    EXPECT_LE(a.image().size(), whole.size());
    EXPECT_EQ(scan.damagedFrames, 0U);

    SegmentJournal c = build();
    c.tearTail(0x0badULL);
    const JournalScan other = scanJournal(c.image());
    EXPECT_GE(other.records.size(), 5U);
}

TEST(SegmentJournal, TearTailOnEmptyJournalIsNoop)
{
    SegmentJournal journal;
    journal.tearTail(123);
    EXPECT_TRUE(journal.empty());
    const JournalScan scan = scanJournal(journal.image());
    EXPECT_TRUE(scan.clean());
    EXPECT_TRUE(scan.records.empty());
}

TEST(SegmentJournal, MountStatsReflectTheScan)
{
    SegmentJournal journal;
    const JournalEntry entry{0, 4096, 8};
    journal.record(JournalRecordKind::Placement, 4104, 0,
                   {&entry, 1});
    journal.record(JournalRecordKind::Placement, 4112, 0,
                   {&entry, 1});
    journal.tearTail(7);

    const JournalScan scan = scanJournal(journal.image());
    const MountStats stats = mountStatsFrom(scan);
    EXPECT_EQ(stats.epochsApplied, scan.records.size());
    EXPECT_EQ(stats.segmentsScanned, scan.segmentsScanned);
    EXPECT_EQ(stats.tornTails, scan.tornTail ? 1U : 0U);
    EXPECT_EQ(stats.damagedFrames, scan.damagedFrames);
    EXPECT_EQ(stats.truncatedEpochs, scan.truncatedEpochs);
}

} // namespace
} // namespace logseek::stl
