/**
 * @file
 * Shared-framing regression tests: the segment-header journal rides
 * the util/checkpoint LCKP framing verbatim, so the parser's
 * torn-tail vs damaged-frame discrimination must hold for journal
 * payloads exactly as it does for sweep checkpoints. A framing
 * change that breaks one consumer must fail here, next to the
 * framing, not in a far-away recovery suite.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "stl/segment_journal.h"
#include "util/checkpoint.h"

namespace logseek
{
namespace
{

std::string
headerPayload(std::uint64_t epoch)
{
    stl::JournalRecord record;
    record.kind = stl::JournalRecordKind::Placement;
    record.epoch = epoch;
    record.frontierAfter = 4096 + epoch * 8;
    record.aux = epoch;
    record.entries = {{epoch * 8, 4096 + epoch * 8, 8}};
    return encodeJournalRecord(record);
}

std::string
journalImage(std::uint64_t epochs)
{
    std::string image;
    for (std::uint64_t e = 1; e <= epochs; ++e)
        appendCheckpointFrame(image, headerPayload(e));
    return image;
}

TEST(CheckpointFraming, SegmentHeadersRoundTripThroughParser)
{
    const std::string image = journalImage(4);
    const CheckpointLoad load = parseCheckpoint(image);
    EXPECT_EQ(load.damagedFrames, 0U);
    EXPECT_FALSE(load.tornTail);
    EXPECT_EQ(load.bytesDropped, 0U);
    ASSERT_EQ(load.records.size(), 4U);
    for (std::uint64_t e = 1; e <= 4; ++e) {
        stl::JournalRecord decoded;
        ASSERT_TRUE(
            decodeJournalRecord(load.records[e - 1], decoded));
        EXPECT_EQ(decoded.epoch, e);
    }
}

TEST(CheckpointFraming, TornSegmentHeaderIsATailNotDamage)
{
    const std::string image = journalImage(3);
    // Cut inside the last frame at every possible offset: always a
    // torn tail (or a clean two-frame image), never damage.
    const std::size_t frame_bytes = image.size() / 3;
    for (std::size_t cut = 2 * frame_bytes + 1;
         cut < image.size(); ++cut) {
        const CheckpointLoad load =
            parseCheckpoint(std::string_view(image).substr(0, cut));
        EXPECT_EQ(load.damagedFrames, 0U) << "cut at " << cut;
        EXPECT_TRUE(load.tornTail) << "cut at " << cut;
        EXPECT_EQ(load.records.size(), 2U) << "cut at " << cut;
    }
}

TEST(CheckpointFraming, CorruptSegmentHeaderIsDamageNotATail)
{
    const std::string image = journalImage(3);
    const std::size_t frame_bytes = image.size() / 3;
    // Flip one byte in the middle frame's payload: CRC damage in
    // place, with the surrounding frames intact.
    std::string corrupt = image;
    corrupt[frame_bytes + frame_bytes / 2] ^= 0x01;
    const CheckpointLoad load = parseCheckpoint(corrupt);
    EXPECT_EQ(load.damagedFrames, 1U);
    EXPECT_FALSE(load.tornTail);
    ASSERT_EQ(load.records.size(), 2U);

    // The journal scan layered on top truncates at the resulting
    // epoch gap: only the pre-damage prefix is trusted.
    const stl::JournalScan scan = stl::scanJournal(corrupt);
    EXPECT_EQ(scan.records.size(), 1U);
    EXPECT_EQ(scan.damagedFrames, 1U);
    EXPECT_EQ(scan.truncatedEpochs, 1U);
}

TEST(CheckpointFraming, TornTailAfterDamageReportsBoth)
{
    std::string image = journalImage(3);
    const std::size_t frame_bytes = image.size() / 3;
    image[frame_bytes / 2] =
        static_cast<char>(image[frame_bytes / 2] ^ 0x40);
    image.resize(image.size() - 3);
    const CheckpointLoad load = parseCheckpoint(image);
    EXPECT_GE(load.damagedFrames, 1U);
    EXPECT_TRUE(load.tornTail);
}

TEST(CheckpointFraming, ViewFormMatchesCopyingForm)
{
    // The copy-free parse (the journal scan's form) must see exactly
    // the payloads and damage tallies of the copying one, as views
    // into the image itself.
    const std::string clean = journalImage(5);
    const std::size_t frame_bytes = clean.size() / 5;
    std::string corrupt = clean;
    corrupt[2 * frame_bytes + frame_bytes / 2] ^= 0x01;
    const std::string torn = clean.substr(0, clean.size() - 3);
    for (const std::string &image : {clean, corrupt, torn}) {
        std::vector<std::string_view> views;
        const CheckpointLoad tallies = parseCheckpoint(
            image,
            [&views](std::string_view p) { views.push_back(p); });
        const CheckpointLoad load = parseCheckpoint(image);
        EXPECT_TRUE(tallies.records.empty());
        EXPECT_EQ(tallies.damagedFrames, load.damagedFrames);
        EXPECT_EQ(tallies.tornTail, load.tornTail);
        EXPECT_EQ(tallies.bytesDropped, load.bytesDropped);
        ASSERT_EQ(views.size(), load.records.size());
        for (std::size_t i = 0; i < views.size(); ++i) {
            EXPECT_EQ(views[i], load.records[i]);
            EXPECT_GE(views[i].data(), image.data());
            EXPECT_LE(views[i].data() + views[i].size(),
                      image.data() + image.size());
        }
    }
}

} // namespace
} // namespace logseek
