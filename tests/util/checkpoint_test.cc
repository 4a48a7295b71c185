/**
 * @file
 * Unit tests for the CRC-guarded checkpoint file format: the CRC-32
 * implementation, frame round-trips, torn-tail and bit-flip damage
 * recovery, resync after mid-file corruption, and the atomically-
 * publishing writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/checkpoint.h"
#include "util/fault.h"

namespace logseek
{
namespace
{

/** A self-deleting temp file path. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
    }

    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFileRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
imageOf(const std::vector<std::string> &payloads)
{
    std::string image;
    for (const std::string &payload : payloads)
        appendCheckpointFrame(image, payload);
    return image;
}

TEST(Crc32, MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Checkpoint, FrameLayoutIsPinned)
{
    // magic, little-endian length, little-endian CRC, payload.
    std::string image = "prefix";
    appendCheckpointFrame(image, "123456789");
    EXPECT_EQ(image, std::string("prefixLCKP\x09\0\0\0\x26\x39\xf4\xcb"
                                 "123456789",
                                 6 + 12 + 9));

    // A frame encoded in place is the same bytes.
    std::string in_place = "prefix";
    const std::size_t frame = openCheckpointFrame(in_place);
    EXPECT_EQ(frame, 6U);
    in_place += "12345";
    in_place += "6789";
    sealCheckpointFrame(in_place, frame);
    EXPECT_EQ(in_place, image);
}

TEST(Checkpoint, EmptyImageParsesClean)
{
    const CheckpointLoad load = parseCheckpoint("");
    EXPECT_TRUE(load.clean());
    EXPECT_TRUE(load.records.empty());
}

TEST(Checkpoint, FramesRoundTrip)
{
    const std::vector<std::string> payloads = {
        "alpha", std::string(1, '\0') + "binary\xffpayload", "",
        std::string(5000, 'z')};
    const CheckpointLoad load = parseCheckpoint(imageOf(payloads));
    EXPECT_TRUE(load.clean());
    EXPECT_EQ(load.records, payloads);
    EXPECT_EQ(load.bytesDropped, 0u);
}

TEST(Checkpoint, TornTailTruncatesToLastWholeRecord)
{
    const std::string image = imageOf({"one", "two", "three"});
    // Cut anywhere strictly inside the final frame (its 12-byte
    // header plus "three"): the record is lost, the first two
    // survive, and the damage is flagged as a torn tail — never as
    // corruption.
    const std::size_t last_frame = 12 + 5;
    for (std::size_t cut = image.size() - last_frame + 1;
         cut < image.size(); ++cut) {
        const CheckpointLoad load =
            parseCheckpoint(image.substr(0, cut));
        EXPECT_TRUE(load.tornTail) << "cut " << cut;
        EXPECT_EQ(load.damagedFrames, 0u) << "cut " << cut;
        ASSERT_EQ(load.records.size(), 2u) << "cut " << cut;
        EXPECT_EQ(load.records[0], "one");
        EXPECT_EQ(load.records[1], "two");
    }
}

TEST(Checkpoint, BitFlipLosesOnlyTheDamagedFrame)
{
    const std::vector<std::string> payloads = {"first", "second",
                                               "third"};
    const std::string image = imageOf(payloads);

    // Flip one bit in the middle frame's payload: the CRC catches
    // it, the reader resyncs on the next magic, and the other two
    // records survive.
    std::string damaged = image;
    const std::size_t frame = image.size() / payloads.size();
    damaged[frame + 14] =
        static_cast<char>(damaged[frame + 14] ^ 0x10);

    const CheckpointLoad load = parseCheckpoint(damaged);
    EXPECT_FALSE(load.clean());
    EXPECT_EQ(load.damagedFrames, 1u);
    EXPECT_FALSE(load.tornTail);
    ASSERT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.records[0], "first");
    EXPECT_EQ(load.records[1], "third");
    EXPECT_GT(load.bytesDropped, 0u);
}

TEST(Checkpoint, EveryPossibleBitFlipKeepsTheOtherRecords)
{
    const std::string image = imageOf({"aaaa", "bbbb", "cccc"});
    const std::size_t frame = image.size() / 3;
    // Damage anywhere in the middle frame; the outer records must
    // always survive.
    for (std::size_t at = frame; at < 2 * frame; ++at) {
        std::string damaged = image;
        damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
        const CheckpointLoad load = parseCheckpoint(damaged);
        ASSERT_GE(load.records.size(), 2u) << "flip at " << at;
        EXPECT_EQ(load.records.front(), "aaaa") << "flip at " << at;
        EXPECT_EQ(load.records.back(), "cccc") << "flip at " << at;
    }
}

TEST(Checkpoint, GarbageBetweenFramesIsSkipped)
{
    std::string image = imageOf({"head"});
    image += "garbage bytes that are not a frame";
    appendCheckpointFrame(image, "tail");

    const CheckpointLoad load = parseCheckpoint(image);
    EXPECT_FALSE(load.clean());
    ASSERT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.records[0], "head");
    EXPECT_EQ(load.records[1], "tail");
}

TEST(Checkpoint, LoadReportsMissingFileAsNotFound)
{
    const StatusOr<CheckpointLoad> load =
        loadCheckpoint("/nonexistent/dir/never.ckpt");
    ASSERT_FALSE(load.ok());
    EXPECT_EQ(load.status().code(), StatusCode::NotFound);
}

TEST(Checkpoint, WriterRoundTripsThroughTheFilesystem)
{
    TempPath path("ckpt_writer_roundtrip.ckpt");
    CheckpointWriter writer(path.str());
    EXPECT_TRUE(writer.append("one").ok());
    EXPECT_TRUE(writer.append("two").ok());
    EXPECT_EQ(writer.recordCount(), 2u);

    const StatusOr<CheckpointLoad> load =
        loadCheckpoint(path.str());
    ASSERT_TRUE(load.ok()) << load.status().message();
    EXPECT_TRUE(load.value().clean());
    EXPECT_EQ(load.value().records,
              (std::vector<std::string>{"one", "two"}));
}

TEST(Checkpoint, WriterSeedRewritesDamagedFilesClean)
{
    TempPath path("ckpt_writer_seed.ckpt");
    // Simulate a resumed sweep: the old file has a torn tail.
    std::string image = imageOf({"keep"});
    appendCheckpointFrame(image, "torn");
    writeFileRaw(path.str(), image.substr(0, image.size() - 3));

    CheckpointWriter writer(path.str());
    writer.seed({"keep"});
    EXPECT_TRUE(writer.append("fresh").ok());

    const StatusOr<CheckpointLoad> load =
        loadCheckpoint(path.str());
    ASSERT_TRUE(load.ok());
    // The republished file is fully clean again.
    EXPECT_TRUE(load.value().clean());
    EXPECT_EQ(load.value().records,
              (std::vector<std::string>{"keep", "fresh"}));
}

TEST(Checkpoint, EveryAppendLeavesAParseableFile)
{
    TempPath path("ckpt_writer_incremental.ckpt");
    CheckpointWriter writer(path.str());
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            writer.append("record-" + std::to_string(i)).ok());
        // The published file is complete after every append — the
        // atomic rename never exposes a half-written image.
        const CheckpointLoad load =
            parseCheckpoint(readFile(path.str()));
        EXPECT_TRUE(load.clean()) << "append " << i;
        EXPECT_EQ(load.records.size(),
                  static_cast<std::size_t>(i) + 1)
            << "append " << i;
    }
}

TEST(Checkpoint, WriterReportsUnwritablePaths)
{
    CheckpointWriter writer("/nonexistent/dir/never.ckpt");
    const Status status = writer.append("x");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
    // The record is retained for a later, possibly successful
    // publication.
    EXPECT_EQ(writer.recordCount(), 1u);
}

TEST(Checkpoint, SeededTruncationsNeverCrashTheParser)
{
    const std::string image =
        imageOf({"one", "two", "three", "four"});
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const std::string cut = injectTruncation(image, seed);
        const CheckpointLoad load = parseCheckpoint(cut);
        // Recovered records are always a prefix-consistent subset.
        EXPECT_LE(load.records.size(), 4u) << "seed " << seed;
    }
}

TEST(Checkpoint, SeededBitFlipsNeverCrashTheParser)
{
    const std::string image =
        imageOf({"one", "two", "three", "four"});
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const CheckpointLoad load =
            parseCheckpoint(injectBitFlip(image, seed));
        EXPECT_LE(load.records.size(), 4u) << "seed " << seed;
    }
}

} // namespace
} // namespace logseek
