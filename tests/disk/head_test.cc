/**
 * @file
 * Unit tests for DiskHead seek detection (the paper's §II seek
 * definition).
 */

#include <gtest/gtest.h>

#include "disk/head.h"
#include "util/logging.h"

namespace logseek::disk
{
namespace
{

using trace::IoType;

TEST(DiskHead, FirstAccessAtZeroDoesNotSeek)
{
    DiskHead head;
    const SeekInfo info = head.access({0, 8}, IoType::Read);
    EXPECT_FALSE(info.seeked);
    EXPECT_EQ(info.distanceBytes, 0);
}

TEST(DiskHead, FirstAccessElsewhereSeeks)
{
    DiskHead head;
    const SeekInfo info = head.access({100, 8}, IoType::Read);
    EXPECT_TRUE(info.seeked);
    EXPECT_EQ(info.distanceBytes,
              static_cast<std::int64_t>(100 * kSectorBytes));
}

TEST(DiskHead, SequentialAccessesDoNotSeek)
{
    DiskHead head;
    head.access({0, 8}, IoType::Write);
    const SeekInfo info = head.access({8, 8}, IoType::Write);
    EXPECT_FALSE(info.seeked);
    EXPECT_FALSE(head.access({16, 1}, IoType::Write).seeked);
}

TEST(DiskHead, ForwardGapSeeksWithPositiveDistance)
{
    DiskHead head;
    head.access({0, 8}, IoType::Read);
    const SeekInfo info = head.access({20, 4}, IoType::Read);
    EXPECT_TRUE(info.seeked);
    EXPECT_EQ(info.distanceBytes,
              static_cast<std::int64_t>(12 * kSectorBytes));
}

TEST(DiskHead, BackwardAccessSeeksWithNegativeDistance)
{
    DiskHead head;
    head.access({100, 10}, IoType::Read);
    const SeekInfo info = head.access({50, 10}, IoType::Read);
    EXPECT_TRUE(info.seeked);
    EXPECT_EQ(info.distanceBytes,
              -static_cast<std::int64_t>(60 * kSectorBytes));
}

TEST(DiskHead, ImmediateRereadOfSameSectorSeeks)
{
    // Re-reading the block just read requires a full rotation; the
    // model flags it as a (backward) seek.
    DiskHead head;
    head.access({10, 4}, IoType::Read);
    const SeekInfo info = head.access({10, 4}, IoType::Read);
    EXPECT_TRUE(info.seeked);
    EXPECT_EQ(info.distanceBytes,
              -static_cast<std::int64_t>(4 * kSectorBytes));
}

TEST(DiskHead, SeekTypeMatchesSecondOperation)
{
    DiskHead head;
    head.access({0, 4}, IoType::Read);
    const SeekInfo write_seek = head.access({100, 4}, IoType::Write);
    EXPECT_EQ(write_seek.type, IoType::Write);
    const SeekInfo read_seek = head.access({0, 4}, IoType::Read);
    EXPECT_EQ(read_seek.type, IoType::Read);
}

TEST(DiskHead, AccessCountIncrements)
{
    DiskHead head;
    EXPECT_EQ(head.accessCount(), 0u);
    head.access({0, 1}, IoType::Read);
    head.access({1, 1}, IoType::Read);
    EXPECT_EQ(head.accessCount(), 2u);
}

TEST(DiskHead, ResetRestoresInitialState)
{
    DiskHead head;
    head.access({500, 10}, IoType::Write);
    head.reset();
    EXPECT_EQ(head.accessCount(), 0u);
    const SeekInfo info = head.access({0, 4}, IoType::Read);
    EXPECT_FALSE(info.seeked);
}

TEST(DiskHead, EmptyAccessPanics)
{
    DiskHead head;
    EXPECT_THROW(head.access({5, 0}, IoType::Read), PanicError);
}

TEST(DiskHead, MixedSequentialReadWriteDoesNotSeek)
{
    // The seek definition cares only about sector adjacency, not
    // operation type: a write starting right after a read is
    // sequential.
    DiskHead head;
    head.access({0, 8}, IoType::Read);
    const SeekInfo info = head.access({8, 8}, IoType::Write);
    EXPECT_FALSE(info.seeked);
}

TEST(DiskHead, LongRunOfSequentialIosNeverSeeks)
{
    DiskHead head;
    head.access({0, 16}, IoType::Write);
    for (std::uint64_t lba = 16; lba < 16000; lba += 16) {
        const SeekInfo info = head.access({lba, 16}, IoType::Write);
        EXPECT_FALSE(info.seeked) << "at lba " << lba;
    }
}

} // namespace
} // namespace logseek::disk
