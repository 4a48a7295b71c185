/**
 * @file
 * Fault-injection sweep over the trace ingestion stack: hundreds of
 * seeded truncations, bit-flips and short reads against the CSV
 * reader, replay of corrupt-but-parseable traces, and the LSKC
 * writer's I/O failures. The contract under test: every injected
 * fault must surface as a typed Status error or a counted skip —
 * never undefined behavior, never a crash, never an uncaught
 * exception. The LSKC reader's own fault sweep lives in
 * tests/trace/lskc_test.cc.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "stl/simulator.h"
#include "trace/input.h"
#include "trace/lskc.h"
#include "trace/msr_csv.h"
#include "util/fault.h"

namespace logseek::trace
{
namespace
{

/** A small but non-trivial trace to corrupt. */
Trace
victimTrace()
{
    Trace trace("victim");
    trace.appendRead(100, 8, 0);
    trace.appendWrite(5000, 64, 10);
    trace.appendRead(0, 1, 20);
    trace.appendWrite(77, 16, 30);
    trace.appendRead(4096, 32, 40);
    return trace;
}

std::string
csvBytes(const Trace &trace)
{
    std::ostringstream buffer;
    writeMsrCsv(buffer, trace);
    return buffer.str();
}

/**
 * Feed corrupted bytes to the CSV reader; the parse must either
 * succeed or fail with a typed status — anything escaping as an
 * exception fails the sweep. Returns the status for extra checks.
 */
Status
sweepCsv(const std::string &bytes, const MsrCsvOptions &options,
         FaultKind kind, std::uint64_t seed)
{
    std::istringstream in(bytes);
    Status status;
    EXPECT_NO_THROW({
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "victim", options);
        if (result.ok()) {
            // A parse that succeeds on corrupt bytes must still
            // yield a trace the replay takes without crashing: a
            // result or a typed error.
            TraceRef input(result.value().trace);
            EXPECT_NO_THROW((void)stl::Simulator().tryRun(input));
        } else {
            status = result.status();
        }
    }) << toString(kind) << " seed " << seed;
    return status;
}

TEST(FaultInjection, CsvSeededTruncationStrictMode)
{
    const std::string bytes = csvBytes(victimTrace());
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        // Strict mode: a cut mid-line is DataLoss; a cut exactly at
        // a line boundary (or inside trailing digits that still
        // parse) can legitimately succeed with fewer records.
        sweepCsv(injectTruncation(bytes, seed), MsrCsvOptions{},
                 FaultKind::Truncate, seed);
    }
}

TEST(FaultInjection, CsvSeededTruncationSkipMode)
{
    const std::string bytes = csvBytes(victimTrace());
    MsrCsvOptions options;
    options.skipMalformed = true;
    options.maxWarnings = 0; // keep the test log quiet
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        std::istringstream in(injectTruncation(bytes, seed));
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "victim", options);
        // With skipping enabled and a generous budget, truncation
        // can only shrink the trace, never fail it.
        ASSERT_TRUE(result.ok()) << "seed " << seed;
        const MsrParseSummary &summary = result.value().summary;
        EXPECT_EQ(summary.parsed + summary.skipped, summary.lines)
            << "seed " << seed;
    }
}

TEST(FaultInjection, CsvSeededBitFlipsBothModes)
{
    const std::string bytes = csvBytes(victimTrace());
    MsrCsvOptions skip;
    skip.skipMalformed = true;
    skip.maxWarnings = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const std::string flipped = injectBitFlip(bytes, seed);
        sweepCsv(flipped, MsrCsvOptions{}, FaultKind::BitFlip,
                 seed);
        sweepCsv(flipped, skip, FaultKind::BitFlip, seed);
    }
}

TEST(FaultInjection, CsvSurvivesShortReads)
{
    const Trace victim = victimTrace();
    const std::string bytes = csvBytes(victim);
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        ShortReadStream in(bytes, seed, 3);
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "victim");
        ASSERT_TRUE(result.ok()) << "seed " << seed;
        EXPECT_EQ(result.value().trace.size(), victim.size())
            << "seed " << seed;
    }
}

TEST(FaultInjection, CsvErrorBudgetRejectsMostlyGarbageTrace)
{
    // 100 garbage lines with a budget of 10: the trace must be
    // rejected with ResourceExhausted, not silently shrunk.
    std::string bytes;
    for (int i = 0; i < 100; ++i)
        bytes += "garbage line " + std::to_string(i) + "\n";
    MsrCsvOptions options;
    options.skipMalformed = true;
    options.errorBudget = 10;
    options.maxWarnings = 0;
    std::istringstream in(bytes);
    const StatusOr<MsrParseResult> result =
        tryParseMsrCsv(in, "garbage", options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::ResourceExhausted);
}

TEST(FaultInjection, ReplayRejectsOverflowingTraceWithTypedError)
{
    // A corrupted-but-parseable trace whose sector range overflows
    // must be rejected by tryRun before the record is served, not
    // crash the replay.
    Trace bad("overflow");
    bad.append(IoRecord{0, IoType::Read,
                        SectorExtent{~0ULL - 4, 100}});
    TraceRef input(bad);
    stl::Simulator simulator;
    const StatusOr<stl::SimResult> result = simulator.tryRun(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::InvalidArgument);
}

/** A TraceRef whose passes after the first drop the last record:
 *  an input that breaks the same-records-on-every-pass contract. */
class ShrinkingInput final : public TraceInput
{
  public:
    explicit ShrinkingInput(const Trace &trace) : trace_(trace) {}

    const std::string &name() const override
    {
        return trace_.name();
    }
    Lba addressSpaceEnd() const override
    {
        return trace_.addressSpaceEnd();
    }
    std::size_t
    next(IoEventBatch &batch, std::size_t max) override
    {
        const std::size_t end =
            passes_ > 1 ? trace_.size() - 1 : trace_.size();
        const std::size_t n = std::min(max, end - pos_);
        if (n == 0)
            return 0;
        batch.buildFrom(trace_, pos_, pos_ + n);
        pos_ += n;
        return n;
    }
    void
    reset() override
    {
        pos_ = 0;
        ++passes_;
    }

  private:
    const Trace &trace_;
    std::size_t pos_ = 0;
    std::size_t passes_ = 0;
};

TEST(FaultInjection, LskcWriterFileErrorIsTypedError)
{
    const Status status = tryWriteLskcFile(
        "/nonexistent/dir/trace.lskc", victimTrace());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
}

TEST(FaultInjection, LskcWriterFullDiskIsTypedShortWrite)
{
    // A device that is always full: the column writes fail, which
    // must surface as a typed Unavailable, never a fatal.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not available";
    Trace trace("full");
    for (std::uint64_t i = 0; i < 20000; ++i)
        trace.appendWrite(8 * i, 8, i);
    const Status status = tryWriteLskcFile("/dev/full", trace);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
    EXPECT_NE(status.message().find("short write"),
              std::string::npos)
        << status.message();
}

TEST(FaultInjection, LskcWriterUnstableInputIsDataLoss)
{
    const std::string path = "/tmp/logseek_fault_unstable_" +
                             std::to_string(::getpid()) + ".lskc";
    const Trace trace = victimTrace();
    ShrinkingInput input(trace);
    const Status status = tryWriteLskcFile(path, input);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::DataLoss);
    EXPECT_NE(status.message().find("different record count"),
              std::string::npos)
        << status.message();
    std::remove(path.c_str());
}

} // namespace
} // namespace logseek::trace
