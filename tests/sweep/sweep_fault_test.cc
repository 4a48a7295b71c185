/**
 * @file
 * Fault-tolerance tests for SweepRunner: the failure taxonomy
 * (RETRIED_OK / FAILED / TIMED_OUT / SKIPPED), retry with backoff,
 * per-cell deadlines, sweep-wide cancellation, and checkpoint/resume
 * — including byte-identical resumed grids across job counts and
 * recovery from torn, bit-flipped and duplicated checkpoints.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stl/replay_engine.h"
#include "stl/simulator.h"
#include "sweep/checkpoint.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "util/cancellation.h"
#include "util/checkpoint.h"
#include "util/fault.h"
#include "util/logging.h"
#include "workloads/profiles.h"

namespace logseek::sweep
{
namespace
{

workloads::ProfileOptions
tinyProfile()
{
    workloads::ProfileOptions options;
    options.scale = 0.002;
    return options;
}

std::vector<WorkloadSpec>
twoWorkloads()
{
    return {WorkloadSpec::profile("usr_1", tinyProfile()),
            WorkloadSpec::profile("w91", tinyProfile())};
}

stl::SimConfig
conventional()
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::Conventional;
    return config;
}

stl::SimConfig
logStructured()
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    return config;
}

std::vector<ConfigSpec>
twoConfigs()
{
    return {ConfigSpec::fixed("NoLS", conventional()),
            ConfigSpec::fixed("LS", logStructured())};
}

std::string
deterministicJson(const SweepResult &sweep)
{
    std::ostringstream out;
    writeJson(out, sweep, /*with_telemetry=*/false);
    return out.str();
}

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

/** An observer that stalls the replay so deadlines can fire. */
struct SleepyObserver : stl::SimObserver
{
    void onEvent(const stl::IoEvent &) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
};

TEST(SweepRunnerFaultTest, TransientConfigFaultRetriesToSuccess)
{
    // The reference result the retried cell must still reproduce.
    const SweepResult reference =
        SweepRunner({WorkloadSpec::profile("usr_1", tinyProfile())},
                    {ConfigSpec::fixed("NoLS", conventional())}, {})
            .run();

    auto injector = std::make_shared<TransientFaultInjector>(2);
    SweepOptions options;
    options.jobs = 2;
    options.retry.maxAttempts = 3;
    options.retry.initialBackoff = std::chrono::milliseconds(1);
    options.retry.maxBackoff = std::chrono::milliseconds(2);
    const SweepResult sweep =
        SweepRunner(
            {WorkloadSpec::profile("usr_1", tinyProfile())},
            {ConfigSpec::deferred(
                "NoLS",
                [injector](const trace::Trace &) {
                    injector->onAccess("config make");
                    return conventional();
                })},
            options)
            .run();

    const RunRow &row = sweep.row(0, 0);
    ASSERT_TRUE(row.status.ok()) << row.status.message();
    EXPECT_EQ(row.outcome, CellOutcome::RetriedOk);
    EXPECT_EQ(row.attempts, 3);
    EXPECT_EQ(injector->faultsFired(), 2);
    EXPECT_EQ(sweep.telemetry.retriedRuns, 1u);
    EXPECT_EQ(sweep.telemetry.failedRuns, 0u);

    // The retried run is indistinguishable from a clean one.
    const stl::SimResult &clean = reference.row(0, 0).result;
    EXPECT_EQ(row.result.reads, clean.reads);
    EXPECT_EQ(row.result.readSeeks, clean.readSeeks);
    EXPECT_EQ(row.result.writeSeeks, clean.writeSeeks);
    EXPECT_DOUBLE_EQ(row.result.seekTimeSec, clean.seekTimeSec);
}

TEST(SweepRunnerFaultTest, TransientLoaderFaultRetriesToSuccess)
{
    auto injector = std::make_shared<TransientFaultInjector>(1);
    SweepOptions options;
    options.jobs = 2;
    options.retry.maxAttempts = 2;
    options.retry.initialBackoff = std::chrono::milliseconds(1);
    const SweepResult sweep =
        SweepRunner({WorkloadSpec{"usr_1",
                                  [injector] {
                                      injector->onAccess(
                                          "trace load");
                                      return workloads::makeWorkload(
                                          "usr_1", tinyProfile());
                                  },
                                  nullptr}},
                    {ConfigSpec::fixed("NoLS", conventional())},
                    options)
            .run();

    const RunRow &row = sweep.row(0, 0);
    ASSERT_TRUE(row.status.ok()) << row.status.message();
    // The load retry counts toward the cell's attempts.
    EXPECT_EQ(row.outcome, CellOutcome::RetriedOk);
    EXPECT_EQ(row.attempts, 2);
    EXPECT_EQ(sweep.telemetry.retriedRuns, 1u);
}

TEST(SweepRunnerFaultTest, ExhaustedRetriesReportFailed)
{
    auto injector = std::make_shared<TransientFaultInjector>(100);
    SweepOptions options;
    options.retry.maxAttempts = 2;
    options.retry.initialBackoff = std::chrono::milliseconds(1);
    const SweepResult sweep =
        SweepRunner(
            {WorkloadSpec::profile("usr_1", tinyProfile())},
            {ConfigSpec::deferred(
                "NoLS",
                [injector](const trace::Trace &) -> stl::SimConfig {
                    injector->onAccess("config make");
                    return conventional();
                })},
            options)
            .run();

    const RunRow &row = sweep.row(0, 0);
    EXPECT_FALSE(row.status.ok());
    EXPECT_EQ(row.status.code(), StatusCode::Unavailable);
    EXPECT_EQ(row.outcome, CellOutcome::Failed);
    EXPECT_EQ(row.attempts, 2);
    EXPECT_EQ(injector->faultsFired(), 2);
}

TEST(SweepRunnerFaultTest, PermanentErrorsAreNotRetried)
{
    std::atomic<int> calls{0};
    SweepOptions options;
    options.retry.maxAttempts = 5;
    options.retry.initialBackoff = std::chrono::milliseconds(1);
    const SweepResult sweep =
        SweepRunner(
            {WorkloadSpec::profile("usr_1", tinyProfile())},
            {ConfigSpec::deferred(
                "broken",
                [&calls](const trace::Trace &) -> stl::SimConfig {
                    calls.fetch_add(1);
                    throw FatalError("deliberately broken config");
                })},
            options)
            .run();

    const RunRow &row = sweep.row(0, 0);
    EXPECT_FALSE(row.status.ok());
    EXPECT_EQ(row.outcome, CellOutcome::Failed);
    EXPECT_EQ(row.attempts, 1);
    EXPECT_EQ(calls.load(), 1);
}

TEST(SweepRunnerFaultTest, DeadlineExpiryReportsTimedOut)
{
    // Learn the trace size first: the timeout path needs enough
    // records for the replay's periodic cancellation check.
    const SweepResult clean =
        SweepRunner({WorkloadSpec::profile("usr_1", tinyProfile())},
                    {ConfigSpec::fixed("NoLS", conventional())}, {})
            .run();
    ASSERT_GT(clean.row(0, 0).ops,
              stl::ReplayEngine::kCancelCheckInterval);

    SweepOptions options;
    options.cellDeadline = std::chrono::milliseconds(5);
    options.observerFactory = [](const RunKey &) {
        std::vector<std::unique_ptr<stl::SimObserver>> observers;
        observers.push_back(std::make_unique<SleepyObserver>());
        return observers;
    };
    const SweepResult sweep =
        SweepRunner({WorkloadSpec::profile("usr_1", tinyProfile())},
                    {ConfigSpec::fixed("NoLS", conventional())},
                    options)
            .run();

    const RunRow &row = sweep.row(0, 0);
    EXPECT_FALSE(row.status.ok());
    EXPECT_EQ(row.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(row.outcome, CellOutcome::TimedOut);
    EXPECT_EQ(sweep.telemetry.timedOutRuns, 1u);
    EXPECT_EQ(sweep.telemetry.failedRuns, 1u);
}

TEST(SweepRunnerFaultTest, GenerousDeadlineDoesNotFire)
{
    SweepOptions options;
    options.jobs = 2;
    options.cellDeadline = std::chrono::minutes(10);
    const SweepResult sweep =
        SweepRunner(twoWorkloads(), twoConfigs(), options).run();
    for (const RunRow &row : sweep.rows) {
        EXPECT_TRUE(row.status.ok()) << row.status.message();
        EXPECT_EQ(row.outcome, CellOutcome::Ok);
    }
    EXPECT_EQ(sweep.telemetry.timedOutRuns, 0u);
}

TEST(SweepRunnerFaultTest, PreCancelledSweepSkipsEveryCell)
{
    CancelSource source;
    source.cancel();
    SweepOptions options;
    options.jobs = 4;
    options.cancel = source.token();
    const SweepResult sweep =
        SweepRunner(twoWorkloads(), twoConfigs(), options).run();

    ASSERT_EQ(sweep.rows.size(), 4u);
    for (const RunRow &row : sweep.rows) {
        EXPECT_FALSE(row.status.ok());
        EXPECT_EQ(row.status.code(), StatusCode::Cancelled);
        EXPECT_EQ(row.outcome, CellOutcome::Skipped);
    }
    EXPECT_EQ(sweep.telemetry.skippedRuns, 4u);
}

TEST(SweepRunnerFaultTest, MidRunCancellationSkipsTheRest)
{
    CancelSource source;
    std::atomic<int> completed{0};
    SweepOptions options;
    options.jobs = 1; // deterministic completion order
    options.cancel = source.token();
    options.onCellComplete = [&](const RunRow &) {
        if (completed.fetch_add(1) + 1 == 1)
            source.cancel();
    };
    const SweepResult sweep =
        SweepRunner(twoWorkloads(), twoConfigs(), options).run();

    std::uint64_t ok = 0, skipped = 0;
    for (const RunRow &row : sweep.rows) {
        if (row.status.ok())
            ++ok;
        else if (row.outcome == CellOutcome::Skipped)
            ++skipped;
    }
    EXPECT_GE(ok, 1u);
    EXPECT_GE(skipped, 1u);
    EXPECT_EQ(ok + skipped, sweep.rows.size());
    EXPECT_EQ(sweep.telemetry.skippedRuns, skipped);
}

TEST(SweepRunnerResumeTest, KilledSweepResumesByteIdentically)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    // "Kill" a checkpointing sweep after its first completed cell:
    // cooperative cancellation stands in for the SIGKILL the
    // acceptance scenario describes, and leaves the same artifact —
    // a checkpoint holding only the finished cells.
    TempPath ckpt("sweep_resume_kill.ckpt");
    CancelSource source;
    std::atomic<int> completed{0};
    SweepOptions interrupted;
    interrupted.jobs = 2;
    interrupted.checkpointPath = ckpt.str();
    interrupted.cancel = source.token();
    interrupted.onCellComplete = [&](const RunRow &) {
        if (completed.fetch_add(1) + 1 == 1)
            source.cancel();
    };
    const SweepResult first =
        SweepRunner(twoWorkloads(), twoConfigs(), interrupted)
            .run();

    std::uint64_t finished = 0;
    for (const RunRow &row : first.rows)
        if (row.status.ok())
            ++finished;
    ASSERT_GE(finished, 1u);
    ASSERT_LT(finished, first.rows.size());

    // Resume at several job counts: the grid must equal the
    // uninterrupted reference byte for byte every time.
    for (const int jobs : {1, 4}) {
        std::atomic<int> recomputed{0};
        SweepOptions resume;
        resume.jobs = jobs;
        resume.resumePath = ckpt.str();
        resume.onCellComplete = [&](const RunRow &) {
            recomputed.fetch_add(1);
        };
        const SweepResult resumed =
            SweepRunner(twoWorkloads(), twoConfigs(), resume)
                .run();

        EXPECT_EQ(deterministicJson(resumed), reference)
            << "jobs " << jobs;
        EXPECT_EQ(resumed.telemetry.restoredRuns, finished)
            << "jobs " << jobs;
        // Only the unfinished cells were recomputed.
        EXPECT_EQ(static_cast<std::uint64_t>(recomputed.load()),
                  resumed.rows.size() - finished)
            << "jobs " << jobs;
    }
}

TEST(SweepRunnerResumeTest, ResumedBatchedSweepIsByteIdentical)
{
    // The all-mechanisms config adds defrag rewrites, which
    // invalidate batched translations mid-run.
    std::vector<ConfigSpec> configs = twoConfigs();
    stl::SimConfig ls_all = logStructured();
    ls_all.defrag = stl::DefragConfig{};
    ls_all.prefetch = stl::PrefetchConfig{};
    ls_all.cache = stl::SelectiveCacheConfig{64 * kMiB};
    configs.push_back(ConfigSpec::fixed("LS+all", ls_all));
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), configs, {}).run());

    // Interrupt a checkpointing sweep at a ragged batch size after
    // its first completed cell, then resume at the same batch size:
    // the batch size must not leak into what gets checkpointed or
    // how restored rows compare with the default-batch reference.
    TempPath ckpt("sweep_resume_batch.ckpt");
    CancelSource source;
    std::atomic<int> completed{0};
    SweepOptions interrupted;
    interrupted.jobs = 1; // deterministic completion order
    interrupted.replayBatchSize = 17;
    interrupted.checkpointPath = ckpt.str();
    interrupted.cancel = source.token();
    interrupted.onCellComplete = [&](const RunRow &) {
        if (completed.fetch_add(1) + 1 == 1)
            source.cancel();
    };
    const SweepResult first =
        SweepRunner(twoWorkloads(), configs, interrupted).run();

    std::uint64_t finished = 0;
    for (const RunRow &row : first.rows)
        if (row.status.ok())
            ++finished;
    ASSERT_GE(finished, 1u);
    ASSERT_LT(finished, first.rows.size());

    for (const int jobs : {1, 4}) {
        SweepOptions resume;
        resume.jobs = jobs;
        resume.replayBatchSize = 17;
        resume.resumePath = ckpt.str();
        const SweepResult resumed =
            SweepRunner(twoWorkloads(), configs, resume).run();
        EXPECT_EQ(deterministicJson(resumed), reference)
            << "jobs " << jobs;
        EXPECT_EQ(resumed.telemetry.restoredRuns, finished)
            << "jobs " << jobs;
    }
}

/** A complete, clean checkpoint of the 2x2 sweep. */
std::string
completeCheckpointImage(const std::string &path)
{
    SweepOptions options;
    options.jobs = 2;
    options.checkpointPath = path;
    SweepRunner(twoWorkloads(), twoConfigs(), options).run();
    return readFile(path);
}

TEST(SweepRunnerResumeTest, CompleteCheckpointRestoresEverything)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    TempPath ckpt("sweep_resume_full.ckpt");
    completeCheckpointImage(ckpt.str());

    std::atomic<int> recomputed{0};
    SweepOptions resume;
    resume.jobs = 2;
    resume.resumePath = ckpt.str();
    resume.onCellComplete = [&](const RunRow &) {
        recomputed.fetch_add(1);
    };
    const SweepResult resumed =
        SweepRunner(twoWorkloads(), twoConfigs(), resume).run();

    EXPECT_EQ(deterministicJson(resumed), reference);
    EXPECT_EQ(resumed.telemetry.restoredRuns, 4u);
    // Nothing replayed: every trace load was skipped too.
    EXPECT_EQ(recomputed.load(), 0);
    for (const RunRow &row : resumed.rows)
        EXPECT_TRUE(row.restored);
}

TEST(SweepRunnerResumeTest, TornTailRecomputesOnlyTheLostCell)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    TempPath ckpt("sweep_resume_torn.ckpt");
    const std::string image = completeCheckpointImage(ckpt.str());
    // Tear the tail mid-frame: the last record is lost.
    writeFileRaw(ckpt.str(), image.substr(0, image.size() - 3));

    std::atomic<int> recomputed{0};
    SweepOptions resume;
    resume.jobs = 2;
    resume.resumePath = ckpt.str();
    resume.onCellComplete = [&](const RunRow &) {
        recomputed.fetch_add(1);
    };
    const SweepResult resumed =
        SweepRunner(twoWorkloads(), twoConfigs(), resume).run();

    EXPECT_EQ(deterministicJson(resumed), reference);
    EXPECT_EQ(resumed.telemetry.restoredRuns, 3u);
    EXPECT_EQ(recomputed.load(), 1);
}

TEST(SweepRunnerResumeTest, BitFlipRecomputesOnlyTheDamagedCell)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    TempPath ckpt("sweep_resume_flip.ckpt");
    const std::string image = completeCheckpointImage(ckpt.str());
    const CheckpointLoad parsed = parseCheckpoint(image);
    ASSERT_TRUE(parsed.clean());
    ASSERT_EQ(parsed.records.size(), 4u);

    // Rebuild the file with one bit flipped inside the second
    // frame's payload: its CRC no longer matches.
    std::string damaged;
    appendCheckpointFrame(damaged, parsed.records[0]);
    const std::size_t flip_at = damaged.size() + 12 + 2;
    appendCheckpointFrame(damaged, parsed.records[1]);
    damaged[flip_at] = static_cast<char>(damaged[flip_at] ^ 0x04);
    appendCheckpointFrame(damaged, parsed.records[2]);
    appendCheckpointFrame(damaged, parsed.records[3]);
    writeFileRaw(ckpt.str(), damaged);

    std::atomic<int> recomputed{0};
    SweepOptions resume;
    resume.jobs = 2;
    resume.resumePath = ckpt.str();
    resume.onCellComplete = [&](const RunRow &) {
        recomputed.fetch_add(1);
    };
    const SweepResult resumed =
        SweepRunner(twoWorkloads(), twoConfigs(), resume).run();

    EXPECT_EQ(deterministicJson(resumed), reference);
    EXPECT_EQ(resumed.telemetry.restoredRuns, 3u);
    EXPECT_EQ(recomputed.load(), 1);
}

TEST(SweepRunnerResumeTest, DuplicateRecordsAreDistrusted)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    TempPath ckpt("sweep_resume_dup.ckpt");
    const std::string image = completeCheckpointImage(ckpt.str());
    const CheckpointLoad parsed = parseCheckpoint(image);
    ASSERT_EQ(parsed.records.size(), 4u);

    // Append a second copy of the first cell: which one is right?
    // Neither is trusted; the cell is recomputed.
    std::string duplicated = image;
    appendCheckpointFrame(duplicated, parsed.records[0]);
    writeFileRaw(ckpt.str(), duplicated);

    std::atomic<int> recomputed{0};
    SweepOptions resume;
    resume.jobs = 2;
    resume.resumePath = ckpt.str();
    resume.onCellComplete = [&](const RunRow &) {
        recomputed.fetch_add(1);
    };
    const SweepResult resumed =
        SweepRunner(twoWorkloads(), twoConfigs(), resume).run();

    EXPECT_EQ(deterministicJson(resumed), reference);
    EXPECT_EQ(resumed.telemetry.restoredRuns, 3u);
    EXPECT_EQ(recomputed.load(), 1);
}

TEST(SweepRunnerResumeTest, UndecodableRecordsAreIgnored)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    TempPath ckpt("sweep_resume_garbage.ckpt");
    std::string image = completeCheckpointImage(ckpt.str());
    // A CRC-valid frame whose payload is not a CellRecord.
    appendCheckpointFrame(image, "not a cell record");
    writeFileRaw(ckpt.str(), image);

    const SweepResult resumed = [&] {
        SweepOptions resume;
        resume.jobs = 2;
        resume.resumePath = ckpt.str();
        return SweepRunner(twoWorkloads(), twoConfigs(), resume)
            .run();
    }();

    EXPECT_EQ(deterministicJson(resumed), reference);
    EXPECT_EQ(resumed.telemetry.restoredRuns, 4u);
}

TEST(SweepRunnerResumeTest, MissingCheckpointRunsTheFullSweep)
{
    const std::string reference = deterministicJson(
        SweepRunner(twoWorkloads(), twoConfigs(), {}).run());

    SweepOptions resume;
    resume.jobs = 2;
    resume.resumePath = "/nonexistent/dir/never.ckpt";
    const SweepResult resumed =
        SweepRunner(twoWorkloads(), twoConfigs(), resume).run();

    EXPECT_EQ(deterministicJson(resumed), reference);
    EXPECT_EQ(resumed.telemetry.restoredRuns, 0u);
}

TEST(SweepRunnerResumeTest, ResumedSweepRepublishesACleanFile)
{
    TempPath ckpt("sweep_resume_republish.ckpt");
    const std::string image = completeCheckpointImage(ckpt.str());
    writeFileRaw(ckpt.str(), image.substr(0, image.size() - 3));

    // Resume with checkpointing still on: the torn file must come
    // back complete and clean.
    SweepOptions resume;
    resume.jobs = 2;
    resume.resumePath = ckpt.str();
    resume.checkpointPath = ckpt.str();
    SweepRunner(twoWorkloads(), twoConfigs(), resume).run();

    const CheckpointLoad republished =
        parseCheckpoint(readFile(ckpt.str()));
    EXPECT_TRUE(republished.clean());
    EXPECT_EQ(republished.records.size(), 4u);
}

TEST(SweepRunnerCodecTest, CellRecordRoundTripsBitExactly)
{
    CellRecord record;
    record.workload = "usr_1";
    record.configLabel = "LS+all \"quoted\"";
    record.outcome = CellOutcome::RetriedOk;
    record.attempts = 3;
    record.ops = 123456789ull;
    record.wallSec = 0.1; // not exactly representable
    record.result.workload = "usr_1";
    record.result.configLabel = "LS+all";
    record.result.reads = 11;
    record.result.writes = 22;
    record.result.readSeeks = 33;
    record.result.writeSeeks = 44;
    record.result.fragmentedReads = 55;
    record.result.readFragments = 66;
    record.result.cacheHits = 77;
    record.result.cacheMisses = 88;
    record.result.prefetchHits = 99;
    record.result.defragRewrites = 110;
    record.result.defragBytes = 121;
    record.result.mediaReadBytes = 132;
    record.result.mediaWriteBytes = 143;
    record.result.hostWriteBytes = 154;
    record.result.cleaningReadBytes = 165;
    record.result.cleaningWriteBytes = 176;
    record.result.cleaningSeeks = 187;
    record.result.cleaningMerges = 198;
    record.result.seekTimeSec = 1.0 / 3.0;
    record.result.staticFragments = 209;

    const StatusOr<CellRecord> decoded =
        decodeCellRecord(encodeCellRecord(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    const CellRecord &back = decoded.value();
    EXPECT_EQ(back.workload, record.workload);
    EXPECT_EQ(back.configLabel, record.configLabel);
    EXPECT_EQ(back.outcome, record.outcome);
    EXPECT_EQ(back.attempts, record.attempts);
    EXPECT_EQ(back.ops, record.ops);
    EXPECT_EQ(back.wallSec, record.wallSec); // bit-exact
    EXPECT_EQ(back.result.workload, record.result.workload);
    EXPECT_EQ(back.result.configLabel, record.result.configLabel);
    EXPECT_EQ(back.result.reads, record.result.reads);
    EXPECT_EQ(back.result.writeSeeks, record.result.writeSeeks);
    EXPECT_EQ(back.result.cleaningMerges,
              record.result.cleaningMerges);
    EXPECT_EQ(back.result.staticFragments,
              record.result.staticFragments);
    EXPECT_EQ(back.result.seekTimeSec, record.result.seekTimeSec);
}

TEST(SweepRunnerCodecTest, EveryTruncationFailsCleanly)
{
    CellRecord record;
    record.workload = "w";
    record.configLabel = "c";
    const std::string payload = encodeCellRecord(record);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        const StatusOr<CellRecord> decoded =
            decodeCellRecord(payload.substr(0, cut));
        ASSERT_FALSE(decoded.ok()) << "cut " << cut;
        EXPECT_EQ(decoded.status().code(), StatusCode::DataLoss)
            << "cut " << cut;
    }
}

TEST(SweepRunnerCodecTest, TrailingBytesAreRejected)
{
    CellRecord record;
    record.workload = "w";
    record.configLabel = "c";
    const StatusOr<CellRecord> decoded =
        decodeCellRecord(encodeCellRecord(record) + "x");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::DataLoss);
}

TEST(SweepRunnerCodecTest, UnknownVersionIsRejected)
{
    CellRecord record;
    record.workload = "w";
    record.configLabel = "c";
    std::string payload = encodeCellRecord(record);
    payload[0] = static_cast<char>(kCellRecordVersion + 1);
    const StatusOr<CellRecord> decoded = decodeCellRecord(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::DataLoss);
}

TEST(SweepRunnerCodecTest, UnknownOutcomeIsRejected)
{
    CellRecord record;
    record.workload = "w";
    record.configLabel = "c";
    std::string payload = encodeCellRecord(record);
    // version u8, then two (u32 length + bytes) strings, then the
    // outcome byte.
    const std::size_t outcome_at = 1 + 4 + 1 + 4 + 1;
    payload[outcome_at] = static_cast<char>(200);
    const StatusOr<CellRecord> decoded = decodeCellRecord(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::DataLoss);
}

} // namespace
} // namespace logseek::sweep
