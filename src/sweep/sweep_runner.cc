#include "sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "sweep/checkpoint.h"
#include "sweep/task_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_writer.h"
#include "util/checkpoint.h"
#include "util/logging.h"

namespace logseek::sweep
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Per-cell jitter seed: splitmix64-style mix of the sweep seed and
 * the cell coordinates, so every cell gets an independent but
 * reproducible backoff stream.
 */
std::uint64_t
cellSeed(std::uint64_t seed, std::uint64_t w, std::uint64_t c)
{
    std::uint64_t x = seed ^
                      (0x9e3779b97f4a7c15ULL * (w + 1)) ^
                      (0xbf58476d1ce4e5b9ULL * (c + 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

const char *
toString(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Ok: return "OK";
      case CellOutcome::RetriedOk: return "RETRIED_OK";
      case CellOutcome::Failed: return "FAILED";
      case CellOutcome::TimedOut: return "TIMED_OUT";
      case CellOutcome::Skipped: return "SKIPPED";
    }
    return "UNKNOWN";
}

CellOutcome
classifyOutcome(const Status &status, int attempts)
{
    if (status.ok())
        return attempts > 1 ? CellOutcome::RetriedOk
                            : CellOutcome::Ok;
    switch (status.code()) {
      case StatusCode::DeadlineExceeded:
        return CellOutcome::TimedOut;
      case StatusCode::Cancelled: return CellOutcome::Skipped;
      default: return CellOutcome::Failed;
    }
}

WorkloadSpec
WorkloadSpec::profile(const std::string &name,
                      const workloads::ProfileOptions &options)
{
    return {name,
            [name, options] {
                return workloads::makeWorkload(name, options);
            },
            nullptr};
}

WorkloadSpec
WorkloadSpec::derived(
    const std::string &label, const std::string &profile_name,
    const workloads::ProfileOptions &options,
    std::function<trace::Trace(const trace::Trace &)> transform)
{
    return {label,
            [profile_name, options,
             transform = std::move(transform)] {
                trace::Trace out = transform(
                    workloads::makeWorkload(profile_name, options));
                return out;
            },
            nullptr};
}

WorkloadSpec
WorkloadSpec::source(
    std::string name,
    std::function<std::shared_ptr<const trace::TraceSource>()>
        load_source)
{
    return {std::move(name), nullptr, std::move(load_source)};
}

ConfigSpec
ConfigSpec::fixed(std::string label, stl::SimConfig config)
{
    return {std::move(label),
            [config](const trace::Trace &) { return config; },
            [config = std::move(config)](
                const trace::TraceSource &) { return config; }};
}

ConfigSpec
ConfigSpec::deferred(
    std::string label,
    std::function<stl::SimConfig(const trace::Trace &)> make)
{
    return {std::move(label), std::move(make), nullptr};
}

ConfigSpec
ConfigSpec::deferredSource(
    std::string label,
    std::function<stl::SimConfig(const trace::TraceSource &)> make)
{
    return {std::move(label), nullptr, std::move(make)};
}

const RunRow &
SweepResult::row(std::size_t w, std::size_t c) const
{
    panicIf(w >= workloads.size() || c >= configs.size(),
            "SweepResult::row: cell out of range");
    return rows[w * configs.size() + c];
}

std::optional<double>
SweepResult::safVs(std::size_t w, std::size_t c,
                   std::size_t baseline_c) const
{
    const RunRow &baseline = row(w, baseline_c);
    const RunRow &cell = row(w, c);
    if (!baseline.status.ok() || !cell.status.ok())
        return std::nullopt;
    return stl::seekAmplification(baseline.result, cell.result);
}

SweepRunner::SweepRunner(std::vector<WorkloadSpec> workloads,
                         std::vector<ConfigSpec> configs,
                         SweepOptions options)
    : workloads_(std::move(workloads)),
      configs_(std::move(configs)), options_(std::move(options))
{
}

SweepResult
SweepRunner::run()
{
    const std::size_t workload_count = workloads_.size();
    const std::size_t config_count = configs_.size();

    SweepResult out;
    out.workloads.reserve(workload_count);
    for (const auto &workload : workloads_)
        out.workloads.push_back(workload.name);
    out.configs.reserve(config_count);
    for (const auto &config : configs_)
        out.configs.push_back(config.label);

    // Rows are pre-sized so every task writes only its own slot;
    // the final order is the grid order regardless of which worker
    // finishes when.
    out.rows.resize(workload_count * config_count);
    for (std::size_t w = 0; w < workload_count; ++w)
        for (std::size_t c = 0; c < config_count; ++c)
            out.rows[w * config_count + c].key = {
                w, c, workloads_[w].name, configs_[c].label};

    restoreFromCheckpoint(out);

    // Checkpoint writer, seeded with the restored cells so a
    // resumed-and-continued sweep republishes them (physically
    // dropping any damaged frames the load skipped).
    std::unique_ptr<CheckpointWriter> writer;
    if (!options_.checkpointPath.empty()) {
        writer = std::make_unique<CheckpointWriter>(
            options_.checkpointPath);
        std::vector<std::string> seeds;
        for (const RunRow &row : out.rows)
            if (row.restored)
                seeds.push_back(encodeCellRecord(recordOf(row)));
        writer->seed(std::move(seeds));
    }
    std::atomic<bool> checkpoint_warned{false};

    // Telemetry handles shared by the cell/load lambdas below.
    auto &registry = telemetry::Registry::global();
    telemetry::Counter &checkpoint_failures = registry.counter(
        "sweep_checkpoint_append_failures_total");

    const auto start = std::chrono::steady_clock::now();
    const int jobs = options_.jobs < 1 ? 1 : options_.jobs;
    const int max_attempts = std::max(1, options_.retry.maxAttempts);
    {
        TaskPool pool(static_cast<unsigned>(jobs));

        auto finish_cell = [this, &writer, &checkpoint_warned,
                            &checkpoint_failures](RunRow &row) {
            if (writer && row.status.ok()) {
                const Status published =
                    writer->append(encodeCellRecord(recordOf(row)));
                if (!published.ok()) {
                    // The warning is printed once; the counter
                    // keeps counting so the snapshot shows how
                    // many appends the warn-once cap suppressed.
                    checkpoint_failures.add();
                    if (!checkpoint_warned.exchange(true))
                        warn("sweep checkpoint: " +
                             published.message());
                }
            }
            if (options_.onCellComplete)
                options_.onCellComplete(row);
        };

        auto run_cell = [this, &out, &pool, finish_cell,
                         config_count, max_attempts](
                            std::size_t w, std::size_t c,
                            std::shared_ptr<const trace::TraceSource>
                                source,
                            int load_extra_attempts) {
            RunRow &row = out.rows[w * config_count + c];
            row.ops = source->sizeHint().value_or(0);
            Rng rng(cellSeed(options_.retrySeed, w, c));
            int attempt = 0;
            Status status;
            for (;;) {
                if (options_.cancel.cancelled()) {
                    status = options_.cancel.toStatus(
                        "cell " + row.key.workload + "/" +
                        row.key.configLabel);
                    break;
                }
                ++attempt;
                // One trace span per attempt, tagged with the cell
                // coordinates; retries show up as separate spans.
                // Reset before any backoff sleep so the span
                // measures the attempt alone.
                std::optional<telemetry::ScopedSpan> span;
                span.emplace("cell:" + row.key.workload + "/" +
                                 row.key.configLabel,
                             "sweep-cell");
                span->arg("workload", row.key.workload);
                span->arg("config", row.key.configLabel);
                span->arg("attempt", std::to_string(attempt));
                try {
                    stl::SimConfig config;
                    if (configs_[c].makeSource) {
                        config = configs_[c].makeSource(*source);
                    } else {
                        const trace::Trace *memory =
                            source->memoryTrace();
                        if (memory == nullptr) {
                            // A trace-shaped factory cannot see a
                            // streamed workload; this is a spec
                            // bug, not a transient fault.
                            status = invalidArgumentError(
                                "config '" + row.key.configLabel +
                                "' sizes itself from the whole "
                                "trace, but workload '" +
                                row.key.workload +
                                "' is not RAM-backed; use "
                                "ConfigSpec::deferredSource");
                            break;
                        }
                        config = configs_[c].make(*memory);
                    }
                    stl::Simulator simulator(config);
                    // Fresh observers every attempt: a replay that
                    // died mid-trace left them half-updated.
                    row.observers.clear();
                    if (options_.observerFactory)
                        row.observers =
                            options_.observerFactory(row.key);
                    for (const auto &observer : row.observers)
                        simulator.addObserver(observer.get());

                    // Per-cell deadline: a watchdog fires this
                    // cell's CancelSource (linked under the sweep-
                    // wide token), and the replay unwinds at its
                    // next per-batch check.
                    CancelSource cell_cancel(options_.cancel);
                    std::optional<TaskPool::WatchId> watch;
                    if (options_.cellDeadline.count() > 0)
                        watch = pool.armWatchdog(
                            std::chrono::steady_clock::now() +
                                options_.cellDeadline,
                            [cell_cancel]() mutable {
                                cell_cancel.cancel(
                                    CancelReason::
                                        DeadlineExceeded);
                            });

                    // A fresh cursor per attempt: a replay that
                    // died mid-stream left the old one mid-pull.
                    std::unique_ptr<trace::TraceInput> input =
                        source->open();
                    const auto run_start =
                        std::chrono::steady_clock::now();
                    StatusOr<stl::SimResult> result =
                        simulator.tryRun(*input,
                                         cell_cancel.token());
                    row.wallSec = secondsSince(run_start);
                    if (watch)
                        pool.disarmWatchdog(*watch);
                    if (result.ok()) {
                        row.result = std::move(result).value();
                        if (!source->sizeHint())
                            row.ops = row.result.reads +
                                      row.result.writes;
                        status = Status();
                        break;
                    }
                    status = result.status();
                } catch (const StatusError &e) {
                    status = e.status();
                } catch (const PanicError &e) {
                    status = internalError(e.what());
                } catch (const FatalError &e) {
                    status = invalidArgumentError(e.what());
                }
                span.reset();
                if (isRetryable(status.code()) &&
                    attempt < max_attempts) {
                    // A cancellation during the backoff is caught
                    // by the check at the top of the loop.
                    sleepFor(backoffDelay(options_.retry, attempt,
                                          rng),
                             options_.cancel);
                    continue;
                }
                break;
            }
            row.status = status;
            row.attempts =
                std::max(1, load_extra_attempts + attempt);
            row.outcome = classifyOutcome(status, row.attempts);
            finish_cell(row);
        };

        for (std::size_t w = 0; w < workload_count; ++w) {
            // A workload whose cells were all restored needs no
            // trace at all — unless an onTrace analysis hook still
            // wants to see it.
            bool needs_load = config_count == 0;
            for (std::size_t c = 0; c < config_count; ++c)
                if (!out.rows[w * config_count + c].restored)
                    needs_load = true;
            if (options_.onTrace)
                needs_load = true;
            if (!needs_load)
                continue;

            pool.submit([this, &out, &pool, run_cell, finish_cell,
                         w, config_count, max_attempts] {
                std::shared_ptr<const trace::TraceSource> source;
                Rng rng(cellSeed(options_.retrySeed ^
                                     0x10adf00dULL,
                                 w, config_count));
                int attempt = 0;
                Status status;
                for (;;) {
                    if (options_.cancel.cancelled()) {
                        status = options_.cancel.toStatus(
                            "workload '" + workloads_[w].name +
                            "'");
                        break;
                    }
                    ++attempt;
                    telemetry::ScopedSpan span(
                        "load:" + workloads_[w].name,
                        "sweep-load");
                    span.arg("workload", workloads_[w].name);
                    span.arg("attempt", std::to_string(attempt));
                    try {
                        if (workloads_[w].loadSource)
                            source = workloads_[w].loadSource();
                        else
                            source = std::make_shared<
                                const trace::InMemoryTraceSource>(
                                workloads_[w].load());
                        if (source == nullptr)
                            throw FatalError(
                                "workload '" +
                                workloads_[w].name +
                                "': loadSource returned null");
                        if (options_.onTrace) {
                            const trace::Trace *memory =
                                source->memoryTrace();
                            if (memory != nullptr)
                                options_.onTrace(w, *memory);
                        }
                        status = Status();
                        break;
                    } catch (const StatusError &e) {
                        status = e.status();
                    } catch (const PanicError &e) {
                        status = internalError(e.what());
                    } catch (const FatalError &e) {
                        status = invalidArgumentError(e.what());
                    }
                    if (isRetryable(status.code()) &&
                        attempt < max_attempts) {
                        sleepFor(backoffDelay(options_.retry,
                                              attempt, rng),
                                 options_.cancel);
                        continue;
                    }
                    break;
                }
                if (!status.ok()) {
                    // The whole workload is unusable; finish its
                    // non-restored cells with the load failure.
                    for (std::size_t c = 0; c < config_count;
                         ++c) {
                        RunRow &row =
                            out.rows[w * config_count + c];
                        if (row.restored)
                            continue;
                        row.status = status;
                        row.attempts = std::max(1, attempt);
                        row.outcome = classifyOutcome(
                            status, row.attempts);
                        finish_cell(row);
                    }
                    return;
                }
                // Fan the loaded source out into one task per
                // config; idle workers steal them. Each task holds
                // one shared_ptr reference, so the source — the
                // trace memory or the file mapping — is released
                // the moment the workload's last cell completes,
                // not at sweep end. Retries spent loading count
                // toward each cell's attempts.
                const int load_extra = attempt - 1;
                for (std::size_t c = 0; c < config_count; ++c) {
                    if (out.rows[w * config_count + c].restored)
                        continue;
                    pool.submit([run_cell, w, c, source,
                                 load_extra] {
                        run_cell(w, c, source, load_extra);
                    });
                }
            });
        }

        pool.wait();
        out.telemetry.steals = pool.stealCount();
    }

    out.telemetry.wallSec = secondsSince(start);
    out.telemetry.jobs = jobs;
    out.telemetry.runs = out.rows.size();
    telemetry::LatencyHistogram &cell_latency =
        registry.histogram("sweep_cell_replay_latency_ns");
    for (const RunRow &row : out.rows) {
        registry
            .counter("sweep_cells_total",
                     std::string("outcome=\"") +
                         toString(row.outcome) + "\"")
            .add();
        if (!row.restored && row.wallSec > 0.0)
            cell_latency.record(
                static_cast<std::uint64_t>(row.wallSec * 1e9));
        out.telemetry.replaySec += row.wallSec;
        out.telemetry.ops += row.ops;
        if (!row.status.ok())
            ++out.telemetry.failedRuns;
        if (row.restored)
            ++out.telemetry.restoredRuns;
        switch (row.outcome) {
          case CellOutcome::RetriedOk:
            ++out.telemetry.retriedRuns;
            break;
          case CellOutcome::TimedOut:
            ++out.telemetry.timedOutRuns;
            break;
          case CellOutcome::Skipped:
            ++out.telemetry.skippedRuns;
            break;
          default: break;
        }
    }
    return out;
}

CellRecord
SweepRunner::recordOf(const RunRow &row)
{
    return CellRecord{row.key.workload,
                      row.key.configLabel,
                      row.outcome,
                      static_cast<std::uint32_t>(row.attempts),
                      row.ops,
                      row.wallSec,
                      row.result};
}

void
SweepRunner::restoreFromCheckpoint(SweepResult &out)
{
    if (options_.resumePath.empty())
        return;

    StatusOr<CheckpointLoad> load =
        loadCheckpoint(options_.resumePath);
    if (!load.ok()) {
        warn("sweep resume: " + load.status().message() +
             "; running the full sweep");
        return;
    }
    const CheckpointLoad &checkpoint = load.value();
    auto &registry = telemetry::Registry::global();
    registry.counter("sweep_resume_damaged_frames_total")
        .add(checkpoint.damagedFrames);
    if (!checkpoint.clean())
        warn("sweep resume: checkpoint '" + options_.resumePath +
             "' is damaged (" +
             std::to_string(checkpoint.damagedFrames) +
             " bad frame(s)" +
             (checkpoint.tornTail ? ", torn tail" : "") + ", " +
             std::to_string(checkpoint.bytesDropped) +
             " byte(s) dropped); affected cells will be "
             "recomputed");

    using Key = std::pair<std::string, std::string>;
    std::map<Key, CellRecord> records;
    std::set<Key> duplicates;
    std::uint64_t undecodable = 0;
    for (const std::string &payload : checkpoint.records) {
        StatusOr<CellRecord> decoded = decodeCellRecord(payload);
        if (!decoded.ok()) {
            ++undecodable;
            continue;
        }
        CellRecord record = std::move(decoded).value();
        // Only successful outcomes carry a result worth
        // restoring.
        if (record.outcome != CellOutcome::Ok &&
            record.outcome != CellOutcome::RetriedOk)
            continue;
        Key key{record.workload, record.configLabel};
        if (records.count(key) > 0)
            duplicates.insert(key);
        else
            records.emplace(std::move(key), std::move(record));
    }
    registry.counter("sweep_resume_undecodable_records_total")
        .add(undecodable);
    registry.counter("sweep_resume_duplicate_cells_total")
        .add(duplicates.size());
    if (undecodable > 0)
        warn("sweep resume: " + std::to_string(undecodable) +
             " undecodable cell record(s) ignored");
    if (!duplicates.empty()) {
        // A duplicate means the file is not trustworthy for that
        // cell — which copy is right? Recompute it.
        warn("sweep resume: " +
             std::to_string(duplicates.size()) +
             " duplicated cell(s) in checkpoint; those cells "
             "will be recomputed");
        for (const Key &key : duplicates)
            records.erase(key);
    }

    for (RunRow &row : out.rows) {
        const auto it = records.find(
            {row.key.workload, row.key.configLabel});
        if (it == records.end())
            continue;
        const CellRecord &record = it->second;
        row.restored = true;
        row.outcome = record.outcome;
        row.attempts = static_cast<int>(record.attempts);
        row.ops = record.ops;
        row.wallSec = record.wallSec;
        row.result = record.result;
    }
}

} // namespace logseek::sweep
