/**
 * @file
 * Smoke benchmark for the parallel sweep runner: replays the
 * Figure 11 sweep (all 21 workloads × 6 configs) serially and with
 * a worker pool, checks the two produce byte-identical simulation
 * results, and writes the throughput comparison to a JSON file
 * (default BENCH_sweep.json) for tracking.
 *
 * Further legs probe the batch-first replay core:
 *  - scalar: the serial sweep at --replay-batch 1 (record-at-a-
 *    time); serial over scalar is the batching speedup
 *    ("batchedVsScalar").
 *  - telemetry: the serial sweep with collection armed; must still
 *    be byte-identical (telemetry never touches SimResult), its
 *    wall time over the plain serial leg is the telemetry overhead
 *    ratio, and its metrics snapshot is embedded under "metrics".
 *
 * On a single-hardware-thread box the parallel (multi-jobs) leg
 * cannot demonstrate a speedup; the report then carries
 * "parallelLegValid": false and a warning is printed, so trackers
 * do not read the ~1x speedup as a regression.
 *
 * "serialRatioVsBaseline" compares the serial leg with the report
 * this run overwrites. It is only meaningful on the machine that
 * wrote that report, so it is null unless the old report's
 * "hardwareConcurrency" matches this box's.
 *
 * Usage: perf_sweep [scale] [seed] [--jobs N] [--json=path]
 *
 * --jobs selects the parallel worker count (0 or default = hardware
 * concurrency); the serial leg always runs with one worker.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stl/simulator.h"
#include "sweep/cli.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "workloads/profiles.h"

namespace
{

using namespace logseek;

std::vector<sweep::ConfigSpec>
fig11Configs()
{
    auto ls = [](bool defrag, bool prefetch, bool cache) {
        stl::SimConfig config;
        config.translation = stl::TranslationKind::LogStructured;
        if (defrag)
            config.defrag = stl::DefragConfig{};
        if (prefetch)
            config.prefetch = stl::PrefetchConfig{};
        if (cache)
            config.cache = stl::SelectiveCacheConfig{64 * kMiB};
        return config;
    };
    stl::SimConfig baseline;
    baseline.translation = stl::TranslationKind::Conventional;
    return {
        sweep::ConfigSpec::fixed("NoLS", baseline),
        sweep::ConfigSpec::fixed("LS", ls(false, false, false)),
        sweep::ConfigSpec::fixed("LS+defrag", ls(true, false, false)),
        sweep::ConfigSpec::fixed("LS+prefetch",
                                 ls(false, true, false)),
        sweep::ConfigSpec::fixed("LS+cache(64MB)",
                                 ls(false, false, true)),
        sweep::ConfigSpec::fixed("LS+all", ls(true, true, true)),
    };
}

std::vector<sweep::WorkloadSpec>
allWorkloads(const workloads::ProfileOptions &profile)
{
    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &name : workloads::msrWorkloadNames())
        specs.push_back(sweep::WorkloadSpec::profile(name, profile));
    for (const auto &name : workloads::cloudPhysicsWorkloadNames())
        specs.push_back(sweep::WorkloadSpec::profile(name, profile));
    return specs;
}

sweep::SweepResult
runOnce(const workloads::ProfileOptions &profile, int jobs,
        int replay_batch = 0)
{
    sweep::SweepOptions options;
    options.jobs = jobs;
    options.replayBatchSize = replay_batch;
    sweep::SweepRunner runner(allWorkloads(profile), fig11Configs(),
                              std::move(options));
    return runner.run();
}

std::string
deterministicForm(const sweep::SweepResult &sweep)
{
    std::ostringstream out;
    sweep::writeJson(out, sweep, /*with_telemetry=*/false);
    return out.str();
}

/** The previous report's serial throughput and the machine's
 *  hardware concurrency it was measured with. */
struct Baseline
{
    double serialOpsPerSec = 0.0;
    int hardwareConcurrency = 0;
};

/** The number after the first `key` at or past `from` in `doc`, or
 *  0 when the key is absent or not followed by a number. */
double
numberAfter(const std::string &doc, const std::string &key,
            std::size_t from = 0)
{
    const std::size_t at = doc.find(key, from);
    if (at == std::string::npos)
        return 0.0;
    try {
        return std::stod(doc.substr(at + key.size()));
    } catch (const std::exception &) {
        return 0.0;
    }
}

/**
 * The baseline recorded in the report at `path` (zeros when the
 * file or a field is absent). Scanned before the file is
 * overwritten, so every run compares against the previous numbers.
 */
Baseline
readBaseline(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        return {};
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string doc = buffer.str();
    Baseline baseline;
    baseline.hardwareConcurrency = static_cast<int>(
        numberAfter(doc, "\"hardwareConcurrency\":"));
    const std::size_t serial_at = doc.find("\"serial\":");
    if (serial_at != std::string::npos)
        baseline.serialOpsPerSec =
            numberAfter(doc, "\"opsPerSec\":", serial_at);
    return baseline;
}

} // namespace

int
main(int argc, char **argv)
{
    auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("perf_sweep"));
    if (!cli)
        return 2;
    // Default the parallel leg to hardware concurrency (an
    // explicit --jobs overrides) and the report to BENCH_sweep.json
    // unless told otherwise.
    const int hardware =
        static_cast<int>(std::thread::hardware_concurrency());
    const int parallel_jobs =
        cli->jobs != 1 ? cli->resolvedJobs()
                       : (hardware > 1 ? hardware : 1);
    const std::string path =
        cli->jsonPath && *cli->jsonPath != "-" ? *cli->jsonPath
                                               : "BENCH_sweep.json";

    std::cout << "perf_sweep: Figure 11 sweep at scale "
              << cli->profile.scale << ", serial vs " << parallel_jobs
              << " jobs\n";

    // Read the previous checked-in numbers before overwriting them.
    // A baseline from a machine with a different core count is not
    // comparable, so its ratio is withheld.
    const Baseline baseline = readBaseline(path);
    const bool baseline_comparable =
        baseline.serialOpsPerSec > 0.0 &&
        baseline.hardwareConcurrency == hardware;

    const bool parallel_leg_valid = hardware > 1;
    if (!parallel_leg_valid)
        std::cout << "perf_sweep: WARNING: hardware concurrency is "
                     "1; the parallel leg cannot speed up and "
                     "\"parallelLegValid\" is false in the report\n";

    // Warm-up: one untimed serial sweep so the first timed leg
    // does not absorb the process's cold-start costs (page faults,
    // allocator arena growth) and the leg-vs-leg ratios compare
    // steady states.
    (void)runOnce(cli->profile, 1);

    const sweep::SweepResult serial = runOnce(cli->profile, 1);
    // Scalar leg: batch size 1 = record-at-a-time replay; serial
    // over scalar is the speedup of the batched read path.
    const sweep::SweepResult scalar =
        runOnce(cli->profile, 1, /*replay_batch=*/1);
    const sweep::SweepResult parallel =
        runOnce(cli->profile, parallel_jobs);

    // Telemetry leg: same serial sweep with collection armed. A
    // fresh-zeroed registry isolates this leg's counts, and the
    // deterministic form must not move — telemetry observes the
    // replay, it never feeds back into it.
    telemetry::Registry::global().resetValues();
    telemetry::setEnabled(true);
    const sweep::SweepResult instrumented = runOnce(cli->profile, 1);
    telemetry::setEnabled(false);
    const telemetry::MetricsSnapshot metrics =
        telemetry::Registry::global().snapshot();

    const bool deterministic =
        deterministicForm(serial) == deterministicForm(parallel) &&
        deterministicForm(serial) == deterministicForm(scalar) &&
        deterministicForm(serial) == deterministicForm(instrumented);
    const double speedup =
        parallel.telemetry.wallSec > 0.0
            ? serial.telemetry.wallSec / parallel.telemetry.wallSec
            : 0.0;
    const double overhead =
        serial.telemetry.wallSec > 0.0
            ? instrumented.telemetry.wallSec /
                  serial.telemetry.wallSec
            : 0.0;
    const double serial_ratio =
        baseline_comparable
            ? serial.telemetry.opsPerSec() / baseline.serialOpsPerSec
            : 0.0;
    const double batched_vs_scalar =
        scalar.telemetry.wallSec > 0.0 &&
                serial.telemetry.wallSec > 0.0
            ? serial.telemetry.opsPerSec() /
                  scalar.telemetry.opsPerSec()
            : 0.0;

    std::ostringstream json;
    json.precision(6);
    json << "{\n"
         << "  \"benchmark\": \"perf_sweep\",\n"
         << "  \"scale\": " << cli->profile.scale << ",\n"
         << "  \"workloads\": " << serial.workloads.size() << ",\n"
         << "  \"configs\": " << serial.configs.size() << ",\n"
         << "  \"runs\": " << serial.telemetry.runs << ",\n"
         << "  \"opsPerRun\": " << serial.telemetry.ops << ",\n"
         << "  \"hardwareConcurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"parallelLegValid\": "
         << (parallel_leg_valid ? "true" : "false") << ",\n"
         << "  \"deterministic\": "
         << (deterministic ? "true" : "false") << ",\n"
         << "  \"serial\": {\"jobs\": 1, \"wallSec\": "
         << serial.telemetry.wallSec << ", \"opsPerSec\": "
         << serial.telemetry.opsPerSec() << "},\n"
         << "  \"scalar\": {\"jobs\": 1, \"replayBatch\": 1, "
            "\"wallSec\": "
         << scalar.telemetry.wallSec << ", \"opsPerSec\": "
         << scalar.telemetry.opsPerSec() << "},\n"
         << "  \"parallel\": {\"jobs\": " << parallel.telemetry.jobs
         << ", \"wallSec\": " << parallel.telemetry.wallSec
         << ", \"opsPerSec\": " << parallel.telemetry.opsPerSec()
         << ", \"steals\": " << parallel.telemetry.steals << "},\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"batchedVsScalar\": " << batched_vs_scalar << ",\n"
         << "  \"serialRatioVsBaseline\": ";
    if (baseline_comparable)
        json << serial_ratio;
    else
        json << "null";
    json << ",\n"
         << "  \"telemetry\": {\"jobs\": 1, \"wallSec\": "
         << instrumented.telemetry.wallSec << ", \"opsPerSec\": "
         << instrumented.telemetry.opsPerSec()
         << ", \"overheadRatio\": " << overhead << "},\n"
         << "  \"metrics\": ";
    std::ostringstream snapshot_json;
    telemetry::writeMetricsJson(metrics, snapshot_json);
    json << snapshot_json.str() << "}\n";

    std::ofstream file(path);
    if (!file) {
        std::cerr << "perf_sweep: cannot write " << path << "\n";
        return 1;
    }
    file << json.str();

    std::cout << json.str();
    if (baseline_comparable)
        std::cout << "serial ops/sec vs checked-in baseline: "
                  << serial_ratio << "x ("
                  << baseline.serialOpsPerSec << " -> "
                  << serial.telemetry.opsPerSec() << ")\n";
    else if (baseline.serialOpsPerSec > 0.0)
        std::cout << "serial ops/sec vs checked-in baseline: "
                     "not compared, the baseline is from a different "
                     "machine (hardwareConcurrency "
                  << baseline.hardwareConcurrency << ", this box "
                  << hardware << ")\n";
    std::cout << "batched vs scalar replay: " << batched_vs_scalar
              << "x\n";
    std::cout << (deterministic
                      ? "serial, scalar, parallel and telemetry "
                        "sweeps byte-identical\n"
                      : "MISMATCH between replay legs!\n");
    return deterministic ? 0 : 1;
}
