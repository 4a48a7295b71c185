/**
 * @file
 * Shared types of the perfbench binary: the generated profiles a
 * workload replays, the record/fragment stream its counting
 * observer captures, the in-memory span recorder of the traced run,
 * and the layer-replay totals the per-layer metrics come from.
 *
 * Everything here sits outside the library: spans are recorded
 * around the calls the benchmark makes into each layer's public
 * API, never inside src/.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "disk/zoned_device.h"
#include "stl/simulator.h"
#include "trace/input.h"
#include "util/status.h"

namespace perfbench
{

using namespace logseek;

using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** One generated workload profile, ready to replay. */
struct Profile
{
    std::string name;

    /** Null when the source could not be opened (see openStatus). */
    std::shared_ptr<const trace::TraceSource> source;
    Status openStatus;

    std::uint64_t records = 0;
    Lba addressSpaceEnd = 0;

    /** Unique sectors the profile's writes touch (log sizing). */
    std::uint64_t footprintSectors = 0;
};

/**
 * The record and fragment stream of one cell, as the counting
 * observer saw it: one entry per IoEvent, with the event's merged
 * physical segments flattened into `fragments`.
 */
struct CapturedStream
{
    std::vector<trace::IoType> types;
    std::vector<SectorExtent> extents;

    /** fragments[fragmentEnd[i-1] .. fragmentEnd[i]) belong to
     *  event i. */
    std::vector<std::uint64_t> fragmentEnd;
    std::vector<SectorExtent> fragments;

    std::size_t size() const { return types.size(); }
};

/** One recorded span: [startNs, endNs) on a thread. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    /** Index of the parent span, or -1 for a root. */
    long parent = -1;

    /** Free-form annotations (workload, column, child totals). */
    std::vector<std::pair<std::string, std::string>> args;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

/**
 * In-memory span recorder, written out once when the benchmark
 * ends. Thread-safe; spans are recorded at cell granularity or
 * coarser, so the mutex is never on a per-record path.
 */
class Tracer
{
  public:
    /** Record a span (endNs may be filled in later by close());
     *  returns its index, usable as a child's parent. */
    long open(Span span);

    /** Set the end of the span at `index`. */
    void close(long index, std::uint64_t end_ns);

    /** Sum of durations of the spans called `name`. */
    std::uint64_t totalNs(const std::string &name) const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Times one call into a layer and records it as a span (a no-op
 *  without a tracer). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, long parent = -1)
        : tracer_(tracer)
    {
        if (tracer_ != nullptr)
            index_ = tracer_->open(
                Span{std::move(name), nowNs(), 0, parent, {}});
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->close(index_, nowNs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    long index_ = -1;
};

/**
 * Layer-replay totals over all profiles of a workload. Each *Ns
 * field is the summed duration of individually timed calls; each
 * count is the number of those calls or an exact simulated tally.
 */
struct LayerTotals
{
    std::uint64_t lsReadNs = 0, lsReads = 0;
    std::uint64_t lsWriteNs = 0, lsWrites = 0;
    std::uint64_t readFragments = 0, staticFragments = 0;

    std::uint64_t flReadNs = 0, flReads = 0;
    std::uint64_t flWriteNs = 0, flWrites = 0;
    std::uint64_t flMaintenanceNs = 0;
    std::uint64_t flVictimLiveBytes = 0, flVictimSpanBytes = 0;
    std::uint64_t flCleaningWriteBytes = 0, flHostWriteBytes = 0;

    std::uint64_t cacheLookupNs = 0, cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t prefetchLookupNs = 0, prefetchLookups = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t defragNs = 0, defragReads = 0, defragRewrites = 0;

    std::uint64_t headNs = 0, headAccesses = 0;

    std::uint64_t zonedReadNs = 0, zonedReads = 0;
    std::uint64_t zonedWriteNs = 0, zonedWrites = 0;
    std::uint64_t zonedRetries = 0, zonedFailedSectors = 0;

    std::uint64_t journalBytes = 0, journalEpochs = 0;
    std::uint64_t journalOps = 0;
    std::uint64_t mountNs = 0, mountedEpochs = 0;
    std::uint64_t fsckNs = 0, fsckEntries = 0;

    /** Layer-replay checks that failed (unclean mount or Fsck, an
     *  overcommitted log). */
    std::uint64_t failedChecks = 0;
};

/** Finite-log geometry at `util_pct` of the live footprint, sized
 *  the way the gc_ablation harness sizes it. */
stl::FiniteLogConfig sizedFiniteLog(std::uint64_t footprint_sectors,
                                    unsigned util_pct);

/** The seeded media-fault model of the durable workload. */
disk::ZonedDeviceOptions faultyDevice(std::uint64_t seed);

/**
 * Drive each layer's public API alone over one profile: both log
 * translation layers and a journaled log over the profile's
 * records, then the read stages, the disk head and a zoned device
 * over the fragment stream captured from the grid's capture column
 * (whose config is `capture_config`). Adds into `totals`.
 */
void replayLayers(const Profile &profile,
                  const CapturedStream &captured,
                  const stl::SimConfig &capture_config,
                  std::uint64_t seed, LayerTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
