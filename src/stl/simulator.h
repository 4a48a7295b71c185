/**
 * @file
 * Trace-driven seek simulator for block translation layers.
 *
 * The Simulator replays a block trace against a translation layer
 * (conventional or log-structured) under the paper's infinite-disk
 * model, counting read and write seeks per §II, optionally with any
 * combination of the three seek-reduction mechanisms (§IV). One
 * IoEvent per logical request is delivered to registered observers,
 * which is how every analysis/figure is computed without touching
 * the engine.
 */

#ifndef LOGSEEK_STL_SIMULATOR_H
#define LOGSEEK_STL_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "disk/head.h"
#include "disk/seek_time.h"
#include "disk/zoned_device.h"
#include "stl/defrag.h"
#include "stl/finite_log.h"
#include "stl/log_structured.h"
#include "stl/media_cache.h"
#include "stl/prefetch.h"
#include "stl/selective_cache.h"
#include "stl/translation_layer.h"
#include "trace/input.h"
#include "trace/trace.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace logseek::stl
{

/** Which translation layer the simulator instantiates. */
enum class TranslationKind
{
    Conventional,
    LogStructured,
    FiniteLogStructured,
    MediaCache,
};

/** Full simulator configuration. */
struct SimConfig
{
    TranslationKind translation = TranslationKind::LogStructured;

    /** Opportunistic defragmentation (§IV-A); off by default. */
    std::optional<DefragConfig> defrag;

    /** Look-ahead-behind prefetching (§IV-B); off by default. */
    std::optional<PrefetchConfig> prefetch;

    /** Selective caching (§IV-C); off by default. */
    std::optional<SelectiveCacheConfig> cache;

    /**
     * Media-cache layer parameters; only used when translation is
     * TranslationKind::MediaCache.
     */
    MediaCacheConfig mediaCache;

    /**
     * Optional zone/guard structure for the log-structured layer;
     * crossing a zone boundary makes the next log write skip the
     * guard band (one short seek per crossing).
     */
    std::optional<ZoneConfig> zones;

    /**
     * Finite-log parameters; only used when translation is
     * TranslationKind::FiniteLogStructured.
     */
    FiniteLogConfig finiteLog;

    /** Seek-time model parameters (time reporting only). */
    disk::SeekTimeParams seekTime;

    /**
     * Zoned-device realism layer; off by default. When set, every
     * media access is mirrored through a ZonedDevice: writes
     * advance real per-zone write pointers under the selected
     * translation layer's zone policy, and reads traverse the
     * seeded media-fault model (see docs/zoned_device.md).
     */
    std::optional<disk::ZonedDeviceOptions> zonedDevice;

    /**
     * Durable translation-metadata journal; off (null) by default.
     * When set, the translation layer records every state mutation
     * as one epoch frame into this caller-owned journal, which
     * must outlive the run — it is the piece of state that
     * survives a crash, so the crash-recovery harness keeps it
     * while the engine (and its layer) are torn down and remounts
     * a fresh layer from it. Not owned; does not affect seek
     * accounting or label().
     */
    SegmentJournal *journal = nullptr;

    /**
     * Run the Fsck invariant verifier after the replay (requires
     * `journal`): extent-map ↔ journal agreement, write-pointer
     * alignment. Any violation is fatal — this is the --paranoid
     * belt-and-suspenders mode, off by default. Does not affect
     * results or label().
     */
    bool paranoidFsck = false;

    /** Short label of the configuration, e.g. "LS+cache". */
    std::string label() const;
};

/** One logical request as the simulator served it. */
struct IoEvent
{
    /** Index of the request in the trace. */
    std::uint64_t opIndex = 0;

    /** The original trace record. */
    trace::IoRecord record;

    /**
     * Physical segments the request translated to (after merging
     * physically contiguous runs), in LBA order; for writes, the
     * single placed segment. Cache/prefetch hits do not remove
     * entries here.
     */
    std::vector<Segment> segments;

    /** Media seeks this request incurred (including any defrag
     *  rewrite), in occurrence order; only actual seeks appear. */
    std::vector<disk::SeekInfo> seeks;

    /** Fragments served from the selective cache. */
    std::uint32_t cacheHits = 0;

    /** Fragments served from the drive prefetch buffer. */
    std::uint32_t prefetchHits = 0;

    /** True if this read triggered an opportunistic rewrite. */
    bool defragRewrite = false;

    /** Segments placed by the defrag rewrite (empty otherwise). */
    std::vector<Segment> defragSegments;

    /** Cleaning (merge) seeks charged to this request. */
    std::uint32_t cleaningSeeks = 0;

    /** Bytes moved to/from the media for this request. */
    std::uint64_t mediaBytes = 0;

    /** Device read-recovery retries charged to this request. */
    std::uint32_t deviceRetries = 0;

    /** Device sectors this request lost (unrecovered reads or
     *  refused writes). */
    std::uint32_t deviceFailedSectors = 0;

    /**
     * Reset to a fresh event while keeping the vectors' capacity,
     * so one IoEvent reused across a replay loop stops allocating
     * once warmed up.
     */
    void
    reset()
    {
        opIndex = 0;
        record = {};
        segments.clear();
        seeks.clear();
        cacheHits = 0;
        prefetchHits = 0;
        defragRewrite = false;
        defragSegments.clear();
        cleaningSeeks = 0;
        mediaBytes = 0;
        deviceRetries = 0;
        deviceFailedSectors = 0;
    }

    /** Dynamic fragmentation of a read (1 for writes). */
    std::size_t fragments() const { return segments.size(); }

    /** True for a read resolved to two or more physical runs. */
    bool
    isFragmentedRead() const
    {
        return record.isRead() && segments.size() >= 2;
    }
};

/** Aggregate results of one simulation run. */
struct SimResult
{
    std::string workload;
    std::string configLabel;

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readSeeks = 0;
    std::uint64_t writeSeeks = 0;

    std::uint64_t fragmentedReads = 0;
    std::uint64_t readFragments = 0;

    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t prefetchHits = 0;

    std::uint64_t defragRewrites = 0;
    std::uint64_t defragBytes = 0;

    std::uint64_t mediaReadBytes = 0;
    std::uint64_t mediaWriteBytes = 0;

    /** Bytes the host asked to write (before any amplification). */
    std::uint64_t hostWriteBytes = 0;

    /** Cleaning traffic and seeks (media-cache merges or finite-
     *  log garbage collection). cleaningMerges counts merge passes
     *  or reclaimed segments respectively. */
    std::uint64_t cleaningReadBytes = 0;
    std::uint64_t cleaningWriteBytes = 0;
    std::uint64_t cleaningSeeks = 0;
    std::uint64_t cleaningMerges = 0;

    /** Estimated positioning time over all seeks (seconds). */
    double seekTimeSec = 0.0;

    /** Final static fragmentation of the translation layer. */
    std::size_t staticFragments = 0;

    /** Zoned-device counters; all zero when the device layer is
     *  off (SimConfig::zonedDevice unset). */
    std::uint64_t deviceReadRetries = 0;
    std::uint64_t deviceRecoveredSectors = 0;
    std::uint64_t deviceFailedReadSectors = 0;
    std::uint64_t deviceDegradedReads = 0;
    std::uint64_t deviceFailedWriteSectors = 0;
    std::uint64_t deviceZoneResets = 0;
    std::uint64_t deviceWpViolations = 0;
    std::uint64_t deviceOutOfPolicyWrites = 0;
    std::uint64_t deviceGrownDefects = 0;
    std::uint64_t deviceReadOnlyZones = 0;
    std::uint64_t deviceOfflineZones = 0;

    /** Read-error-log entries the device dropped because the
     *  configured bound (ZonedDeviceOptions::errorLogCap) was
     *  reached; 0 when the device layer is off. */
    std::uint64_t deviceErrorLogDropped = 0;

    /** Live bytes GC moved out of victim segments (finite log
     *  only); gcVictimSpanBytes is the total capacity the victims
     *  spanned, so live/span is the mean victim utilization. */
    std::uint64_t gcVictimLiveBytes = 0;
    std::uint64_t gcVictimSpanBytes = 0;

    /**
     * Exact (bit-wise, including seekTimeSec) comparison. Batch
     * size, input backing and sweep parallelism are execution
     * strategies that must not change a result, so tests compare
     * results with == rather than field-by-field tolerances.
     */
    bool operator==(const SimResult &) const = default;

    /** True when the device lost any sectors this run. */
    bool
    deviceDegraded() const
    {
        return deviceFailedReadSectors > 0 ||
               deviceFailedWriteSectors > 0;
    }

    /** Host-visible seeks (the paper's SAF numerator). */
    std::uint64_t totalSeeks() const { return readSeeks + writeSeeks; }

    /** Seeks including background cleaning work. */
    std::uint64_t
    totalSeeksWithCleaning() const
    {
        return totalSeeks() + cleaningSeeks;
    }

    /**
     * Write amplification factor: bytes written to the media
     * (host + cleaning rewrites) per host-written byte; 1.0 when
     * there were no writes.
     */
    double writeAmplification() const;
};

/** Observer interface; analyses implement this. */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    /** Called once per logical request, in trace order. */
    virtual void onEvent(const IoEvent &event) = 0;
};

/**
 * The trace-replay engine. A Simulator is configured once and can
 * run many traces; each run() uses fresh translation/mechanism
 * state sized to that trace.
 */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config = {});

    /**
     * Register an observer for subsequent runs. Observers are not
     * owned and must outlive the simulator's run() calls.
     */
    void addObserver(SimObserver *observer);

    /** Remove all registered observers. */
    void clearObservers();

    /**
     * Replay an in-RAM trace and return aggregate results: run()
     * over a TraceRef.
     * @throws FatalError / PanicError on a non-replayable trace or
     *         configuration (thin wrapper around tryRun).
     */
    SimResult run(const trace::Trace &trace);

    /** As run(const Trace &), replaying any record stream (mmap'd
     *  LSKC view, streaming generator, ...). Resets the input. */
    SimResult run(trace::TraceInput &input);

    /**
     * Typed-error replay entry point, the one every replay goes
     * through. The input is reset and pulled exactly once; each
     * batch is checked before any of its records is served, so a
     * malformed record (empty extent, overflowing sector range)
     * surfaces as InvalidArgument naming its index, with no
     * result. An escaped FatalError becomes InvalidArgument and a
     * PanicError becomes Internal, so one bad trace cannot take
     * down a batch sweep. A fired cancellation token surfaces as
     * Cancelled or DeadlineExceeded; the replay unwinds at the next
     * per-batch check and no partial result is returned. For
     * identical record sequences the SimResult is byte-identical
     * whatever the input (TraceRef, LskcView, WorkloadStream).
     */
    StatusOr<SimResult> tryRun(trace::TraceInput &input,
                               CancelToken cancel = {});

    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
    std::vector<SimObserver *> observers_;
};

/**
 * Convenience: run the same trace under the conventional baseline
 * and under a log-structured configuration, returning
 * (baseline, logStructured). The baseline ignores cfg's mechanisms.
 * The optional observers are registered on both runs (e.g. a
 * paranoid ValidatingObserver in integration tests).
 */
std::pair<SimResult, SimResult>
runWithBaseline(const trace::Trace &trace, const SimConfig &ls_config,
                const std::vector<SimObserver *> &observers = {});

/**
 * Seek amplification factor: total seeks of ls divided by total
 * seeks of the baseline (paper §II). Returns std::nullopt when the
 * baseline had no seeks — the ratio is undefined there, and
 * reporting it as 0 would read as "no amplification" when the
 * comparison is actually meaningless.
 */
std::optional<double> seekAmplification(const SimResult &baseline,
                                        const SimResult &ls);

} // namespace logseek::stl

#endif // LOGSEEK_STL_SIMULATOR_H
