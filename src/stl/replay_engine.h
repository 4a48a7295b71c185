/**
 * @file
 * Per-run trace-replay engine (batch-first).
 *
 * A ReplayEngine is built fresh for one (trace, config) run: it
 * instantiates the translation layer, assembles the read-path
 * pipeline (selective cache → prefetch buffer → media access →
 * defrag trigger), and routes every byte and seek through a single
 * Accounting sink. The Simulator facade constructs one engine per
 * run; tests and future backends can drive the engine directly.
 *
 * The engine replays the trace in columnar batches
 * (SimConfig::replayBatchSize records, default 256): each batch is
 * loaded into an IoEventBatch, split into same-type runs, and each
 * run is translated in small mini-chunks, one batched virtual call
 * per chunk (write runs of maintenance-free layers are placed with
 * a single call). Translation-mutating events inside a read run (a
 * defrag rewrite, cleaning) invalidate the pre-translated rest of
 * the current chunk, which falls back to record-at-a-time
 * translation; the next chunk resumes batching — so batching is an
 * execution strategy only: the SimResult is byte-identical to
 * record-at-a-time replay.
 */

#ifndef LOGSEEK_STL_REPLAY_ENGINE_H
#define LOGSEEK_STL_REPLAY_ENGINE_H

#include <functional>
#include <memory>
#include <vector>

#include "disk/zoned_device.h"
#include "stl/accounting.h"
#include "stl/read_stage.h"
#include "stl/simulator.h"
#include "stl/translation_layer.h"
#include "trace/input.h"
#include "trace/trace.h"
#include "util/cancellation.h"

namespace logseek::stl
{

/**
 * Replays one trace under one configuration. The engine owns all
 * per-run state (layer, mechanisms, head position, result), so an
 * engine is used for exactly one run() and is never shared between
 * threads.
 */
class ReplayEngine
{
  public:
    /**
     * @param config Simulation configuration (copied).
     * @param input The record stream to replay; must outlive the
     *        engine. run() resets it, so the cursor position on
     *        entry does not matter. The engine pulls batches
     *        through TraceInput::next(), so it is indifferent to
     *        whether the records live in RAM (TraceRef), in an
     *        mmap'd LSKC file (zero-copy LskcView) or are
     *        synthesized on the fly (workloads::WorkloadStream) —
     *        the SimResult is byte-identical for identical record
     *        streams.
     * @param observers Observers notified once per logical request,
     *        in trace order (delivered at the end of the request's
     *        batch, once the event is fully resolved); not owned.
     * @param cancel Cooperative cancellation token, polled at every
     *        batch boundary and every kCancelCheckInterval records
     *        inside the serving loops; default never fires.
     */
    ReplayEngine(const SimConfig &config, trace::TraceInput &input,
                 const std::vector<SimObserver *> &observers,
                 CancelToken cancel = {});

    /** Convenience overload replaying an in-RAM trace (wraps it in
     *  an engine-owned TraceRef). */
    ReplayEngine(const SimConfig &config, const trace::Trace &trace,
                 const std::vector<SimObserver *> &observers,
                 CancelToken cancel = {});

    ~ReplayEngine();

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    /**
     * Replay the whole trace and return the aggregate result.
     * @throws StatusError (Cancelled or DeadlineExceeded) when the
     *         cancellation token fires mid-replay.
     */
    SimResult run();

    /** Records between cancellation checks in run(). */
    static constexpr std::uint64_t kCancelCheckInterval = 64;

    /** The assembled read path (introspection for tests). */
    const ReadPipeline &readPipeline() const { return pipeline_; }

  private:
    /** Delegation helper: the Trace overload routes through this
     *  to keep the owned TraceRef alive for the engine's life. */
    ReplayEngine(const SimConfig &config,
                 std::unique_ptr<trace::TraceInput> owned,
                 const std::vector<SimObserver *> &observers,
                 CancelToken cancel);

    /**
     * Serve batch records [begin, end) — one same-type read run.
     * `base` is the trace-wide index of batch record 0.
     * `fast_media_only` short-circuits the pipeline when it is
     * exactly the media-access stage and telemetry is off.
     */
    void serveReadRun(std::uint64_t base, std::size_t begin,
                      std::size_t end, bool fast_media_only);

    /** Serve batch records [begin, end) — one write run. */
    void serveWriteRun(std::uint64_t base, std::size_t begin,
                       std::size_t end);

    /**
     * Batch-translate read extents [begin, end) of the current
     * batch into readBatch_ (serveReadRun calls this one
     * mini-chunk at a time). When `sampled`, the elapsed time is
     * recorded amortized — one equal sample per record — so the
     * translate-latency count stays equal to result.reads. The
     * scalar fallback after a mid-chunk mutation records no extra
     * samples for the same reason.
     */
    void translateRun(std::size_t begin, std::size_t end,
                      bool sampled);

    /**
     * Play the layer's owed background cleaning accesses; returns
     * true when any were owed (i.e. translation state changed).
     * Skipped entirely for layers with hasMaintenance() == false.
     */
    bool runMaintenance(IoEvent &event);

    /** Throw the cancellation status for this replay. */
    [[noreturn]] void throwCancelled();

    /** Emit one aggregate trace span per read stage (end of run). */
    void emitStageSpans();

    SimConfig config_;

    /** Set only by the Trace convenience ctor: the TraceRef the
     *  engine itself owns; input_ points at it then. */
    std::unique_ptr<trace::TraceInput> ownedInput_;

    /** The record stream being replayed; never null. */
    trace::TraceInput *input_;

    std::vector<SimObserver *> observers_;
    CancelToken cancel_;

    SimResult result_;
    Accounting accounting_;
    std::unique_ptr<TranslationLayer> layer_;

    /** Zoned-device realism layer; null unless configured. Every
     *  media access Accounting sees is mirrored through it. */
    std::unique_ptr<disk::ZonedDevice> device_;

    ReadPipeline pipeline_;

    /** End-to-end latency of one logical read (telemetry). */
    telemetry::LatencyHistogram *readLatency_ = nullptr;

    /** Latency of the translate step alone (telemetry). */
    telemetry::LatencyHistogram *translateLatency_ = nullptr;

    /** Reusable per-request scratch for layer results; clear()
     *  keeps capacity, so steady-state requests do not allocate. */
    SegmentBuffer segmentScratch_;

    /** Columnar view of the batch currently being replayed. */
    IoEventBatch batch_;

    /** Batched translation results (reads / writes), reused. */
    SegmentBufferBatch readBatch_;
    SegmentBufferBatch writeBatch_;

    /** One event per batch record, reused across batches; sized to
     *  replayBatchSize on the first batch. */
    std::vector<IoEvent> events_;

    /** Upper bound of the adaptive read-translate chunk. */
    static constexpr std::size_t kReadTranslateChunkMax = 32;

    /** Current read-translate mini-chunk size in records; halves
     *  to 1 when a chunk is invalidated by a translation-mutating
     *  event and doubles back on every clean chunk (see
     *  serveReadRun). Persists across batches within the run so a
     *  defrag storm keeps replaying at scalar cost. */
    std::size_t readChunk_ = kReadTranslateChunkMax;

    /** layer_->hasMaintenance(), sampled once at construction. */
    bool layerHasMaintenance_ = false;

    /** True when the pipeline is exactly the media-access stage. */
    bool mediaOnly_ = false;

    /** Batching telemetry (self-gated on the global switch). */
    telemetry::Counter *batchesTotal_ = nullptr;
    telemetry::LatencyHistogram *batchSize_ = nullptr;

    /** Samples the layer's merge/cleaning counter; may be empty. */
    std::function<std::uint64_t()> cleaningMerges_;

    /** Samples the finite log's GC victim (live, span) byte
     *  totals; may be empty. */
    std::function<std::pair<std::uint64_t, std::uint64_t>()>
        gcVictimStats_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_REPLAY_ENGINE_H
