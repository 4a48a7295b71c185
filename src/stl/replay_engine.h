/**
 * @file
 * Per-run trace-replay engine.
 *
 * A ReplayEngine is built fresh for one (trace, config) run: it
 * instantiates the translation layer, assembles the read-path
 * pipeline (selective cache → prefetch buffer → media access →
 * defrag trigger), and routes every byte and seek through a single
 * Accounting sink. The Simulator facade constructs one engine per
 * run; tests and future backends can drive the engine directly.
 *
 * The engine pulls the trace in columnar IoEventBatches of
 * kReplayBatchRecords records (zero-copy for mmap'd LSKC input) and
 * replays them one record at a time: a read is translated, merged
 * and served; a write is placed and written; then the layer's owed
 * background work runs. Nothing is translated ahead of the record
 * being served, so a translation change between two consecutive
 * reads (a defrag rewrite, cleaning) is always seen by the next
 * one.
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
#include "trace/io_batch.h"
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
     *        batch boundary and every kCancelCheckInterval records;
     *        default never fires.
     */
    ReplayEngine(const SimConfig &config, trace::TraceInput &input,
                 const std::vector<SimObserver *> &observers,
                 CancelToken cancel = {});

    ~ReplayEngine();

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    /**
     * Replay the whole trace and return the aggregate result. The
     * input is reset and pulled once; each batch is checked before
     * any of its records is served.
     * @throws StatusError InvalidArgument naming the first record
     *         with an empty extent or an overflowing sector range;
     *         Cancelled or DeadlineExceeded when the cancellation
     *         token fires mid-replay.
     */
    SimResult run();

    /** Records between cancellation checks in run(). */
    static constexpr std::uint64_t kCancelCheckInterval = 64;

    /** Records pulled from the input per TraceInput::next() call. */
    static constexpr std::size_t kReplayBatchRecords = 256;

  private:
    /**
     * Throw InvalidArgument for the first record of the pulled
     * batch (records base .. base + n - 1) that cannot be
     * replayed.
     */
    void checkBatch(std::uint64_t base, std::size_t n) const;

    /**
     * Translate, merge and serve one read. `fast_media_only`
     * short-circuits the pipeline when it is exactly the
     * media-access stage and telemetry is off.
     */
    void serveRead(IoEvent &event, bool fast_media_only);

    /** Place one write and play its host accesses. */
    void serveWrite(IoEvent &event);

    /**
     * Play the layer's owed background cleaning accesses. Skipped
     * entirely for layers with hasMaintenance() == false.
     */
    void runMaintenance(IoEvent &event);

    /** Throw the cancellation status for this replay. */
    [[noreturn]] void throwCancelled();

    /** Emit one aggregate trace span per read stage (end of run). */
    void emitStageSpans();

    SimConfig config_;

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
    trace::IoEventBatch batch_;

    /** One event per batch record, reused across batches. */
    std::vector<IoEvent> events_;

    /** layer_->hasMaintenance(), sampled once at construction. */
    bool layerHasMaintenance_ = false;

    /** True when the pipeline is exactly the media-access stage. */
    bool mediaOnly_ = false;

    /** Samples the layer's merge/cleaning counter; may be empty. */
    std::function<std::uint64_t()> cleaningMerges_;

    /** Samples the finite log's GC victim (live, span) byte
     *  totals; may be empty. */
    std::function<std::pair<std::uint64_t, std::uint64_t>()>
        gcVictimStats_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_REPLAY_ENGINE_H
