#include "simulator.h"

#include "stl/replay_engine.h"
#include "util/logging.h"

namespace logseek::stl
{

double
SimResult::writeAmplification() const
{
    if (hostWriteBytes == 0)
        return 1.0;
    return static_cast<double>(mediaWriteBytes +
                               cleaningWriteBytes) /
           static_cast<double>(hostWriteBytes);
}

std::string
SimConfig::label() const
{
    std::string out;
    if (translation == TranslationKind::Conventional) {
        out = "NoLS";
    } else if (translation == TranslationKind::MediaCache) {
        out = "MediaCache";
    } else {
        if (translation == TranslationKind::FiniteLogStructured) {
            out = "FiniteLS";
            // Non-default GC configurations are visible in the
            // label so sweep cells stay distinguishable.
            if (finiteLog.gc.policy ==
                gc::CleaningPolicyKind::CostBenefit)
                out += "+cb";
            else if (finiteLog.gc.policy ==
                     gc::CleaningPolicyKind::ZoneGranular)
                out += "+zg";
            if (finiteLog.gc.streams > 1)
                out += "+s" +
                       std::to_string(finiteLog.gc.streams);
        } else {
            out = "LS";
        }
        if (defrag)
            out += "+defrag";
        if (prefetch)
            out += "+prefetch";
        if (cache)
            out += "+cache";
    }
    if (zonedDevice)
        out += "+zdev";
    return out;
}

Simulator::Simulator(const SimConfig &config)
    : config_(config)
{
}

void
Simulator::addObserver(SimObserver *observer)
{
    panicIf(observer == nullptr, "Simulator: null observer");
    observers_.push_back(observer);
}

void
Simulator::clearObservers()
{
    observers_.clear();
}

Status
Simulator::validateTrace(const trace::Trace &trace)
{
    trace::TraceRef ref(trace);
    return validateInput(ref);
}

Status
Simulator::validateInput(trace::TraceInput &input)
{
    input.reset();
    trace::IoEventBatch batch;
    std::uint64_t index = 0;
    for (;;) {
        const std::size_t n = input.next(batch, 4096);
        if (n == 0)
            break;
        for (std::size_t k = 0; k < n; ++k, ++index) {
            const SectorExtent &extent = batch.extent(k);
            if (extent.empty())
                return invalidArgumentError(
                    "trace '" + input.name() + "': record " +
                    std::to_string(index) +
                    " has an empty extent");
            if (extent.start + extent.count < extent.start)
                return invalidArgumentError(
                    "trace '" + input.name() + "': record " +
                    std::to_string(index) +
                    " sector range overflows the address space");
        }
    }
    return Status();
}

SimResult
Simulator::run(const trace::Trace &trace)
{
    StatusOr<SimResult> result = tryRun(trace);
    if (!result.ok())
        result.status().orFatal();
    return std::move(result).value();
}

SimResult
Simulator::run(trace::TraceInput &input)
{
    StatusOr<SimResult> result = tryRun(input);
    if (!result.ok())
        result.status().orFatal();
    return std::move(result).value();
}

StatusOr<SimResult>
Simulator::tryRun(const trace::Trace &trace, CancelToken cancel)
{
    trace::TraceRef ref(trace);
    return tryRun(ref, std::move(cancel));
}

StatusOr<SimResult>
Simulator::tryRun(trace::TraceInput &input, CancelToken cancel)
{
    Status valid = validateInput(input);
    if (!valid.ok())
        return valid;
    try {
        return replay(input, cancel);
    } catch (const StatusError &e) {
        // Cooperative cancellation (or another typed failure) from
        // inside the replay loop: pass the Status through intact so
        // callers can tell DeadlineExceeded from Cancelled.
        return e.status();
    } catch (const PanicError &e) {
        return internalError("replay of trace '" + input.name() +
                             "' hit an internal bug: " + e.what());
    } catch (const FatalError &e) {
        return invalidArgumentError("replay of trace '" +
                                    input.name() +
                                    "' failed: " + e.what());
    }
}

SimResult
Simulator::replay(trace::TraceInput &input,
                  const CancelToken &cancel)
{
    ReplayEngine engine(config_, input, observers_, cancel);
    return engine.run();
}

std::pair<SimResult, SimResult>
runWithBaseline(const trace::Trace &trace, const SimConfig &ls_config,
                const std::vector<SimObserver *> &observers)
{
    SimConfig baseline_config;
    baseline_config.translation = TranslationKind::Conventional;
    baseline_config.seekTime = ls_config.seekTime;

    Simulator baseline(baseline_config);
    Simulator log_structured(ls_config);
    for (SimObserver *observer : observers) {
        baseline.addObserver(observer);
        log_structured.addObserver(observer);
    }
    return {baseline.run(trace), log_structured.run(trace)};
}

std::optional<double>
seekAmplification(const SimResult &baseline, const SimResult &ls)
{
    if (baseline.totalSeeks() == 0)
        return std::nullopt;
    return static_cast<double>(ls.totalSeeks()) /
           static_cast<double>(baseline.totalSeeks());
}

} // namespace logseek::stl
