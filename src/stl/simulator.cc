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

SimResult
Simulator::run(const trace::Trace &trace)
{
    trace::TraceRef ref(trace);
    return run(ref);
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
Simulator::tryRun(trace::TraceInput &input, CancelToken cancel)
{
    try {
        ReplayEngine engine(config_, input, observers_,
                            std::move(cancel));
        return engine.run();
    } catch (const StatusError &e) {
        // A malformed record, cooperative cancellation or another
        // typed failure from inside the replay loop: pass the
        // Status through intact so callers can tell
        // InvalidArgument from DeadlineExceeded or Cancelled.
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
