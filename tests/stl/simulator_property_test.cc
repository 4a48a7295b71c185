/**
 * @file
 * Property-based tests for the simulation engine over randomized
 * traces: translation correctness against a per-sector shadow
 * model, segment tiling, seek-accounting invariants, mechanism
 * monotonicity, and byte-identity across input batch boundaries.
 */

#include <gtest/gtest.h>

#include "util/logging.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "stl/simulator.h"
#include "trace/input.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

trace::Trace
randomTrace(std::uint64_t seed, std::size_t ops, Lba space,
            double write_fraction)
{
    Rng rng(seed);
    trace::Trace trace("random-" + std::to_string(seed));
    for (std::size_t i = 0; i < ops; ++i) {
        const SectorCount count = 1 + rng.nextUint(32);
        const Lba lba = rng.nextUint(space - count);
        if (rng.nextBool(write_fraction))
            trace.appendWrite(lba, count);
        else
            trace.appendRead(lba, count);
    }
    return trace;
}

/**
 * Shadow model: tracks where every sector's current data lives and
 * validates each event against it.
 */
class ShadowValidator : public SimObserver
{
  public:
    void
    onEvent(const IoEvent &event) override
    {
        // Segments must tile the request in LBA order.
        Lba cursor = event.record.extent.start;
        for (const auto &segment : event.segments) {
            ASSERT_EQ(segment.logical.start, cursor)
                << "op " << event.opIndex << ": segment gap";
            cursor = segment.logical.end();
        }
        ASSERT_EQ(cursor, event.record.extent.end())
            << "op " << event.opIndex << ": segments do not cover";

        if (event.record.isWrite()) {
            for (const auto &segment : event.segments) {
                for (SectorCount i = 0; i < segment.logical.count;
                     ++i) {
                    sectors_[segment.logical.start + i] =
                        segment.pba + i;
                }
            }
            return;
        }
        for (const auto &segment : event.segments) {
            for (SectorCount i = 0; i < segment.logical.count; ++i) {
                const Lba lba = segment.logical.start + i;
                const auto it = sectors_.find(lba);
                const Pba expected =
                    it == sectors_.end() ? lba : it->second;
                ASSERT_EQ(segment.pba + i, expected)
                    << "op " << event.opIndex
                    << ": stale translation at lba " << lba;
            }
        }
        // Defragmentation relocates the just-read range.
        for (const auto &segment : event.defragSegments) {
            for (SectorCount i = 0; i < segment.logical.count; ++i) {
                sectors_[segment.logical.start + i] =
                    segment.pba + i;
            }
        }
    }

  private:
    std::unordered_map<Lba, Pba> sectors_;
};

struct PropertyParams
{
    std::uint64_t seed;
    double writeFraction;
    bool defrag;
    bool prefetch;
    bool cache;
};

class SimulatorProperty
    : public ::testing::TestWithParam<PropertyParams>
{
  protected:
    SimConfig
    makeConfig() const
    {
        const PropertyParams &params = GetParam();
        SimConfig config;
        config.translation = TranslationKind::LogStructured;
        if (params.defrag)
            config.defrag = DefragConfig{};
        if (params.prefetch)
            config.prefetch = PrefetchConfig{};
        if (params.cache)
            config.cache = SelectiveCacheConfig{4 * kMiB};
        return config;
    }
};

TEST_P(SimulatorProperty, ReadsAlwaysSeeLatestWrite)
{
    const trace::Trace trace =
        randomTrace(GetParam().seed, 2000, 4096,
                    GetParam().writeFraction);
    ShadowValidator validator;
    Simulator simulator(makeConfig());
    simulator.addObserver(&validator);
    simulator.run(trace);
}

TEST_P(SimulatorProperty, SeekCountsAreConsistent)
{
    const trace::Trace trace =
        randomTrace(GetParam().seed, 2000, 4096,
                    GetParam().writeFraction);
    const SimResult result = Simulator(makeConfig()).run(trace);

    EXPECT_EQ(result.reads + result.writes, trace.size());
    EXPECT_LE(result.fragmentedReads, result.reads);
    // Every fragmented read contributes at least two fragments.
    EXPECT_GE(result.readFragments, 2 * result.fragmentedReads);
    // Total seeks bounded by total media accesses (each access
    // seeks at most once).
    EXPECT_LE(result.totalSeeks(),
              result.readFragments + result.reads + result.writes +
                  result.defragRewrites);
}

TEST_P(SimulatorProperty, PlainLsWriteSeeksBoundedByReadCount)
{
    // Under plain LS, writes only seek when the head was pulled
    // away by a read (or at the very first access), so write seeks
    // can never exceed reads + 1.
    const trace::Trace trace =
        randomTrace(GetParam().seed, 2000, 4096,
                    GetParam().writeFraction);
    SimConfig config;
    config.translation = TranslationKind::LogStructured;
    const SimResult result = Simulator(config).run(trace);
    EXPECT_LE(result.writeSeeks, result.reads + 1);
}

TEST_P(SimulatorProperty, CacheNeverIncreasesMediaReads)
{
    const trace::Trace trace =
        randomTrace(GetParam().seed, 2000, 4096,
                    GetParam().writeFraction);
    SimConfig plain;
    plain.translation = TranslationKind::LogStructured;
    SimConfig cached = plain;
    cached.cache = SelectiveCacheConfig{64 * kMiB};

    const SimResult base = Simulator(plain).run(trace);
    const SimResult with_cache = Simulator(cached).run(trace);
    EXPECT_LE(with_cache.mediaReadBytes, base.mediaReadBytes);
    // Note: readSeeks can occasionally increase — serving a
    // fragment from RAM leaves the head behind, so the next media
    // access may seek where it would not have. Media traffic,
    // however, can only shrink.
}

TEST_P(SimulatorProperty, DeterministicAcrossRuns)
{
    const trace::Trace trace =
        randomTrace(GetParam().seed, 1000, 4096,
                    GetParam().writeFraction);
    const SimResult a = Simulator(makeConfig()).run(trace);
    const SimResult b = Simulator(makeConfig()).run(trace);
    EXPECT_EQ(a.totalSeeks(), b.totalSeeks());
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.defragRewrites, b.defragRewrites);
    EXPECT_EQ(a.mediaReadBytes, b.mediaReadBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SimulatorProperty,
    ::testing::Values(
        PropertyParams{11, 0.9, false, false, false},
        PropertyParams{12, 0.5, false, false, false},
        PropertyParams{13, 0.1, false, false, false},
        PropertyParams{14, 0.5, true, false, false},
        PropertyParams{15, 0.5, false, true, false},
        PropertyParams{16, 0.5, false, false, true},
        PropertyParams{17, 0.3, true, true, true},
        PropertyParams{18, 0.7, true, false, true},
        PropertyParams{19, 0.2, false, true, true},
        PropertyParams{20, 0.95, true, true, false}));

/**
 * Batch-boundary differentials: how many records a TraceInput hands
 * over per next() call is not part of the model, so the SimResult —
 * every counter, the bit pattern of seekTimeSec and the zoned-device
 * mirror — must be byte-identical (operator==) whether the engine
 * pulls full batches or crosses a batch boundary every k records.
 */

/** TraceRef that hands over at most `cap` records per next(). */
class CappedInput final : public trace::TraceInput
{
  public:
    CappedInput(const trace::Trace &trace, std::size_t cap)
        : inner_(trace), cap_(cap)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    Lba addressSpaceEnd() const override
    {
        return inner_.addressSpaceEnd();
    }
    std::size_t
    next(trace::IoEventBatch &batch, std::size_t max) override
    {
        return inner_.next(batch, std::min(max, cap_));
    }
    void reset() override { inner_.reset(); }

  private:
    trace::TraceRef inner_;
    std::size_t cap_;
};

SimResult
runCapped(const SimConfig &config, const trace::Trace &trace,
          std::size_t cap)
{
    CappedInput input(trace, cap);
    return Simulator(config).run(input);
}

/**
 * Base configuration per layer. The finite-log and media-cache
 * capacities are shrunk far below the trace's write volume so
 * cleaning/merge maintenance runs inside batches and is covered,
 * not dodged.
 */
SimConfig
batchBaseConfig(TranslationKind kind, bool zoned)
{
    SimConfig config;
    config.translation = kind;
    if (kind == TranslationKind::FiniteLogStructured) {
        config.finiteLog.capacityBytes = 32 * kMiB;
        config.finiteLog.segmentBytes = 1 * kMiB;
    }
    if (kind == TranslationKind::MediaCache)
        config.mediaCache.cacheBytes = 4 * kMiB;
    if (zoned)
        config.zonedDevice = disk::ZonedDeviceOptions{};
    return config;
}

/**
 * Trace address space per layer: the finite log gets a small LBA
 * space (8 MiB of sectors) so its 32 MiB log sees ~40 MiB of
 * churn — cleaning runs repeatedly — while the live set always
 * fits. The other layers replay a 512 MiB space.
 */
Lba
batchTraceSpace(TranslationKind kind)
{
    return kind == TranslationKind::FiniteLogStructured ? 1 << 14
                                                        : 1 << 20;
}

TEST(ReplayBatch, ByteIdenticalAcrossBatchSizesAndLayers)
{
    std::uint64_t combo = 0;
    for (const TranslationKind kind :
         {TranslationKind::Conventional,
          TranslationKind::LogStructured,
          TranslationKind::FiniteLogStructured,
          TranslationKind::MediaCache}) {
        for (const bool zoned : {false, true}) {
            const trace::Trace trace =
                randomTrace(0x5ead0 + combo++, 12000,
                            batchTraceSpace(kind), 0.4);
            const SimConfig config = batchBaseConfig(kind, zoned);
            const SimResult reference = Simulator(config).run(trace);
            for (const std::size_t cap : {1U, 17U})
                EXPECT_TRUE(runCapped(config, trace, cap) ==
                            reference)
                    << reference.configLabel
                    << (zoned ? "+zoned" : "")
                    << " diverged at batch " << cap;
        }
    }
}

TEST(ReplayBatch, MechanismsAndOddBatchStayByteIdentical)
{
    // All mechanisms at once: defrag rewrites change translations
    // mid-batch, prefetch and the selective cache reorder media
    // accesses. A batch size that divides into nothing evenly
    // splits the trace at awkward boundaries. The 2 MiB space
    // makes later reads in the same batch hit ranges a defrag
    // rewrite just moved, so a stale translation shows up as a
    // diverged result.
    SimConfig config;
    config.translation = TranslationKind::LogStructured;
    config.defrag = DefragConfig{};
    config.prefetch = PrefetchConfig{};
    config.cache = SelectiveCacheConfig{64 * kMiB};

    for (const Lba space : {Lba{1} << 12, Lba{1} << 20}) {
        const trace::Trace trace =
            randomTrace(0x5ead10, 20000, space, 0.4);
        const SimResult reference = Simulator(config).run(trace);
        ASSERT_GT(reference.defragRewrites, 0U);
        for (const std::size_t cap : {1U, 17U})
            EXPECT_TRUE(runCapped(config, trace, cap) == reference)
                << "LS+all diverged at batch " << cap
                << ", space " << space;
    }
}

TEST(ReplayBatch, CleaningSeeksByteIdenticalAcrossBatchSizes)
{
    // Finite-log churn with every reclaim partly live (random
    // overwrites) pins the cleaning-seek count — and the whole
    // SimResult — bitwise at every batch size, for every cleaning
    // policy and stream split.
    const trace::Trace trace = randomTrace(
        0xc1ea9, 16000,
        batchTraceSpace(TranslationKind::FiniteLogStructured), 0.8);
    for (const auto policy :
         {gc::CleaningPolicyKind::Greedy,
          gc::CleaningPolicyKind::CostBenefit,
          gc::CleaningPolicyKind::ZoneGranular}) {
        for (const std::uint32_t streams : {1U, 2U}) {
            SimConfig config = batchBaseConfig(
                TranslationKind::FiniteLogStructured, false);
            config.finiteLog.gc.policy = policy;
            config.finiteLog.gc.streams = streams;
            const SimResult reference =
                Simulator(config).run(trace);
            ASSERT_GT(reference.cleaningMerges, 0U);
            ASSERT_GT(reference.cleaningSeeks, 0U);
            for (const std::size_t cap : {1U, 17U}) {
                const SimResult result = runCapped(config, trace, cap);
                EXPECT_EQ(result.cleaningSeeks,
                          reference.cleaningSeeks)
                    << reference.configLabel << " diverged at batch "
                    << cap;
                EXPECT_TRUE(result == reference)
                    << reference.configLabel << " diverged at batch "
                    << cap;
            }
        }
    }
}

} // namespace
} // namespace logseek::stl
