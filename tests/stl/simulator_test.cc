/**
 * @file
 * Unit tests for the trace-replay simulation engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stl/replay_engine.h"
#include "stl/simulator.h"
#include "trace/input.h"
#include "util/logging.h"

namespace logseek::stl
{
namespace
{

SimConfig
lsConfig()
{
    SimConfig config;
    config.translation = TranslationKind::LogStructured;
    return config;
}

SimConfig
nolsConfig()
{
    SimConfig config;
    config.translation = TranslationKind::Conventional;
    return config;
}

/** Observer that records every event. */
class Recorder : public SimObserver
{
  public:
    void onEvent(const IoEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<IoEvent> events;
};

/**
 * TraceInput over raw records (which, unlike Trace::append, may be
 * malformed) that counts its passes and the records it hands out.
 */
class CountingInput final : public trace::TraceInput
{
  public:
    explicit CountingInput(std::vector<trace::IoRecord> records)
        : records_(std::move(records))
    {
    }

    const std::string &name() const override { return name_; }
    Lba addressSpaceEnd() const override { return 1 << 20; }

    std::size_t
    next(trace::IoEventBatch &batch, std::size_t max) override
    {
        const std::size_t n =
            std::min(max, records_.size() - pos_);
        batch.clear();
        for (std::size_t i = 0; i < n; ++i)
            batch.append(records_[pos_ + i]);
        pos_ += n;
        pulled += n;
        return n;
    }

    void
    reset() override
    {
        pos_ = 0;
        ++resets;
    }

    std::uint64_t resets = 0;
    std::uint64_t pulled = 0;

  private:
    std::string name_ = "counted";
    std::vector<trace::IoRecord> records_;
    std::size_t pos_ = 0;
};

/** `n` well-formed records: alternating 8-sector writes and reads. */
std::vector<trace::IoRecord>
mixedRecords(std::size_t n)
{
    std::vector<trace::IoRecord> records;
    for (std::size_t i = 0; i < n; ++i)
        records.push_back(trace::IoRecord{
            i, i % 2 == 0 ? trace::IoType::Write : trace::IoType::Read,
            SectorExtent{(i * 7919) % 4096 * 8, 8}});
    return records;
}

TEST(Simulator, ConventionalCountsTraceOrderSeeks)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 8);    // no seek (starts at 0)
    trace.appendWrite(8, 8);    // sequential
    trace.appendWrite(100, 8);  // write seek
    trace.appendRead(108, 4);   // sequential
    trace.appendRead(50, 4);    // read seek

    const SimResult result = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(result.writeSeeks, 1u);
    EXPECT_EQ(result.readSeeks, 1u);
    EXPECT_EQ(result.reads, 2u);
    EXPECT_EQ(result.writes, 3u);
    EXPECT_EQ(result.fragmentedReads, 0u);
}

TEST(Simulator, LogStructuredEliminatesWriteSeeks)
{
    trace::Trace trace("t");
    // Scattered writes: all seek under NoLS (after the first), none
    // under LS except the initial jump to the frontier.
    trace.appendWrite(500, 8);
    trace.appendWrite(10, 8);
    trace.appendWrite(900, 8);
    trace.appendWrite(300, 8);

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(nols.writeSeeks, 4u);
    EXPECT_EQ(ls.writeSeeks, 1u); // only the move to the frontier
}

TEST(Simulator, FragmentedReadCostsOneSeekPerFragment)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2); // fragment the middle
    trace.appendRead(0, 10); // 3 fragments under LS

    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(ls.fragmentedReads, 1u);
    EXPECT_EQ(ls.readFragments, 3u);
    EXPECT_EQ(ls.readSeeks, 3u);

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(nols.fragmentedReads, 0u);
    EXPECT_EQ(nols.readSeeks, 1u);
}

TEST(Simulator, UnwrittenDataReadsSeekIdenticallyInBothModes)
{
    trace::Trace trace("t");
    trace.appendRead(100, 8);
    trace.appendRead(5000, 8);
    trace.appendRead(200, 8);

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(nols.readSeeks, ls.readSeeks);
    EXPECT_EQ(nols.totalSeeks(), ls.totalSeeks());
}

TEST(Simulator, TemporalReplayReadsAreSeekFreeUnderLs)
{
    // The paper's log-friendly toy case: scattered writes re-read
    // in write order cost no read seeks under LS (one seek to reach
    // the log, then fully sequential).
    trace::Trace trace("t");
    const std::vector<Lba> lbas{500, 10, 900, 300};
    for (const Lba lba : lbas)
        trace.appendWrite(lba, 8);
    for (const Lba lba : lbas)
        trace.appendRead(lba, 8);

    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(ls.readSeeks, 1u); // jump back to the log start only

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(nols.readSeeks, 4u);
}

TEST(Simulator, SequentialReadAfterRandomWriteAmplifies)
{
    // The paper's log-sensitive toy case.
    trace::Trace trace("t");
    for (Lba lba = 0; lba < 100; lba += 10)
        trace.appendWrite(lba + (lba * 7) % 90, 2);
    trace.appendRead(0, 100);

    const auto [nols, ls] = runWithBaseline(trace, lsConfig());
    EXPECT_GT(ls.readSeeks, nols.readSeeks);
}

TEST(Simulator, EventSegmentsAndIndexing)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10);

    Recorder recorder;
    Simulator simulator(lsConfig());
    simulator.addObserver(&recorder);
    simulator.run(trace);

    ASSERT_EQ(recorder.events.size(), 3u);
    EXPECT_EQ(recorder.events[0].opIndex, 0u);
    EXPECT_EQ(recorder.events[2].opIndex, 2u);
    EXPECT_EQ(recorder.events[0].segments.size(), 1u);
    EXPECT_EQ(recorder.events[2].segments.size(), 3u);
    EXPECT_TRUE(recorder.events[2].isFragmentedRead());
    EXPECT_FALSE(recorder.events[0].isFragmentedRead());
}

TEST(Simulator, MediaBytesAccounting)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendRead(0, 10);
    const SimResult result = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(result.mediaWriteBytes, 10 * kSectorBytes);
    EXPECT_EQ(result.mediaReadBytes, 10 * kSectorBytes);
}

TEST(Simulator, DefragRewritesFragmentedRead)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10); // fragmented -> rewrite
    trace.appendRead(0, 10); // now contiguous

    SimConfig config = lsConfig();
    config.defrag = DefragConfig{};
    Recorder recorder;
    Simulator simulator(config);
    simulator.addObserver(&recorder);
    const SimResult result = simulator.run(trace);

    EXPECT_EQ(result.defragRewrites, 1u);
    EXPECT_EQ(result.defragBytes, 10 * kSectorBytes);
    EXPECT_TRUE(recorder.events[2].defragRewrite);
    EXPECT_FALSE(recorder.events[3].defragRewrite);
    // The second read sees a single segment.
    EXPECT_EQ(recorder.events[3].segments.size(), 1u);
    // The rewrite itself moved bytes to the media.
    EXPECT_EQ(result.mediaWriteBytes, (10 + 2 + 10) * kSectorBytes);
}

TEST(Simulator, DefragCountsRewriteSeeksAsWriteSeeks)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(20, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10); // fragmented; head ends mid-log
    trace.appendRead(0, 10);

    SimConfig plain = lsConfig();
    SimConfig with_defrag = lsConfig();
    with_defrag.defrag = DefragConfig{};

    const SimResult base = Simulator(plain).run(trace);
    const SimResult defragged = Simulator(with_defrag).run(trace);
    // The rewrite adds at least one write seek relative to plain LS.
    EXPECT_GT(defragged.writeSeeks, base.writeSeeks);
    // But the repeated read becomes cheaper.
    EXPECT_LT(defragged.readSeeks, base.readSeeks);
}

TEST(Simulator, SelectiveCacheServesRepeatedFragments)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10);
    trace.appendRead(0, 10);
    trace.appendRead(0, 10);

    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    const SimResult result = Simulator(config).run(trace);
    // Second and third reads fully cached: 3 fragments each.
    EXPECT_EQ(result.cacheHits, 6u);
    // Only the first fragmented read touches the media.
    const SimResult plain = Simulator(lsConfig()).run(trace);
    EXPECT_LT(result.readSeeks, plain.readSeeks);
}

TEST(Simulator, CacheDoesNotEngageOnUnfragmentedReads)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendRead(0, 10);
    trace.appendRead(0, 10);

    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    const SimResult result = Simulator(config).run(trace);
    EXPECT_EQ(result.cacheHits, 0u);
    EXPECT_EQ(result.cacheMisses, 0u);
}

TEST(Simulator, PrefetchHitsWithinFragmentedRead)
{
    // Two LBA-adjacent sectors written in reverse order land
    // reversed in the log; with look-behind the second fragment is
    // already buffered.
    trace::Trace trace("t");
    trace.appendWrite(11, 1);
    trace.appendWrite(10, 1);
    trace.appendRead(10, 2);

    SimConfig config = lsConfig();
    config.prefetch = PrefetchConfig{};
    const SimResult result = Simulator(config).run(trace);
    EXPECT_EQ(result.prefetchHits, 1u);

    const SimResult plain = Simulator(lsConfig()).run(trace);
    EXPECT_LT(result.readSeeks, plain.readSeeks);
}

TEST(Simulator, StaticFragmentsReported)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 4);
    trace.appendWrite(100, 4);
    trace.appendWrite(50, 4);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(ls.staticFragments, 3u);
    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(nols.staticFragments, 0u);
}

TEST(Simulator, RunIsRepeatable)
{
    trace::Trace trace("t");
    for (Lba lba = 0; lba < 1000; lba += 7)
        trace.appendWrite(lba, 3);
    trace.appendRead(0, 500);

    Simulator simulator(lsConfig());
    const SimResult first = simulator.run(trace);
    const SimResult second = simulator.run(trace);
    EXPECT_EQ(first.totalSeeks(), second.totalSeeks());
    EXPECT_EQ(first.readFragments, second.readFragments);
}

TEST(Simulator, SeekAmplificationHelper)
{
    SimResult baseline;
    baseline.readSeeks = 50;
    baseline.writeSeeks = 50;
    SimResult ls;
    ls.readSeeks = 300;
    ls.writeSeeks = 0;
    ASSERT_TRUE(seekAmplification(baseline, ls).has_value());
    EXPECT_DOUBLE_EQ(*seekAmplification(baseline, ls), 3.0);

    // A zero-seek baseline has no meaningful ratio: the helper
    // reports "undefined", not "no amplification".
    SimResult empty;
    EXPECT_FALSE(seekAmplification(empty, ls).has_value());
}

TEST(Simulator, ConfigLabels)
{
    EXPECT_EQ(nolsConfig().label(), "NoLS");
    EXPECT_EQ(lsConfig().label(), "LS");
    SimConfig config = lsConfig();
    config.defrag = DefragConfig{};
    EXPECT_EQ(config.label(), "LS+defrag");
    config.prefetch = PrefetchConfig{};
    config.cache = SelectiveCacheConfig{};
    EXPECT_EQ(config.label(), "LS+defrag+prefetch+cache");
}

TEST(Simulator, RunWithBaselineUsesConventionalBaseline)
{
    trace::Trace trace("t");
    trace.appendWrite(500, 8);
    trace.appendWrite(10, 8);
    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    const auto [baseline, ls] = runWithBaseline(trace, config);
    EXPECT_EQ(baseline.configLabel, "NoLS");
    EXPECT_EQ(ls.configLabel, "LS+cache");
    EXPECT_EQ(baseline.workload, "t");
}

TEST(Simulator, SeekTimeAccumulates)
{
    trace::Trace trace("t");
    // Many scattered writes: NoLS pays a long seek per write while
    // LS pays a single jump to the frontier.
    for (Lba lba = 0; lba < 10; ++lba)
        trace.appendWrite(((lba * 7) % 10) * 1000000, 8);
    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_GT(nols.seekTimeSec, 0.0);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_LT(ls.seekTimeSec, nols.seekTimeSec);
}

TEST(Simulator, TryRunPullsItsInputExactlyOnce)
{
    // Four batches' worth of records: one reset, every record
    // pulled once, and the same result as the in-RAM path.
    const std::size_t n = 3 * ReplayEngine::kReplayBatchRecords + 17;
    const std::vector<trace::IoRecord> records = mixedRecords(n);
    for (const SimConfig &config : {nolsConfig(), lsConfig()}) {
        CountingInput input(records);
        const StatusOr<SimResult> result =
            Simulator(config).tryRun(input);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(input.resets, 1U);
        EXPECT_EQ(input.pulled, n);

        trace::Trace trace("counted");
        for (const trace::IoRecord &record : records)
            trace.append(record);
        EXPECT_EQ(result.value().reads + result.value().writes, n);
        EXPECT_EQ(result.value().totalSeeks(),
                  Simulator(config).run(trace).totalSeeks());
    }
}

TEST(Simulator, MalformedRecordInALaterBatchIsTypedAndServesNone)
{
    // The bad record sits in the second batch: the first batch is
    // replayed, the second is rejected before any of its records
    // is served, and the error names the record's index.
    const std::size_t batch = ReplayEngine::kReplayBatchRecords;
    const std::size_t bad = batch + 44;
    struct Case
    {
        SectorExtent extent;
        std::string message;
    };
    for (const Case &c :
         {Case{SectorExtent{64, 0},
               "record " + std::to_string(bad) +
                   " has an empty extent"},
          Case{SectorExtent{~0ULL - 4, 100},
               "record " + std::to_string(bad) +
                   " sector range overflows the address space"}}) {
        std::vector<trace::IoRecord> records =
            mixedRecords(2 * batch + 5);
        records[bad].extent = c.extent;
        CountingInput input(std::move(records));
        Recorder recorder;
        Simulator simulator(lsConfig());
        simulator.addObserver(&recorder);
        const StatusOr<SimResult> result = simulator.tryRun(input);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(),
                  StatusCode::InvalidArgument);
        EXPECT_NE(result.status().message().find(
                      "trace 'counted': " + c.message),
                  std::string::npos)
            << result.status().message();
        EXPECT_EQ(input.resets, 1U);
        EXPECT_EQ(recorder.events.size(), batch);
    }
}

TEST(Simulator, NullObserverPanics)
{
    Simulator simulator(lsConfig());
    EXPECT_THROW(simulator.addObserver(nullptr), PanicError);
}

TEST(Simulator, ClearObserversStopsDelivery)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 4);
    Recorder recorder;
    Simulator simulator(lsConfig());
    simulator.addObserver(&recorder);
    simulator.clearObservers();
    simulator.run(trace);
    EXPECT_TRUE(recorder.events.empty());
}

} // namespace
} // namespace logseek::stl
