/**
 * @file
 * ZonedDevice tests: the randomized differential write-pointer
 * check against a straight-line reference model, the differential
 * check of the fault scan against the per-sector floating-point
 * reference read path, the seeded fault model's determinism, and
 * the recovery semantics (retries, the read-error log, degraded
 * results, cancellation mid-backoff).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "disk/zoned_device.h"
#include "util/logging.h"
#include "util/random.h"

namespace logseek::disk
{
namespace
{

constexpr SectorCount kZoneSectors = 64;

ZoneLayout
swrLayout(std::uint64_t anchor = 0)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    layout.type = ZoneType::SequentialWriteRequired;
    layout.maxOpenZones = 8;
    layout.anchorSector = anchor;
    return layout;
}

/** No-fault options with zero-length recovery backoff. */
ZonedDeviceOptions
quietOptions()
{
    ZonedDeviceOptions options;
    options.recovery.initialBackoff =
        std::chrono::milliseconds(0);
    options.recovery.maxBackoff = std::chrono::milliseconds(0);
    return options;
}

/**
 * The straight-line reference model: the zone grid reduced to "a
 * write of a piece inside a zone leaves that zone's pointer at the
 * piece's end" — which is what the device must guarantee after its
 * reset/realign recovery, whatever path each write took.
 */
struct ReferenceModel
{
    std::uint64_t anchor;
    std::map<std::size_t, std::uint64_t> wp;

    std::size_t
    zoneOf(std::uint64_t sector) const
    {
        if (anchor > 0) {
            if (sector < anchor)
                return 0;
            return 1 + static_cast<std::size_t>(
                           (sector - anchor) / kZoneSectors);
        }
        return static_cast<std::size_t>(sector / kZoneSectors);
    }

    std::uint64_t
    zoneEnd(std::size_t index) const
    {
        if (anchor > 0)
            return index == 0 ? anchor
                              : anchor + index * kZoneSectors;
        return (index + 1) * kZoneSectors;
    }

    void
    write(const SectorExtent &extent)
    {
        for (std::uint64_t sector = extent.start;
             sector < extent.end();) {
            const std::size_t index = zoneOf(sector);
            const std::uint64_t piece_end =
                std::min(extent.end(), zoneEnd(index));
            wp[index] = piece_end;
            sector = piece_end;
        }
    }
};

void
runDifferential(std::uint64_t anchor, std::uint64_t seed)
{
    ZonedDevice device(swrLayout(anchor), quietOptions());
    ReferenceModel model{anchor, {}};
    Rng rng(seed);

    const std::uint64_t span = 32 * kZoneSectors;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t start = rng.nextUint(span);
        const SectorCount count = 1 + rng.nextUint(48);
        if (i % 7 == 0) {
            // Land exactly on a zone start: the segment-reuse
            // rewind path (reset + write).
            const std::size_t index = model.zoneOf(start);
            start = index == 0
                        ? 0
                        : model.zoneEnd(index) - kZoneSectors;
        }
        const SectorExtent extent{start, count};
        const DeviceWriteResult result = device.write(extent);
        EXPECT_EQ(result.failedSectors, 0u);
        model.write(extent);

        // Interleave reads; they must never move a pointer.
        if (i % 5 == 0)
            device.read({rng.nextUint(span), 8});
    }

    for (const auto &[index, expected] : model.wp) {
        SCOPED_TRACE("zone " + std::to_string(index));
        ASSERT_LT(index, device.zones().size());
        EXPECT_EQ(device.zones().zone(index).writePointer,
                  expected);
    }
    // Zones the model never wrote must still be pristine.
    for (std::size_t i = 0; i < device.zones().size(); ++i) {
        if (model.wp.contains(i))
            continue;
        EXPECT_EQ(device.zones().zone(i).writePointer,
                  device.zones().zone(i).start);
    }
}

TEST(ZonedDeviceDifferential, RandomTracesMatchReferenceModel)
{
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL})
        runDifferential(/*anchor=*/0, seed);
}

TEST(ZonedDeviceDifferential, AnchoredGridMatchesReferenceModel)
{
    // An off-grid anchor the way the replay engine sets one (the
    // identity region's end is rarely a zone multiple).
    for (std::uint64_t seed : {3ULL, 99ULL, 2026ULL})
        runDifferential(/*anchor=*/100, seed);
}

/**
 * The device's read path written the straight-line way: each
 * sector is classified by the floating-point test u01(h) < rate,
 * the zone's condition is re-read before every sector, and
 * recovery is the closed form of the retry loop (a transient
 * sector needing r retries recovers iff r < maxAttempts; otherwise,
 * like a grown defect, it spends maxAttempts - 1). The hash and
 * salts are the fault model's definition, restated here.
 */
class ReferenceReader
{
  public:
    ReferenceReader(const ZoneLayout &layout,
                    const ZonedDeviceOptions &options)
        : options_(options), zones_(layout),
          log_(options.errorLogCap)
    {
    }

    void fillTo(std::uint64_t end) { zones_.fillTo(end); }

    DeviceReadResult
    read(const SectorExtent &extent)
    {
        DeviceReadResult out;
        if (extent.empty())
            return out;
        zones_.ensureCovers(extent.end());
        for (std::uint64_t sector = extent.start;
             sector < extent.end();) {
            const std::size_t index = zones_.zoneIndexOf(sector);
            const std::uint64_t piece_end =
                std::min(extent.end(), zones_.zone(index).end());
            readPiece(index, {sector, piece_end - sector}, out);
            sector = piece_end;
        }
        stats_.readRetries += out.retries;
        stats_.recoveredSectors += out.recoveredSectors;
        stats_.failedReadSectors += out.failedSectors;
        if (out.degraded())
            ++stats_.degradedReads;
        return out;
    }

    const ZoneSet &zones() const { return zones_; }
    const ReadErrorLog &readErrorLog() const { return log_; }
    const DeviceStats &stats() const { return stats_; }

  private:
    enum class SectorFault
    {
        Good,
        Transient,
        Grown,
    };

    static std::uint64_t
    mix64(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    static double
    u01(std::uint64_t h)
    {
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    }

    std::uint64_t
    hash(std::uint64_t x) const
    {
        return mix64(options_.faults.seed ^ x);
    }

    SectorFault
    classifySector(std::uint64_t sector) const
    {
        const DeviceFaultConfig &f = options_.faults;
        const std::uint64_t h = hash(sector);
        if (f.grownRate > 0.0 &&
            u01(mix64(h ^ 0x67726f776e646566ULL)) < f.grownRate)
            return SectorFault::Grown;
        if (f.transientRate > 0.0 &&
            u01(mix64(h ^ 0x7472616e7369656eULL)) <
                f.transientRate)
            return SectorFault::Transient;
        return SectorFault::Good;
    }

    void
    readPiece(std::size_t index, const SectorExtent &piece,
              DeviceReadResult &out)
    {
        const Status readable = zones_.checkRead(index, piece);
        if (!readable.ok()) {
            out.failedSectors +=
                static_cast<std::uint32_t>(piece.count);
            log_.append({piece.start, 0, readable});
            return;
        }
        const std::uint32_t budget = static_cast<std::uint32_t>(
            std::max(options_.recovery.maxAttempts, 1));
        for (std::uint64_t sector = piece.start;
             sector < piece.end(); ++sector) {
            if (zones_.zone(index).condition ==
                ZoneCondition::Offline) {
                ++out.failedSectors;
                continue;
            }
            const SectorFault fault = classifySector(sector);
            if (fault == SectorFault::Good)
                continue;
            if (knownDefects_.contains(sector)) {
                ++out.failedSectors;
                continue;
            }
            const std::string name =
                "sector " + std::to_string(sector);
            if (fault == SectorFault::Transient) {
                const std::uint32_t span =
                    static_cast<std::uint32_t>(std::max(
                        options_.faults.maxTransientRetries, 1));
                const std::uint32_t required =
                    1 + static_cast<std::uint32_t>(
                            hash(sector ^ 0x7265747269657321ULL) %
                            span);
                const bool recovered = required < budget;
                const std::uint32_t retries =
                    recovered ? required : budget - 1;
                out.retries += retries;
                if (recovered) {
                    ++out.recoveredSectors;
                    log_.append({sector, retries, Status()});
                } else {
                    ++out.failedSectors;
                    log_.append(
                        {sector, retries,
                         deviceError(
                             DeviceErrc::TransientMediaError,
                             name + " unrecovered after " +
                                 std::to_string(retries) +
                                 " retries")});
                }
                continue;
            }
            out.retries += budget - 1;
            ++out.failedSectors;
            log_.append({sector, budget - 1,
                         deviceError(DeviceErrc::GrownDefect,
                                     name + " is a grown defect")});
            knownDefects_.insert(sector);
            ++stats_.grownDefects;
            if (zones_.zone(index).condition ==
                ZoneCondition::Offline)
                continue;
            const bool offline =
                u01(hash(sector ^ 0x6f66666c696e6521ULL)) <
                options_.faults.offlineShare;
            zones_.forceCondition(index,
                                  offline ? ZoneCondition::Offline
                                          : ZoneCondition::ReadOnly);
        }
    }

    ZonedDeviceOptions options_;
    ZoneSet zones_;
    ReadErrorLog log_;
    DeviceStats stats_;
    std::unordered_set<std::uint64_t> knownDefects_;
};

void
expectSameRead(const DeviceReadResult &got,
               const DeviceReadResult &want)
{
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.recoveredSectors, want.recoveredSectors);
    EXPECT_EQ(got.failedSectors, want.failedSectors);
}

void
expectSameStats(const DeviceStats &got, const DeviceStats &want)
{
    EXPECT_EQ(got.readRetries, want.readRetries);
    EXPECT_EQ(got.recoveredSectors, want.recoveredSectors);
    EXPECT_EQ(got.failedReadSectors, want.failedReadSectors);
    EXPECT_EQ(got.degradedReads, want.degradedReads);
    EXPECT_EQ(got.failedWriteSectors, want.failedWriteSectors);
    EXPECT_EQ(got.zoneResets, want.zoneResets);
    EXPECT_EQ(got.wpViolations, want.wpViolations);
    EXPECT_EQ(got.outOfPolicyWrites, want.outOfPolicyWrites);
    EXPECT_EQ(got.grownDefects, want.grownDefects);
    EXPECT_EQ(got.wpDivergences, want.wpDivergences);
    EXPECT_EQ(got.crashes, want.crashes);
}

/** The device's fault-map block, restated: the rereads below aim
 *  at its edges. */
constexpr std::uint64_t kFaultBlock = 512;

/**
 * Random reads (crossing zone boundaries, some past the filled
 * region) through the device and the reference, then rereads of
 * the same media, compared read by read and in every piece of
 * final state. The rereads hit the device's memoised fault map: a
 * block hashed by an earlier read, a grown defect found by one
 * (which must now fail fast), a piece starting or ending inside a
 * word of the suspect bitmap.
 */
void
runFaultScanDifferential(const ZonedDeviceOptions &options,
                         std::uint64_t anchor, std::uint64_t seed)
{
    ZonedDevice device(swrLayout(anchor), options);
    ReferenceReader reference(swrLayout(anchor), options);
    const std::uint64_t filled = 24 * kZoneSectors + 17;
    device.fillTo(filled);
    reference.fillTo(filled);

    int reads = 0;
    auto compare = [&](const SectorExtent &extent) {
        SCOPED_TRACE("read " + std::to_string(reads++) + " [" +
                     std::to_string(extent.start) + ", +" +
                     std::to_string(extent.count) + ")");
        expectSameRead(device.read(extent), reference.read(extent));
    };

    Rng rng(seed);
    std::vector<SectorExtent> first;
    for (int i = 0; i < 60; ++i) {
        first.push_back({rng.nextUint(filled + 4 * kZoneSectors),
                         1 + rng.nextUint(3 * kZoneSectors)});
        compare(first.back());
    }

    // Every earlier extent again, then a sub-range inside it and
    // a range overlapping its tail.
    for (const SectorExtent &extent : first)
        compare(extent);
    for (const SectorExtent &extent : first) {
        const SectorCount third = extent.count / 3;
        compare({extent.start + third, third + 1});
        compare({extent.start + extent.count / 2, extent.count});
    }
    // Single sectors on both sides of each block edge.
    for (std::uint64_t edge = kFaultBlock;
         edge <= filled + 4 * kZoneSectors; edge += kFaultBlock)
        for (const std::uint64_t sector :
             {edge - 1, edge, edge + 1})
            compare({sector, 1});
    // One extent over several blocks, from the anchor zone on.
    compare({0, filled + 2 * kZoneSectors});

    expectSameStats(device.stats(), reference.stats());
    const auto &got = device.readErrorLog();
    const auto &want = reference.readErrorLog();
    EXPECT_EQ(got.dropped(), want.dropped());
    ASSERT_EQ(got.entries().size(), want.entries().size());
    for (std::size_t i = 0; i < got.entries().size(); ++i) {
        SCOPED_TRACE("log entry " + std::to_string(i));
        EXPECT_EQ(got.entries()[i].sector, want.entries()[i].sector);
        EXPECT_EQ(got.entries()[i].retries,
                  want.entries()[i].retries);
        EXPECT_EQ(got.entries()[i].status, want.entries()[i].status);
    }
    ASSERT_EQ(device.zones().size(), reference.zones().size());
    for (std::size_t i = 0; i < device.zones().size(); ++i)
        EXPECT_EQ(device.zones().zone(i).condition,
                  reference.zones().zone(i).condition)
            << "zone " << i;
}

TEST(ZonedDeviceDifferential, FaultScanMatchesPerSectorReference)
{
    // Rates above 1 appear in the 4x grids and mean "every sector".
    const std::vector<double> rates{0.0, 1e-6, 1e-3, 0.5, 1.0, 4.0};
    for (const double transient : rates)
        for (const double grown : rates)
            for (const double offline : {0.0, 0.25, 1.0}) {
                ZonedDeviceOptions options = quietOptions();
                options.faults.transientRate = transient;
                options.faults.grownRate = grown;
                options.faults.offlineShare = offline;
                options.faults.maxTransientRetries = 5;
                for (const std::uint64_t seed : {1ULL, 2026ULL}) {
                    SCOPED_TRACE(
                        "transient " + std::to_string(transient) +
                        " grown " + std::to_string(grown) +
                        " offline " + std::to_string(offline) +
                        " seed " + std::to_string(seed));
                    options.faults.seed = seed * 0x9e37ULL;
                    // Budgets below and above the worst seeded
                    // requirement (5 retries).
                    options.recovery.maxAttempts =
                        seed == 1 ? 4 : 8;
                    runFaultScanDifferential(
                        options, seed == 1 ? 0 : 100, seed);
                }
            }
}

TEST(ZonedDeviceFaults, IntegerThresholdMatchesFloatingPointTest)
{
    const auto u01 = [](std::uint64_t m) {
        return static_cast<double>(m) * 0x1.0p-53;
    };
    constexpr std::uint64_t kOne = 1ULL << 53;
    EXPECT_EQ(faultThreshold(0.0), 0U);
    EXPECT_EQ(faultThreshold(-0.5), 0U);
    EXPECT_EQ(faultThreshold(0x1.0p-53), 1U);
    EXPECT_EQ(faultThreshold(std::nextafter(0x1.0p-53, 1.0)), 2U);
    EXPECT_EQ(faultThreshold(1.0), kOne);
    EXPECT_EQ(faultThreshold(4.0), kOne);

    // Boundary rates k * 2^-53, their neighbours, and a few that no
    // power of two divides.
    std::vector<double> rates{
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        1e-6,
        1e-3,
        0.1,
        0.5,
        1.0,
        1.5,
        4.0,
        std::numeric_limits<double>::max()};
    const std::vector<std::uint64_t> multiples{
        1, 2, 3, 1000, 123456789, kOne / 2, kOne - 1, kOne};
    for (const std::uint64_t k : multiples) {
        const double rate = static_cast<double>(k) * 0x1.0p-53;
        rates.push_back(rate);
        rates.push_back(std::nextafter(rate, 0.0));
        rates.push_back(std::nextafter(rate, 2.0));
    }
    for (const double rate : rates) {
        const std::uint64_t threshold = faultThreshold(rate);
        SCOPED_TRACE("rate " + std::to_string(rate) + " threshold " +
                     std::to_string(threshold));
        EXPECT_LE(threshold, kOne);
        // The threshold is the first 53-bit value the test rejects:
        // every value below it is faulty, it and above are not.
        for (const std::uint64_t m :
             {std::uint64_t{0}, threshold - 1, threshold,
              threshold + 1, kOne - 1}) {
            if (m >= kOne)
                continue;
            EXPECT_EQ(m < threshold, u01(m) < rate) << "m " << m;
        }
    }
}

TEST(ZonedDeviceFaults, NonFiniteFaultRatesAreRejected)
{
    // A NaN rate used to mean "never faulty" by accident; every
    // non-finite rate is now a configuration bug.
    for (double DeviceFaultConfig::*field :
         {&DeviceFaultConfig::transientRate,
          &DeviceFaultConfig::grownRate,
          &DeviceFaultConfig::offlineShare,
          &DeviceFaultConfig::wpDivergenceRate})
        for (const double bad :
             {std::numeric_limits<double>::quiet_NaN(),
              std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity()}) {
            ZonedDeviceOptions options = quietOptions();
            options.faults.*field = bad;
            EXPECT_THROW(
                { ZonedDevice device(swrLayout(), options); },
                PanicError);
        }
}

TEST(ZonedDeviceFaults, CleanDeviceTouchesNoFaultPath)
{
    ZonedDevice device(swrLayout(), quietOptions());
    device.write({0, 32});
    const DeviceReadResult read = device.read({0, 32});
    EXPECT_EQ(read.retries, 0u);
    EXPECT_EQ(read.failedSectors, 0u);
    EXPECT_FALSE(read.degraded());
    EXPECT_TRUE(device.readErrorLog().entries().empty());
}

TEST(ZonedDeviceFaults, TransientSectorsRecoverDeterministically)
{
    ZonedDeviceOptions options = quietOptions();
    options.faults.transientRate = 1.0;
    options.faults.maxTransientRetries = 2;
    options.recovery.maxAttempts = 4;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 16});
    const DeviceReadResult read = device.read({0, 16});
    // Every sector is transient and the budget (4 attempts) covers
    // the worst seeded requirement (2 retries): all recover.
    EXPECT_EQ(read.recoveredSectors, 16u);
    EXPECT_EQ(read.failedSectors, 0u);
    EXPECT_GE(read.retries, 16u);
    EXPECT_LE(read.retries, 32u);

    // Recovery episodes land in the error log with OK status.
    ASSERT_EQ(device.readErrorLog().entries().size(), 16u);
    for (const auto &entry : device.readErrorLog().entries()) {
        EXPECT_GE(entry.retries, 1u);
        EXPECT_TRUE(entry.status.ok());
    }

    // Same seed, same trace: byte-identical outcome.
    ZonedDevice twin(swrLayout(), options);
    twin.write({0, 16});
    const DeviceReadResult again = twin.read({0, 16});
    EXPECT_EQ(again.retries, read.retries);
    EXPECT_EQ(again.recoveredSectors, read.recoveredSectors);
}

TEST(ZonedDeviceFaults, TransientClassificationIsOrderIndependent)
{
    // Transient faults are pure per-sector hashes, so reading the
    // same extents forward or backward costs identical totals.
    ZonedDeviceOptions options = quietOptions();
    options.faults.transientRate = 0.3;

    std::vector<SectorExtent> extents;
    for (std::uint64_t i = 0; i < 40; ++i)
        extents.push_back({i * 16, 16});

    ZonedDevice forward(swrLayout(), options);
    for (const auto &extent : extents)
        forward.write(extent);
    for (const auto &extent : extents)
        forward.read(extent);

    ZonedDevice backward(swrLayout(), options);
    for (const auto &extent : extents)
        backward.write(extent);
    for (auto it = extents.rbegin(); it != extents.rend(); ++it)
        backward.read(*it);

    EXPECT_EQ(forward.stats().readRetries,
              backward.stats().readRetries);
    EXPECT_EQ(forward.stats().recoveredSectors,
              backward.stats().recoveredSectors);
    EXPECT_EQ(forward.stats().failedReadSectors,
              backward.stats().failedReadSectors);
    EXPECT_GT(forward.stats().recoveredSectors, 0u);
}

TEST(ZonedDeviceFaults, GrownDefectDegradesZoneAndFailsFast)
{
    ZonedDeviceOptions options = quietOptions();
    options.faults.grownRate = 1.0;
    options.faults.offlineShare = 0.0; // always READ_ONLY

    ZonedDevice device(swrLayout(), options);
    device.write({0, 8});
    const DeviceReadResult read = device.read({0, 8});
    EXPECT_TRUE(read.degraded());
    EXPECT_EQ(read.failedSectors, 8u);
    EXPECT_EQ(read.recoveredSectors, 0u);
    EXPECT_GT(device.stats().grownDefects, 0u);
    EXPECT_EQ(device.zones().zone(0).condition,
              ZoneCondition::ReadOnly);

    // The first defect's log entry carries the typed DataLoss.
    ASSERT_FALSE(device.readErrorLog().entries().empty());
    const auto &entry = device.readErrorLog().entries().front();
    EXPECT_TRUE(
        isDeviceError(entry.status, DeviceErrc::GrownDefect));
    EXPECT_EQ(entry.status.code(), StatusCode::DataLoss);

    // Known defects fail fast: a re-read spends no retries.
    const std::uint64_t retries_before =
        device.stats().readRetries;
    const DeviceReadResult again = device.read({0, 8});
    EXPECT_EQ(device.stats().readRetries, retries_before);
    EXPECT_TRUE(again.degraded());

    // The READ_ONLY zone refuses writes as counted failures.
    const DeviceWriteResult refused = device.write({8, 8});
    EXPECT_EQ(refused.failedSectors, 8u);
}

TEST(ZonedDeviceFaults, OfflineZoneRefusesReadsOutright)
{
    ZonedDeviceOptions options = quietOptions();
    options.faults.grownRate = 1.0;
    options.faults.offlineShare = 1.0; // always OFFLINE

    ZonedDevice device(swrLayout(), options);
    device.write({0, 4});
    device.read({0, 1}); // discovers the defect, zone goes dark
    EXPECT_EQ(device.zones().zone(0).condition,
              ZoneCondition::Offline);

    const DeviceReadResult read = device.read({0, 16});
    EXPECT_EQ(read.failedSectors, 16u);
    EXPECT_EQ(read.retries, 0u); // no pointless recovery
}

TEST(ZonedDeviceFaults, WpDivergenceIsInjectedAndRecovered)
{
    ZonedDeviceOptions options = quietOptions();
    options.faults.wpDivergenceRate = 1.0;
    options.faults.wpDivergenceSectors = 8;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 8});
    // The pointer diverged to 16; the host's next sequential write
    // at 8 is now a violation the device must realign around.
    EXPECT_EQ(device.zones().zone(0).writePointer, 16u);
    const DeviceWriteResult second = device.write({8, 8});
    EXPECT_EQ(second.wpViolations, 1u);
    EXPECT_EQ(second.failedSectors, 0u);
    EXPECT_GT(device.stats().wpDivergences, 0u);
    // Self-healing: after recovery (and the next divergence) the
    // pointer again sits a fixed distance past the host's.
    EXPECT_EQ(device.zones().zone(0).writePointer, 24u);
}

TEST(ZonedDeviceFaults, CancellationFiresMidRecovery)
{
    ZonedDeviceOptions options;
    options.faults.transientRate = 1.0;
    options.recovery.maxAttempts = 4;
    options.recovery.initialBackoff =
        std::chrono::milliseconds(5);
    options.recovery.maxBackoff = std::chrono::milliseconds(5);

    CancelSource source;
    source.cancel(CancelReason::DeadlineExceeded);
    ZonedDevice device(swrLayout(), options, source.token());
    device.write({0, 4});
    try {
        device.read({0, 4});
        FAIL() << "expected StatusError from cancelled recovery";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code(),
                  StatusCode::DeadlineExceeded);
    }
}

TEST(ZonedDeviceFaults, ErrorLogBoundsItsMemory)
{
    ZonedDeviceOptions options = quietOptions();
    options.faults.transientRate = 1.0;

    ZonedDevice device(swrLayout(), options);
    const std::uint64_t total =
        2 * ReadErrorLog::kMaxEntries + 10;
    device.write({0, total});
    device.read({0, total});
    EXPECT_EQ(device.readErrorLog().entries().size(),
              ReadErrorLog::kMaxEntries);
    EXPECT_EQ(device.readErrorLog().dropped(),
              total - ReadErrorLog::kMaxEntries);
}

TEST(ZonedDeviceFaults, ErrorLogCapIsConfigurable)
{
    ZonedDeviceOptions options = quietOptions();
    options.faults.transientRate = 1.0;
    options.errorLogCap = 16;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 50});
    device.read({0, 50});
    EXPECT_EQ(device.readErrorLog().cap(), 16U);
    EXPECT_EQ(device.readErrorLog().entries().size(), 16U);
    EXPECT_EQ(device.readErrorLog().dropped(), 50U - 16U);
}

TEST(ZonedDeviceCrash, ScheduledPowerLossKillsTheDevice)
{
    ZonedDeviceOptions options = quietOptions();
    options.crash.crashAtWriteOp = 3;
    options.crash.seed = 0x11;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 8});
    device.write({8, 8});
    EXPECT_FALSE(device.dead());
    try {
        device.write({16, 8});
        FAIL() << "expected StatusError from scheduled crash";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code(), StatusCode::DataLoss);
    }
    EXPECT_TRUE(device.dead());
    EXPECT_EQ(device.stats().crashes, 1U);

    // A dead device refuses every further access, reads included.
    EXPECT_THROW(device.write({24, 8}), StatusError);
    EXPECT_THROW(device.read({0, 8}), StatusError);
}

TEST(ZonedDeviceCrash, TornWriteAdvancesPointerPartway)
{
    // The crashed op flushes a seeded prefix: the zone's write
    // pointer lands somewhere in [start of op, end of op] — never
    // beyond, and deterministically for a fixed seed.
    const auto crashed_wp = [](std::uint64_t seed) {
        ZonedDeviceOptions options = quietOptions();
        options.crash.crashAtWriteOp = 1;
        options.crash.seed = seed;
        ZonedDevice device(swrLayout(), options);
        EXPECT_THROW(device.write({0, 32}), StatusError);
        return device.zones().zone(0).writePointer;
    };

    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
        const std::uint64_t wp = crashed_wp(seed);
        EXPECT_LE(wp, 32U) << "seed " << seed;
        EXPECT_EQ(wp, crashed_wp(seed)) << "seed " << seed;
    }
}

TEST(ZonedDeviceCrash, UnarmedScheduleNeverFires)
{
    ZonedDeviceOptions options = quietOptions();
    ASSERT_EQ(options.crash.crashAtWriteOp, 0U);

    ZonedDevice device(swrLayout(), options);
    for (std::uint64_t i = 0; i < 100; ++i)
        device.write({i * 8, 8});
    EXPECT_FALSE(device.dead());
    EXPECT_EQ(device.stats().crashes, 0U);
}

} // namespace
} // namespace logseek::disk
