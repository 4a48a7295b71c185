/**
 * @file
 * Layer replays: each layer's public API driven alone over a
 * profile's records or over the fragment stream the traced run
 * captured, with every call timed from outside the layer.
 */

#include <algorithm>
#include <fstream>

#include "bench.h"
#include "disk/head.h"
#include "stl/defrag.h"
#include "stl/finite_log.h"
#include "stl/fsck.h"
#include "stl/log_structured.h"
#include "stl/prefetch.h"
#include "stl/segment_journal.h"
#include "stl/selective_cache.h"
#include "util/units.h"

namespace perfbench
{

namespace
{

/** Call fn(type, extent) for every record of the source, in order. */
template <class Fn>
void
forEachRecord(const trace::TraceSource &source, Fn &&fn)
{
    const std::unique_ptr<trace::TraceInput> input = source.open();
    trace::IoEventBatch batch;
    while (const std::size_t n = input->next(batch, 4096))
        for (std::size_t i = 0; i < n; ++i)
            fn(batch.type(i), batch.extent(i));
}

/** Elapsed nanoseconds since `start` (a nowNs() reading). */
inline std::uint64_t
since(std::uint64_t start)
{
    return nowNs() - start;
}

/** Zone geometry the replay engine pairs with `config`'s layer. */
disk::ZoneLayout
zoneLayoutFor(const stl::SimConfig &config, Lba identity_end,
              std::uint32_t max_open_zones)
{
    disk::ZoneLayout layout;
    layout.maxOpenZones = max_open_zones;
    std::uint64_t zone_bytes = 256 * kMiB;
    switch (config.translation) {
    case stl::TranslationKind::Conventional:
        layout.type = disk::ZoneType::Conventional;
        break;
    case stl::TranslationKind::LogStructured:
        layout.type = disk::ZoneType::SequentialWriteRequired;
        layout.anchorSector = identity_end;
        break;
    case stl::TranslationKind::FiniteLogStructured:
        layout.type = disk::ZoneType::SequentialWriteRequired;
        layout.anchorSector = identity_end;
        zone_bytes = config.finiteLog.segmentBytes;
        break;
    case stl::TranslationKind::MediaCache:
        layout.type = disk::ZoneType::SequentialWritePreferred;
        layout.anchorSector = identity_end;
        break;
    }
    layout.zoneSectors =
        std::max<SectorCount>(1, bytesToSectors(zone_bytes));
    return layout;
}

void
replayLogStructured(const Profile &profile, LayerTotals &totals)
{
    stl::LogStructuredLayer layer(profile.addressSpaceEnd);
    stl::SegmentBuffer out;
    forEachRecord(*profile.source, [&](trace::IoType type,
                                       const SectorExtent &extent) {
        const std::uint64_t start = nowNs();
        if (type == trace::IoType::Read) {
            layer.translateReadInto(extent, out);
            totals.lsReadNs += since(start);
            ++totals.lsReads;
            stl::mergePhysicallyContiguousInPlace(out);
            totals.readFragments += out.size();
        } else {
            layer.placeWriteInto(extent, out);
            totals.lsWriteNs += since(start);
            ++totals.lsWrites;
        }
    });
    totals.staticFragments += layer.staticFragmentCount();
}

void
replayFiniteLog(const Profile &profile, LayerTotals &totals)
{
    stl::FiniteLogConfig config =
        sizedFiniteLog(profile.footprintSectors, 95);
    stl::FiniteLogStructuredLayer layer(profile.addressSpaceEnd,
                                        config);
    stl::SegmentBuffer out;
    try {
        forEachRecord(*profile.source, [&](trace::IoType type,
                                           const SectorExtent &extent) {
            std::uint64_t start = nowNs();
            if (type == trace::IoType::Read) {
                layer.translateReadInto(extent, out);
                totals.flReadNs += since(start);
                ++totals.flReads;
                return;
            }
            layer.placeWriteInto(extent, out);
            totals.flWriteNs += since(start);
            ++totals.flWrites;
            totals.flHostWriteBytes += extent.bytes();
            start = nowNs();
            const std::vector<stl::MediaAccess> cleaning =
                layer.maintenance();
            totals.flMaintenanceNs += since(start);
            for (const auto &access : cleaning)
                if (access.type == trace::IoType::Write)
                    totals.flCleaningWriteBytes +=
                        access.physical.bytes();
        });
    } catch (const std::exception &) {
        // An overcommitted log is a failed check, not a crash.
        ++totals.failedChecks;
    }
    totals.flVictimLiveBytes += layer.gcVictimLiveBytes();
    totals.flVictimSpanBytes += layer.gcVictimSpanBytes();
}

void
replayJournal(const Profile &profile, LayerTotals &totals)
{
    stl::SegmentJournal journal;
    {
        stl::LogStructuredLayer layer(profile.addressSpaceEnd);
        layer.attachJournal(&journal);
        stl::SegmentBuffer out;
        forEachRecord(*profile.source,
                      [&](trace::IoType type,
                          const SectorExtent &extent) {
                          if (type == trace::IoType::Read)
                              layer.translateReadInto(extent, out);
                          else
                              layer.placeWriteInto(extent, out);
                      });
    }
    totals.journalBytes += journal.image().size();
    totals.journalEpochs += journal.epochs();
    totals.journalOps += profile.records;

    stl::LogStructuredLayer remounted(profile.addressSpaceEnd);
    std::uint64_t start = nowNs();
    const stl::MountStats stats = remounted.mountFromJournal(journal);
    totals.mountNs += since(start);
    totals.mountedEpochs += stats.epochsApplied;
    start = nowNs();
    const stl::FsckReport report =
        stl::Fsck::check(remounted, journal);
    totals.fsckNs += since(start);
    totals.fsckEntries += report.checkedEntries;
    if (stats.epochsApplied != journal.epochs() ||
        stats.tornTails != 0 || stats.damagedFrames != 0 ||
        stats.truncatedEpochs != 0 || !report.ok())
        ++totals.failedChecks;
}

void
replayReadStages(const CapturedStream &captured,
                 LayerTotals &totals)
{
    stl::SelectiveCache cache(stl::SelectiveCacheConfig{64 * kMiB});
    stl::Prefetcher prefetch;
    stl::Defragmenter defrag;
    std::uint64_t begin = 0;
    for (std::size_t i = 0; i < captured.size(); ++i) {
        const std::uint64_t end = captured.fragmentEnd[i];
        const std::uint64_t count = end - begin;
        if (captured.types[i] != trace::IoType::Read) {
            begin = end;
            continue;
        }
        // The stages' own admission rules (replay_engine.cc): the
        // cache serves and admits fragments of fragmented reads
        // only; the drive buffer is consulted for every fragment
        // and filled by look-ahead-behind fetches around fragments
        // of fragmented reads.
        const bool fragmented = count >= 2;
        for (std::uint64_t f = begin; f < end; ++f) {
            const SectorExtent &fragment = captured.fragments[f];
            if (fragmented) {
                const std::uint64_t start = nowNs();
                const bool hit = cache.lookup(fragment);
                totals.cacheLookupNs += since(start);
                ++totals.cacheLookups;
                totals.cacheHits += hit ? 1 : 0;
                if (!hit)
                    cache.admit(fragment);
            }
            const std::uint64_t start = nowNs();
            const bool hit = prefetch.lookup(fragment);
            totals.prefetchLookupNs += since(start);
            ++totals.prefetchLookups;
            totals.prefetchHits += hit ? 1 : 0;
            if (!hit && fragmented)
                prefetch.admit(prefetch.fetchRegion(fragment));
        }
        const std::uint64_t start = nowNs();
        const bool rewrite =
            defrag.onRead(captured.extents[i],
                          static_cast<std::size_t>(count));
        totals.defragNs += since(start);
        ++totals.defragReads;
        totals.defragRewrites += rewrite ? 1 : 0;
        begin = end;
    }
}

void
replayDisk(const Profile &profile, const CapturedStream &captured,
           const stl::SimConfig &capture_config, std::uint64_t seed,
           LayerTotals &totals)
{
    const disk::ZonedDeviceOptions options = faultyDevice(seed);
    disk::ZonedDevice device(
        zoneLayoutFor(capture_config, profile.addressSpaceEnd,
                      options.maxOpenZones),
        options);
    device.fillTo(profile.addressSpaceEnd);
    disk::DiskHead head;
    std::uint64_t begin = 0;
    for (std::size_t i = 0; i < captured.size(); ++i) {
        const trace::IoType type = captured.types[i];
        const std::uint64_t end = captured.fragmentEnd[i];
        for (std::uint64_t f = begin; f < end; ++f) {
            const SectorExtent &fragment = captured.fragments[f];
            std::uint64_t start = nowNs();
            head.access(fragment, type);
            totals.headNs += since(start);
            ++totals.headAccesses;
            start = nowNs();
            if (type == trace::IoType::Read) {
                const disk::DeviceReadResult r = device.read(fragment);
                totals.zonedReadNs += since(start);
                ++totals.zonedReads;
                totals.zonedRetries += r.retries;
                totals.zonedFailedSectors += r.failedSectors;
            } else {
                const disk::DeviceWriteResult r =
                    device.write(fragment);
                totals.zonedWriteNs += since(start);
                ++totals.zonedWrites;
                totals.zonedFailedSectors += r.failedSectors;
            }
        }
        begin = end;
    }
}

} // namespace

stl::FiniteLogConfig
sizedFiniteLog(std::uint64_t footprint_sectors, unsigned util_pct)
{
    // capacity = footprint / utilization, a segment near
    // capacity/128 on a 64 KiB grid in [64 KiB, 4 MiB], and an
    // 8 MiB floor so tiny profiles keep a real segment population.
    const std::uint64_t raw_capacity = std::max<std::uint64_t>(
        8 * kMiB, sectorsToBytes(footprint_sectors) * 100 / util_pct);
    stl::FiniteLogConfig config;
    config.segmentBytes = std::clamp<std::uint64_t>(
        raw_capacity / 128, 64 * kKiB, 4 * kMiB);
    config.segmentBytes -= config.segmentBytes % (64 * kKiB);
    config.capacityBytes = (raw_capacity + config.segmentBytes - 1) /
                           config.segmentBytes * config.segmentBytes;
    config.cleanReserveSegments = 2;
    config.cleanTargetSegments = 4;
    return config;
}

disk::ZonedDeviceOptions
faultyDevice(std::uint64_t seed)
{
    // Transient faults on 0.1% of sectors; grown defects at one per
    // million sectors (about one per two 256 MiB zones), each
    // turning its zone read-only once a read finds it. None goes
    // offline: reads of an offline zone fail without touching the
    // media, so host time would hinge on which zones the seed took
    // offline.
    disk::ZonedDeviceOptions options;
    options.faults.seed = seed ^ 0xbad5ec70ULL;
    options.faults.transientRate = 0.001;
    options.faults.grownRate = 0.000001;
    options.faults.offlineShare = 0.0;
    return options;
}

void
replayLayers(const Profile &profile, const CapturedStream &captured,
             const stl::SimConfig &capture_config, std::uint64_t seed,
             LayerTotals &totals)
{
    replayLogStructured(profile, totals);
    replayFiniteLog(profile, totals);
    replayJournal(profile, totals);
    replayReadStages(captured, totals);
    replayDisk(profile, captured, capture_config, seed, totals);
}

long
Tracer::open(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<long>(spans_.size()) - 1;
}

void
Tracer::close(long index, std::uint64_t end_ns)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endNs = end_ns;
}

std::uint64_t
Tracer::totalNs(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += span.durationNs();
    return total;
}

bool
Tracer::write(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream file(path);
    file << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        file << "  {\"name\": \"" << span.name
             << "\", \"start_ns\": " << span.startNs
             << ", \"end_ns\": " << span.endNs
             << ", \"parent\": " << span.parent;
        for (const auto &[key, value] : span.args)
            file << ", \"" << key << "\": \"" << value << "\"";
        file << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    file << "]\n";
    return static_cast<bool>(file);
}

} // namespace perfbench
