#include "media_cache.h"

#include <algorithm>
#include <map>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::stl
{

MediaCacheLayer::MediaCacheLayer(Pba data_zone_end,
                                 const MediaCacheConfig &config)
    : config_(config), dataZoneEnd_(data_zone_end),
      cacheStart_(data_zone_end),
      cacheCapacity_(bytesToSectors(config.cacheBytes)),
      bandSectors_(bytesToSectors(config.bandBytes)),
      cachePtr_(data_zone_end)
{
    panicIf(cacheCapacity_ == 0,
            "MediaCacheLayer: cache capacity must be at least one "
            "sector");
    panicIf(bandSectors_ == 0,
            "MediaCacheLayer: band size must be at least one sector");
    panicIf(config.mergeThreshold <= 0.0 ||
                config.mergeThreshold > 1.0,
            "MediaCacheLayer: merge threshold must be in (0, 1]");
}

void
MediaCacheLayer::translateReadInto(const SectorExtent &extent,
                                   SegmentBuffer &out) const
{
    panicIf(extent.empty(), "MediaCacheLayer: empty read");
    map_.translateInto(extent, out);
}

void
MediaCacheLayer::placeWriteInto(const SectorExtent &extent,
                                SegmentBuffer &out)
{
    panicIf(extent.empty(), "MediaCacheLayer: empty write");
    panicIf(extent.end() > dataZoneEnd_,
            "MediaCacheLayer: write beyond the data zones; "
            "construct with a larger data-zone end");
    const Pba placed = cachePtr_;
    map_.mapRange(extent.start, placed, extent.count);
    cachePtr_ += extent.count;
    cacheUsed_ += extent.count;
    out.clear();
    out.push(Segment{extent, placed, true});
    if (journal_ != nullptr) {
        const JournalEntry entry{extent.start, placed,
                                 extent.count};
        journal_->record(JournalRecordKind::Placement, cachePtr_,
                         merges_, {&entry, 1});
    }
}

std::size_t
MediaCacheLayer::staticFragmentCount() const
{
    return map_.entryCount();
}

bool
MediaCacheLayer::needsMerge() const
{
    return static_cast<double>(cacheUsed_) >=
           config_.mergeThreshold *
               static_cast<double>(cacheCapacity_);
}

const std::vector<MediaAccess> &
MediaCacheLayer::maintenance()
{
    accesses_.clear();
    if (!needsMerge())
        return accesses_;

    // Collect the dirty bands and, per band, the cache fragments
    // that must be folded back, in physical order.
    std::map<std::uint64_t, std::vector<SectorExtent>> bands;
    map_.forEachEntry([&](Lba lba, Pba pba, SectorCount count) {
        // An entry may straddle band boundaries; split accordingly.
        Lba cursor = lba;
        while (cursor < lba + count) {
            const std::uint64_t band = cursor / bandSectors_;
            const Lba band_end = (band + 1) * bandSectors_;
            const Lba piece_end = std::min<Lba>(lba + count, band_end);
            bands[band].push_back(SectorExtent{
                pba + (cursor - lba), piece_end - cursor});
            cursor = piece_end;
        }
    });

    for (auto &[band, fragments] : bands) {
        const Lba band_start = band * bandSectors_;
        const SectorCount band_count = std::min<SectorCount>(
            bandSectors_, dataZoneEnd_ - band_start);
        const SectorExtent band_extent{band_start, band_count};

        // Read-modify-write: old band contents, then the cache
        // fragments (coalesced, in cache order), then the rewrite.
        accesses_.push_back({band_extent, trace::IoType::Read});
        std::sort(fragments.begin(), fragments.end(),
                  [](const SectorExtent &a, const SectorExtent &b) {
                      return a.start < b.start;
                  });
        SectorExtent pending{0, 0};
        for (const auto &fragment : fragments) {
            if (!pending.empty() &&
                pending.end() == fragment.start) {
                pending.count += fragment.count;
                continue;
            }
            if (!pending.empty())
                accesses_.push_back({pending, trace::IoType::Read});
            pending = fragment;
        }
        if (!pending.empty())
            accesses_.push_back({pending, trace::IoType::Read});
        accesses_.push_back({band_extent, trace::IoType::Write});
    }

    // Everything is back in LBA order: drop the whole map and
    // rewind the cache append pointer.
    map_ = ExtentMap();
    cacheUsed_ = 0;
    cachePtr_ = cacheStart_;
    ++merges_;
    if (journal_ != nullptr)
        journal_->record(JournalRecordKind::MergeReset, cachePtr_,
                         merges_, {});
    return accesses_;
}

MountStats
MediaCacheLayer::mountFromJournal(const SegmentJournal &journal)
{
    const telemetry::ScopedTimer timer(
        &telemetry::Registry::global().histogram(
            "mount_latency_ns"));
    panicIf(!map_.empty(),
            "MediaCacheLayer: mount on a non-fresh layer");
    const JournalScan scan = scanJournal(journal.image());
    for (const JournalRecord &record : scan.records) {
        switch (record.kind) {
        case JournalRecordKind::Placement:
            for (const JournalEntry &entry : record.entries) {
                map_.mapRange(entry.lba, entry.pba, entry.count);
                cacheUsed_ += entry.count;
            }
            cachePtr_ = record.frontierAfter;
            break;
        case JournalRecordKind::MergeReset:
            map_ = ExtentMap();
            cacheUsed_ = 0;
            cachePtr_ = record.frontierAfter;
            merges_ = record.aux;
            break;
        case JournalRecordKind::SegmentReset:
            fatal("MediaCacheLayer: foreign record kind in "
                  "journal");
        }
    }
    return mountStatsFrom(scan);
}

} // namespace logseek::stl
