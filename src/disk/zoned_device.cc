#include "zoned_device.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/logging.h"

namespace logseek::disk
{

namespace
{

/** splitmix64 finalizer: the pure per-sector fault hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a hash. */
double
u01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Domain-separation constants: each fault question asks an
// independent hash of the same (seed, sector) pair.
constexpr std::uint64_t kGrownSalt = 0x67726f776e646566ULL;
constexpr std::uint64_t kTransientSalt = 0x7472616e7369656eULL;
constexpr std::uint64_t kRetriesSalt = 0x7265747269657321ULL;
constexpr std::uint64_t kOfflineSalt = 0x6f66666c696e6521ULL;
constexpr std::uint64_t kDivergeSalt = 0x6469766572676521ULL;
constexpr std::uint64_t kCrashSalt = 0x706f7765726c6f73ULL;

std::uint32_t
clampToU32(std::uint64_t n)
{
    return n > UINT32_MAX ? UINT32_MAX
                          : static_cast<std::uint32_t>(n);
}

} // namespace

std::uint64_t
faultThreshold(double rate)
{
    // u01(h) < rate  <=>  (h >> 11) < rate * 2^53 (a power-of-two
    // scale is exact)  <=>  (h >> 11) < ceil(rate * 2^53) for the
    // integer h >> 11. Capping at 1 keeps the threshold <= 2^53,
    // which every 53-bit value is below: a rate >= 1 is "always".
    if (!(rate > 0.0))
        return 0;
    return static_cast<std::uint64_t>(
        std::ceil(std::min(rate, 1.0) * 0x1.0p53));
}

ZonedDevice::ZonedDevice(const ZoneLayout &layout,
                         const ZonedDeviceOptions &options,
                         CancelToken cancel)
    : options_(options),
      grownThreshold_(faultThreshold(options.faults.grownRate)),
      transientThreshold_(
          faultThreshold(options.faults.transientRate)),
      zones_(layout), cancel_(std::move(cancel)),
      rng_(options.faults.seed), errorLog_(options.errorLogCap)
{
    panicIf(options.errorLogCap == 0,
            "ZonedDevice: errorLogCap must be >= 1");
    const DeviceFaultConfig &f = options.faults;
    for (const double rate : {f.transientRate, f.grownRate,
                              f.offlineShare, f.wpDivergenceRate})
        panicIf(!std::isfinite(rate),
                "ZonedDevice: fault rates must be finite");
    auto &registry = telemetry::Registry::global();
    readRetries_ =
        &registry.counter("device_read_retries_total");
    zoneResets_ = &registry.counter("device_zone_resets_total");
    wpViolations_ =
        &registry.counter("device_wp_violations_total");
    mediaErrorsTransient_ = &registry.counter(
        "device_media_errors_total", "kind=\"transient\"");
    mediaErrorsGrown_ = &registry.counter(
        "device_media_errors_total", "kind=\"grown\"");
    crashes_ = &registry.counter("device_crashes_total");
    recoveryLatency_ =
        &registry.histogram("device_recovery_latency_ns");
}

void
ZonedDevice::checkAlive() const
{
    if (dead_)
        throw StatusError(deviceError(
            DeviceErrc::PowerLoss,
            "device lost power at write op " +
                std::to_string(
                    options_.crash.crashAtWriteOp) +
                " and has not been re-opened"));
}

void
ZonedDevice::fillTo(std::uint64_t end_sector)
{
    zones_.fillTo(end_sector);
}

std::uint32_t
ZonedDevice::requiredRetries(std::uint64_t sector) const
{
    const std::uint32_t span = static_cast<std::uint32_t>(
        std::max(options_.faults.maxTransientRetries, 1));
    const std::uint64_t h =
        mix64(options_.faults.seed ^ sector ^ kRetriesSalt);
    return 1 + static_cast<std::uint32_t>(h % span);
}

bool
ZonedDevice::defectGoesOffline(std::uint64_t sector) const
{
    const std::uint64_t h =
        mix64(options_.faults.seed ^ sector ^ kOfflineSalt);
    return u01(h) < options_.faults.offlineShare;
}

std::pair<std::uint32_t, bool>
ZonedDevice::recoverSector(std::uint64_t sector,
                           std::int32_t required)
{
    const telemetry::ScopedTimer timer(recoveryLatency_);
    // Retries are reported the moment they begin (RetrySession's
    // contract), so a deadline firing mid-backoff still leaves the
    // in-flight attempt visible in device_read_retries_total.
    RetrySession session(
        options_.recovery, rng_, cancel_, [this](int attempt) {
            if (attempt > 1)
                readRetries_->add();
        });
    for (;;) {
        const int attempt = session.beginAttempt();
        if (required >= 0 && attempt > required)
            return {static_cast<std::uint32_t>(attempt - 1),
                    true};
        if (session.exhausted())
            return {static_cast<std::uint32_t>(attempt - 1),
                    false};
        const Status slept = session.backoff(
            "device recovery of sector " +
            std::to_string(sector));
        if (!slept.ok())
            throw StatusError(slept);
    }
}

void
ZonedDevice::discoverDefect(std::size_t index,
                            std::uint64_t sector)
{
    knownDefects_.insert(sector);
    ++stats_.grownDefects;
    const ZoneCondition current = zones_.zone(index).condition;
    if (current == ZoneCondition::Offline)
        return;
    // A grown defect degrades its whole zone: OFFLINE for the
    // severe share, READ_ONLY (data still readable) otherwise.
    zones_.forceCondition(index, defectGoesOffline(sector)
                                     ? ZoneCondition::Offline
                                     : ZoneCondition::ReadOnly);
}

DeviceReadResult
ZonedDevice::readPiece(std::size_t index,
                       const SectorExtent &piece)
{
    DeviceReadResult out;
    const Status readable = zones_.checkRead(index, piece);
    if (!readable.ok()) {
        out.failedSectors += clampToU32(piece.count);
        errorLog_.append({piece.start, 0, readable});
        return out;
    }
    if (grownThreshold_ == 0 && transientThreshold_ == 0)
        return out;

    // The hot loop: per sector, one hash of (seed, sector) and one
    // salted hash per fault question, each compared against its
    // integer threshold (grown takes precedence over transient).
    // Only a faulty sector leaves it.
    const std::uint64_t seed = options_.faults.seed;
    const std::uint64_t end = piece.end();
    for (std::uint64_t sector = piece.start; sector < end;
         ++sector) {
        const std::uint64_t h = mix64(seed ^ sector);
        const bool grown =
            (mix64(h ^ kGrownSalt) >> 11) < grownThreshold_;
        if (!grown && (mix64(h ^ kTransientSalt) >> 11) >=
                          transientThreshold_) [[likely]]
            continue;
        if (knownDefects_.contains(sector)) {
            // Known-bad: fail fast, no pointless retries.
            ++out.failedSectors;
            continue;
        }
        if (!grown) {
            mediaErrorsTransient_->add();
            const auto [retries, recovered] = recoverSector(
                sector, static_cast<std::int32_t>(
                            requiredRetries(sector)));
            out.retries += retries;
            if (recovered) {
                ++out.recoveredSectors;
                errorLog_.append({sector, retries, Status()});
            } else {
                ++out.failedSectors;
                errorLog_.append(
                    {sector, retries,
                     deviceError(
                         DeviceErrc::TransientMediaError,
                         "sector " + std::to_string(sector) +
                             " unrecovered after " +
                             std::to_string(retries) +
                             " retries")});
            }
        } else {
            mediaErrorsGrown_->add();
            const auto [retries, recovered] =
                recoverSector(sector, -1);
            (void)recovered;
            out.retries += retries;
            ++out.failedSectors;
            errorLog_.append(
                {sector, retries,
                 deviceError(DeviceErrc::GrownDefect,
                             "sector " +
                                 std::to_string(sector) +
                                 " is a grown defect")});
            discoverDefect(index, sector);
            // checkRead refused an offline zone up front, and only
            // discoverDefect takes one offline: if this defect did,
            // the rest of the piece is lost.
            if (zones_.zone(index).condition ==
                ZoneCondition::Offline) {
                out.failedSectors += clampToU32(end - sector - 1);
                break;
            }
        }
    }
    return out;
}

DeviceReadResult
ZonedDevice::read(const SectorExtent &extent)
{
    checkAlive();
    DeviceReadResult out;
    if (extent.empty())
        return out;
    zones_.ensureCovers(extent.end());
    for (std::uint64_t sector = extent.start;
         sector < extent.end();) {
        const std::size_t index = zones_.zoneIndexOf(sector);
        const std::uint64_t piece_end =
            std::min(extent.end(), zones_.zone(index).end());
        const DeviceReadResult piece =
            readPiece(index, {sector, piece_end - sector});
        out.retries += piece.retries;
        out.recoveredSectors += piece.recoveredSectors;
        out.failedSectors += piece.failedSectors;
        sector = piece_end;
    }
    stats_.readRetries += out.retries;
    stats_.recoveredSectors += out.recoveredSectors;
    stats_.failedReadSectors += out.failedSectors;
    if (out.degraded())
        ++stats_.degradedReads;
    return out;
}

DeviceWriteResult
ZonedDevice::writePiece(std::size_t index,
                        const SectorExtent &piece)
{
    DeviceWriteResult out;
    const Zone &zone = zones_.zone(index);

    // A write rewinding to the start of a used sequential zone is
    // how the log layers reuse a reclaimed segment: model it as
    // RESET WRITE POINTER + write, the way a ZBC host would issue
    // it.
    if (options_.autoResetOnRewind &&
        zone.type != ZoneType::Conventional &&
        piece.start == zone.start &&
        zone.writePointer != zone.start &&
        zones_.reset(index).ok())
        ++out.zoneResets;

    const std::uint64_t policy_before =
        zones_.outOfPolicyWrites();
    Status written = zones_.write(index, piece);
    if (!written.ok() &&
        isDeviceError(written,
                      DeviceErrc::WritePointerViolation)) {
        // Out-of-policy on an SWR zone: recover the way a host
        // does after a zone-report resync — adopt the host's
        // position and continue, counting the violation.
        zones_.moveWritePointer(index, piece.start);
        written = zones_.write(index, piece);
        if (written.ok())
            ++out.wpViolations;
    }
    if (!written.ok()) {
        // READ_ONLY/OFFLINE zone (or no open slot): the write is
        // refused and the data is lost — a counted, typed partial
        // failure, never an abort.
        out.failedSectors += clampToU32(piece.count);
        return out;
    }
    out.outOfPolicy += clampToU32(zones_.outOfPolicyWrites() -
                                  policy_before);
    return out;
}

DeviceWriteResult
ZonedDevice::write(const SectorExtent &extent)
{
    checkAlive();
    DeviceWriteResult out;
    if (extent.empty())
        return out;
    zones_.ensureCovers(extent.end());

    // Scheduled power loss: this very op dies mid-transfer. A
    // seeded prefix of the extent reaches the media (advancing the
    // zone write pointer partway — the torn tail a real drive
    // leaves), the rest is lost, and the device goes dead.
    if (options_.crash.armed() &&
        writeOps_ + 1 == options_.crash.crashAtWriteOp) {
        const std::uint64_t h = mix64(
            options_.crash.seed ^ (writeOps_ + 1) ^ kCrashSalt);
        const SectorCount flushed = h % (extent.count + 1);
        for (std::uint64_t sector = extent.start;
             sector < extent.start + flushed;) {
            const std::size_t index = zones_.zoneIndexOf(sector);
            const std::uint64_t piece_end =
                std::min(extent.start + flushed,
                         zones_.zone(index).end());
            writePiece(index, {sector, piece_end - sector});
            sector = piece_end;
        }
        ++writeOps_;
        dead_ = true;
        ++stats_.crashes;
        crashes_->add();
        throw StatusError(deviceError(
            DeviceErrc::PowerLoss,
            "power lost during write op " +
                std::to_string(writeOps_) + ": " +
                std::to_string(flushed) + " of " +
                std::to_string(extent.count) +
                " sectors reached the media"));
    }

    std::size_t last_index = 0;
    for (std::uint64_t sector = extent.start;
         sector < extent.end();) {
        const std::size_t index = zones_.zoneIndexOf(sector);
        const std::uint64_t piece_end =
            std::min(extent.end(), zones_.zone(index).end());
        const DeviceWriteResult piece =
            writePiece(index, {sector, piece_end - sector});
        out.zoneResets += piece.zoneResets;
        out.wpViolations += piece.wpViolations;
        out.outOfPolicy += piece.outOfPolicy;
        out.failedSectors += piece.failedSectors;
        last_index = index;
        sector = piece_end;
    }

    ++writeOps_;
    const DeviceFaultConfig &f = options_.faults;
    if (f.wpDivergenceRate > 0.0 &&
        u01(mix64(f.seed ^ writeOps_ ^ kDivergeSalt)) <
            f.wpDivergenceRate) {
        // Firmware-side write-pointer drift: the device pointer
        // creeps ahead of the host's view, so the host's next
        // sequential write lands behind it and must be recovered
        // as a violation.
        const Zone &zone = zones_.zone(last_index);
        if (zone.type != ZoneType::Conventional &&
            zone.condition != ZoneCondition::ReadOnly &&
            zone.condition != ZoneCondition::Offline) {
            zones_.moveWritePointer(
                last_index, zone.writePointer +
                                f.wpDivergenceSectors);
            ++out.divergences;
            ++stats_.wpDivergences;
        }
    }

    stats_.zoneResets += out.zoneResets;
    stats_.wpViolations += out.wpViolations;
    stats_.outOfPolicyWrites += out.outOfPolicy;
    stats_.failedWriteSectors += out.failedSectors;
    if (out.zoneResets > 0)
        zoneResets_->add(out.zoneResets);
    if (out.wpViolations > 0)
        wpViolations_->add(out.wpViolations);
    return out;
}

void
ZonedDevice::publishZoneGauges() const
{
    if (!telemetry::enabled())
        return;
    auto &registry = telemetry::Registry::global();
    const auto census = zones_.conditionCensus();
    for (std::size_t i = 0; i < census.size(); ++i) {
        const auto condition = static_cast<ZoneCondition>(i);
        registry
            .gauge("device_zones",
                   "condition=\"" +
                       std::string(toString(condition)) + "\"")
            .set(static_cast<std::int64_t>(census[i]));
    }
    registry.gauge("device_open_zones")
        .set(static_cast<std::int64_t>(zones_.openZones()));
}

} // namespace logseek::disk
