#include "segment_journal.h"

#include "telemetry/metrics.h"
#include "util/checkpoint.h"
#include "util/logging.h"

namespace logseek::stl
{

namespace
{

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
getU8(std::string_view &in, std::uint8_t &v)
{
    if (in.size() < 1)
        return false;
    v = static_cast<std::uint8_t>(in[0]);
    in.remove_prefix(1);
    return true;
}

bool
getU32(std::string_view &in, std::uint32_t &v)
{
    if (in.size() < 4)
        return false;
    v = 0;
    for (std::size_t i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(in[i]))
             << (8 * i);
    in.remove_prefix(4);
    return true;
}

bool
getU64(std::string_view &in, std::uint64_t &v)
{
    if (in.size() < 8)
        return false;
    v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[i]))
             << (8 * i);
    in.remove_prefix(8);
    return true;
}

/** splitmix64 finalizer for the seeded tear point. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Frame overhead of the LCKP framing: magic + length + CRC. */
constexpr std::size_t kFrameHeader = 12;

/** Append the payload of one record to `out`. */
void
putRecord(std::string &out, JournalRecordKind kind,
          std::uint64_t epoch, Pba frontier_after, std::uint64_t aux,
          std::span<const JournalEntry> entries)
{
    putU8(out, static_cast<std::uint8_t>(kind));
    putU64(out, epoch);
    putU64(out, frontier_after);
    putU64(out, aux);
    putU32(out, static_cast<std::uint32_t>(entries.size()));
    for (const JournalEntry &entry : entries) {
        putU64(out, entry.lba);
        putU64(out, entry.pba);
        putU64(out, entry.count);
    }
}

} // namespace

std::string
encodeJournalRecord(const JournalRecord &record)
{
    std::string out;
    out.reserve(1 + 8 * 3 + 4 + record.entries.size() * 24);
    putRecord(out, record.kind, record.epoch, record.frontierAfter,
              record.aux, record.entries);
    return out;
}

bool
decodeJournalRecord(std::string_view payload, JournalRecord &out)
{
    std::uint8_t kind = 0;
    std::uint32_t count = 0;
    if (!getU8(payload, kind) || !getU64(payload, out.epoch) ||
        !getU64(payload, out.frontierAfter) ||
        !getU64(payload, out.aux) || !getU32(payload, count))
        return false;
    if (kind < static_cast<std::uint8_t>(
                   JournalRecordKind::Placement) ||
        kind > static_cast<std::uint8_t>(
                   JournalRecordKind::MergeReset))
        return false;
    out.kind = static_cast<JournalRecordKind>(kind);
    if (payload.size() != static_cast<std::size_t>(count) * 24)
        return false;
    out.entries.clear();
    out.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        JournalEntry entry;
        getU64(payload, entry.lba);
        getU64(payload, entry.pba);
        getU64(payload, entry.count);
        out.entries.push_back(entry);
    }
    return payload.empty();
}

JournalScan
scanJournal(std::string_view image)
{
    JournalScan scan;

    // Decode each intact frame in place while the epoch chain stays
    // unbroken; the first gap (a damaged frame in the middle) or
    // undecodable payload truncates everything after the last
    // consistent epoch — a log scan cannot trust state that depends
    // on a missing op. Frames past the break are only counted.
    bool broken = false;
    const CheckpointLoad load =
        parseCheckpoint(image, [&](std::string_view payload) {
            ++scan.segmentsScanned;
            if (broken)
                return;
            JournalRecord record;
            if (!decodeJournalRecord(payload, record) ||
                record.epoch != scan.records.size() + 1) {
                broken = true;
                return;
            }
            scan.records.push_back(std::move(record));
        });
    scan.damagedFrames = load.damagedFrames;
    scan.tornTail = load.tornTail;
    scan.bytesDropped = load.bytesDropped;
    scan.truncatedEpochs =
        scan.segmentsScanned - scan.records.size();

    auto &registry = telemetry::Registry::global();
    registry.counter("recovery_segments_scanned_total")
        .add(scan.segmentsScanned);
    if (scan.tornTail)
        registry.counter("recovery_torn_tails_total").add();
    return scan;
}

void
SegmentJournal::record(JournalRecordKind kind, Pba frontier_after,
                       std::uint64_t aux,
                       std::span<const JournalEntry> entries)
{
    // The payload is encoded straight into the image; sealing the
    // frame patches its length and CRC over the appended bytes.
    const std::size_t frame = openCheckpointFrame(image_);
    putRecord(image_, kind, ++epoch_, frontier_after, aux, entries);
    sealCheckpointFrame(image_, frame);
}

void
SegmentJournal::clear()
{
    image_.clear();
    epoch_ = 0;
}

void
SegmentJournal::tearTail(std::uint64_t seed)
{
    if (image_.empty())
        return;

    // Locate the final frame by walking the intact framing; a
    // journal image is wholly writer-produced, so every frame has a
    // valid header (the tear itself is what introduces damage).
    std::size_t last_start = 0;
    std::size_t offset = 0;
    while (offset < image_.size()) {
        panicIf(offset + kFrameHeader > image_.size(),
                "SegmentJournal: corrupt frame header in tearTail");
        std::uint32_t payload_len = 0;
        for (std::size_t i = 0; i < 4; ++i)
            payload_len |=
                static_cast<std::uint32_t>(
                    static_cast<unsigned char>(
                        image_[offset + 4 + i]))
                << (8 * i);
        last_start = offset;
        offset += kFrameHeader + payload_len;
    }
    panicIf(offset != image_.size(),
            "SegmentJournal: frame walk overran the image");

    const std::size_t last_len = image_.size() - last_start;
    const std::uint64_t h = mix64(seed ^ image_.size());
    const std::size_t keep =
        last_start + static_cast<std::size_t>(h % (last_len + 1));
    image_.resize(keep);
}

} // namespace logseek::stl
