#include "checkpoint.h"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

// The slice-by-16 CRC kernel folds raw 32-bit loads into the
// state, which is only the IEEE byte-order-free CRC on a
// little-endian host; the project already pins this for the
// on-disk formats.
static_assert(std::endian::native == std::endian::little,
              "crc32 slice-by-16 kernel assumes little-endian");

namespace logseek
{

namespace
{

constexpr std::string_view kFrameMagic{"LCKP", 4};
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 4;

void
putLe32(std::string &out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(
            static_cast<char>((value >> (8 * i)) & 0xff));
}

std::uint32_t
getLe32(std::string_view bytes, std::size_t at)
{
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[at + i]))
                 << (8 * i);
    return value;
}

/**
 * Lazily built slice-by-16 tables for the IEEE CRC-32 polynomial:
 * tables[0] is the classic byte-at-a-time table; tables[k] rolls a
 * byte through k additional zero bytes, so sixteen table lookups
 * advance the CRC by sixteen input bytes at once. Same polynomial,
 * same result, an order of magnitude more throughput — which
 * matters now that the CRC guards whole LSKC trace columns, not
 * just checkpoint frames.
 */
constexpr std::size_t kCrcSlices = 16;
using CrcTables =
    std::array<std::array<std::uint32_t, 256>, kCrcSlices>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][n] = c;
        }
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = t[0][n];
            for (std::size_t k = 1; k < kCrcSlices; ++k) {
                c = t[0][c & 0xffu] ^ (c >> 8);
                t[k][n] = c;
            }
        }
        return t;
    }();
    return tables;
}

} // namespace

std::uint32_t
crc32(std::string_view bytes)
{
    Crc32 crc;
    crc.update(bytes);
    return crc.value();
}

void
Crc32::update(std::string_view bytes)
{
    const auto &t = crcTables();
    std::uint32_t crc = state_;
    const char *p = bytes.data();
    std::size_t n = bytes.size();
    while (n >= 16) {
        std::uint32_t w0;
        std::uint32_t w1;
        std::uint32_t w2;
        std::uint32_t w3;
        std::memcpy(&w0, p, 4);
        std::memcpy(&w1, p + 4, 4);
        std::memcpy(&w2, p + 8, 4);
        std::memcpy(&w3, p + 12, 4);
        w0 ^= crc;
        crc = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
              t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
              t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
              t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
              t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
              t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
              t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
              t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
        p += 16;
        n -= 16;
    }
    for (; n > 0; ++p, --n)
        crc = t[0][(crc ^ static_cast<unsigned char>(*p)) &
                   0xffu] ^
              (crc >> 8);
    state_ = crc;
}

void
appendCheckpointFrame(std::string &out, std::string_view payload)
{
    out.append(kFrameMagic);
    putLe32(out, static_cast<std::uint32_t>(payload.size()));
    putLe32(out, crc32(payload));
    out.append(payload);
}

CheckpointLoad
parseCheckpoint(std::string_view bytes)
{
    std::vector<std::string> records;
    CheckpointLoad out =
        parseCheckpoint(bytes, [&records](std::string_view payload) {
            records.emplace_back(payload);
        });
    out.records = std::move(records);
    return out;
}

CheckpointLoad
parseCheckpoint(
    std::string_view bytes,
    const std::function<void(std::string_view)> &on_record)
{
    CheckpointLoad out;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        const std::size_t frame = bytes.find(kFrameMagic, pos);
        if (frame == std::string_view::npos) {
            // Trailing bytes with no full frame start. If they are
            // a prefix of the magic, the file was cut inside the
            // magic itself — a torn tail, not corruption.
            const std::string_view tail = bytes.substr(pos);
            if (tail.size() < kFrameMagic.size() &&
                tail == kFrameMagic.substr(0, tail.size())) {
                out.tornTail = true;
            } else {
                ++out.damagedFrames;
            }
            out.bytesDropped += bytes.size() - pos;
            break;
        }
        if (frame > pos) {
            // Gap before the next recognizable frame — a frame
            // whose magic was corrupted.
            out.bytesDropped += frame - pos;
            ++out.damagedFrames;
        }
        if (bytes.size() - frame < kFrameHeaderBytes) {
            out.tornTail = true;
            out.bytesDropped += bytes.size() - frame;
            break;
        }
        const std::uint32_t length = getLe32(bytes, frame + 4);
        const std::uint32_t crc = getLe32(bytes, frame + 8);
        if (length > bytes.size() - frame - kFrameHeaderBytes) {
            // The frame runs past EOF. If another magic follows,
            // the length field was corrupt (resync there);
            // otherwise this is the torn tail of an interrupted
            // append.
            const std::size_t next =
                bytes.find(kFrameMagic, frame + 4);
            if (next == std::string_view::npos) {
                out.tornTail = true;
                out.bytesDropped += bytes.size() - frame;
                break;
            }
            ++out.damagedFrames;
            out.bytesDropped += next - frame;
            pos = next;
            continue;
        }
        const std::string_view payload =
            bytes.substr(frame + kFrameHeaderBytes, length);
        if (crc32(payload) != crc) {
            const std::size_t next =
                bytes.find(kFrameMagic, frame + 4);
            ++out.damagedFrames;
            if (next == std::string_view::npos) {
                out.bytesDropped += bytes.size() - frame;
                break;
            }
            out.bytesDropped += next - frame;
            pos = next;
            continue;
        }
        on_record(payload);
        pos = frame + kFrameHeaderBytes + length;
    }
    return out;
}

StatusOr<CheckpointLoad>
loadCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        const int saved_errno = errno;
        return notFoundError("cannot open checkpoint: " + path +
                             ": " + std::strerror(saved_errno));
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        return unavailableError("cannot read checkpoint: " + path);
    return parseCheckpoint(bytes);
}

CheckpointWriter::CheckpointWriter(std::string path)
    : path_(std::move(path))
{
}

void
CheckpointWriter::seed(std::vector<std::string> records)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_ = std::move(records);
}

Status
CheckpointWriter::append(std::string payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(payload));
    return publishLocked();
}

std::size_t
CheckpointWriter::recordCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

Status
CheckpointWriter::publishLocked()
{
    std::string image;
    for (const std::string &record : records_)
        appendCheckpointFrame(image, record);

    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream out(tmp,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            const int saved_errno = errno;
            return unavailableError(
                "cannot create checkpoint temp: " + tmp + ": " +
                std::strerror(saved_errno));
        }
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size()));
        out.flush();
        if (!out)
            return unavailableError(
                "checkpoint write failed: " + tmp);
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        const int saved_errno = errno;
        return unavailableError(
            "cannot publish checkpoint: " + path_ + ": " +
            std::strerror(saved_errno));
    }
    return Status();
}

} // namespace logseek
