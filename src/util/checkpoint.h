/**
 * @file
 * CRC-guarded, atomically-published checkpoint files.
 *
 * A checkpoint is a flat sequence of framed records:
 *
 *   frame = magic "LCKP" (4 bytes)
 *           payloadLen   u32 little-endian
 *           crc32        u32 little-endian, IEEE CRC-32 of payload
 *           payload      payloadLen bytes
 *
 * The reader never trusts the file: a frame whose CRC or length
 * does not check out is skipped by scanning forward to the next
 * magic (so one flipped bit loses one record, not the tail of the
 * file), and a file that ends inside a frame — the classic torn
 * write — is truncated to its last whole record. The writer keeps
 * the full record set and publishes every append by rewriting a
 * temporary file and renaming it over the target, so readers (and
 * crashes) only ever observe a complete, self-consistent file.
 */

#ifndef LOGSEEK_UTIL_CHECKPOINT_H
#define LOGSEEK_UTIL_CHECKPOINT_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace logseek
{

/** IEEE CRC-32 (the zlib/PNG polynomial) of the given bytes. */
std::uint32_t crc32(std::string_view bytes);

/**
 * Incremental form of crc32(): update() over consecutive slices
 * yields exactly crc32() of their concatenation, so multi-gigabyte
 * sections (the LSKC trace columns) can be checksummed through a
 * small buffer instead of one contiguous allocation.
 */
class Crc32
{
  public:
    /** Fold the next slice into the running checksum. */
    void update(std::string_view bytes);

    /** The CRC-32 of everything updated so far. */
    std::uint32_t value() const { return state_ ^ 0xffffffffu; }

  private:
    std::uint32_t state_ = 0xffffffffu;
};

/** Append one framed record to an in-memory file image. */
void appendCheckpointFrame(std::string &out,
                           std::string_view payload);

/**
 * Start a frame whose payload is encoded in place: append the
 * header, with its length and CRC left zero, to `out` and return
 * the frame's offset. Append the payload bytes to `out`, then
 * sealCheckpointFrame(out, offset); the image is then byte for
 * byte what appendCheckpointFrame would have produced.
 */
std::size_t openCheckpointFrame(std::string &out);

/** Patch the length and CRC of the frame opened at `frame` to
 *  cover everything appended to `out` since. */
void sealCheckpointFrame(std::string &out, std::size_t frame);

/** What a (possibly damaged) checkpoint file parsed to. */
struct CheckpointLoad
{
    /** Payloads of every intact frame, in file order. */
    std::vector<std::string> records;

    /** Frames dropped because their length or CRC was wrong. */
    std::uint64_t damagedFrames = 0;

    /** True when the file ended inside a frame (torn tail). */
    bool tornTail = false;

    /** Bytes not accounted for by an intact frame. */
    std::uint64_t bytesDropped = 0;

    bool clean() const
    {
        return damagedFrames == 0 && !tornTail;
    }
};

/** Parse an in-memory checkpoint image; never fails — damage is
 *  reported in the result. */
CheckpointLoad parseCheckpoint(std::string_view bytes);

/**
 * Copy-free form of parseCheckpoint(bytes): hands each intact
 * payload, in file order, to `on_record` as a view into `bytes`
 * instead of collecting copies. The returned load carries the
 * damage tallies only; its `records` stay empty.
 */
CheckpointLoad parseCheckpoint(
    std::string_view bytes,
    const std::function<void(std::string_view)> &on_record);

/** Load and parse a checkpoint file; NotFound when it does not
 *  exist, Unavailable when it cannot be read. */
StatusOr<CheckpointLoad> loadCheckpoint(const std::string &path);

/**
 * Append-style checkpoint writer with atomic publication. Appends
 * are serialized internally, so sweep workers can call append()
 * concurrently as cells complete.
 */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(std::string path);

    /**
     * Start from already-validated records (resume): they are
     * re-framed and included in every subsequent publication,
     * physically dropping any damaged frames the load skipped.
     */
    void seed(std::vector<std::string> records);

    /**
     * Add one record and publish the whole file atomically
     * (write temp, flush, rename). Returns Unavailable on an I/O
     * failure; the in-memory record set keeps the record either
     * way, so a later append can still publish it.
     */
    Status append(std::string payload);

    const std::string &path() const { return path_; }

    /** Records currently held (seeded + appended). */
    std::size_t recordCount() const;

  private:
    Status publishLocked();

    std::string path_;
    std::vector<std::string> records_; // guarded by mutex_
    mutable std::mutex mutex_;
};

} // namespace logseek

#endif // LOGSEEK_UTIL_CHECKPOINT_H
