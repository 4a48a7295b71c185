/**
 * @file
 * Columnar I/O batch: the structure-of-arrays block a TraceInput
 * hands the replay engine.
 *
 * An IoEventBatch exposes one block of trace records as three
 * parallel columns (lba/len as contiguous SectorExtents, timestamps
 * and types alongside). The columns can be
 *
 *  - owned: buildFrom() copies a Trace block (or clear()/append()
 *    assembles one record at a time), reusing the vectors'
 *    capacity, or
 *  - bound: bind() points the columns at externally-owned memory —
 *    an mmap'd LSKC section — so replaying a file touches no heap
 *    at all (docs/ingestion.md).
 *
 * Accessors go through the column pointers in both modes, so the
 * replay engine is indifferent to where the bytes live. The batch
 * is neither copyable nor movable: the pointers may alias its own
 * vectors, and no caller needs to relocate one.
 */

#ifndef LOGSEEK_TRACE_IO_BATCH_H
#define LOGSEEK_TRACE_IO_BATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "util/extent.h"

namespace logseek::trace
{

/**
 * Structure-of-arrays form of one block of trace records; the
 * column layout matches an LSKC section, so bind() can serve one
 * without a copy.
 */
class IoEventBatch
{
  public:
    IoEventBatch() = default;
    IoEventBatch(const IoEventBatch &) = delete;
    IoEventBatch &operator=(const IoEventBatch &) = delete;

    /** Rebuild the owned columns from trace records [begin, end). */
    void
    buildFrom(const Trace &trace, std::size_t begin, std::size_t end)
    {
        clear();
        for (std::size_t i = begin; i < end; ++i)
            append(trace[i]);
    }

    /**
     * Point the columns at external memory holding `n` records.
     * The memory must outlive every access; the owned vectors are
     * untouched (their capacity survives for later buildFrom use).
     */
    void
    bind(const SectorExtent *extents,
         const std::uint64_t *timestamps, const IoType *types,
         std::size_t n)
    {
        extents_ = extents;
        timestamps_ = timestamps;
        types_ = types;
        size_ = n;
    }

    /** Drop all owned records, keeping the columns' capacity. */
    void
    clear()
    {
        ownExtents_.clear();
        ownTimestamps_.clear();
        ownTypes_.clear();
        extents_ = nullptr;
        timestamps_ = nullptr;
        types_ = nullptr;
        size_ = 0;
    }

    /** Append one record to the owned columns. */
    void
    append(const IoRecord &record)
    {
        ownExtents_.push_back(record.extent);
        ownTimestamps_.push_back(record.timestampUs);
        ownTypes_.push_back(record.type);
        // push_back may reallocate, so the column pointers are
        // refreshed on every append; accessors stay branch-free.
        extents_ = ownExtents_.data();
        timestamps_ = ownTimestamps_.data();
        types_ = ownTypes_.data();
        ++size_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const SectorExtent &extent(std::size_t i) const
    {
        return extents_[i];
    }
    std::uint64_t timestamp(std::size_t i) const
    {
        return timestamps_[i];
    }
    IoType type(std::size_t i) const { return types_[i]; }

    /** Reconstruct record i (bit-identical to the source record). */
    IoRecord
    record(std::size_t i) const
    {
        return IoRecord{timestamps_[i], types_[i], extents_[i]};
    }

  private:
    std::vector<SectorExtent> ownExtents_;
    std::vector<std::uint64_t> ownTimestamps_;
    std::vector<IoType> ownTypes_;

    /** Active columns: the owned vectors' data or bound memory. */
    const SectorExtent *extents_ = nullptr;
    const std::uint64_t *timestamps_ = nullptr;
    const IoType *types_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_IO_BATCH_H
