/**
 * @file
 * Ordered interval map from logical to physical sector addresses.
 *
 * This is the translation structure of a full-map log-structured
 * translation layer (cf. DFTL-style extent maps, paper §II): each
 * entry maps a contiguous LBA run to a contiguous PBA run. Writes
 * split and replace overlapping entries; physically adjacent
 * neighbors are coalesced, so the number of entries equals the
 * number of physically contiguous runs (the paper's *static
 * fragmentation* when counted over written space).
 *
 * The map is a B+-tree over flat sorted nodes of 64 entries: leaves
 * hold the entries and are linked for O(k) range scans, inner nodes
 * hold separator keys, and all nodes come from chunked pool
 * allocators with free lists, so entries are cache-dense and steady
 * state performs no per-operation heap allocation. Read-side
 * lookups first try a one-entry last-touched-leaf cursor — the
 * sequential runs that dominate these traces resolve without
 * descending the tree. See docs/performance.md for the layout and
 * the invariants that make the cursor sound.
 */

#ifndef LOGSEEK_STL_EXTENT_MAP_H
#define LOGSEEK_STL_EXTENT_MAP_H

#include <cstdint>
#include <memory>
#include <vector>

#include "util/extent.h"

namespace logseek::telemetry
{
class Counter;
}

namespace logseek::stl
{

/** One translation result: a logical run and its physical start. */
struct Segment
{
    /** Logical sector range. */
    SectorExtent logical;

    /** Physical address of logical.start; run is contiguous. */
    Pba pba = 0;

    /** False for holes (LBAs never written through the map). */
    bool mapped = false;

    /** Physical sector range covered by this segment. */
    SectorExtent
    physical() const
    {
        return SectorExtent{pba, logical.count};
    }

    bool operator==(const Segment &other) const = default;
};

/**
 * Caller-owned reusable scratch for translation results. clear()
 * keeps the underlying capacity, so a buffer threaded through a
 * replay loop stops allocating once it has grown to the largest
 * result seen — the allocation-free steady state of the read path.
 */
class SegmentBuffer
{
  public:
    /** Drop all segments, keeping capacity. */
    void clear() { segments_.clear(); }

    void push(const Segment &segment) { segments_.push_back(segment); }

    /** Keep only the first n segments (n <= size()). */
    void
    truncate(std::size_t n)
    {
        segments_.resize(n);
    }

    std::size_t size() const { return segments_.size(); }
    bool empty() const { return segments_.empty(); }

    Segment &operator[](std::size_t i) { return segments_[i]; }
    const Segment &operator[](std::size_t i) const
    {
        return segments_[i];
    }

    Segment *begin() { return segments_.data(); }
    Segment *end() { return segments_.data() + segments_.size(); }
    const Segment *begin() const { return segments_.data(); }
    const Segment *
    end() const
    {
        return segments_.data() + segments_.size();
    }

    /** The segments as a vector (e.g. to copy into an IoEvent). */
    const std::vector<Segment> &segments() const { return segments_; }

    /** Move the segments out (the buffer is left empty). */
    std::vector<Segment>
    take() &&
    {
        return std::move(segments_);
    }

  private:
    std::vector<Segment> segments_;
};

/**
 * Interval map with O(log n + k) translate and amortized O(log n)
 * mapping updates (k = segments touched).
 */
class ExtentMap
{
  public:
    /** Entries per leaf and children per inner node. */
    static constexpr std::uint32_t kNodeCapacity = 64;

    ExtentMap();
    ~ExtentMap();

    ExtentMap(ExtentMap &&other) noexcept;
    ExtentMap &operator=(ExtentMap &&other) noexcept;
    ExtentMap(const ExtentMap &) = delete;
    ExtentMap &operator=(const ExtentMap &) = delete;

    /**
     * Map [lba, lba + count) to [pba, pba + count), replacing any
     * previous mappings of the range. Adjacent entries that are
     * contiguous both logically and physically are coalesced.
     *
     * @param displaced If non-null, receives the physical ranges
     *        whose mappings this update invalidated, one piece per
     *        overlapped entry in LBA order — the sectors that just
     *        became dead space (used by cleaning layers to track
     *        per-segment liveness). Appended to, not cleared.
     */
    void mapRange(Lba lba, Pba pba, SectorCount count,
                  std::vector<SectorExtent> *displaced = nullptr);

    /**
     * Translate a logical range into segments ordered by LBA.
     * Unmapped subranges are returned as hole segments with
     * mapped == false and pba == logical.start (identity), matching
     * the paper's placement of data written before trace start.
     */
    std::vector<Segment> translate(const SectorExtent &extent) const;

    /**
     * Allocation-free translate: clears `out` and fills it with the
     * same segments translate() would return. The hot path of the
     * replay engine; reuse one buffer across calls.
     */
    void translateInto(const SectorExtent &extent,
                       SegmentBuffer &out) const;

    /**
     * Number of physically contiguous mapped runs intersecting
     * extent plus its unmapped holes — the *dynamic fragmentation*
     * of a read of extent. Allocation-free.
     */
    std::size_t fragmentCount(const SectorExtent &extent) const;

    /** Number of map entries (static fragmentation of written space). */
    std::size_t entryCount() const { return entryCount_; }

    /** Total mapped sectors. */
    SectorCount mappedSectors() const { return mappedSectors_; }

    /** True if no range was ever mapped. */
    bool empty() const { return entryCount_ == 0; }

    /**
     * Visit every entry in LBA order as (lba, pba, count).
     * Primarily for tests and invariant checks.
     */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (const Leaf *leaf = firstLeaf_; leaf != nullptr;
             leaf = leaf->next)
            for (std::uint32_t i = 0; i < leaf->n; ++i)
                fn(leaf->entries[i].lba, leaf->entries[i].pba,
                   leaf->entries[i].count);
    }

  private:
    struct Entry
    {
        Lba lba;
        Pba pba;
        SectorCount count;
    };

    struct Inner;

    struct Leaf
    {
        std::uint32_t n = 0;
        Leaf *prev = nullptr;
        Leaf *next = nullptr;
        Inner *parent = nullptr;
        Entry entries[kNodeCapacity];
    };

    /**
     * Inner node routing invariant: every entry reachable through
     * children[i] has lba in [keys[i], keys[i+1]) (keys[0] acts as
     * negative infinity and is never compared; keys[n] as positive
     * infinity). All mutations preserve it, which is what makes
     * the separator-routed descent of mapRange land on the leaf
     * where the new run belongs.
     */
    struct Inner
    {
        std::uint32_t n = 0;
        Inner *parent = nullptr;
        bool leafChildren = true;
        Lba keys[kNodeCapacity];
        void *children[kNodeCapacity];
    };

    /** A position in the leaf chain; leaf == nullptr is end(). */
    struct Pos
    {
        Leaf *leaf = nullptr;
        std::uint32_t idx = 0;
    };

    /** Separator-routed descent to the leaf owning lba's window. */
    Leaf *descend(Lba lba) const;

    /**
     * Leaf for a read-side lookup of lba: the cursor when its
     * window covers lba, else a descent (which re-seats the
     * cursor). Read-only paths may use this even when separators
     * have gone stale through erases; mutations must route.
     */
    Leaf *leafForRead(Lba lba) const;

    /** First position with entry lba > lba (end() if none). */
    Pos upperBound(Lba lba) const;

    /** Step p back one entry; false (p untouched) at begin(). */
    bool tryPrev(Pos &p) const;

    /** Step p forward one entry (to end() at the last). */
    void next(Pos &p) const;

    /**
     * Replace slots [from, to) of leaf with the `count` (at most 2)
     * entries at fill, in one shift. A leaf this drains is freed; one
     * it would overflow is split instead.
     */
    void spliceLeaf(Leaf *leaf, std::uint32_t from, std::uint32_t to,
                    const Entry *fill, std::uint32_t count);

    /** Split n > kNodeCapacity sorted entries between leaf and a
     *  new right sibling, linking and reparenting the upper half. */
    void splitLeaf(Leaf *leaf, const Entry *entries, std::uint32_t n);

    /** Hook `right` (with separator key) next to `left` in the
     *  parent, growing the tree at the root as needed. */
    void insertIntoParent(void *left, Lba separator, void *right,
                          bool children_are_leaves);

    /** Detach a freed child from its parent, collapsing the root
     *  when it drains to a single child. */
    void removeChild(Inner *parent, const void *child);

    /** Unlink and free an emptied, non-root leaf. */
    void removeLeaf(Leaf *leaf);

    void collapseRoot();

    Leaf *allocLeaf();
    void freeLeaf(Leaf *leaf);
    Inner *allocInner();
    void freeInner(Inner *inner);

    /** root_ points at a Leaf when height_ == 0, an Inner above. */
    void *root_ = nullptr;
    std::uint32_t height_ = 0;
    Leaf *firstLeaf_ = nullptr;
    Leaf *lastLeaf_ = nullptr;

    /** Last-touched leaf; reads re-seat it, frees invalidate it. */
    mutable Leaf *cursor_ = nullptr;

    std::size_t entryCount_ = 0;
    SectorCount mappedSectors_ = 0;

    /** Chunked node pools; freed nodes go on intrusive free lists
     *  (Leaf::next / Inner::parent double as the links). */
    static constexpr std::size_t kNodesPerBlock = 16;
    std::vector<std::unique_ptr<Leaf[]>> leafBlocks_;
    std::size_t leafBlockUsed_ = 0;
    Leaf *leafFree_ = nullptr;
    std::vector<std::unique_ptr<Inner[]>> innerBlocks_;
    std::size_t innerBlockUsed_ = 0;
    Inner *innerFree_ = nullptr;

    /** Resolved once at construction; add() self-gates on the
     *  process-wide telemetry switch. */
    telemetry::Counter *cursorHits_;
    telemetry::Counter *nodeSplits_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_EXTENT_MAP_H
