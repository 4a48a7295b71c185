#include "extent_map.h"

#include <algorithm>
#include <cstring>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::stl
{

ExtentMap::ExtentMap()
{
    auto &registry = telemetry::Registry::global();
    cursorHits_ = &registry.counter("extent_map_cursor_hits_total");
    nodeSplits_ = &registry.counter("extent_map_node_splits_total");
}

ExtentMap::~ExtentMap() = default;

ExtentMap::ExtentMap(ExtentMap &&other) noexcept
    : root_(other.root_), height_(other.height_),
      firstLeaf_(other.firstLeaf_), lastLeaf_(other.lastLeaf_),
      cursor_(other.cursor_), entryCount_(other.entryCount_),
      mappedSectors_(other.mappedSectors_),
      leafBlocks_(std::move(other.leafBlocks_)),
      leafBlockUsed_(other.leafBlockUsed_),
      leafFree_(other.leafFree_),
      innerBlocks_(std::move(other.innerBlocks_)),
      innerBlockUsed_(other.innerBlockUsed_),
      innerFree_(other.innerFree_), cursorHits_(other.cursorHits_),
      nodeSplits_(other.nodeSplits_)
{
    other.root_ = nullptr;
    other.height_ = 0;
    other.firstLeaf_ = other.lastLeaf_ = other.cursor_ = nullptr;
    other.entryCount_ = 0;
    other.mappedSectors_ = 0;
    other.leafBlockUsed_ = 0;
    other.leafFree_ = nullptr;
    other.innerBlockUsed_ = 0;
    other.innerFree_ = nullptr;
}

ExtentMap &
ExtentMap::operator=(ExtentMap &&other) noexcept
{
    if (this != &other) {
        std::swap(root_, other.root_);
        std::swap(height_, other.height_);
        std::swap(firstLeaf_, other.firstLeaf_);
        std::swap(lastLeaf_, other.lastLeaf_);
        std::swap(cursor_, other.cursor_);
        std::swap(entryCount_, other.entryCount_);
        std::swap(mappedSectors_, other.mappedSectors_);
        leafBlocks_.swap(other.leafBlocks_);
        std::swap(leafBlockUsed_, other.leafBlockUsed_);
        std::swap(leafFree_, other.leafFree_);
        innerBlocks_.swap(other.innerBlocks_);
        std::swap(innerBlockUsed_, other.innerBlockUsed_);
        std::swap(innerFree_, other.innerFree_);
        std::swap(cursorHits_, other.cursorHits_);
        std::swap(nodeSplits_, other.nodeSplits_);
    }
    return *this;
}

ExtentMap::Leaf *
ExtentMap::allocLeaf()
{
    if (leafFree_ != nullptr) {
        Leaf *leaf = leafFree_;
        leafFree_ = leaf->next;
        leaf->n = 0;
        leaf->prev = leaf->next = nullptr;
        leaf->parent = nullptr;
        return leaf;
    }
    if (leafBlocks_.empty() || leafBlockUsed_ == kNodesPerBlock) {
        leafBlocks_.push_back(
            std::make_unique<Leaf[]>(kNodesPerBlock));
        leafBlockUsed_ = 0;
    }
    return &leafBlocks_.back()[leafBlockUsed_++];
}

void
ExtentMap::freeLeaf(Leaf *leaf)
{
    if (cursor_ == leaf)
        cursor_ = nullptr;
    leaf->next = leafFree_;
    leafFree_ = leaf;
}

ExtentMap::Inner *
ExtentMap::allocInner()
{
    if (innerFree_ != nullptr) {
        Inner *inner = innerFree_;
        innerFree_ = inner->parent;
        inner->n = 0;
        inner->parent = nullptr;
        inner->leafChildren = true;
        return inner;
    }
    if (innerBlocks_.empty() || innerBlockUsed_ == kNodesPerBlock) {
        innerBlocks_.push_back(
            std::make_unique<Inner[]>(kNodesPerBlock));
        innerBlockUsed_ = 0;
    }
    return &innerBlocks_.back()[innerBlockUsed_++];
}

void
ExtentMap::freeInner(Inner *inner)
{
    // The parent pointer doubles as the free-list link.
    inner->parent = innerFree_;
    innerFree_ = inner;
}

ExtentMap::Leaf *
ExtentMap::descend(Lba lba) const
{
    if (root_ == nullptr)
        return nullptr;
    void *node = root_;
    for (std::uint32_t level = height_; level > 0; --level) {
        const Inner *inner = static_cast<const Inner *>(node);
        // First child whose separator exceeds lba; keys[0] is
        // conceptual negative infinity, so the search starts at 1.
        std::uint32_t lo = 1;
        std::uint32_t hi = inner->n;
        while (lo < hi) {
            const std::uint32_t mid = (lo + hi) / 2;
            if (inner->keys[mid] <= lba)
                lo = mid + 1;
            else
                hi = mid;
        }
        node = inner->children[lo - 1];
    }
    return static_cast<Leaf *>(node);
}

ExtentMap::Leaf *
ExtentMap::leafForRead(Lba lba) const
{
    // The cursor's window is [entries[0].lba, next leaf's first
    // lba): any entry relevant to lba — its predecessor included —
    // is reachable from this leaf via the chain, so the hit needs
    // no descent and is immune to stale separators.
    Leaf *c = cursor_;
    if (c != nullptr && c->n > 0 && c->entries[0].lba <= lba &&
        (c->next == nullptr || lba < c->next->entries[0].lba)) {
        cursorHits_->add();
        return c;
    }
    Leaf *leaf = descend(lba);
    cursor_ = leaf;
    return leaf;
}

ExtentMap::Pos
ExtentMap::upperBound(Lba lba) const
{
    Leaf *leaf = leafForRead(lba);
    if (leaf == nullptr)
        return {};
    std::uint32_t lo = 0;
    std::uint32_t hi = leaf->n;
    while (lo < hi) {
        const std::uint32_t mid = (lo + hi) / 2;
        if (leaf->entries[mid].lba <= lba)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < leaf->n)
        return {leaf, lo};
    return leaf->next != nullptr ? Pos{leaf->next, 0} : Pos{};
}

bool
ExtentMap::tryPrev(Pos &p) const
{
    if (p.leaf == nullptr) {
        if (lastLeaf_ != nullptr && lastLeaf_->n > 0) {
            p = {lastLeaf_, lastLeaf_->n - 1};
            return true;
        }
        return false;
    }
    if (p.idx > 0) {
        --p.idx;
        return true;
    }
    if (p.leaf->prev != nullptr) {
        p = {p.leaf->prev, p.leaf->prev->n - 1};
        return true;
    }
    return false;
}

void
ExtentMap::next(Pos &p) const
{
    if (++p.idx >= p.leaf->n)
        p = p.leaf->next != nullptr ? Pos{p.leaf->next, 0} : Pos{};
}

void
ExtentMap::insertIntoParent(void *left, Lba separator, void *right,
                            bool children_are_leaves)
{
    Inner *parent =
        children_are_leaves
            ? static_cast<Leaf *>(left)->parent
            : static_cast<Inner *>(left)->parent;

    if (parent == nullptr) {
        // left was the root; grow a new root above it.
        Inner *root = allocInner();
        root->leafChildren = children_are_leaves;
        root->n = 2;
        root->keys[0] = 0; // conceptual -inf, never compared
        root->keys[1] = separator;
        root->children[0] = left;
        root->children[1] = right;
        if (children_are_leaves) {
            static_cast<Leaf *>(left)->parent = root;
            static_cast<Leaf *>(right)->parent = root;
        } else {
            static_cast<Inner *>(left)->parent = root;
            static_cast<Inner *>(right)->parent = root;
        }
        root_ = root;
        ++height_;
        return;
    }

    std::uint32_t pos = 0;
    while (pos < parent->n && parent->children[pos] != left)
        ++pos;
    panicIf(pos == parent->n,
            "ExtentMap: child not found in its parent");
    std::uint32_t insert_idx = pos + 1;

    Inner *target = parent;
    if (parent->n == kNodeCapacity) {
        // Split the parent, pushing its middle key up, then insert
        // into whichever half now owns insert_idx's window.
        constexpr std::uint32_t keep = kNodeCapacity / 2;
        Inner *sibling = allocInner();
        sibling->leafChildren = parent->leafChildren;
        sibling->n = kNodeCapacity - keep;
        const Lba up_key = parent->keys[keep];
        for (std::uint32_t i = keep; i < kNodeCapacity; ++i) {
            sibling->keys[i - keep] = parent->keys[i];
            sibling->children[i - keep] = parent->children[i];
            if (sibling->leafChildren)
                static_cast<Leaf *>(parent->children[i])->parent =
                    sibling;
            else
                static_cast<Inner *>(parent->children[i])->parent =
                    sibling;
        }
        parent->n = keep;
        nodeSplits_->add();
        insertIntoParent(parent, up_key, sibling,
                         /*children_are_leaves=*/false);
        if (insert_idx > keep) {
            target = sibling;
            insert_idx -= keep;
        }
    }

    panicIf(target->n >= kNodeCapacity,
            "ExtentMap: inner node overflow");
    for (std::uint32_t i = target->n; i > insert_idx; --i) {
        target->keys[i] = target->keys[i - 1];
        target->children[i] = target->children[i - 1];
    }
    target->keys[insert_idx] = separator;
    target->children[insert_idx] = right;
    ++target->n;
    if (target->leafChildren)
        static_cast<Leaf *>(right)->parent = target;
    else
        static_cast<Inner *>(right)->parent = target;
}

void
ExtentMap::splitLeaf(Leaf *leaf, const Entry *entries, std::uint32_t n)
{
    constexpr std::uint32_t keep = kNodeCapacity / 2;
    Leaf *right = allocLeaf();
    std::copy_n(entries, keep, leaf->entries);
    std::copy_n(entries + keep, n - keep, right->entries);
    leaf->n = keep;
    right->n = n - keep;

    right->prev = leaf;
    right->next = leaf->next;
    if (leaf->next != nullptr)
        leaf->next->prev = right;
    else
        lastLeaf_ = right;
    leaf->next = right;

    nodeSplits_->add();
    insertIntoParent(leaf, right->entries[0].lba, right,
                     /*children_are_leaves=*/true);
}

void
ExtentMap::collapseRoot()
{
    while (height_ > 0) {
        Inner *root = static_cast<Inner *>(root_);
        if (root->n > 1)
            return;
        panicIf(root->n == 0, "ExtentMap: empty inner root");
        root_ = root->children[0];
        if (root->leafChildren)
            static_cast<Leaf *>(root_)->parent = nullptr;
        else
            static_cast<Inner *>(root_)->parent = nullptr;
        freeInner(root);
        --height_;
    }
}

void
ExtentMap::removeChild(Inner *parent, const void *child)
{
    std::uint32_t pos = 0;
    while (pos < parent->n && parent->children[pos] != child)
        ++pos;
    panicIf(pos == parent->n,
            "ExtentMap: freed child not found in its parent");
    for (std::uint32_t i = pos + 1; i < parent->n; ++i) {
        parent->keys[i - 1] = parent->keys[i];
        parent->children[i - 1] = parent->children[i];
    }
    --parent->n;

    if (parent->n == 0) {
        // Single-child chains below the root are never rebalanced,
        // so a drained inner node cascades its own removal upward;
        // a drained root means the tree is empty.
        if (parent == root_) {
            freeInner(parent);
            root_ = nullptr;
            height_ = 0;
            return;
        }
        Inner *grand = parent->parent;
        freeInner(parent);
        removeChild(grand, parent);
        return;
    }
    if (parent == root_)
        collapseRoot();
}

void
ExtentMap::removeLeaf(Leaf *leaf)
{
    if (leaf->prev != nullptr)
        leaf->prev->next = leaf->next;
    else
        firstLeaf_ = leaf->next;
    if (leaf->next != nullptr)
        leaf->next->prev = leaf->prev;
    else
        lastLeaf_ = leaf->prev;

    Inner *parent = leaf->parent;
    freeLeaf(leaf);
    if (parent == nullptr) {
        // The leaf was the root.
        root_ = nullptr;
        height_ = 0;
        firstLeaf_ = lastLeaf_ = nullptr;
        return;
    }
    removeChild(parent, leaf);
}

void
ExtentMap::spliceLeaf(Leaf *leaf, std::uint32_t from, std::uint32_t to,
                      const Entry *fill, std::uint32_t count)
{
    const std::uint32_t n = leaf->n - (to - from) + count;
    entryCount_ = entryCount_ - (to - from) + count;
    if (n > kNodeCapacity) {
        // Lay the result out beside the full leaf, then split it.
        Entry spliced[kNodeCapacity + 2] = {};
        std::copy_n(leaf->entries, from, spliced);
        std::copy_n(fill, count, spliced + from);
        std::copy(leaf->entries + to, leaf->entries + leaf->n,
                  spliced + from + count);
        splitLeaf(leaf, spliced, n);
        return;
    }
    if (to - from != count)
        std::memmove(leaf->entries + from + count, leaf->entries + to,
                     sizeof(Entry) * (leaf->n - to));
    std::copy_n(fill, count, leaf->entries + from);
    leaf->n = n;
    if (n == 0)
        removeLeaf(leaf);
}

void
ExtentMap::mapRange(Lba lba, Pba pba, SectorCount count,
                    std::vector<SectorExtent> *displaced)
{
    panicIf(count == 0, "ExtentMap::mapRange: empty range");
    const Lba end = lba + count;

    if (root_ == nullptr) {
        Leaf *leaf = allocLeaf();
        root_ = leaf;
        height_ = 0;
        firstLeaf_ = lastLeaf_ = leaf;
    }

    // The one descent. Mutations route through the separators, not
    // the cursor: the routing invariant makes `first` the leaf whose
    // window holds lba, and slot j the gap where the new run goes.
    Leaf *const first = descend(lba);
    const std::uint32_t j = static_cast<std::uint32_t>(
        std::lower_bound(first->entries, first->entries + first->n, lba,
                         [](const Entry &e, Lba key) {
                             return e.lba < key;
                         }) -
        first->entries);

    // Unmap [from, min(entry end, end)) of an overlapped entry; what
    // it keeps past end becomes the tail, re-placed after the run.
    Entry tail{};
    bool has_tail = false;
    auto cut = [&](const Entry &entry, Lba from) {
        const Lba entry_end = entry.lba + entry.count;
        const Lba to = std::min(entry_end, end);
        if (displaced != nullptr)
            displaced->push_back(
                SectorExtent{entry.pba + (from - entry.lba), to - from});
        mappedSectors_ -= to - from;
        if (entry_end > end) {
            tail = Entry{end, entry.pba + (end - entry.lba),
                         entry_end - end};
            has_tail = true;
        }
    };

    // The predecessor keeps its head when it straddles lba.
    Entry *left = j > 0 ? &first->entries[j - 1]
                  : first->prev != nullptr
                      ? &first->prev->entries[first->prev->n - 1]
                      : nullptr;
    if (left != nullptr && left->lba + left->count > lba) {
        cut(*left, lba);
        left->count = lba - left->lba;
    }

    // Walk right through the linked leaves over every entry that
    // starts inside the range. The gap ends at slot `stop` of leaf
    // `last`; leaves drained in between (never `first`) are freed.
    Leaf *last = first;
    std::uint32_t stop = j;
    for (;;) {
        while (!has_tail && stop < last->n &&
               last->entries[stop].lba < end) {
            const Entry &entry = last->entries[stop++];
            cut(entry, entry.lba);
        }
        if (has_tail || stop < last->n || last->next == nullptr ||
            last->next->entries[0].lba >= end)
            break;
        Leaf *following = last->next;
        if (last != first) {
            entryCount_ -= last->n;
            removeLeaf(last);
        }
        last = following;
        stop = 0;
    }

    // Coalesce with the entry after the gap (the tail, else the
    // first one kept) and the one before it, where both logically
    // and physically contiguous.
    Entry run{lba, pba, count};
    Leaf *after = stop < last->n ? last : last->next;
    const Entry *right =
        has_tail ? &tail
        : after != nullptr ? &after->entries[after == last ? stop : 0]
                           : nullptr;
    if (right != nullptr && right->lba == end &&
        right->pba == pba + count) {
        run.count += right->count;
        if (has_tail)
            has_tail = false;
        else if (after == last)
            ++stop;
        else
            spliceLeaf(after, 0, 1, nullptr, 0);
    }
    const bool merge_left = left != nullptr &&
                            left->lba + left->count == lba &&
                            left->pba + left->count == pba;
    if (merge_left)
        left->count += run.count; // its start, so its leaf, stays

    // The tail starts at end. Entries are placed by their start, so
    // the last entry of a leaf can run past the next separator (a
    // cross-leaf merge grows one that way); its tail may then route
    // to the next leaf, and goes to the front of it.
    if (has_tail && stop == last->n && last->next != nullptr &&
        descend(end) != last) {
        spliceLeaf(last->next, 0, 0, &tail, 1);
        has_tail = false;
    }

    cursor_ = first; // a free below resets it
    Entry fill[2] = {};
    std::uint32_t filled = 0;
    if (!merge_left)
        fill[filled++] = run;
    if (last == first) {
        if (has_tail)
            fill[filled++] = tail;
        spliceLeaf(first, j, stop, fill, filled);
    } else {
        spliceLeaf(last, 0, stop, &tail, has_tail ? 1 : 0);
        spliceLeaf(first, j, first->n, fill, filled);
    }
    mappedSectors_ += count;
}

void
ExtentMap::translateInto(const SectorExtent &extent,
                         SegmentBuffer &out) const
{
    out.clear();
    if (extent.empty())
        return;

    Lba cursor = extent.start;
    const Lba end = extent.end();

    Pos it = upperBound(cursor);
    tryPrev(it);

    auto emit_hole = [&out](Lba from, Lba to) {
        out.push(Segment{SectorExtent{from, to - from}, from, false});
    };

    for (; it.leaf != nullptr && it.leaf->entries[it.idx].lba < end;
         next(it)) {
        const Entry &entry = it.leaf->entries[it.idx];
        const Lba entry_end = entry.lba + entry.count;
        if (entry_end <= cursor)
            continue;
        if (entry.lba > cursor)
            emit_hole(cursor, entry.lba);
        const Lba seg_lba = std::max(cursor, entry.lba);
        const Lba seg_end = std::min(end, entry_end);
        out.push(Segment{SectorExtent{seg_lba, seg_end - seg_lba},
                         entry.pba + (seg_lba - entry.lba), true});
        cursor = seg_end;
        if (cursor >= end)
            break;
    }
    if (it.leaf != nullptr)
        cursor_ = it.leaf;
    if (cursor < end)
        emit_hole(cursor, end);
}

std::vector<Segment>
ExtentMap::translate(const SectorExtent &extent) const
{
    SegmentBuffer buffer;
    translateInto(extent, buffer);
    return std::move(buffer).take();
}

std::size_t
ExtentMap::fragmentCount(const SectorExtent &extent) const
{
    if (extent.empty())
        return 0;

    std::size_t fragments = 0;
    Lba cursor = extent.start;
    const Lba end = extent.end();

    Pos it = upperBound(cursor);
    tryPrev(it);

    for (; it.leaf != nullptr && it.leaf->entries[it.idx].lba < end;
         next(it)) {
        const Entry &entry = it.leaf->entries[it.idx];
        const Lba entry_end = entry.lba + entry.count;
        if (entry_end <= cursor)
            continue;
        if (entry.lba > cursor)
            ++fragments; // hole before this entry
        ++fragments;     // the mapped run
        cursor = std::min(end, entry_end);
        if (cursor >= end)
            break;
    }
    if (it.leaf != nullptr)
        cursor_ = it.leaf;
    if (cursor < end)
        ++fragments; // trailing hole
    return fragments;
}

} // namespace logseek::stl
