#include "ftl/mapping_cache.h"

#include <algorithm>
#include <functional>
#include <type_traits>

namespace gecko {

MappingCache::MappingCache(uint32_t capacity, uint32_t lpns_per_tpage)
    : capacity_(capacity),
      lpns_per_tpage_(lpns_per_tpage),
      index_(capacity) {
  GECKO_CHECK_GT(capacity, 0u);
  GECKO_CHECK_GT(lpns_per_tpage, 0u);
  nodes_.reserve(capacity);
}

uint32_t MappingCache::SlotOf(const MappingEntry* entry) const {
  // A standard-layout Node and its first member share an address.
  static_assert(std::is_standard_layout_v<Node>);
  const Node* node = reinterpret_cast<const Node*>(entry);
  const std::less<const Node*> before;
  GECKO_CHECK(!before(node, nodes_.data()) &&
              before(node, nodes_.data() + nodes_.size()))
      << "entry not owned by this cache";
  return static_cast<uint32_t>(node - nodes_.data());
}

void MappingCache::PushBack(List* list, Link Node::*link, uint32_t slot) {
  Link& l = nodes_[slot].*link;
  l.prev = list->tail;
  l.next = kNil;
  if (list->tail == kNil) {
    list->head = slot;
  } else {
    (nodes_[list->tail].*link).next = slot;
  }
  list->tail = slot;
}

void MappingCache::Unlink(List* list, Link Node::*link, uint32_t slot) {
  Link& l = nodes_[slot].*link;
  if (l.prev == kNil) {
    list->head = l.next;
  } else {
    (nodes_[l.prev].*link).next = l.next;
  }
  if (l.next == kNil) {
    list->tail = l.prev;
  } else {
    (nodes_[l.next].*link).prev = l.prev;
  }
  l = Link{};
}

void MappingCache::LinkDirty(uint32_t slot) {
  PushBack(&dirty_, &Node::dirty, slot);
  // Per-page lists are unordered (DirtyInRange sorts): push at the head.
  Node& n = nodes_[slot];
  const uint64_t tpage = n.lpn / lpns_per_tpage_;
  const uint32_t head = page_heads_.Find(tpage);
  n.page = Link{};
  if (head == kNil) {
    page_heads_.Insert(tpage, slot);
  } else {
    n.page.next = head;
    nodes_[head].page.prev = slot;
    page_heads_.Assign(tpage, slot);
  }
}

void MappingCache::UnlinkDirty(uint32_t slot) {
  Unlink(&dirty_, &Node::dirty, slot);
  Node& n = nodes_[slot];
  if (n.page.prev == kNil) {
    const uint64_t tpage = n.lpn / lpns_per_tpage_;
    if (n.page.next == kNil) {
      page_heads_.Erase(tpage);
    } else {
      page_heads_.Assign(tpage, n.page.next);
    }
  } else {
    nodes_[n.page.prev].page.next = n.page.next;
  }
  if (n.page.next != kNil) nodes_[n.page.next].page.prev = n.page.prev;
  n.page = Link{};
}

void MappingCache::Touch(uint32_t slot) {
  if (lru_.tail == slot) return;  // already MRU (and dirty tail if dirty)
  Unlink(&lru_, &Node::lru, slot);
  PushBack(&lru_, &Node::lru, slot);
  if (nodes_[slot].entry.dirty) {
    Unlink(&dirty_, &Node::dirty, slot);
    PushBack(&dirty_, &Node::dirty, slot);
  }
}

MappingEntry* MappingCache::Find(Lpn lpn) {
  const uint32_t slot = index_.Find(lpn);
  if (slot == kNil) return nullptr;
  Touch(slot);
  return &nodes_[slot].entry;
}

const MappingEntry* MappingCache::Peek(Lpn lpn) const {
  const uint32_t slot = index_.Find(lpn);
  return slot == kNil ? nullptr : &nodes_[slot].entry;
}

MappingEntry* MappingCache::Insert(Lpn lpn, const MappingEntry& entry) {
  GECKO_CHECK(index_.Find(lpn) == kNil)
      << "lpn " << lpn << " already cached";
  GECKO_CHECK(!NeedsEviction()) << "insert without prior eviction";
  uint32_t slot;
  if (free_ != kNil) {
    slot = free_;
    free_ = nodes_[slot].lru.next;
  } else {
    slot = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[slot];
  n.entry = entry;
  n.lpn = lpn;
  index_.Insert(lpn, slot);
  PushBack(&lru_, &Node::lru, slot);
  if (entry.dirty) {
    ++dirty_count_;
    n.entry.dirty_epoch = epoch_;
    LinkDirty(slot);
  }
  return &n.entry;
}

MappingEntry* MappingCache::InsertIfAbsent(Lpn lpn,
                                           const MappingEntry& entry) {
  const uint32_t slot = index_.Find(lpn);
  if (slot != kNil) return &nodes_[slot].entry;
  return Insert(lpn, entry);
}

void MappingCache::MarkDirty(MappingEntry* entry) {
  const uint32_t slot = SlotOf(entry);
  GECKO_CHECK_EQ(slot, lru_.tail)
      << "MarkDirty on lpn " << nodes_[slot].lpn << ", not the MRU entry";
  if (!entry->dirty) {
    entry->dirty = true;
    ++dirty_count_;
    LinkDirty(slot);
  }
  entry->dirty_epoch = epoch_;
}

void MappingCache::MarkClean(MappingEntry* entry) {
  GECKO_CHECK(entry->dirty) << "MarkClean on a clean entry";
  entry->dirty = false;
  --dirty_count_;
  UnlinkDirty(SlotOf(entry));
}

Lpn MappingCache::PeekLru() const {
  GECKO_CHECK(size() > 0) << "PeekLru on empty cache";
  return nodes_[lru_.head].lpn;
}

Lpn MappingCache::PeekEvictionVictim() const {
  GECKO_CHECK(size() > 0) << "PeekEvictionVictim on empty cache";
  uint32_t slot = lru_.head;
  if (!scorer_ || scan_depth_ <= 1 || size() < 2) return nodes_[slot].lpn;
  // Scan up to scan_depth_ entries from the LRU end — but never the MRU
  // entry (see the header: a just-inserted miss fill must survive its
  // first use). Ties keep the least-recently-used candidate, so a
  // uniformly-cold window degenerates to pure LRU.
  uint64_t limit = size() - 1;
  if (scan_depth_ < limit) limit = scan_depth_;
  Lpn victim = nodes_[slot].lpn;
  uint64_t best = scorer_(victim);
  for (uint64_t i = 1; i < limit; ++i) {
    slot = nodes_[slot].lru.next;
    const Lpn lpn = nodes_[slot].lpn;
    uint64_t score = scorer_(lpn);
    if (score < best) {
      best = score;
      victim = lpn;
    }
  }
  return victim;
}

void MappingCache::Erase(Lpn lpn) {
  const uint32_t slot = index_.Erase(lpn);
  Node& n = nodes_[slot];
  if (n.entry.dirty) {
    GECKO_CHECK_GT(dirty_count_, 0u);
    --dirty_count_;
    UnlinkDirty(slot);
  }
  Unlink(&lru_, &Node::lru, slot);
  n.lru.next = free_;
  free_ = slot;
}

std::vector<Lpn> MappingCache::DirtyInRange(Lpn lo, Lpn hi) const {
  std::vector<Lpn> out;
  if (lo > hi || dirty_count_ == 0) return out;
  for (uint64_t tpage = lo / lpns_per_tpage_; tpage <= hi / lpns_per_tpage_;
       ++tpage) {
    for (uint32_t s = page_heads_.Find(tpage); s != kNil;
         s = nodes_[s].page.next) {
      if (nodes_[s].lpn >= lo && nodes_[s].lpn <= hi) {
        out.push_back(nodes_[s].lpn);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Lpn> MappingCache::TakeCheckpoint() {
  // Entries dirtied before the current epoch began have gone a full
  // checkpoint period without an update: synchronize them now so the
  // recovery backward scan stays bounded (Section 4.3).
  std::vector<Lpn> stale;
  for (uint32_t s = dirty_.head; s != kNil; s = nodes_[s].dirty.next) {
    if (nodes_[s].entry.dirty_epoch < epoch_) stale.push_back(nodes_[s].lpn);
  }
  std::sort(stale.begin(), stale.end());
  ++epoch_;
  return stale;
}

void MappingCache::Reset() {
  nodes_.clear();  // keeps the reserved slab
  free_ = kNil;
  index_.Clear();
  page_heads_.Clear();
  lru_ = List{};
  dirty_ = List{};
  dirty_count_ = 0;
  epoch_ = 1;
}

std::vector<Lpn> MappingCache::LruToMruOrder() const {
  std::vector<Lpn> out;
  out.reserve(size());
  for (uint32_t s = lru_.head; s != kNil; s = nodes_[s].lru.next) {
    out.push_back(nodes_[s].lpn);
  }
  return out;
}

}  // namespace gecko
