#include "btree/btree.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace asr::btree {

namespace {

using storage::kPageSize;
using storage::Page;
using storage::PageGuard;
using storage::PageId;

constexpr uint32_t kHeaderBytes = 8;
constexpr uint32_t kInnerEntryBytes = 20;  // key u64 + fingerprint u64 + child u32
constexpr uint32_t kNoLeaf = UINT32_MAX;

// Leaf flags byte (header offset 1; zero on pre-compression pages, so old
// snapshots parse as plain).
constexpr uint8_t kLeafFlagCompressed = 0x01;
// Compressed-leaf header: the 8 shared bytes + key_base u64 + kb u8 + pad.
constexpr uint32_t kCompressedHeaderBytes = 24;

// Header accessors shared by both node kinds.
bool IsLeaf(const Page& p) { return p.Read<uint8_t>(0) != 0; }
uint16_t Count(const Page& p) { return p.Read<uint16_t>(2); }
void SetCount(Page* p, uint16_t c) { p->Write<uint16_t>(2, c); }
uint32_t NextLeaf(const Page& p) { return p.Read<uint32_t>(4); }
void SetNextLeaf(Page* p, uint32_t n) { p->Write<uint32_t>(4, n); }
uint32_t Child0(const Page& p) { return p.Read<uint32_t>(4); }
void SetChild0(Page* p, uint32_t c) { p->Write<uint32_t>(4, c); }

// Internal node entry accessors.
struct InnerEntry {
  uint64_t key;
  uint64_t fingerprint;
  uint32_t child;
};

uint32_t InnerOffset(int i) {
  return kHeaderBytes + static_cast<uint32_t>(i) * kInnerEntryBytes;
}

InnerEntry GetInner(const Page& p, int i) {
  InnerEntry e;
  e.key = p.Read<uint64_t>(InnerOffset(i));
  e.fingerprint = p.Read<uint64_t>(InnerOffset(i) + 8);
  e.child = p.Read<uint32_t>(InnerOffset(i) + 16);
  return e;
}

void PutInner(Page* p, int i, const InnerEntry& e) {
  p->Write<uint64_t>(InnerOffset(i), e.key);
  p->Write<uint64_t>(InnerOffset(i) + 8, e.fingerprint);
  p->Write<uint32_t>(InnerOffset(i) + 16, e.child);
}

// (key, fingerprint) packed into one 128-bit value so a composite compare is
// a single wide compare — the cmov the branchless searches below lean on —
// instead of a compare-and-branch cascade.
using u128 = unsigned __int128;

u128 Pack(uint64_t key, uint64_t fingerprint) {
  return (static_cast<u128>(key) << 64) | fingerprint;
}

// First index in [0, count) whose packed key is >= / > target; count if
// none. The loop halves a length rather than moving two bounds, so the
// compare result feeds two conditional moves and no branch the predictor
// can lose on random probe keys.
template <typename PackedAt>
uint32_t LowerBound(uint32_t count, u128 target, PackedAt at) {
  uint32_t lo = 0;
  uint32_t n = count;
  while (n > 0) {
    uint32_t half = n >> 1;
    uint32_t mid = lo + half;
    bool lt = at(mid) < target;
    lo = lt ? mid + 1 : lo;
    n = lt ? n - half - 1 : half;
  }
  return lo;
}

template <typename PackedAt>
uint32_t UpperBound(uint32_t count, u128 target, PackedAt at) {
  uint32_t lo = 0;
  uint32_t n = count;
  while (n > 0) {
    uint32_t half = n >> 1;
    uint32_t mid = lo + half;
    bool le = at(mid) <= target;
    lo = le ? mid + 1 : lo;
    n = le ? n - half - 1 : half;
  }
  return lo;
}

// Decoded leaf header; the accessors below take it plus the page. `stride`
// and `payload_off` position the per-entry payload for either format.
struct LeafView {
  uint16_t count = 0;
  uint32_t next = kNoLeaf;
  bool compressed = false;
  uint64_t base = 0;      // compressed: key_base
  uint32_t kb = 0;        // compressed: delta width in bytes (1, 2 or 4)
  uint32_t payload_off = kHeaderBytes;
  uint32_t stride = 0;    // payload bytes per entry
};

// Reader/writer for both leaf formats, parameterized on the tree's shape.
// Byte-level delta packing assumes a little-endian host (everything else in
// the page format does too, via Page::Read/Write).
struct LeafCodec {
  uint32_t width;
  uint32_t key_column;
  uint32_t plain_stride;   // 8 (fingerprint) + 8 * width
  uint32_t capacity;       // leaf_capacity_ — same for both formats

  LeafView Parse(const Page& p) const {
    LeafView v;
    v.count = Count(p);
    v.next = NextLeaf(p);
    v.compressed = (p.Read<uint8_t>(1) & kLeafFlagCompressed) != 0;
    if (v.compressed) {
      v.base = p.Read<uint64_t>(8);
      v.kb = p.Read<uint8_t>(16);
      v.payload_off = kCompressedHeaderBytes + capacity * v.kb;
      v.stride = 8 * width;  // fingerprint + the width-1 non-key columns
    } else {
      v.payload_off = kHeaderBytes;
      v.stride = plain_stride;
    }
    return v;
  }

  uint64_t KeyAt(const Page& p, const LeafView& v, uint32_t i) const {
    if (!v.compressed) {
      return p.Read<uint64_t>(v.payload_off + i * v.stride + 8 +
                              8 * key_column);
    }
    uint32_t delta = 0;
    p.ReadBytes(kCompressedHeaderBytes + i * v.kb, &delta, v.kb);
    return v.base + delta;
  }

  uint64_t FingerprintAt(const Page& p, const LeafView& v, uint32_t i) const {
    return p.Read<uint64_t>(v.payload_off + i * v.stride);
  }

  u128 PackedAt(const Page& p, const LeafView& v, uint32_t i) const {
    return Pack(KeyAt(p, v, i), FingerprintAt(p, v, i));
  }

  // Reconstructs entry i's full tuple (width raw values) into `raw`.
  void RowAt(const Page& p, const LeafView& v, uint32_t i,
             uint64_t* raw) const {
    if (!v.compressed) {
      p.ReadBytes(v.payload_off + i * v.stride + 8, raw, 8 * width);
      return;
    }
    uint32_t src = v.payload_off + i * v.stride + 8;
    for (uint32_t c = 0; c < width; ++c) {
      if (c == key_column) continue;
      raw[c] = p.Read<uint64_t>(src);
      src += 8;
    }
    raw[key_column] = KeyAt(p, v, i);
  }

  // Rewrites the page from `count` sorted entries (`fps[i]`, `raws[i*width
  // ..]`), picking the compressed format whenever every key fits in a 1/2/4
  // byte delta against the first (smallest) key. The page is zeroed first so
  // its image — and hence its checksum — is a pure function of the entries.
  void Encode(Page* p, const uint64_t* fps, const uint64_t* raws,
              uint32_t count, uint32_t next) const {
    ASR_DCHECK(count <= capacity);
    p->Zero();
    p->Write<uint8_t>(0, 1);
    SetCount(p, static_cast<uint16_t>(count));
    SetNextLeaf(p, next);
    uint32_t kb = 0;
    if (count > 0) {
      // Entries are sorted by (key, fingerprint), so first/last bound the
      // key span.
      uint64_t span = raws[static_cast<size_t>(count - 1) * width +
                           key_column] -
                      raws[key_column];
      kb = span <= 0xFF ? 1 : span <= 0xFFFF ? 2 : span <= 0xFFFFFFFFull ? 4
                                                                         : 0;
    }
    if (kb == 0) {  // empty leaf or a key span too wide: plain format
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t off = kHeaderBytes + i * plain_stride;
        p->Write<uint64_t>(off, fps[i]);
        p->WriteBytes(off + 8, raws + static_cast<size_t>(i) * width,
                      8 * width);
      }
      return;
    }
    p->Write<uint8_t>(1, kLeafFlagCompressed);
    const uint64_t base = raws[key_column];
    p->Write<uint64_t>(8, base);
    p->Write<uint8_t>(16, static_cast<uint8_t>(kb));
    const uint32_t payload = kCompressedHeaderBytes + capacity * kb;
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t* row = raws + static_cast<size_t>(i) * width;
      uint32_t delta = static_cast<uint32_t>(row[key_column] - base);
      p->WriteBytes(kCompressedHeaderBytes + i * kb, &delta, kb);
      uint32_t off = payload + i * 8 * width;
      p->Write<uint64_t>(off, fps[i]);
      uint32_t dst = off + 8;
      for (uint32_t c = 0; c < width; ++c) {
        if (c == key_column) continue;
        p->Write<uint64_t>(dst, row[c]);
        dst += 8;
      }
    }
  }
  // Splices entry (fp, row) in at position `lo` with two memmoves, keeping
  // the page's current format. Returns false when the format cannot absorb
  // the entry — leaf full, or a compressed leaf whose base/delta width the
  // new key does not fit — and the caller must re-encode (or split).
  bool InsertInPlace(Page* p, const LeafView& v, uint32_t lo, uint64_t fp,
                     const uint64_t* row) const {
    if (v.count >= capacity) return false;
    std::byte* d = p->data();
    if (v.compressed) {
      const uint64_t key = row[key_column];
      if (key < v.base) return false;
      const uint64_t delta = key - v.base;
      const uint64_t max_delta =
          v.kb == 1 ? 0xFF : v.kb == 2 ? 0xFFFF : 0xFFFFFFFFull;
      if (delta > max_delta) return false;
      std::memmove(d + kCompressedHeaderBytes + (lo + 1) * v.kb,
                   d + kCompressedHeaderBytes + lo * v.kb,
                   static_cast<size_t>(v.count - lo) * v.kb);
      const uint32_t delta32 = static_cast<uint32_t>(delta);
      p->WriteBytes(kCompressedHeaderBytes + lo * v.kb, &delta32, v.kb);
    }
    std::memmove(d + v.payload_off + (lo + 1) * v.stride,
                 d + v.payload_off + lo * v.stride,
                 static_cast<size_t>(v.count - lo) * v.stride);
    const uint32_t off = v.payload_off + lo * v.stride;
    p->Write<uint64_t>(off, fp);
    if (!v.compressed) {
      p->WriteBytes(off + 8, row, 8 * width);
    } else {
      uint32_t dst = off + 8;
      for (uint32_t c = 0; c < width; ++c) {
        if (c == key_column) continue;
        p->Write<uint64_t>(dst, row[c]);
        dst += 8;
      }
    }
    SetCount(p, static_cast<uint16_t>(v.count + 1));
    return true;
  }

  // Removes entry `i` with two memmoves, zeroing the vacated tail slots.
  // Works for both formats (a compressed leaf keeps its base; lazy deletion
  // never requires a format change).
  void EraseInPlace(Page* p, const LeafView& v, uint32_t i) const {
    std::byte* d = p->data();
    const size_t tail = v.count - i - 1;
    if (v.compressed) {
      std::memmove(d + kCompressedHeaderBytes + i * v.kb,
                   d + kCompressedHeaderBytes + (i + 1) * v.kb, tail * v.kb);
      std::memset(d + kCompressedHeaderBytes + (v.count - 1) * v.kb, 0, v.kb);
    }
    std::memmove(d + v.payload_off + i * v.stride,
                 d + v.payload_off + (i + 1) * v.stride, tail * v.stride);
    std::memset(d + v.payload_off + (v.count - 1) * v.stride, 0, v.stride);
    SetCount(p, static_cast<uint16_t>(v.count - 1));
  }
};

// Whole-leaf in-memory image for the re-encode path (format changes and
// splits): decode flat, splice, then re-encode. Flat arrays instead of
// per-entry vectors keep it at two block copies rather than O(count)
// allocations.
struct LeafImage {
  std::vector<uint64_t> fps;   // count entries
  std::vector<uint64_t> raws;  // count * width raw values, row-major
};

void DecodeAll(const LeafCodec& codec, const Page& p, const LeafView& v,
               LeafImage* img) {
  img->fps.resize(v.count);
  img->raws.resize(static_cast<size_t>(v.count) * codec.width);
  for (uint32_t i = 0; i < v.count; ++i) {
    img->fps[i] = codec.FingerprintAt(p, v, i);
    codec.RowAt(p, v, i, img->raws.data() + static_cast<size_t>(i) * codec.width);
  }
}

}  // namespace

BTree::BTree(storage::BufferManager* buffers, std::string name,
             uint32_t width, uint32_t key_column)
    : buffers_(buffers), width_(width), key_column_(key_column) {
  ASR_CHECK(width_ >= 1 && key_column_ < width_);
  leaf_entry_bytes_ = 8 + 8 * width_;
  leaf_capacity_ = (kPageSize - kHeaderBytes) / leaf_entry_bytes_;
  inner_capacity_ = (kPageSize - kHeaderBytes) / kInnerEntryBytes;
  // >= 4 also guarantees the compressed layout fits: payload_off grows by
  // capacity * kb <= capacity * 4 bytes while dropping the 8-byte key column
  // from capacity entries, a net win whenever capacity >= 4.
  ASR_CHECK(leaf_capacity_ >= 4);
  segment_ = buffers_->disk()->CreateSegment("btree:" + name);
  PageGuard root = buffers_->AllocatePinned(segment_);
  InitLeaf(&root.page());
  root.MarkDirty();
  root_page_ = root.id().page_no;
}

BTree::BTree(storage::BufferManager* buffers, const Meta& meta)
    : buffers_(buffers),
      segment_(meta.segment),
      width_(meta.width),
      key_column_(meta.key_column),
      root_page_(meta.root_page),
      height_(meta.height),
      leaf_pages_(meta.leaf_pages),
      inner_pages_(meta.inner_pages),
      tuple_count_(meta.tuple_count) {
  ASR_CHECK(width_ >= 1 && key_column_ < width_);
  leaf_entry_bytes_ = 8 + 8 * width_;
  leaf_capacity_ = (kPageSize - kHeaderBytes) / leaf_entry_bytes_;
  inner_capacity_ = (kPageSize - kHeaderBytes) / kInnerEntryBytes;
  ASR_CHECK(leaf_capacity_ >= 4);
}

BTree::Meta BTree::meta() const {
  Meta m;
  m.segment = segment_;
  m.width = width_;
  m.key_column = key_column_;
  m.root_page = root_page_;
  m.height = height_;
  m.leaf_pages = leaf_pages_;
  m.inner_pages = inner_pages_;
  m.tuple_count = tuple_count_;
  return m;
}

void BTree::RestoreMeta(const Meta& meta) {
  ASR_CHECK(meta.segment == segment_ && meta.width == width_ &&
            meta.key_column == key_column_);
  root_page_ = meta.root_page;
  height_ = meta.height;
  leaf_pages_ = meta.leaf_pages;
  inner_pages_ = meta.inner_pages;
  tuple_count_ = meta.tuple_count;
}

void BTree::InitLeaf(Page* page) {
  page->Zero();
  page->Write<uint8_t>(0, 1);
  SetCount(page, 0);
  SetNextLeaf(page, kNoLeaf);
}

void BTree::InitInternal(Page* page) {
  page->Zero();
  page->Write<uint8_t>(0, 0);
  SetCount(page, 0);
  SetChild0(page, kNoLeaf);
}

uint64_t BTree::Fingerprint(const std::vector<AsrKey>& tuple) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (AsrKey k : tuple) {
    h ^= k.raw();
    h *= 0x100000001B3ull;
    h ^= h >> 29;
  }
  // Avoid the reserved all-zero fingerprint so (0,0) is a safe -infinity.
  return h == 0 ? 1 : h;
}

BTree::CompositeKey BTree::KeyOf(const std::vector<AsrKey>& tuple) const {
  ASR_DCHECK(tuple.size() == width_);
  return CompositeKey{tuple[key_column_].raw(), Fingerprint(tuple)};
}

uint32_t BTree::DescendToLeaf(CompositeKey key, std::vector<uint32_t>* path) {
  descents_.Inc();
  const u128 target = Pack(key.key, key.fingerprint);
  uint32_t page_no = root_page_;
  while (true) {
    PageGuard guard = buffers_->Pin(PageId{segment_, page_no});
    const Page& page = guard.page();
    if (IsLeaf(page)) return page_no;
    inner_touches_.Inc();
    if (path != nullptr) path->push_back(page_no);
    // Descend into the child left of the first entry with key > `key`
    // (child0 when there is none to the left).
    uint32_t ub = UpperBound(Count(page), target, [&](uint32_t i) {
      return Pack(page.Read<uint64_t>(InnerOffset(static_cast<int>(i))),
                  page.Read<uint64_t>(InnerOffset(static_cast<int>(i)) + 8));
    });
    page_no = (ub == 0) ? Child0(page)
                        : GetInner(page, static_cast<int>(ub) - 1).child;
  }
}

bool BTree::Insert(const std::vector<AsrKey>& tuple) {
  ASR_CHECK(tuple.size() == width_);
  CompositeKey key = KeyOf(tuple);
  std::vector<uint32_t> path;
  uint32_t leaf_no = DescendToLeaf(key, &path);
  PageGuard leaf = buffers_->Pin(PageId{segment_, leaf_no});
  leaf_touches_.Inc();
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  const LeafView v = codec.Parse(leaf.page());
  const u128 packed = Pack(key.key, key.fingerprint);

  uint32_t lo = LowerBound(v.count, packed, [&](uint32_t i) {
    return codec.PackedAt(leaf.page(), v, i);
  });
  // Scan the run of equal composite keys (fingerprint collisions) for the
  // identical tuple; set semantics make re-insertion a no-op. A run never
  // crosses a leaf boundary for practical purposes: equal composite keys are
  // equal tuples except under 64-bit fingerprint collision.
  std::vector<uint64_t> raw(width_);
  for (uint32_t i = lo; i < v.count; ++i) {
    if (codec.PackedAt(leaf.page(), v, i) != packed) break;
    codec.RowAt(leaf.page(), v, i, raw.data());
    bool same = true;
    for (uint32_t c = 0; c < width_; ++c) {
      if (raw[c] != tuple[c].raw()) {
        same = false;
        break;
      }
    }
    if (same) return false;
  }

  for (uint32_t c = 0; c < width_; ++c) raw[c] = tuple[c].raw();
  if (codec.InsertInPlace(&leaf.page(), v, lo, key.fingerprint, raw.data())) {
    leaf.MarkDirty();
    ++tuple_count_;
    return true;
  }

  LeafImage img;
  DecodeAll(codec, leaf.page(), v, &img);
  img.fps.insert(img.fps.begin() + lo, key.fingerprint);
  img.raws.insert(img.raws.begin() + static_cast<size_t>(lo) * width_,
                  raw.begin(), raw.end());
  const uint32_t n = v.count + 1u;

  if (n <= leaf_capacity_) {
    // Room, but the current format cannot absorb the key: re-encode (the
    // codec re-picks the widest-fitting format, falling back to plain).
    codec.Encode(&leaf.page(), img.fps.data(), img.raws.data(), n, v.next);
    leaf.MarkDirty();
    ++tuple_count_;
    return true;
  }

  // Split: the upper half moves to a new right sibling.
  const uint32_t mid = n / 2;
  PageGuard right = buffers_->AllocatePinned(segment_);
  codec.Encode(&right.page(), img.fps.data() + mid,
               img.raws.data() + static_cast<size_t>(mid) * width_, n - mid,
               v.next);
  codec.Encode(&leaf.page(), img.fps.data(), img.raws.data(), mid,
               right.id().page_no);
  leaf.MarkDirty();
  right.MarkDirty();
  splits_.Inc();
  ++leaf_pages_;
  ++tuple_count_;

  CompositeKey separator{img.raws[static_cast<size_t>(mid) * width_ +
                                  key_column_],
                         img.fps[mid]};
  uint32_t right_no = right.id().page_no;
  leaf.Release();
  right.Release();
  InsertIntoParent(&path, separator, right_no);
  return true;
}

void BTree::InsertIntoParent(std::vector<uint32_t>* path,
                             CompositeKey separator, uint32_t new_child) {
  if (path->empty()) {
    // The root split: grow the tree by one level.
    PageGuard new_root = buffers_->AllocatePinned(segment_);
    InitInternal(&new_root.page());
    SetChild0(&new_root.page(), root_page_);
    PutInner(&new_root.page(), 0,
             InnerEntry{separator.key, separator.fingerprint, new_child});
    SetCount(&new_root.page(), 1);
    new_root.MarkDirty();
    root_page_ = new_root.id().page_no;
    ++height_;
    ++inner_pages_;
    return;
  }

  uint32_t parent_no = path->back();
  path->pop_back();
  PageGuard parent = buffers_->Pin(PageId{segment_, parent_no});
  uint16_t count = Count(parent.page());

  // Position = first entry with key > separator.
  int pos = 0;
  while (pos < count) {
    InnerEntry e = GetInner(parent.page(), pos);
    CompositeKey ek{e.key, e.fingerprint};
    if (separator < ek) break;
    ++pos;
  }

  if (count < inner_capacity_) {
    for (int i = count - 1; i >= pos; --i) {
      PutInner(&parent.page(), i + 1, GetInner(parent.page(), i));
    }
    PutInner(&parent.page(), pos,
             InnerEntry{separator.key, separator.fingerprint, new_child});
    SetCount(&parent.page(), static_cast<uint16_t>(count + 1));
    parent.MarkDirty();
    return;
  }

  // Split the internal node. Collect all count+1 entries.
  std::vector<InnerEntry> all;
  all.reserve(count + 1);
  for (int i = 0; i < count; ++i) all.push_back(GetInner(parent.page(), i));
  all.insert(all.begin() + pos,
             InnerEntry{separator.key, separator.fingerprint, new_child});

  uint32_t mid = static_cast<uint32_t>(all.size()) / 2;
  InnerEntry up = all[mid];  // moves up; its child seeds the right node

  PageGuard right = buffers_->AllocatePinned(segment_);
  InitInternal(&right.page());
  SetChild0(&right.page(), up.child);
  for (uint32_t i = mid + 1; i < all.size(); ++i) {
    PutInner(&right.page(), static_cast<int>(i - mid - 1), all[i]);
  }
  SetCount(&right.page(), static_cast<uint16_t>(all.size() - mid - 1));

  for (uint32_t i = 0; i < mid; ++i) {
    PutInner(&parent.page(), static_cast<int>(i), all[i]);
  }
  SetCount(&parent.page(), static_cast<uint16_t>(mid));

  parent.MarkDirty();
  right.MarkDirty();
  splits_.Inc();
  ++inner_pages_;

  uint32_t right_no = right.id().page_no;
  parent.Release();
  right.Release();
  InsertIntoParent(path, CompositeKey{up.key, up.fingerprint}, right_no);
}

Status BTree::BulkLoad(std::vector<std::vector<AsrKey>> tuples,
                       double fill_factor) {
  if (tuple_count_ != 0 || height_ != 0 || leaf_pages_ != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (!(fill_factor > 0.0) || fill_factor > 1.0) {
    return Status::InvalidArgument("fill factor must be in (0, 1]");
  }

  // Sort by composite key; ties (fingerprint collisions) break on the full
  // tuple so the dedup below is exact and the leaf order deterministic.
  struct BulkEntry {
    CompositeKey key;
    std::vector<uint64_t> tuple;
  };
  std::vector<BulkEntry> entries;
  entries.reserve(tuples.size());
  for (const std::vector<AsrKey>& tuple : tuples) {
    ASR_CHECK(tuple.size() == width_);
    BulkEntry e;
    e.key = KeyOf(tuple);
    e.tuple.resize(width_);
    for (uint32_t c = 0; c < width_; ++c) e.tuple[c] = tuple[c].raw();
    entries.push_back(std::move(e));
  }
  tuples.clear();
  tuples.shrink_to_fit();
  std::sort(entries.begin(), entries.end(),
            [](const BulkEntry& a, const BulkEntry& b) {
              if (!(a.key == b.key)) return a.key < b.key;
              return a.tuple < b.tuple;
            });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const BulkEntry& a, const BulkEntry& b) {
                              return a.key == b.key && a.tuple == b.tuple;
                            }),
                entries.end());
  if (entries.empty()) return Status::OK();

  uint32_t per_leaf = static_cast<uint32_t>(fill_factor * leaf_capacity_);
  per_leaf = std::max(1u, std::min(leaf_capacity_, per_leaf));

  // Level 0: pack the leaves left to right. The constructor's root page
  // becomes the leftmost leaf; each page is encoded, linked, and released
  // once (one write under metering).
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  struct ChildRef {
    CompositeKey first;  // smallest composite key under this subtree
    uint32_t page_no;
  };
  std::vector<ChildRef> level;
  PageGuard prev;  // stays pinned until its next_leaf link is known
  std::vector<uint64_t> fps;
  std::vector<uint64_t> raws;
  size_t pos = 0;
  while (pos < entries.size()) {
    size_t take = std::min<size_t>(per_leaf, entries.size() - pos);
    // Never leave a lone entry for the last leaf when avoidable: steal one
    // from this leaf so every leaf holds at least two entries.
    if (entries.size() - pos - take == 1 && take > 1) --take;
    PageGuard leaf = level.empty() ? buffers_->Pin(PageId{segment_, root_page_})
                                   : buffers_->AllocatePinned(segment_);
    fps.resize(take);
    raws.resize(take * width_);
    for (size_t i = 0; i < take; ++i) {
      const BulkEntry& e = entries[pos + i];
      fps[i] = e.key.fingerprint;
      std::memcpy(raws.data() + i * width_, e.tuple.data(), 8 * width_);
    }
    codec.Encode(&leaf.page(), fps.data(), raws.data(),
                 static_cast<uint32_t>(take), kNoLeaf);
    leaf.MarkDirty();
    if (prev.valid()) {
      SetNextLeaf(&prev.page(), leaf.id().page_no);
      prev.Release();
    }
    bulkload_pages_.Inc();
    level.push_back(ChildRef{entries[pos].key, leaf.id().page_no});
    prev = std::move(leaf);
    pos += take;
  }
  prev.Release();
  leaf_pages_ = static_cast<uint32_t>(level.size());
  tuple_count_ = entries.size();
  entries.clear();
  entries.shrink_to_fit();

  // Internal levels, bottom-up: child0 plus up to inner_capacity_ separator
  // entries per node, each separator being the first key of the child to its
  // right (exactly what InsertIntoParent would have produced).
  const uint32_t fanout = inner_capacity_ + 1;
  while (level.size() > 1) {
    std::vector<ChildRef> parents;
    size_t i = 0;
    while (i < level.size()) {
      size_t take = std::min<size_t>(fanout, level.size() - i);
      if (level.size() - i - take == 1 && take > 1) --take;
      PageGuard node = buffers_->AllocatePinned(segment_);
      InitInternal(&node.page());
      SetChild0(&node.page(), level[i].page_no);
      for (size_t c = 1; c < take; ++c) {
        const ChildRef& child = level[i + c];
        PutInner(&node.page(), static_cast<int>(c - 1),
                 InnerEntry{child.first.key, child.first.fingerprint,
                            child.page_no});
      }
      SetCount(&node.page(), static_cast<uint16_t>(take - 1));
      node.MarkDirty();
      bulkload_pages_.Inc();
      parents.push_back(ChildRef{level[i].first, node.id().page_no});
      ++inner_pages_;
      i += take;
    }
    level = std::move(parents);
    ++height_;
  }
  root_page_ = level.front().page_no;
  return Status::OK();
}

bool BTree::Erase(const std::vector<AsrKey>& tuple) {
  ASR_CHECK(tuple.size() == width_);
  CompositeKey key = KeyOf(tuple);
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  const u128 packed = Pack(key.key, key.fingerprint);
  std::vector<uint64_t> raw(width_);
  uint32_t leaf_no = DescendToLeaf(key, nullptr);
  while (leaf_no != kNoLeaf) {
    PageGuard leaf = buffers_->Pin(PageId{segment_, leaf_no});
    leaf_touches_.Inc();
    const LeafView v = codec.Parse(leaf.page());
    uint32_t lo = LowerBound(v.count, packed, [&](uint32_t i) {
      return codec.PackedAt(leaf.page(), v, i);
    });
    for (uint32_t i = lo; i < v.count; ++i) {
      if (codec.PackedAt(leaf.page(), v, i) != packed) return false;
      codec.RowAt(leaf.page(), v, i, raw.data());
      bool same = true;
      for (uint32_t c = 0; c < width_; ++c) {
        if (raw[c] != tuple[c].raw()) {
          same = false;
          break;
        }
      }
      if (!same) continue;  // fingerprint collision inside the run
      codec.EraseInPlace(&leaf.page(), v, i);
      leaf.MarkDirty();
      --tuple_count_;
      return true;
    }
    // The run may continue on the next leaf after splits.
    leaf_no = v.next;
  }
  return false;
}

void BTree::Lookup(AsrKey key, std::vector<std::vector<AsrKey>>* out) {
  LookupEach(key, [out](const std::vector<AsrKey>& row) {
    out->push_back(row);
    return true;
  });
}

void BTree::LookupEach(
    AsrKey key, const std::function<bool(const std::vector<AsrKey>&)>& fn) {
  CompositeKey target{key.raw(), 0};
  const u128 tpack = Pack(key.raw(), 0);
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  uint32_t leaf_no = DescendToLeaf(target, nullptr);
  std::vector<AsrKey> row(width_);
  std::vector<uint64_t> raw(width_);
  while (leaf_no != kNoLeaf) {
    PageGuard leaf = buffers_->Pin(PageId{segment_, leaf_no});
    leaf_touches_.Inc();
    const LeafView v = codec.Parse(leaf.page());
    // No real fingerprint is 0, so the (key, 0) lower bound is the start of
    // the cluster.
    uint32_t i = LowerBound(v.count, tpack, [&](uint32_t j) {
      return codec.PackedAt(leaf.page(), v, j);
    });
    for (; i < v.count; ++i) {
      if (codec.KeyAt(leaf.page(), v, i) != key.raw()) return;
      codec.RowAt(leaf.page(), v, i, raw.data());
      for (uint32_t c = 0; c < width_; ++c) row[c] = AsrKey::FromRaw(raw[c]);
      if (!fn(row)) return;
    }
    leaf_no = v.next;
  }
}

bool BTree::Contains(AsrKey key) {
  CompositeKey target{key.raw(), 0};
  const u128 tpack = Pack(key.raw(), 0);
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  uint32_t leaf_no = DescendToLeaf(target, nullptr);
  while (leaf_no != kNoLeaf) {
    PageGuard leaf = buffers_->Pin(PageId{segment_, leaf_no});
    leaf_touches_.Inc();
    const LeafView v = codec.Parse(leaf.page());
    uint32_t i = LowerBound(v.count, tpack, [&](uint32_t j) {
      return codec.PackedAt(leaf.page(), v, j);
    });
    if (i < v.count) return codec.KeyAt(leaf.page(), v, i) == key.raw();
    leaf_no = v.next;
  }
  return false;
}

Status BTree::ScanAll(
    const std::function<Status(const std::vector<AsrKey>&)>& fn) {
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  std::vector<uint64_t> raw(width_);
  uint32_t leaf_no = DescendToLeaf(CompositeKey{0, 0}, nullptr);
  while (leaf_no != kNoLeaf) {
    PageGuard leaf = buffers_->Pin(PageId{segment_, leaf_no});
    leaf_touches_.Inc();
    const LeafView v = codec.Parse(leaf.page());
    for (uint32_t i = 0; i < v.count; ++i) {
      codec.RowAt(leaf.page(), v, i, raw.data());
      std::vector<AsrKey> row;
      row.reserve(width_);
      for (uint32_t c = 0; c < width_; ++c) {
        row.push_back(AsrKey::FromRaw(raw[c]));
      }
      ASR_RETURN_IF_ERROR(fn(row));
    }
    leaf_no = v.next;
  }
  return Status::OK();
}

Result<uint32_t> BTree::SafeLeftmostLeaf() {
  const uint32_t seg_pages = buffers_->disk()->SegmentPageCount(segment_);
  uint32_t page_no = root_page_;
  for (uint32_t depth = 0; depth <= height_; ++depth) {
    if (page_no >= seg_pages) {
      return Status::Corruption("descent links past the segment");
    }
    Result<PageGuard> guard = buffers_->TryPin(PageId{segment_, page_no});
    ASR_RETURN_IF_ERROR(guard.status());
    const Page& page = guard->page();
    if (IsLeaf(page)) return page_no;
    if (Count(page) > inner_capacity_) {
      return Status::Corruption("inner entry count exceeds capacity");
    }
    page_no = Child0(page);
  }
  return Status::Corruption("descent exceeds the recorded height");
}

Status BTree::CheckIntegrity() {
  uint64_t seen = 0;
  bool have_prev = false;
  CompositeKey prev{0, 0};
  Result<uint32_t> leftmost = SafeLeftmostLeaf();
  ASR_RETURN_IF_ERROR(leftmost.status());
  uint32_t leaf_no = *leftmost;
  const uint32_t seg_pages = buffers_->disk()->SegmentPageCount(segment_);
  const LeafCodec codec{width_, key_column_, leaf_entry_bytes_,
                        leaf_capacity_};
  std::vector<uint64_t> raw(width_);
  uint32_t leaves = 0;
  while (leaf_no != kNoLeaf) {
    // Bounding inside the loop keeps a corrupted next_leaf cycle from
    // hanging the checker.
    if (leaves >= leaf_pages_) {
      return Status::Corruption("leaf chain longer than allocated leaf pages");
    }
    if (leaf_no >= seg_pages) {
      return Status::Corruption("leaf chain links past the segment");
    }
    Result<PageGuard> leaf_guard = buffers_->TryPin(PageId{segment_, leaf_no});
    ASR_RETURN_IF_ERROR(leaf_guard.status());
    PageGuard leaf = std::move(*std::move(leaf_guard));
    if (!IsLeaf(leaf.page())) {
      return Status::Corruption("leaf chain reached a non-leaf page");
    }
    uint16_t count = Count(leaf.page());
    if (count > leaf_capacity_) {
      return Status::Corruption("leaf entry count exceeds capacity");
    }
    const LeafView v = codec.Parse(leaf.page());
    // Validate the format header before trusting any entry offset, so a
    // stomped kb cannot send reads past the page.
    if (v.compressed && v.kb != 1 && v.kb != 2 && v.kb != 4) {
      return Status::Corruption("compressed leaf has invalid delta width");
    }
    if (v.payload_off + static_cast<uint64_t>(count) * v.stride > kPageSize) {
      return Status::Corruption("leaf payload extends past the page");
    }
    for (uint32_t i = 0; i < count; ++i) {
      codec.RowAt(leaf.page(), v, i, raw.data());
      CompositeKey key{raw[key_column_], codec.FingerprintAt(leaf.page(), v, i)};
      if (have_prev && key < prev) {
        return Status::Corruption("leaf entries out of order");
      }
      std::vector<AsrKey> tuple;
      tuple.reserve(width_);
      for (uint64_t value : raw) tuple.push_back(AsrKey::FromRaw(value));
      if (Fingerprint(tuple) != key.fingerprint) {
        return Status::Corruption("stored fingerprint mismatch");
      }
      prev = key;
      have_prev = true;
      ++seen;
    }
    ++leaves;
    leaf_no = v.next;
  }
  if (seen != tuple_count_) {
    return Status::Corruption("tuple count mismatch: chain holds " +
                              std::to_string(seen) + ", expected " +
                              std::to_string(tuple_count_));
  }
  return Status::OK();
}

Status BTree::ForEachLeaf(
    const std::function<Status(uint32_t, uint16_t)>& fn) {
  Result<uint32_t> leftmost = SafeLeftmostLeaf();
  ASR_RETURN_IF_ERROR(leftmost.status());
  uint32_t leaf_no = *leftmost;
  const uint32_t seg_pages = buffers_->disk()->SegmentPageCount(segment_);
  uint32_t visited = 0;
  while (leaf_no != kNoLeaf) {
    if (visited++ >= leaf_pages_) {
      return Status::Corruption("leaf chain longer than allocated leaf pages");
    }
    if (leaf_no >= seg_pages) {
      return Status::Corruption("leaf chain links past the segment");
    }
    Result<PageGuard> leaf_guard = buffers_->TryPin(PageId{segment_, leaf_no});
    ASR_RETURN_IF_ERROR(leaf_guard.status());
    PageGuard leaf = std::move(*std::move(leaf_guard));
    if (!IsLeaf(leaf.page())) {
      return Status::Corruption("leaf chain reached a non-leaf page");
    }
    ASR_RETURN_IF_ERROR(fn(leaf_no, Count(leaf.page())));
    leaf_no = NextLeaf(leaf.page());
  }
  return Status::OK();
}

Result<BTree::LeafFormatCounts> BTree::CountLeafFormats() {
  LeafFormatCounts counts;
  ASR_RETURN_IF_ERROR(ForEachLeaf([&](uint32_t page_no, uint16_t) {
    PageGuard leaf = buffers_->Pin(PageId{segment_, page_no});
    if ((leaf.page().Read<uint8_t>(1) & kLeafFlagCompressed) != 0) {
      ++counts.compressed;
    } else {
      ++counts.plain;
    }
    return Status::OK();
  }));
  return counts;
}

void BTree::ExportMetrics(obs::MetricsRegistry* registry,
                          const std::string& prefix) const {
  registry->Set(prefix + ".descents", descents_);
  registry->Set(prefix + ".leaf_touches", leaf_touches_);
  registry->Set(prefix + ".inner_touches", inner_touches_);
  registry->Set(prefix + ".splits", splits_);
  registry->Set(prefix + ".bulkload_pages", bulkload_pages_);
  registry->Set(prefix + ".tuples", tuple_count_);
  registry->Set(prefix + ".leaf_pages", leaf_pages_);
  registry->Set(prefix + ".inner_pages", inner_pages_);
  registry->Set(prefix + ".height", height_);
}

}  // namespace asr::btree
