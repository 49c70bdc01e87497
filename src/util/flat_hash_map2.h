// FlatHashMap2 — the library's open-addressing hash map keyed by 64-bit
// integers, used by every accumulator, walk frontier, index lookup and
// workspace. Design points, in the order they matter on the query hot
// paths:
//
//  * SwissTable-style split metadata: a separate 1-byte-per-slot control
//    array scanned in 16-slot groups. One probe step inspects 16 candidate
//    slots by touching a single metadata cache line; the 16-byte key/value
//    slot line is only loaded for slots whose 7-bit hash fragment matches.
//  * wyhash-style mixer: one 64x64->128 multiply with xor-folding, a strong
//    mix for the clustered key shapes we feed it (dense node ids,
//    PackNodeLevel pairs) at the cost of a single multiply.
//  * O(size) clear() via an occupied-slot journal: clear() resets only the
//    control bytes the map actually used (or memsets the 1-byte control
//    array when the map is dense). Pooled query workspaces retain a large
//    capacity while most queries touch few nodes, so an O(capacity) wipe
//    would dominate their per-query cost.
//  * ForEach/ToVector iterate the journal, i.e. in INSERTION order, in
//    O(size). Iteration order is therefore a pure function of the operation
//    sequence — never of the capacity retained from earlier reuse — so a
//    pass that float-sums, breaks ties, or emits output while iterating the
//    map gives the same bits on a warmed workspace as on a fresh one. The
//    PRSim and RpprEstimator accumulators rely on exactly this: they merge,
//    sum and emit by ForEach and keep no key vectors of their own.
//
// Restrictions: any uint64_t key is insertable (presence lives in the
// control byte, not the key), erase is not supported (none of our
// algorithms delete entries), and values must be default-constructible and
// trivially copyable (slots live in a raw arena, with the journal and
// control bytes fused into a second small block — two allocations per
// table, see Allocate for why the slot block stays separate). Growth is
// two-regime but always a deterministic pure function of the insert count:
// small tables (<= 1024 slots, minimum 64 — one cache line of control
// bytes) grow 4x at 1/2 load — a few KB of L1-resident scratch traded for
// ~4x fewer rehash moves and near-zero probe collisions — while large
// tables grow 2x at 3/4 load.

#ifndef PRSIM_UTIL_FLAT_HASH_MAP2_H_
#define PRSIM_UTIL_FLAT_HASH_MAP2_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/logging.h"

namespace prsim {

/// Hard ceiling on a map's slot count: 2^31 slots. Far above any reachable
/// workspace size, low enough that the power-of-two doubling loops can never
/// wrap or spin on a huge (or corrupted) requested capacity, and it keeps
/// the 32-bit occupied-slot journal indices exact.
inline constexpr size_t kMaxMapCapacity = size_t{1} << 31;

template <typename V>
class FlatHashMap2 {
 public:
  explicit FlatHashMap2(size_t initial_capacity = 16) {
    PRSIM_CHECK(initial_capacity <= kMaxMapCapacity / 2)
        << "FlatHashMap2: requested capacity " << initial_capacity
        << " exceeds the " << kMaxMapCapacity << "-slot limit";
    // Minimum table is 64 slots: the control array then fills exactly one
    // cache line, and a default-constructed map reaches ~100 entries with a
    // single rehash.
    size_t cap = kMinCapacity;
    while (cap < initial_capacity * 2) cap <<= 1;
    Allocate(cap);
  }

  // The slots, journal, and control array live in raw arenas, so the map
  // is move-only; a moved-from map may only be destroyed or assigned to.
  FlatHashMap2(FlatHashMap2&& other) noexcept { StealFrom(other); }
  FlatHashMap2& operator=(FlatHashMap2&& other) noexcept {
    if (this != &other) StealFrom(other);
    return *this;
  }
  FlatHashMap2(const FlatHashMap2&) = delete;
  FlatHashMap2& operator=(const FlatHashMap2&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Empties the map while KEEPING capacity (the pooled-workspace reuse
  /// contract: steady-state reuse never reallocates). Cost is O(size): only the control bytes named
  /// by the occupied-slot journal are reset — or, when the map is dense,
  /// one memset of the 1-byte-per-slot control array. Free when empty.
  void clear() {
    if (size_ == 0) return;
    if (size_ * kSparseClearFactor < capacity_) {
      for (size_t i = 0; i < size_; ++i) ctrl_[journal_[i]] = kEmpty;
    } else {
      std::memset(ctrl_, kEmpty, capacity_);
    }
    size_ = 0;
  }

  /// Returns a reference to the value for `key`, inserting a
  /// default-constructed value if absent. Probes before any growth
  /// decision: a lookup of a present key never rehashes, so capacity is a
  /// pure function of the number of inserts.
  V& operator[](uint64_t key) {
    const uint64_t h = Hash(key);
    const uint8_t h2 = H2(h);
    const H2Pattern pattern = BroadcastH2(h2);
    // Members are cached in locals for the probe loop: InsertAt's control
    // store is a byte store, which the compiler must assume aliases every
    // member field — without the locals each loop iteration reloads them.
    const uint8_t* const ctrl = ctrl_;
    Slot* const slots = slots_;
    const size_t gmask = group_mask_;
    size_t group = H1(h) & gmask;
    size_t step = 0;
    while (true) {
      const GroupBits g = LoadGroup(ctrl + group * kGroupWidth);
      uint64_t match = MatchByte(g, pattern);
      while (match != 0) {
        const size_t idx = group * kGroupWidth + MaskSlot(match);
        if (slots[idx].key == key) return slots[idx].value;
        match &= match - 1;
      }
      const uint64_t empty = MatchEmpty(g);
      if (empty != 0) {
        if (size_ >= growth_threshold_) {
          Rehash(NextCapacity(capacity_));
          return InsertKnownAbsent(key);
        }
        return InsertAt(group * kGroupWidth + MaskSlot(empty), h2, key);
      }
      group = (group + (++step)) & gmask;
    }
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  const V* Find(uint64_t key) const {
    const uint64_t h = Hash(key);
    const H2Pattern pattern = BroadcastH2(H2(h));
    size_t group = H1(h) & group_mask_;
    size_t step = 0;
    while (true) {
      const GroupBits g = LoadGroup(ctrl_ + group * kGroupWidth);
      uint64_t match = MatchByte(g, pattern);
      while (match != 0) {
        const size_t idx = group * kGroupWidth + MaskSlot(match);
        if (slots_[idx].key == key) return &slots_[idx].value;
        match &= match - 1;
      }
      if (MatchEmpty(g) != 0) return nullptr;
      group = (group + (++step)) & group_mask_;
    }
  }
  V* Find(uint64_t key) {
    return const_cast<V*>(static_cast<const FlatHashMap2*>(this)->Find(key));
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  /// Iterates occupied slots in INSERTION order (via the journal), O(size);
  /// `fn(key, value)`. The order survives rehashing: Rehash replays the
  /// journal, so it is a pure function of the insertion sequence.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < size_; ++i) {
      const Slot& slot = slots_[journal_[i]];
      fn(slot.key, slot.value);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (size_t i = 0; i < size_; ++i) {
      Slot& slot = slots_[journal_[i]];
      fn(slot.key, slot.value);
    }
  }

  /// Materializes entries as (key, value) pairs in insertion order.
  std::vector<std::pair<uint64_t, V>> ToVector() const {
    std::vector<std::pair<uint64_t, V>> out;
    out.reserve(size_);
    ForEach([&](uint64_t k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  size_t capacity() const { return capacity_; }

  /// Heap footprint in bytes: both arenas (slots + journal + control).
  size_t MemoryBytes() const {
    return capacity_ * (sizeof(Slot) + 1) +
           growth_threshold_ * sizeof(uint32_t);
  }

  /// Work a Find(key) performs: 16-slot groups inspected PLUS candidate
  /// slots whose H2 fragment matched and needed a key compare — the
  /// microbench's accidentally-quadratic detector watches this. Counting
  /// candidates matters: a mixer whose H2 degenerates for some key shape
  /// keeps the group count at 1 while every occupied slot in the group
  /// becomes a false positive.
  size_t FindProbeCost(uint64_t key) const {
    const uint64_t h = Hash(key);
    const H2Pattern pattern = BroadcastH2(H2(h));
    size_t group = H1(h) & group_mask_;
    size_t step = 0;
    size_t cost = 0;
    while (true) {
      ++cost;
      const GroupBits g = LoadGroup(ctrl_ + group * kGroupWidth);
      uint64_t match = MatchByte(g, pattern);
      while (match != 0) {
        ++cost;
        const size_t idx = group * kGroupWidth + MaskSlot(match);
        if (slots_[idx].key == key) return cost;
        match &= match - 1;
      }
      if (MatchEmpty(g) != 0) return cost;
      group = (group + (++step)) & group_mask_;
    }
  }

 private:
  struct Slot {
    uint64_t key;
    V value;
  };
  // The arena carves slots out of raw storage (no per-slot construction, no
  // destructor walk), which the value type must tolerate.
  static_assert(std::is_trivially_copyable_v<V> &&
                    std::is_trivially_destructible_v<V>,
                "FlatHashMap2 requires a trivially copyable value type");
  static_assert(alignof(Slot) <= alignof(std::max_align_t),
                "Slot alignment exceeds what operator new[] guarantees");

  static constexpr size_t kGroupWidth = 16;
  static constexpr uint8_t kEmpty = 0x80;
  static constexpr size_t kMinCapacity = 64;
  /// Tables at or below this slot count are the "small regime": grown 4x
  /// at 1/2 load instead of 2x at 3/4 (see the class comment).
  static constexpr size_t kSmallCapacity = 1024;
  static constexpr size_t kSmallGrowthStep = 512;
  /// clear() walks the journal when size * this < capacity, else memsets
  /// the control array (sequential wipe beats sparse stores once the map
  /// is dense; both are O(size) since size >= capacity / factor there).
  static constexpr size_t kSparseClearFactor = 16;
  static constexpr uint64_t kLsbs = 0x0101010101010101ULL;
  static constexpr uint64_t kMsbs = 0x8080808080808080ULL;
  static constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;

  /// wyhash-style finalizer: one widening multiply, xor-fold of the halves.
  /// The fold is load-bearing: for dense sequential keys the product's high
  /// bits barely move (delta * C stays far below bit 121), so without the
  /// low half folded in, H2 — the top bits — degenerates to a constant and
  /// every occupied slot in a group becomes a false-positive candidate.
  static uint64_t Hash(uint64_t key) {
#ifdef __SIZEOF_INT128__
    const __uint128_t r =
        static_cast<__uint128_t>(key ^ 0x2d358dccaa6c78a5ULL) *
        0x8bb84b93962eacc9ULL;
    return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
#else
    // Portable fallback (no 128-bit type): splitmix finalizer.
    uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
#endif
  }
  // H1 (group selector) is the low bits, H2 (control fragment) the top 7 —
  // disjoint ranges of the mixed hash, and H1 needs no extra shift before
  // the group mask.
  static size_t H1(uint64_t hash) { return static_cast<size_t>(hash); }
  static uint8_t H2(uint64_t hash) { return static_cast<uint8_t>(hash >> 57); }

#if defined(__SSE2__)
  // x86-64 path: one 16-byte group compare is two instructions after the
  // per-probe broadcast (cmpeq, movemask) — this is what makes the metadata
  // scan cheaper than linear slot probing even when everything is in L1. The
  // H2 broadcast is hoisted out of the probe loop by the callers.
  using H2Pattern = __m128i;
  /// A control group's 16 bytes, loaded ONCE per probe step and shared by
  /// the H2-match and empty-mask queries (the probe loops need both; a
  /// per-query reload costs an extra load uop on every step).
  using GroupBits = __m128i;
  /// Load-free broadcast: the byte is smeared across a GP register with one
  /// multiply, moved to xmm, and the low half duplicated — 3 uops, no
  /// memory access. A precomputed 2 KB pattern table is one load instead,
  /// but that load 4K-aliases the insert path's own slot stores for
  /// key-set-dependent table offsets (slot arrays are page-multiples once
  /// maps grow past ~250 entries), and the resulting store-forwarding
  /// stalls cost far more than the 2-uop saving.
  static H2Pattern BroadcastH2(uint8_t byte) {
    const __m128i low =
        _mm_cvtsi64_si128(static_cast<int64_t>(kLsbs * byte));
    return _mm_unpacklo_epi64(low, low);
  }
  static GroupBits LoadGroup(const uint8_t* ctrl) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  }
  /// 16-bit mask (bit i = slot i of the group) of control bytes == pattern.
  static uint64_t MatchByte(GroupBits group, H2Pattern pattern) {
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(group,
                                                               pattern))));
  }
  /// Control bytes with the high bit set are empty (full slots hold 7-bit
  /// fragments), so movemask of the raw group IS the empty mask.
  static uint64_t MatchEmpty(GroupBits group) {
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_movemask_epi8(group)));
  }
#else
  // Portable SWAR fallback: same contract, built from two 8-byte halves.
  using H2Pattern = uint64_t;
  /// A control group's 16 bytes, loaded ONCE per probe step and shared by
  /// the H2-match and empty-mask queries.
  struct GroupBits {
    uint64_t lo, hi;
  };
  static H2Pattern BroadcastH2(uint8_t byte) {
    return kLsbs * static_cast<uint64_t>(byte);
  }
  static uint64_t Load64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static GroupBits LoadGroup(const uint8_t* ctrl) {
    return GroupBits{Load64(ctrl), Load64(ctrl + 8)};
  }
  /// Exact per-byte zero test (no inter-byte carries): high bit of result
  /// byte i is set iff byte i of `v` is zero.
  static uint64_t ZeroBytes(uint64_t v) {
    return ~(((v & kLow7) + kLow7) | v) & kMsbs;
  }
  /// 16-bit mask (bit i = slot i of the group) of control bytes == pattern.
  static uint64_t MatchByte(GroupBits group, H2Pattern pattern) {
    const uint64_t lo = ZeroBytes(group.lo ^ pattern);
    const uint64_t hi = ZeroBytes(group.hi ^ pattern);
    return FoldGroup(lo, hi);
  }
  /// Control bytes with the high bit set are empty (full slots hold 7-bit
  /// fragments); exact because those are the only two encodings.
  static uint64_t MatchEmpty(GroupBits group) {
    return FoldGroup(group.lo & kMsbs, group.hi & kMsbs);
  }
  /// Packs the two per-half byte-high-bit masks into one 16-bit mask (bit i
  /// = slot i of the group), preserving ascending slot order for the
  /// lowest-set-bit walk. The multiply-gather is exact: every partial
  /// product of ((m >> 7) & kLsbs) * kGather lands at a distinct bit, so no
  /// carries can corrupt the output byte.
  static uint64_t FoldGroup(uint64_t lo, uint64_t hi) {
    constexpr uint64_t kGather = 0x0102040810204080ULL;
    const uint64_t lo_bits = (((lo >> 7) & kLsbs) * kGather) >> 56;
    const uint64_t hi_bits = (((hi >> 7) & kLsbs) * kGather) >> 56;
    return lo_bits | (hi_bits << 8);
  }
#endif
  /// Index (0..15) of the lowest set bit of a group mask. Masks fit in 16
  /// bits on both paths; the 32-bit ctz avoids the 64-bit zero-guard +
  /// sign-extension goo GCC emits for ctzll.
  static size_t MaskSlot(uint64_t mask) {
    return static_cast<uint32_t>(__builtin_ctz(static_cast<uint32_t>(mask)));
  }

  V& InsertAt(size_t idx, uint8_t h2, uint64_t key) {
    ctrl_[idx] = h2;
    // clear() leaves slot payloads in place; a reused slot must not
    // resurrect its stale value, so the value is reset alongside the key.
#if defined(__SSE2__)
    if constexpr (std::is_arithmetic_v<V> && sizeof(Slot) == 16) {
      // One 16-byte store covers key + zeroed value (V{} is all-zero bits
      // for arithmetic types; cvtsi64 clears the upper lane). The insert
      // path is store-bound, and every store is also a 4K-alias hazard
      // against the next insert's control-group load.
      _mm_storeu_si128(reinterpret_cast<__m128i*>(&slots_[idx]),
                       _mm_cvtsi64_si128(static_cast<int64_t>(key)));
    } else {
      slots_[idx].key = key;
      slots_[idx].value = V{};
    }
#else
    slots_[idx].key = key;
    slots_[idx].value = V{};
#endif
    // The journal is preallocated to the growth threshold, so recording an
    // insert is one indexed store — no push_back capacity check.
    journal_[size_] = static_cast<uint32_t>(idx);
    ++size_;
    return slots_[idx].value;
  }

  /// Insert for a key known to be absent (post-rehash): probes only for the
  /// first empty slot.
  V& InsertKnownAbsent(uint64_t key) {
    const uint64_t h = Hash(key);
    const size_t idx = FindFirstEmpty(h);
    return InsertAt(idx, H2(h), key);
  }

  static size_t NextCapacity(size_t cap) {
    return cap <= kSmallGrowthStep ? cap * 4 : cap * 2;
  }

  size_t FindFirstEmpty(uint64_t h) const {
    size_t group = H1(h) & group_mask_;
    size_t step = 0;
    while (true) {
      const uint64_t empty = MatchEmpty(LoadGroup(ctrl_ + group * kGroupWidth));
      if (empty != 0) return group * kGroupWidth + MaskSlot(empty);
      group = (group + (++step)) & group_mask_;
    }
  }

  /// Two blocks per table: the slot array alone, and [journal | ctrl]
  /// fused. Fusing the two small arrays halves allocator traffic on a
  /// growth chain; the slot array stays SEPARATE deliberately, so its
  /// allocation is exactly capacity * sizeof(Slot). (Fused, the big block
  /// crosses glibc's dynamic-mmap-threshold ceiling several doublings
  /// earlier, and past it every fresh build pays ~10k page faults — the
  /// microbench measured that as an insert regression at the 1e6 cell.)
  /// The journal leads the aux
  /// block (uint32_t alignment), the byte-granular control array trails.
  /// Only the control bytes are initialized — slot payloads are written
  /// before they are ever read, and the journal's live prefix is exactly
  /// [0, size_).
  void Allocate(size_t cap) {
    capacity_ = cap;
    group_mask_ = cap / kGroupWidth - 1;
    // Grow when the NEXT insert would exceed the regime's load limit —
    // precomputed so the insert path's growth check is one compare. The
    // large regime grows at 3/4 load: pushing it to the SwissTable-classic
    // 7/8 would save memory but do ~17% more total
    // rehash moves over a growth chain, and bulk insert at DRAM-resident
    // sizes is rehash-bound.
    growth_threshold_ = cap <= kSmallCapacity ? cap / 2 : cap / 4 * 3;
    // At most growth_threshold_ entries fit before a rehash, so sizing the
    // journal once here lets inserts record slots with a plain store.
    const size_t journal_bytes = growth_threshold_ * sizeof(uint32_t);
    slot_arena_.reset(new char[cap * sizeof(Slot)]);
    aux_arena_.reset(new char[journal_bytes + cap]);
    slots_ = reinterpret_cast<Slot*>(slot_arena_.get());
    journal_ = reinterpret_cast<uint32_t*>(aux_arena_.get());
    ctrl_ = reinterpret_cast<uint8_t*>(aux_arena_.get() + journal_bytes);
    std::memset(ctrl_, kEmpty, cap);
    size_ = 0;
  }

  /// Rehashes into `cap` slots by replaying the journal, which preserves
  /// insertion order across growth (ForEach order never changes).
  void Rehash(size_t cap) {
    PRSIM_CHECK(cap <= kMaxMapCapacity)
        << "FlatHashMap2: growth beyond the " << kMaxMapCapacity
        << "-slot limit";
    const std::unique_ptr<char[]> old_slot_arena = std::move(slot_arena_);
    const std::unique_ptr<char[]> old_aux_arena = std::move(aux_arena_);
    const Slot* old_slots = slots_;
    const uint32_t* old_journal = journal_;
    const size_t old_size = size_;
    Allocate(cap);
    // The replay reads old slots in journal (insertion) order — random
    // within the old table, and DRAM-bound once tables outgrow the cache.
    // Unlike a hash-ordered probe, the journal names the access sequence in
    // advance, so prefetching a fixed distance ahead hides that latency.
    // Two-stage pipeline: fetch the old slot well ahead, then — once it has
    // arrived — rehash its key early to fetch the destination group's
    // control line (recomputing the hash at insert time costs a few ALU
    // uops; the miss it hides costs a DRAM round trip).
    constexpr size_t kPrefetchAhead = 16;
    for (size_t i = 0; i < old_size; ++i) {
      if (i + kPrefetchAhead < old_size) {
        __builtin_prefetch(&old_slots[old_journal[i + kPrefetchAhead]]);
      }
      if (i + kPrefetchAhead / 2 < old_size) {
        const uint64_t ahead =
            Hash(old_slots[old_journal[i + kPrefetchAhead / 2]].key);
        const size_t g = H1(ahead) & group_mask_;
        // Write-hint (rw=1) prefetches: both the control byte and the
        // destination slot are STORED to, and fetching the lines exclusive
        // up front spares the RFO upgrade a read-prefetch would leave for
        // the store to pay. The group's 16 slots span 4 cache lines; two
        // cover the low 8 slots, where the first empty lands while the
        // table is still filling.
        __builtin_prefetch(ctrl_ + g * kGroupWidth, 1);
        __builtin_prefetch(&slots_[g * kGroupWidth], 1);
        __builtin_prefetch(&slots_[g * kGroupWidth + kGroupWidth / 4], 1);
      }
      const Slot& slot = old_slots[old_journal[i]];
      const uint64_t h = Hash(slot.key);
      const size_t idx = FindFirstEmpty(h);
      ctrl_[idx] = H2(h);
      slots_[idx] = slot;
      journal_[size_] = static_cast<uint32_t>(idx);
      ++size_;
    }
  }

  void StealFrom(FlatHashMap2& other) noexcept {
    slot_arena_ = std::move(other.slot_arena_);
    aux_arena_ = std::move(other.aux_arena_);
    ctrl_ = other.ctrl_;
    slots_ = other.slots_;
    journal_ = other.journal_;
    capacity_ = other.capacity_;
    group_mask_ = other.group_mask_;
    growth_threshold_ = other.growth_threshold_;
    size_ = other.size_;
    other.ctrl_ = nullptr;
    other.slots_ = nullptr;
    other.journal_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
  }

  std::unique_ptr<char[]> slot_arena_;  ///< slot array
  std::unique_ptr<char[]> aux_arena_;   ///< [journal | ctrl], fused
  uint8_t* ctrl_ = nullptr;        ///< 1 byte per slot: kEmpty or 7-bit H2
  Slot* slots_ = nullptr;          ///< payload; valid only where ctrl is full
  uint32_t* journal_ = nullptr;    ///< occupied slot indices, insertion order
  size_t capacity_ = 0;            ///< total slots, a power of two >= 16
  size_t group_mask_ = 0;          ///< (capacity / 16) - 1
  size_t growth_threshold_ = 0;    ///< rehash when size_ would exceed this
  size_t size_ = 0;
};

/// Maximum packable level (exclusive): levels occupy bits 32..55 only, so a
/// packed key always has its top byte clear.
inline constexpr uint32_t kPackNodeLevelCap = 1u << 24;

/// Packs a (node, level) pair into one map key. Levels are capped at 2^24,
/// enforced below (sqrt(c)-walk depths are geometric; level 64 already has
/// probability < 1e-7 for c = 0.8, so real levels sit far under the cap).
inline uint64_t PackNodeLevel(uint32_t node, uint32_t level) {
  PRSIM_DCHECK_LT(level, kPackNodeLevelCap);
  return (static_cast<uint64_t>(level) << 32) | node;
}
inline uint32_t UnpackNode(uint64_t key) {
  return static_cast<uint32_t>(key & 0xffffffffULL);
}
inline uint32_t UnpackLevel(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}

}  // namespace prsim

#endif  // PRSIM_UTIL_FLAT_HASH_MAP2_H_
