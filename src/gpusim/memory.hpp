// Simulated device memory.
//
// Two address-space models reproduce the paper's Section II.A cause (a) for
// the GPU-vs-CPU sensitivity gap:
//
//  * FlatGpu — one contiguous word arena with *no page-granularity
//    protection*: allocations are packed from address 0 and any address
//    below the high-water mark is accessible.  A corrupted pointer therefore
//    usually still lands in valid memory and silently reads/writes the wrong
//    data (high SDC, low crash), exactly as on real GPUs of the paper's era.
//
//  * PagedCpu — allocations are placed on sparse 4 KiB-aligned bases with
//    large unmapped gaps, and every access must fall inside a live
//    allocation.  A corrupted pointer usually hits unmapped space and
//    "segfaults" (high crash, low SDC), as on CPUs.
//
// Addresses are 32-bit *word* indices (each word is 32 bits), matching the
// IR's PTR values.
//
// Protected mode (gpusim/ecc.hpp) layers a hardware-ECC model on top of
// either address space: every aligned pair of arena words carries one shadow
// check byte of a (72,64) SEC-DED code.  Stores re-encode their pair — so a
// datapath fault that reaches memory through a store is, correctly,
// invisible to ECC — while SWIFI's corrupt_word()/corrupt_check() flip
// stored bits *without* re-encoding, modeling a memory-cell upset.  Every
// device-side read EDC-checks its pair: a single-bit error is corrected,
// scrubbed back to the array and counted; a double-bit error fails the
// access with the uncorrectable flag raised (the device turns that into
// LaunchStatus::EccUncorrectable, the machine-check analog).  Protected
// mode also empties flat_arena(), which routes the threaded engine's raw
// flat-arena accesses through load()/store() — one hook point, every
// engine, bitwise-identical observables.
//
// Under protection the memory also keeps its *latent pairs*: a conservative
// list of the pairs an injected upset may still sit in, because no access
// has corrected (scrubbed) it yet.  Segment replay (DESIGN §10) reads it to
// tell which journal segments a planted upset cannot have reached, and
// applies those through flat_words() and reencode_pair(); a replay that
// cannot differ from its golden run at all asks decode_pair() what the
// first access to each latent pair it touches would read, and scrub_pair()s
// them.  Unprotected memory needs no list, since a struck word differs from
// its golden value.
//
// Both arenas (words and check bytes) live on ZeroPages: a device costs the
// pages its trials touch, not its capacity, and wiping a large dirty range
// hands its whole pages back to the kernel instead of writing zeros.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "gpusim/ecc.hpp"

namespace hauberk::gpusim {

enum class MemoryModel { FlatGpu, PagedCpu };

/// Classification of one allocation, for the Fig. 2 footprint accounting.
enum class AllocClass : std::uint8_t { F32Data, I32Data, PtrData, Other };

/// A fixed-size, zero-filled byte arena on a private anonymous mapping.
/// Construction is O(1): the kernel supplies zero pages on first touch, so
/// nothing is written up front and untouched pages cost no resident memory.
/// zero() is the one way to clear a range: below kReleaseBytes it memsets;
/// from kReleaseBytes up it memsets the page-unaligned edges and returns the
/// whole pages in between with madvise(MADV_DONTNEED), after which they read
/// as zero again and leave the resident set (Linux; a failed madvise, or any
/// other platform, falls back to memset).  Move-only: one owner unmaps.
class ZeroPages {
 public:
  /// Ranges at least this long are released page-wise instead of memset.
  static constexpr std::size_t kReleaseBytes = std::size_t{64} << 10;

  ZeroPages() noexcept = default;
  /// Maps `bytes` zero bytes (none for 0); throws std::bad_alloc on failure.
  explicit ZeroPages(std::size_t bytes);
  ~ZeroPages();
  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  /// The arena as an array of trivial `T` (valid until this object dies).
  template <class T>
  [[nodiscard]] std::span<T> view() noexcept {
    return {static_cast<T*>(base_), bytes_ / sizeof(T)};
  }
  /// Zero bytes [from, to); `to` is clamped to the arena size.
  void zero(std::size_t from, std::size_t to) noexcept;

 private:
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
};

class DeviceMemory {
 public:
  /// `capacity_words` is rounded up to whole codeword pairs; a capacity that
  /// rounds to zero (0, or UINT32_MAX, which wraps) throws
  /// std::invalid_argument.
  explicit DeviceMemory(MemoryModel model = MemoryModel::FlatGpu,
                        std::uint32_t capacity_words = 16u << 20,
                        ecc::Scheme protection = ecc::Scheme::None);

  /// Allocate `words` 32-bit words; returns the base word address.
  /// Throws std::bad_alloc on exhaustion.
  std::uint32_t alloc(std::uint32_t words, AllocClass cls = AllocClass::Other);

  /// Release all allocations (arena reset between program runs).
  void reset();

  /// Raw access used by host-side code (always bounds-checked, throws).
  void copy_in(std::uint32_t addr, std::span<const std::uint32_t> data);
  void copy_out(std::uint32_t addr, std::span<std::uint32_t> out) const;

  /// Device-side access used by the interpreter: returns false on an invalid
  /// address (the GPU kernel crash / CPU segfault signal) or an uncorrectable
  /// ECC error (see last_fault_uncorrectable()) instead of throwing, keeping
  /// the interpreter hot path exception-free.
  [[nodiscard]] bool load(std::uint32_t addr, std::uint32_t& out) const noexcept {
    if (!valid(addr)) return fail_oob();
    const std::uint32_t idx = index_of(addr);
    if (protection_ == ecc::Scheme::None) {
      out = words_[idx];
      return true;
    }
    return load_checked(idx, out);
  }
  [[nodiscard]] bool store(std::uint32_t addr, std::uint32_t value) noexcept {
    if (!valid(addr)) return fail_oob();
    const std::uint32_t idx = index_of(addr);
    if (protection_ == ecc::Scheme::None) {
      words_[idx] = value;
      note_store(idx);
      return true;
    }
    return store_checked(idx, value);
  }
  /// Read-modify-write for AtomicAddG (callers hold the device's atomic
  /// mutex): `f` maps the current word value to the new one.  Under
  /// protection the read is EDC-checked/corrected and the write re-encodes
  /// the pair; returns false on an invalid address or an uncorrectable
  /// error, exactly like load()/store().
  template <class F>
  [[nodiscard]] bool rmw(std::uint32_t addr, F&& f) noexcept {
    if (!valid(addr)) return fail_oob();
    const std::uint32_t idx = index_of(addr);
    if (protection_ == ecc::Scheme::None) {
      words_[idx] = f(words_[idx]);
      note_store(idx);
      return true;
    }
    std::uint32_t cur;
    if (!load_checked(idx, cur)) return false;
    return store_checked(idx, f(cur));
  }

  /// Record that physical word `idx` may now differ from zero.  Interpreter
  /// engines that store through the flat_arena() span (bypassing store())
  /// must call this with the store address so restore_trial() knows how far
  /// a faulty launch scribbled.  The common case — a store below the current
  /// high water — is one relaxed load and a predictable branch; the CAS loop
  /// only runs when the watermark actually grows (stray stores are rare).
  void note_store(std::uint32_t idx) noexcept {
    std::uint32_t cur = dirty_hi_.load(std::memory_order_relaxed);
    while (idx >= cur &&
           !dirty_hi_.compare_exchange_weak(cur, idx + 1, std::memory_order_relaxed)) {
    }
  }

  /// One past the highest physical word that may be nonzero: every word at
  /// or above it is zero.  Read it only between launches or from a
  /// single-worker launch.
  [[nodiscard]] std::uint32_t store_watermark() const noexcept {
    return dirty_hi_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool valid(std::uint32_t addr) const noexcept;

  /// Fast-path view for the threaded interpreter: when the model uses flat
  /// addressing (FlatGpu: addr == storage index, valid() == addr < capacity)
  /// the whole physical arena, so loads/stores reduce to one bounds compare
  /// and one indexed access.  Empty for PagedCpu, whose extent lookup has no
  /// such shortcut, and in protected mode, where every access must pass the
  /// EDC check — callers must fall back to load()/store().
  [[nodiscard]] std::span<std::uint32_t> flat_arena() noexcept {
    return model_ == MemoryModel::FlatGpu && protection_ == ecc::Scheme::None
               ? flat_words()
               : std::span<std::uint32_t>{};
  }
  /// The FlatGpu word arena whatever the protection (empty for PagedCpu):
  /// raw words, no EDC check.  For segment replay only, which compares and
  /// writes words outside the latent pairs and re-encodes what it writes.
  [[nodiscard]] std::span<std::uint32_t> flat_words() noexcept {
    return model_ == MemoryModel::FlatGpu ? std::span<std::uint32_t>(words_)
                                          : std::span<std::uint32_t>{};
  }
  /// Re-encode the check byte of pair `pair` from its words (no-op when
  /// unprotected): what store() does after a raw write through flat_words().
  void reencode_pair(std::uint32_t pair) noexcept {
    if (protection_ == ecc::Scheme::None) return;
    check_[pair] = ecc::encode(*code_, pair_data(pair));
  }
  /// Pair `pair` as its first checked access would find it (protected
  /// memory only): its data after any correction, or bit == kUncorrectable.
  /// Nothing is scrubbed.
  [[nodiscard]] ecc::Decoded decode_pair(std::uint32_t pair) const noexcept {
    return ecc::decode(*code_, pair_data(pair), check_[pair]);
  }
  /// Scrub pair `pair` as its first checked access would (protected memory
  /// only): nothing when its syndrome is zero, else a single-bit error is
  /// corrected, written back, counted once and leaves latent_pairs(); an
  /// uncorrectable pair is left as is and returns false.
  bool scrub_pair(std::uint32_t pair) noexcept {
    return ecc::encode(*code_, pair_data(pair)) == check_[pair] || repair_pair(pair);
  }
  /// Pairs that may hold an injected upset no access has scrubbed yet, in
  /// no particular order (always empty when unprotected).  A superset:
  /// corrupt_word() and corrupt_check() add their pair, a repair removes
  /// it, and reset(), restore() and restore_trial() clear what they
  /// rewrite.  Not synchronized: read it only between launches or from a
  /// single-worker launch.
  [[nodiscard]] std::span<const std::uint32_t> latent_pairs() const noexcept {
    return latent_;
  }

  /// Checkpoint support (CheCUDA-style, Section VI(i)): snapshot the live
  /// portion of the arena and restore it later.  Allocation metadata is not
  /// part of the image; callers snapshot and restore around launches of the
  /// same program, where the allocation layout is unchanged.
  [[nodiscard]] std::vector<std::uint32_t> image() const {
    return {words_.begin(), words_.begin() + used_};
  }
  /// Shadow check bytes over the live arena prefix (pair-granular; empty
  /// when unprotected).  TrialStage snapshots this next to image() so
  /// restore_trial() can put the check arena back bitwise instead of
  /// re-encoding it.
  [[nodiscard]] std::vector<std::uint8_t> check_image() const {
    if (protection_ == ecc::Scheme::None) return {};
    return {check_.begin(), check_.begin() + static_cast<long>(check_prefix(used_))};
  }
  void restore(std::span<const std::uint32_t> img) {
    const std::size_t n = img.size() < used_ ? img.size() : used_;
    std::copy(img.begin(), img.begin() + static_cast<long>(n), words_.begin());
    if (n > 0) note_store(static_cast<std::uint32_t>(n - 1));
    // The restored image is taken as ground truth: re-encode its check
    // bytes.  Raw fault injection (corrupt_word / corrupt_check) happens
    // *after* the restore, so the codeword actually disagrees with the data.
    reencode_prefix(n);
    std::erase_if(latent_, [&](std::uint32_t p) { return p < check_prefix(n); });
  }
  /// Exact equivalent of reset() + re-allocation + re-upload for a layout
  /// that has not changed between launches: restore the staged prefix and
  /// clear the words above it up to the store high-water mark.  The clear
  /// matters on FlatGpu, where there is no page protection and a faulty
  /// launch may have scribbled physical words that were never allocated;
  /// reset() would have zeroed those too.  The watermark bounds the range
  /// and ZeroPages::zero() bounds the work: a stray store near the arena
  /// top costs the pages it touched, not the words below it.  `check_img`
  /// (from check_image(), empty when unprotected) restores the shadow check
  /// arena the same way: staged prefix copied back, dirty tail zeroed (the
  /// zero word encodes to a zero check byte under both linear codes).
  void restore_trial(std::span<const std::uint32_t> img,
                     std::span<const std::uint8_t> check_img = {}) {
    const std::size_t n = img.size() < words_.size() ? img.size() : words_.size();
    const std::size_t hi = dirty_hi_.load(std::memory_order_relaxed);
    std::copy(img.begin(), img.begin() + static_cast<long>(n), words_.begin());
    zero_word_tail(n, hi);
    if (protection_ != ecc::Scheme::None) {
      const std::size_t cn = check_prefix(n);
      if (check_img.size() >= cn) {
        std::copy(check_img.begin(), check_img.begin() + static_cast<long>(cn),
                  check_.begin());
      } else {
        // No staged check image (caller predates protection): fall back to
        // re-encoding, which is bitwise what a fresh stage would hold.
        reencode_prefix(n);
      }
      zero_check_tail(n, hi);
    }
    // Every upset notes its word, so the prefix copy and the tail wipe
    // rewrote every pair one could sit in.
    latent_.clear();
    dirty_hi_.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  }

  /// SWIFI memory-cell fault injection: XOR a mask into a stored data word
  /// (physical index, as used by image()) or into the check byte of the
  /// word's pair, *without* re-encoding — the codeword is left disagreeing
  /// with itself exactly as a particle strike would leave a DRAM row.
  /// Under protection the pair joins latent_pairs().
  void corrupt_word(std::uint32_t idx, std::uint32_t mask) {
    if (idx >= words_.size() || mask == 0) return;
    words_[idx] ^= mask;
    note_store(idx);
    if (protection_ != ecc::Scheme::None) note_latent(idx / 2);
  }
  void corrupt_check(std::uint32_t idx, std::uint8_t mask) {
    if (protection_ == ecc::Scheme::None || idx >= words_.size()) return;
    check_[idx / 2] ^= mask;
    // Like every write path: reset() and restore_trial() must clear the
    // flipped byte, or it outlives the trial and the next job on this
    // device corrects (and counts) an upset it never had.
    note_store(idx);
    note_latent(idx / 2);
  }

  [[nodiscard]] MemoryModel model() const noexcept { return model_; }
  [[nodiscard]] ecc::Scheme protection() const noexcept { return protection_; }
  [[nodiscard]] std::uint32_t used_words() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t allocated_bytes(AllocClass cls) const noexcept {
    return 4ull * class_words_[static_cast<int>(cls)];
  }

  /// Single-bit errors corrected (and scrubbed) since construction.  Each
  /// corrupted pair is counted exactly once — the scrub runs under a mutex
  /// with the syndrome re-checked, so concurrent readers of the same bad
  /// pair cannot double-count and the total is schedule-independent.
  [[nodiscard]] std::uint64_t ecc_corrected() const noexcept {
    return ecc_corrected_.load(std::memory_order_relaxed);
  }
  /// Uncorrectable (double-bit) errors detected since construction.
  [[nodiscard]] std::uint64_t ecc_uncorrectable() const noexcept {
    return ecc_uncorrectable_.load(std::memory_order_relaxed);
  }

  /// Whether this thread's most recent failed load/store/rmw failed because
  /// of an uncorrectable ECC error (true) or an invalid address (false).
  /// Thread-local, so concurrent engine workers cannot smear each other's
  /// crash causes.
  [[nodiscard]] static bool last_fault_uncorrectable() noexcept { return tl_ecc_fault_; }

 private:
  struct Extent {
    std::uint32_t base;
    std::uint32_t size;
  };

  [[nodiscard]] std::uint32_t index_of(std::uint32_t addr) const noexcept;

  /// Check bytes covering word prefix [0, n): pairs are word-aligned, so a
  /// prefix of n words spans ceil(n/2) check bytes.
  [[nodiscard]] static std::size_t check_prefix(std::size_t n) noexcept {
    return (n + 1) / 2;
  }

  static bool fail_oob() noexcept {
    tl_ecc_fault_ = false;
    return false;
  }

  /// The 64 data bits of pair `p`.
  [[nodiscard]] std::uint64_t pair_data(std::uint32_t p) const noexcept {
    return static_cast<std::uint64_t>(words_[2 * p]) |
           (static_cast<std::uint64_t>(words_[2 * p + 1]) << 32);
  }

  [[nodiscard]] bool load_checked(std::uint32_t idx, std::uint32_t& out) const noexcept {
    const std::uint32_t p = idx / 2;
    if (ecc::encode(*code_, pair_data(p)) == check_[p]) {
      out = words_[idx];
      return true;
    }
    return repair_and_load(idx, out);
  }
  [[nodiscard]] bool store_checked(std::uint32_t idx, std::uint32_t value) noexcept;
  /// Cold path: correct + scrub a pair whose syndrome is nonzero, or raise
  /// the uncorrectable flag.  Out-of-line; serialized so a pair is counted
  /// (and scrubbed) exactly once no matter how many threads race on it.
  bool repair_and_load(std::uint32_t idx, std::uint32_t& out) const noexcept;
  [[nodiscard]] bool repair_pair(std::uint32_t pair) noexcept;
  void note_latent(std::uint32_t pair) {
    if (std::find(latent_.begin(), latent_.end(), pair) == latent_.end())
      latent_.push_back(pair);
  }

  void reencode_prefix(std::size_t n) noexcept;
  /// Zero words [n, hi), resp. the check bytes of their pairs: the tail
  /// above a staged prefix of n words, up to the watermark hi (clamped to
  /// the arena).  Both go through ZeroPages::zero().
  void zero_word_tail(std::size_t n, std::size_t hi) noexcept;
  void zero_check_tail(std::size_t n, std::size_t hi) noexcept;

  MemoryModel model_;
  ecc::Scheme protection_;
  const ecc::Code* code_ = nullptr;  ///< tables when protected, else nullptr
  std::uint32_t capacity_;
  /// Word arena: `words_` views `word_pages_`.  Invariant: every word at or
  /// above dirty_hi_ is zero — true from construction (zero pages) on.
  ZeroPages word_pages_;
  std::span<std::uint32_t> words_;
  /// Shadow check-bit arena: one byte per aligned pair of words (empty when
  /// unprotected), mapped like the word arena.  Invariant outside injected
  /// faults: check_[p] == encode(words_[2p] | words_[2p+1] << 32); the
  /// all-zero arena satisfies it for free because the codes are linear.
  ZeroPages check_pages_;
  std::span<std::uint8_t> check_;
  std::uint32_t used_ = 0;           // FlatGpu high-water mark / PagedCpu storage cursor
  std::uint32_t next_base_ = 0;      // PagedCpu virtual placement cursor
  std::vector<Extent> extents_;      // PagedCpu live allocations (sorted by base)
  std::vector<std::uint32_t> extent_storage_;  // PagedCpu: storage offset per extent
  std::uint64_t class_words_[4] = {0, 0, 0, 0};
  /// One past the highest physical word that may be nonzero (atomic: engine
  /// worker threads note stores concurrently; relaxed order is enough since
  /// restore_trial only runs between launches, after the pool joined).
  std::atomic<std::uint32_t> dirty_hi_{0};
  /// See latent_pairs(); repair_pair() edits it under scrub_mutex_.
  std::vector<std::uint32_t> latent_;
  /// Scrub serialization + deterministic correction counting (cold path).
  mutable std::mutex scrub_mutex_;
  mutable std::atomic<std::uint64_t> ecc_corrected_{0};
  mutable std::atomic<std::uint64_t> ecc_uncorrectable_{0};
  static thread_local bool tl_ecc_fault_;
};

}  // namespace hauberk::gpusim
