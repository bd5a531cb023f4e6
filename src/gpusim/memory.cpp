#include "gpusim/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

namespace hauberk::gpusim {

namespace {
/// PagedCpu placement: 4 KiB pages (1024 words) with a large gap between
/// allocations so that bit-flipped addresses rarely stay inside a mapping.
constexpr std::uint32_t kPageWords = 1024;
constexpr std::uint32_t kGapWords = 257 * kPageWords;  // prime-ish page stride

/// Codewords span aligned pairs of words; keep the arena pair-complete.
std::uint32_t pair_capacity(std::uint32_t words) {
  const std::uint32_t rounded = words + (words & 1u);  // UINT32_MAX wraps to 0
  if (rounded == 0)
    throw std::invalid_argument("DeviceMemory: capacity must be 1..UINT32_MAX-1 words");
  return rounded;
}
}  // namespace

ZeroPages::ZeroPages(std::size_t bytes) {
  if (bytes == 0) return;
  // MAP_NORESERVE: the arena is mostly never touched, so do not charge its
  // full size against the commit limit.
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = p;
  bytes_ = bytes;
}

ZeroPages::~ZeroPages() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)), bytes_(std::exchange(other.bytes_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  std::swap(base_, other.base_);
  std::swap(bytes_, other.bytes_);
  return *this;
}

void ZeroPages::zero(std::size_t from, std::size_t to) noexcept {
  to = std::min(to, bytes_);
  if (from >= to) return;
  auto* const p = static_cast<unsigned char*>(base_);
#if defined(__linux__)
  // Linux guarantees that a private anonymous page dropped by MADV_DONTNEED
  // reads back zero-filled; other systems only promise "may be discarded".
  if (to - from >= kReleaseBytes) {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t lo = (from + page - 1) / page * page;  // base_ is page-aligned
    const std::size_t hi = to / page * page;
    if (lo < hi && ::madvise(p + lo, hi - lo, MADV_DONTNEED) == 0) {
      std::memset(p + from, 0, lo - from);
      std::memset(p + hi, 0, to - hi);
      return;
    }
  }
#endif
  std::memset(p + from, 0, to - from);
}

thread_local bool DeviceMemory::tl_ecc_fault_ = false;

DeviceMemory::DeviceMemory(MemoryModel model, std::uint32_t capacity_words,
                           ecc::Scheme protection)
    : model_(model),
      protection_(protection),
      capacity_(pair_capacity(capacity_words)),
      word_pages_(std::size_t{capacity_} * sizeof(std::uint32_t)),
      words_(word_pages_.view<std::uint32_t>()) {
  if (protection_ != ecc::Scheme::None) {
    code_ = &ecc::code(protection_);
    check_pages_ = ZeroPages(capacity_ / 2);  // zero data encodes to zero check bits
    check_ = check_pages_.view<std::uint8_t>();
  }
  // Start CPU placements away from address 0 so null-ish pointers fault.
  next_base_ = model_ == MemoryModel::PagedCpu ? 16 * kPageWords : 0;
}

void DeviceMemory::reset() {
  used_ = 0;
  next_base_ = model_ == MemoryModel::PagedCpu ? 16 * kPageWords : 0;
  extents_.clear();
  extent_storage_.clear();
  // Words above the store high-water mark are zero by invariant (every write
  // path notes its physical index), so the wipe only has to cover the dirty
  // prefix — O(touched), not O(capacity).
  const std::size_t hi = dirty_hi_.load(std::memory_order_relaxed);
  zero_word_tail(0, hi);
  zero_check_tail(0, hi);
  for (auto& c : class_words_) c = 0;
  latent_.clear();
  dirty_hi_.store(0, std::memory_order_relaxed);
}

std::uint32_t DeviceMemory::alloc(std::uint32_t words, AllocClass cls) {
  if (words == 0) words = 1;
  class_words_[static_cast<int>(cls)] += words;
  if (model_ == MemoryModel::FlatGpu) {
    if (used_ + words > capacity_) throw std::bad_alloc();
    const std::uint32_t base = used_;
    used_ += words;
    return base;
  }
  // PagedCpu: virtual base on a page boundary with a gap; storage is packed.
  if (used_ + words > capacity_) throw std::bad_alloc();
  const std::uint32_t pages = (words + kPageWords - 1) / kPageWords;
  const std::uint32_t base = next_base_;
  next_base_ += pages * kPageWords + kGapWords;
  extents_.push_back({base, words});
  extent_storage_.push_back(used_);
  used_ += words;
  return base;
}

bool DeviceMemory::valid(std::uint32_t addr) const noexcept {
  // FlatGpu: *no* page protection — the whole physical arena is accessible
  // whether or not it was allocated (Section II.A cause (a)); only addresses
  // beyond physical memory fault.
  if (model_ == MemoryModel::FlatGpu) return addr < capacity_;
  // Binary search the sorted extents (bases are strictly increasing).
  auto it = std::upper_bound(extents_.begin(), extents_.end(), addr,
                             [](std::uint32_t a, const Extent& e) { return a < e.base; });
  if (it == extents_.begin()) return false;
  --it;
  return addr - it->base < it->size;
}

std::uint32_t DeviceMemory::index_of(std::uint32_t addr) const noexcept {
  if (model_ == MemoryModel::FlatGpu) return addr;
  auto it = std::upper_bound(extents_.begin(), extents_.end(), addr,
                             [](std::uint32_t a, const Extent& e) { return a < e.base; });
  --it;
  return extent_storage_[static_cast<std::size_t>(it - extents_.begin())] + (addr - it->base);
}

void DeviceMemory::copy_in(std::uint32_t addr, std::span<const std::uint32_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!store(addr + static_cast<std::uint32_t>(i), data[i]))
      throw std::out_of_range("DeviceMemory::copy_in: invalid address");
  }
}

void DeviceMemory::copy_out(std::uint32_t addr, std::span<std::uint32_t> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!load(addr + static_cast<std::uint32_t>(i), out[i]))
      throw std::out_of_range("DeviceMemory::copy_out: invalid address");
  }
}

bool DeviceMemory::store_checked(std::uint32_t idx, std::uint32_t value) noexcept {
  // A partial (32-bit) write is a read-modify-write of the 64-bit codeword,
  // exactly as in ECC DRAM: the sibling word is EDC-checked first — a latent
  // single-bit error gets corrected (and counted) rather than being silently
  // laundered into the freshly encoded pair, and an uncorrectable pair fails
  // the store.  The new pair is then re-encoded, which is why datapath
  // faults that arrive here through a store are invisible to the code.
  const std::uint32_t p = idx / 2;
  if (!scrub_pair(p)) return false;
  words_[idx] = value;
  check_[p] = ecc::encode(*code_, pair_data(p));
  note_store(idx);
  return true;
}

bool DeviceMemory::repair_and_load(std::uint32_t idx, std::uint32_t& out) const noexcept {
  // Scrubbing mutates the arena from a logically-const read path; the
  // corrected value is the canonical content, so observable state only moves
  // *toward* the clean codeword.
  auto& self = const_cast<DeviceMemory&>(*this);
  if (!self.repair_pair(idx / 2)) return false;
  out = words_[idx];
  return true;
}

bool DeviceMemory::repair_pair(std::uint32_t pair) noexcept {
  std::lock_guard<std::mutex> lock(scrub_mutex_);
  const auto dec = decode_pair(pair);
  if (dec.bit != ecc::kUncorrectable) std::erase(latent_, pair);
  if (dec.bit == ecc::kNoError) return true;  // another thread scrubbed it first
  if (dec.bit == ecc::kUncorrectable) {
    ecc_uncorrectable_.fetch_add(1, std::memory_order_relaxed);
    tl_ecc_fault_ = true;
    return false;
  }
  words_[2 * pair] = static_cast<std::uint32_t>(dec.data);
  words_[2 * pair + 1] = static_cast<std::uint32_t>(dec.data >> 32);
  check_[pair] = dec.check;
  ecc_corrected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DeviceMemory::reencode_prefix(std::size_t n) noexcept {
  if (protection_ == ecc::Scheme::None) return;
  const std::size_t pairs = check_prefix(n);
  for (std::size_t p = 0; p < pairs; ++p) reencode_pair(static_cast<std::uint32_t>(p));
}

void DeviceMemory::zero_word_tail(std::size_t n, std::size_t hi) noexcept {
  word_pages_.zero(n * sizeof(std::uint32_t), hi * sizeof(std::uint32_t));
}

void DeviceMemory::zero_check_tail(std::size_t n, std::size_t hi) noexcept {
  if (protection_ == ecc::Scheme::None) return;
  check_pages_.zero(check_prefix(n), check_prefix(hi));
}

}  // namespace hauberk::gpusim
