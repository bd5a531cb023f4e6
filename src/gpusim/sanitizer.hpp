// Shared-memory sanitizer shadow state (Device::set_sanitize), the
// simulator's cuda-memcheck/racecheck analog.
//
// Per shared-memory word the shadow tracks the last writer and last reader
// (block-local thread index, barrier epoch, pc) and reports hazards between
// accesses that are not ordered by a __syncthreads epoch:
//
//  * WriteWrite  — two threads wrote the same word in one epoch;
//  * ReadWrite   — a read and a write of the same word in one epoch
//                  (either order: read-after-write or write-after-read);
//  * BarrierDivergence — threads of one block released from *different*
//                  barrier sites, or some exited while peers wait (the
//                  sanitized view of CrashBarrierDeadlock);
//  * SharedOutOfBounds — a shared access past the block's allocation
//                  (also a crash, reported with the faulting address);
//  * UninitSharedRead — a read of a word no thread has written.
//
// Warp-synchronous filtering: hazards between threads of the *same warp*
// are suppressed.  The modeled part is GT200-class (pre-Volta), where a
// warp executes in lockstep and the era's idiomatic kernels exploit that —
// TPACF's sub-histogram write-retry loop races within a warp on purpose.
// Historical racecheck applied the same filter for the same reason.
// Barrier divergence, out-of-bounds and uninitialized reads are never
// warp-filtered (lockstep does not excuse any of them).
//
// Determinism: threads of a block run serialized (round-robin to the next
// barrier), so shadow updates and report emission happen in a fixed order.
// Reports are deduplicated per (kind, pc, other_pc) — a racy store inside a
// loop yields one report, not thousands — and capped per block; the device
// concatenates per-block vectors in block order, so the report stream is
// bitwise identical across launch worker counts (for crash-free launches,
// the same contract every other observable has).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace hauberk::gpusim {

enum class HazardKind : std::uint8_t {
  WriteWrite,
  ReadWrite,
  BarrierDivergence,
  SharedOutOfBounds,
  UninitSharedRead,
};

[[nodiscard]] const char* hazard_kind_name(HazardKind k) noexcept;

/// One structured sanitizer finding.  `pc`/`thread` identify the access that
/// exposed the hazard; `other_pc`/`other_thread` the earlier conflicting
/// access (kNoPc/kNoThread when there is none, e.g. uninitialized reads, or
/// exit-divergence where the peer left the kernel rather than a barrier).
struct SanitizerReport {
  static constexpr std::uint32_t kNoPc = 0xffffffffu;
  static constexpr std::uint32_t kNoThread = 0xffffffffu;

  HazardKind kind = HazardKind::WriteWrite;
  std::uint32_t block = 0;      ///< linear block id
  std::uint32_t pc = 0;         ///< instruction of the detecting access
  std::uint32_t other_pc = kNoPc;
  std::uint32_t site = 0;       ///< dense sanitizer site id of `pc` (kir::kNoSite when unknown)
  std::uint32_t thread = 0;     ///< block-local thread index of the detecting access
  std::uint32_t other_thread = kNoThread;
  std::uint32_t addr = 0;       ///< shared word index (0 for barrier divergence)
  std::uint32_t epoch = 0;      ///< barrier epoch in which the hazard fired

  friend bool operator==(const SanitizerReport&, const SanitizerReport&) = default;
};

/// One-line human-readable rendering (tests, report sinks, CLI dumps).
[[nodiscard]] std::string sanitizer_report_to_string(const SanitizerReport& r);

/// Shadow state for one block's shared memory.  All methods are called from
/// the block's (single) executing worker; no synchronization needed.
class SharedShadow {
 public:
  /// Default for reports kept per block before further hazards only bump
  /// dropped() (overridable per launch via LaunchOptions::sanitize_report_cap).
  static constexpr std::size_t kMaxReportsPerBlock = 64;

  SharedShadow(std::uint32_t words, std::uint32_t warp_size, std::uint32_t block,
               std::vector<SanitizerReport>& sink,
               std::size_t report_cap = kMaxReportsPerBlock)
      : words_(words, ShadowWord{}), warp_(warp_size == 0 ? 1 : warp_size),
        block_(block), cap_(report_cap == 0 ? 1 : report_cap), sink_(sink) {}

  void on_load(std::uint32_t pc, std::uint32_t site, std::uint32_t thread,
               std::uint32_t addr, std::uint32_t epoch) {
    ShadowWord& w = words_[addr];
    if (w.writer < 0) {
      emit(HazardKind::UninitSharedRead, pc, site, SanitizerReport::kNoPc, thread,
           SanitizerReport::kNoThread, addr, epoch);
    } else if (w.write_epoch == epoch && !same_warp(static_cast<std::uint32_t>(w.writer), thread)) {
      emit(HazardKind::ReadWrite, pc, site, w.write_pc, thread,
           static_cast<std::uint32_t>(w.writer), addr, epoch);
    }
    w.reader = static_cast<std::int32_t>(thread);
    w.read_epoch = epoch;
    w.read_pc = pc;
  }

  void on_store(std::uint32_t pc, std::uint32_t site, std::uint32_t thread,
                std::uint32_t addr, std::uint32_t epoch) {
    ShadowWord& w = words_[addr];
    if (w.writer >= 0 && w.write_epoch == epoch &&
        !same_warp(static_cast<std::uint32_t>(w.writer), thread)) {
      emit(HazardKind::WriteWrite, pc, site, w.write_pc, thread,
           static_cast<std::uint32_t>(w.writer), addr, epoch);
    } else if (w.reader >= 0 && w.read_epoch == epoch &&
               !same_warp(static_cast<std::uint32_t>(w.reader), thread)) {
      emit(HazardKind::ReadWrite, pc, site, w.read_pc, thread,
           static_cast<std::uint32_t>(w.reader), addr, epoch);
    }
    w.writer = static_cast<std::int32_t>(thread);
    w.write_epoch = epoch;
    w.write_pc = pc;
  }

  void on_oob(std::uint32_t pc, std::uint32_t site, std::uint32_t thread,
              std::uint32_t addr, std::uint32_t epoch) {
    emit(HazardKind::SharedOutOfBounds, pc, site, SanitizerReport::kNoPc, thread,
         SanitizerReport::kNoThread, addr, epoch);
  }

  /// Threads released from different barrier sites, or (other_pc == kNoPc)
  /// a peer exited the kernel while `thread` waits at a barrier.
  void on_divergence(std::uint32_t pc, std::uint32_t site, std::uint32_t other_pc,
                     std::uint32_t thread, std::uint32_t other_thread,
                     std::uint32_t epoch) {
    emit(HazardKind::BarrierDivergence, pc, site, other_pc, thread, other_thread,
         /*addr=*/0, epoch);
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  struct ShadowWord {
    std::int32_t writer = -1;  ///< block-local thread index; -1 = never written
    std::int32_t reader = -1;
    std::uint32_t write_epoch = 0, read_epoch = 0;
    std::uint32_t write_pc = 0, read_pc = 0;
  };

  [[nodiscard]] bool same_warp(std::uint32_t a, std::uint32_t b) const noexcept {
    return a / warp_ == b / warp_;
  }

  void emit(HazardKind kind, std::uint32_t pc, std::uint32_t site, std::uint32_t other_pc,
            std::uint32_t thread, std::uint32_t other_thread, std::uint32_t addr,
            std::uint32_t epoch) {
    const std::uint64_t key = (static_cast<std::uint64_t>(kind) << 60) |
                              (static_cast<std::uint64_t>(pc & 0x3fffffffu) << 30) |
                              (other_pc & 0x3fffffffu);
    if (!seen_.insert(key).second) return;  // one report per (kind, pc, other_pc)
    if (sink_.size() >= cap_) {
      ++dropped_;
      return;
    }
    sink_.push_back(SanitizerReport{kind, block_, pc, other_pc, site, thread,
                                    other_thread, addr, epoch});
  }

  std::vector<ShadowWord> words_;
  std::uint32_t warp_;
  std::uint32_t block_;
  std::size_t cap_;
  std::vector<SanitizerReport>& sink_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t dropped_ = 0;
};

}  // namespace hauberk::gpusim
