#include "gpusim/device.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/fnv.hpp"
#include "common/worker_pool.hpp"

namespace hauberk::gpusim {

using kir::BinOp;
using kir::BuiltinVal;
using kir::DType;
using kir::Instr;
using kir::OpCode;
using kir::UnOp;

const char* exec_engine_name(ExecEngine e) noexcept {
  switch (e) {
    case ExecEngine::Reference: return "reference";
    case ExecEngine::Threaded: return "threaded";
  }
  return "?";
}

const char* launch_status_name(LaunchStatus s) noexcept {
  switch (s) {
    case LaunchStatus::Ok: return "ok";
    case LaunchStatus::CrashOutOfBounds: return "crash-oob";
    case LaunchStatus::CrashSharedOutOfBounds: return "crash-shared-oob";
    case LaunchStatus::CrashDivByZero: return "crash-divzero";
    case LaunchStatus::CrashInvalidInstr: return "crash-invalid-instr";
    case LaunchStatus::CrashBarrierDeadlock: return "crash-barrier-deadlock";
    case LaunchStatus::Hang: return "hang";
    case LaunchStatus::LaunchFailure: return "launch-failure";
    case LaunchStatus::DeviceDisabled: return "device-disabled";
    case LaunchStatus::EccUncorrectable: return "ecc-uncorrectable";
  }
  return "?";
}

Device::Device(DeviceProps props)
    : props_(props),
      mem_(std::make_unique<DeviceMemory>(props.memory_model, props.global_mem_words,
                                          props.protection)) {}

Device::~Device() = default;  // out of line: WorkerPool is incomplete in the header

void Device::install_fault(const DeviceFaultModel& fm) {
  fault_ = fm;
  fault_op_counter_.store(0);
  fault_injected_ops_.store(0);
}

void Device::clear_fault() {
  fault_ = DeviceFaultModel{};
  fault_op_counter_.store(0);
  fault_injected_ops_.store(0);
}

namespace {

/// A failed DeviceMemory load/store/rmw is either an invalid address or —
/// under protection — an uncorrectable ECC error; the thread-local flag the
/// failing path sets tells which, and the distinction becomes the launch
/// status (crash-oob vs the machine-check analog).
inline LaunchStatus mem_fail_status() noexcept {
  return DeviceMemory::last_fault_uncorrectable() ? LaunchStatus::EccUncorrectable
                                                  : LaunchStatus::CrashOutOfBounds;
}

/// The form a threaded memory-access handler is instantiated in: plain,
/// recorded (the Rec* ops) or sanitized (the San* ops).
enum class AccessForm : std::uint8_t { Plain, Recorded, Sanitized };

constexpr std::uint32_t aux_op(std::uint32_t aux) noexcept { return aux & 0xffffu; }
constexpr DType aux_type(std::uint32_t aux) noexcept {
  return static_cast<DType>((aux >> 16) & 0xffu);
}

constexpr float as_f(std::uint32_t b) noexcept { return std::bit_cast<float>(b); }
constexpr std::uint32_t f_bits(float v) noexcept { return std::bit_cast<std::uint32_t>(v); }
constexpr std::int32_t as_i(std::uint32_t b) noexcept { return static_cast<std::int32_t>(b); }
constexpr std::uint32_t i_bits(std::int32_t v) noexcept { return static_cast<std::uint32_t>(v); }
/// Integer negation and |x| on the bits, negated as unsigned: the same
/// two's-complement results without signed overflow, so -INT32_MIN and
/// abs(INT32_MIN) are 0x80000000.  Shared by both engines' handlers.
constexpr std::uint32_t neg_i_bits(std::uint32_t b) noexcept { return 0u - b; }
constexpr std::uint32_t abs_i_bits(std::uint32_t b) noexcept {
  return as_i(b) < 0 ? neg_i_bits(b) : b;
}

/// CUDA-like saturating f32 -> i32 conversion; NaN -> 0.  Shared by the
/// reference evaluator and the threaded engine's F2I handlers so the two
/// can never drift.
inline std::uint32_t f2i_sat(std::uint32_t a) noexcept {
  const float x = as_f(a);
  if (std::isnan(x)) return 0;
  if (x >= 2147483648.0f) return 0x7fffffffu;
  if (x < -2147483648.0f) return 0x80000000u;
  return i_bits(static_cast<std::int32_t>(x));
}

/// fmin/fmax tie-breaking on (-0.0, +0.0) is not pinned by IEEE 754, and the
/// compiler may expand the builtin differently at different call sites (the
/// differential fuzzer caught exactly this: fmin(-0.0f, +0.0f) returning a
/// different zero in a predecoded handler than in eval_bin).  Forcing every
/// engine through these single out-of-line bodies makes the choice —
/// whatever it is — bitwise identical everywhere.
[[gnu::noinline]] std::uint32_t fmin_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return f_bits(std::fmin(as_f(a), as_f(b)));
}
[[gnu::noinline]] std::uint32_t fmax_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return f_bits(std::fmax(as_f(a), as_f(b)));
}

/// f32 arithmetic shared by both engines.  x86 float ops propagate the
/// *first* NaN operand's payload, and GCC may legally commute a float
/// add/mul per call site — so the same `x + y` source can return a
/// different NaN payload in a predecoded handler than in eval_bin (the fuzzer
/// caught this through a float atomicAdd onto a stored integer that
/// happened to be a NaN bit pattern).  Canonicalizing every NaN result
/// removes the operand-order dependence while staying inlinable.
inline std::uint32_t canon_f(float r) noexcept {
  return r != r ? 0x7fc00000u : f_bits(r);
}
inline std::uint32_t fadd_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) + as_f(b));
}
inline std::uint32_t fsub_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) - as_f(b));
}
inline std::uint32_t fmul_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) * as_f(b));
}
inline std::uint32_t fdiv_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) / as_f(b));  // IEEE: /0 -> inf, no trap
}

/// Evaluate a binary op; `crash` set on integer division by zero.
std::uint32_t eval_bin(BinOp op, DType t, std::uint32_t a, std::uint32_t b,
                       bool& crash) noexcept {
  if (t == DType::F32) {
    const float x = as_f(a), y = as_f(b);
    switch (op) {
      case BinOp::Add: return fadd_bits(a, b);
      case BinOp::Sub: return fsub_bits(a, b);
      case BinOp::Mul: return fmul_bits(a, b);
      case BinOp::Div: return fdiv_bits(a, b);
      case BinOp::Mod: return f_bits(std::fmod(x, y));
      case BinOp::Min: return fmin_bits(a, b);
      case BinOp::Max: return fmax_bits(a, b);
      case BinOp::Lt: return x < y;
      case BinOp::Le: return x <= y;
      case BinOp::Gt: return x > y;
      case BinOp::Ge: return x >= y;
      case BinOp::Eq: return x == y;
      case BinOp::Ne: return x != y;
      case BinOp::LogicalAnd: return (x != 0.0f) && (y != 0.0f);
      case BinOp::LogicalOr: return (x != 0.0f) || (y != 0.0f);
      case BinOp::BitAnd: return a & b;
      case BinOp::BitOr: return a | b;
      case BinOp::BitXor: return a ^ b;
      case BinOp::Shl: return a << (b & 31);
      case BinOp::Shr: return a >> (b & 31);
    }
    return 0;
  }
  if (t == DType::PTR) {
    // Pointer (unsigned word) arithmetic.
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::Lt: return a < b;
      case BinOp::Le: return a <= b;
      case BinOp::Gt: return a > b;
      case BinOp::Ge: return a >= b;
      case BinOp::Eq: return a == b;
      case BinOp::Ne: return a != b;
      case BinOp::Min: return a < b ? a : b;
      case BinOp::Max: return a > b ? a : b;
      case BinOp::BitAnd: return a & b;
      case BinOp::BitOr: return a | b;
      case BinOp::BitXor: return a ^ b;
      case BinOp::Shl: return a << (b & 31);
      case BinOp::Shr: return a >> (b & 31);
      case BinOp::Div:
        if (b == 0) { crash = true; return 0; }
        return a / b;
      case BinOp::Mod:
        if (b == 0) { crash = true; return 0; }
        return a % b;
      case BinOp::LogicalAnd: return (a != 0) && (b != 0);
      case BinOp::LogicalOr: return (a != 0) || (b != 0);
    }
    return 0;
  }
  // I32: signed, wraparound via 64-bit intermediates (defined overflow).
  const std::int64_t x = as_i(a), y = as_i(b);
  switch (op) {
    case BinOp::Add: return i_bits(static_cast<std::int32_t>(x + y));
    case BinOp::Sub: return i_bits(static_cast<std::int32_t>(x - y));
    case BinOp::Mul: return i_bits(static_cast<std::int32_t>(x * y));
    case BinOp::Div:
      if (y == 0) { crash = true; return 0; }
      return i_bits(static_cast<std::int32_t>(x / y));
    case BinOp::Mod:
      if (y == 0) { crash = true; return 0; }
      return i_bits(static_cast<std::int32_t>(x % y));
    case BinOp::Min: return i_bits(static_cast<std::int32_t>(x < y ? x : y));
    case BinOp::Max: return i_bits(static_cast<std::int32_t>(x > y ? x : y));
    case BinOp::BitAnd: return a & b;
    case BinOp::BitOr: return a | b;
    case BinOp::BitXor: return a ^ b;
    case BinOp::Shl: return a << (b & 31);
    case BinOp::Shr: return i_bits(as_i(a) >> (b & 31));  // arithmetic shift
    case BinOp::Lt: return x < y;
    case BinOp::Le: return x <= y;
    case BinOp::Gt: return x > y;
    case BinOp::Ge: return x >= y;
    case BinOp::Eq: return x == y;
    case BinOp::Ne: return x != y;
    case BinOp::LogicalAnd: return (x != 0) && (y != 0);
    case BinOp::LogicalOr: return (x != 0) || (y != 0);
  }
  return 0;
}

std::uint32_t eval_un(UnOp op, DType t, std::uint32_t a) noexcept {
  if (t == DType::F32) {
    const float x = as_f(a);
    switch (op) {
      case UnOp::Neg: return f_bits(-x);
      case UnOp::LogicalNot: return x == 0.0f;
      case UnOp::BitNot: return ~a;
      case UnOp::Sqrt: return f_bits(std::sqrt(x));
      case UnOp::Rsqrt: return f_bits(1.0f / std::sqrt(x));
      case UnOp::Abs: return f_bits(std::fabs(x));
      case UnOp::Exp: return f_bits(std::exp(x));
      case UnOp::Log: return f_bits(std::log(x));
      case UnOp::Sin: return f_bits(std::sin(x));
      case UnOp::Cos: return f_bits(std::cos(x));
      case UnOp::Floor: return f_bits(std::floor(x));
      case UnOp::CastF32: return a;
      case UnOp::CastI32: return f2i_sat(a);
    }
    return 0;
  }
  // I32 / PTR source.
  const std::int32_t x = as_i(a);
  switch (op) {
    case UnOp::Neg: return neg_i_bits(a);
    case UnOp::LogicalNot: return a == 0;
    case UnOp::BitNot: return ~a;
    case UnOp::Abs: return abs_i_bits(a);
    case UnOp::CastF32:
      return t == DType::PTR ? f_bits(static_cast<float>(a)) : f_bits(static_cast<float>(x));
    case UnOp::CastI32: return a;
    default:
      // Transcendentals on integers: promote, compute, keep float bits
      // (workloads never do this; defined for completeness).
      return eval_un(op, DType::F32, f_bits(static_cast<float>(x)));
  }
}

/// Why a thread's time-slice returned.  Snapshot: the thread took a backward
/// jump at a point the recorder or replay asked to see (recording and
/// write-tracking launches only); it resumes from t.pc as if never stopped.
enum class ThreadStop : std::uint8_t { Done, Barrier, Crash, Budget, Snapshot };

/// A value computed in one period of a replayed loop (hang fast-forward,
/// BlockExec::fast_forward_loop) as a function of the period number
/// n: v + n * step in 32-bit wraparound, v being its value in period 0; or
/// opaque, when no such form is shown.
struct Affine {
  std::uint32_t v = 0, step = 0;
  bool opaque = false;
  [[nodiscard]] bool invariant() const noexcept { return !opaque && step == 0; }
};

/// The ends of a's values over periods [0, last] read as signed (else
/// unsigned) words, provided that read as integers they never wrap: the
/// progression is then monotone and lies between its ends.
std::optional<std::pair<__int128, __int128>> progression(const Affine& a, std::uint64_t last,
                                                         bool is_signed) noexcept {
  const __int128 first = is_signed ? __int128{static_cast<std::int32_t>(a.v)} : __int128{a.v};
  const __int128 end = first + __int128{static_cast<std::int32_t>(a.step)} * last;
  const __int128 lo = is_signed ? __int128{INT32_MIN} : 0;
  const __int128 hi = is_signed ? __int128{INT32_MAX} : __int128{UINT32_MAX};
  if (end < lo || end > hi) return std::nullopt;
  return std::pair{first, end};
}

/// Whether comparison `op` of a and b (neither opaque) has the same outcome
/// in every period n in [0, last].  Without wraparound a - b is linear in n,
/// so an ordering keeps its outcome iff both ends agree, and (in)equality
/// iff a - b is constant or keeps one sign.
bool compare_holds(BinOp op, bool is_signed, const Affine& a, const Affine& b,
                   std::uint64_t last) noexcept {
  const auto pa = progression(a, last, is_signed), pb = progression(b, last, is_signed);
  if (!pa || !pb) return false;
  const __int128 d0 = pa->first - pb->first, d1 = pa->second - pb->second;
  switch (op) {
    case BinOp::Lt:
    case BinOp::Ge: return (d0 < 0) == (d1 < 0);
    case BinOp::Le:
    case BinOp::Gt: return (d0 <= 0) == (d1 <= 0);
    case BinOp::Eq:
    case BinOp::Ne: return d0 == d1 || (d0 != 0 && d1 != 0 && (d0 < 0) == (d1 < 0));
    default: return false;
  }
}

/// What binary op `op` on type `t` computes from a and b in every period,
/// `r` being its period-0 result: add, subtract, and multiply or shift by
/// an invariant stay affine in wraparound; an integer comparison is
/// invariant while its outcome holds over [0, last]; anything else is
/// invariant on invariant operands and opaque otherwise.
Affine affine_bin(BinOp op, DType t, const Affine& a, const Affine& b, std::uint32_t r,
                  std::uint64_t last) noexcept {
  if (a.invariant() && b.invariant()) return {r, 0, false};
  if (a.opaque || b.opaque || t == DType::F32) return {0, 0, true};
  switch (op) {
    case BinOp::Add: return {r, a.step + b.step, false};
    case BinOp::Sub: return {r, a.step - b.step, false};
    case BinOp::Mul:
      if (b.invariant()) return {r, a.step * b.v, false};
      if (a.invariant()) return {r, b.step * a.v, false};
      break;
    case BinOp::Shl:
      if (b.invariant()) return {r, a.step << (b.v & 31), false};
      break;
    case BinOp::Lt: case BinOp::Le: case BinOp::Gt:
    case BinOp::Ge: case BinOp::Eq: case BinOp::Ne:
      if (compare_holds(op, t != DType::PTR, a, b, last)) return {r, 0, false};
      break;
    default: break;
  }
  return {0, 0, true};
}

/// Reader-index order by address alone (entries of one address are kept in
/// (segment, read) order by construction).
bool addr_less(const LaunchJournal::Access& a, const LaunchJournal::Access& b) noexcept {
  return a.addr < b.addr;
}

/// Builds a LaunchJournal during a serial launch, fed by the reference
/// interpreter's accesses or the threaded stream's Rec* ops (both report
/// at the same points).  Every segment gets a serial stamp; per-address
/// stamps (dense arrays, grown to the highest address touched) tell a first
/// read from a re-read of the segment's own store without any per-segment
/// clearing.  Snapshots are taken at taken backward jumps at least a
/// spacing apart (in instructions, from the segment's start for the first):
/// the interpreter offers one at the first such jump once the thread's
/// budget reaches the recorder's next stop.  When more than
/// kSnapshotsPerSegment would be kept, the spacing doubles and the kept ones
/// are thinned to it.  A segment starts at the spacing that would have kept
/// about kSnapshotsPerSegment of the previous segment (the threads of a
/// block mostly run alike), and never below kSnapshotSpacing.
class JournalRecorder {
 public:
  using J = LaunchJournal;

  /// `stand`: kir::fi_count_sites of the recorded stream.  A site's count is
  /// that of the site standing for it, the only one a recording stream
  /// counts, so count rows hold one entry per counted site.  The snapshot
  /// buffers are reserved for one full segment per thread of the launch's
  /// `threads` with `slots` registers each, so they grow without copying
  /// (untouched reserve costs no page).
  JournalRecorder(LaunchJournal& j, std::uint32_t shared_words,
                  const std::vector<std::uint32_t>& stand, std::size_t threads, std::size_t slots)
      : j_(j), sstamp_(shared_words), sites_(static_cast<std::uint32_t>(stand.size())) {
    std::vector<std::uint32_t> row(sites_);
    for (std::uint32_t s = 0; s < sites_; ++s)
      if (stand[s] == s) {
        row[s] = static_cast<std::uint32_t>(counted_.size());
        counted_.push_back(s);
      }
    for (std::uint32_t s = 0; s < sites_; ++s) site_row_.push_back(row[stand[s]]);
    const std::size_t most = threads * J::kSnapshotsPerSegment;
    snaps_.reserve(most);
    snap_regs_.reserve(most * slots);
    snap_counts_.reserve(most * counted_.size());
    end_counts_.reserve(threads * counted_.size());
    snap_first_.reserve(threads);
  }

  /// A new block: its threads' FI-site counts start at zero.
  void begin_block(std::uint32_t threads_per_block) {
    counts_.assign(static_cast<std::size_t>(threads_per_block) * sites_, 0);
  }
  /// Begin a segment of thread `thread_slot` (index `block_index` in its
  /// block); returns that thread's FI-site counters, which the interpreter
  /// bumps at every FIHook.
  std::uint32_t* begin(std::uint32_t thread_slot, std::uint32_t block_index) {
    ++stamp_;
    slots_.push_back(thread_slot);
    seg_ = J::Segment{};
    seg_.first_reads = static_cast<std::uint32_t>(j_.reads.size());
    seg_.first_write = static_cast<std::uint32_t>(j_.writes.size());
    seg_.first_shared_write = static_cast<std::uint32_t>(j_.shared_writes.size());
    shared_reads_.clear();
    pend_.clear();
    pend_regs_.clear();
    pend_counts_.clear();
    spacing_ = std::max<std::uint64_t>(J::kSnapshotSpacing,
                                       last_instructions_ / (J::kSnapshotsPerSegment + 1) + 1);
    thread_counts_ = counts_.data() + static_cast<std::size_t>(block_index) * sites_;
    return thread_counts_;
  }
  /// The budget at which a segment that began at budget `start` offers its
  /// first snapshot.
  [[nodiscard]] std::uint64_t first_stop(std::uint64_t start) const noexcept {
    return start + spacing_;
  }

  /// A snapshot offer: the thread's state right after a taken backward jump,
  /// with its segment-relative counts in `at`.  Returns the budget at which
  /// to offer the next one.
  std::uint64_t snapshot(J::Snapshot at, std::span<const std::uint32_t> regs) {
    at.global_reads = static_cast<std::uint32_t>(j_.reads.size()) - seg_.first_reads;
    at.shared_reads = static_cast<std::uint32_t>(shared_reads_.size());
    at.writes = static_cast<std::uint32_t>(j_.writes.size()) - seg_.first_write;
    at.shared_writes =
        static_cast<std::uint32_t>(j_.shared_writes.size()) - seg_.first_shared_write;
    pend_.push_back(at);
    pend_regs_.insert(pend_regs_.end(), regs.begin(), regs.end());
    append_counts(pend_counts_);
    if (pend_.size() > J::kSnapshotsPerSegment) {
      // Thin: double the spacing and keep each snapshot at least that far
      // past the previous kept one.
      spacing_ *= 2;
      const std::size_t width = regs.size();
      const std::size_t cw = counted_.size();
      std::size_t out = 0;
      std::uint64_t last = 0;
      for (std::size_t i = 0; i < pend_.size(); ++i) {
        if (pend_[i].instructions < last + spacing_) continue;
        last = pend_[i].instructions;
        pend_[out] = pend_[i];
        std::copy_n(pend_regs_.begin() + static_cast<std::ptrdiff_t>(i * width), width,
                    pend_regs_.begin() + static_cast<std::ptrdiff_t>(out * width));
        std::copy_n(pend_counts_.begin() + static_cast<std::ptrdiff_t>(i * cw), cw,
                    pend_counts_.begin() + static_cast<std::ptrdiff_t>(out * cw));
        ++out;
      }
      pend_.resize(out);
      pend_regs_.resize(out * width);
      pend_counts_.resize(out * cw);
    }
    // The next offer: a spacing past the last kept snapshot (budget and
    // instructions advance together within a segment).
    const std::uint64_t last = pend_.empty() ? 0 : pend_.back().instructions;
    return at.budget - at.instructions + last + spacing_;
  }

  void global_load(std::uint32_t addr, std::uint32_t value) {
    Cell& c = cell(addr);
    if (c.stamp != stamp_) {
      c.stamp = stamp_;
      c.pending = false;
      j_.reads.push_back({addr, value});
    } else if (c.pending) {
      // Only atomics touched it so far: the load sees their sum over the
      // pre-segment value, which is therefore an input.
      c.pending = false;
      j_.reads.push_back({addr, c.pre});
    }
  }
  void global_store(std::uint32_t addr, std::uint32_t value) {
    write(addr, value, J::WriteKind::Store);
    Cell& c = cell(addr);
    c.stamp = stamp_;
    c.pending = false;  // later loads see the segment's own value
  }
  void global_atomic(std::uint32_t addr, std::uint32_t addend, J::WriteKind kind,
                     std::uint32_t pre) {
    write(addr, addend, kind);
    Cell& c = cell(addr);
    if (c.stamp != stamp_) {
      c.stamp = stamp_;
      c.pending = true;
      c.pre = pre;
    }
  }
  void shared_load(std::uint32_t addr, std::uint32_t value) {
    if (sstamp_[addr] != stamp_) {
      sstamp_[addr] = stamp_;
      shared_reads_.push_back({addr, value});
    }
  }
  void shared_store(std::uint32_t addr, std::uint32_t value) {
    sstamp_[addr] = stamp_;
    j_.shared_writes.push_back({addr, value});
  }

  /// Close the segment begun last: the deltas, the sdc bit and the thread's
  /// state after its stop (registers only at a Barrier).
  void end(std::uint64_t instructions, std::uint64_t cycles, std::uint64_t loop_cycles,
           bool sdc, std::uint64_t budget_after, std::uint32_t pc, std::uint32_t barrier_pc,
           bool done, std::span<const std::uint32_t> regs) {
    last_instructions_ = instructions;
    seg_.instructions = instructions;
    seg_.cycles = cycles;
    seg_.loop_cycles = loop_cycles;
    seg_.sdc = sdc;
    seg_.budget_after = budget_after;
    seg_.pc = pc;
    seg_.barrier_pc = barrier_pc;
    seg_.done = done;
    seg_.global_reads = static_cast<std::uint32_t>(j_.reads.size()) - seg_.first_reads;
    seg_.shared_reads = static_cast<std::uint32_t>(shared_reads_.size());
    j_.reads.insert(j_.reads.end(), shared_reads_.begin(), shared_reads_.end());
    seg_.writes = static_cast<std::uint32_t>(j_.writes.size()) - seg_.first_write;
    seg_.shared_writes =
        static_cast<std::uint32_t>(j_.shared_writes.size()) - seg_.first_shared_write;
    if (!done) {
      seg_.regs = static_cast<std::uint32_t>(j_.regs.size());
      j_.regs.insert(j_.regs.end(), regs.begin(), regs.end());
    }
    j_.segments.push_back(seg_);
    // The kept snapshots (serial order; finish() regroups them with their
    // segments) and the thread's counts at the segment's end.
    snap_first_.push_back(static_cast<std::uint32_t>(snaps_.size()));
    const auto base = static_cast<std::uint32_t>(snap_regs_.size());
    for (std::size_t i = 0; i < pend_.size(); ++i) {
      snaps_.push_back(pend_[i]);
      snaps_.back().regs = base + static_cast<std::uint32_t>(i * regs.size());
    }
    snap_regs_.insert(snap_regs_.end(), pend_regs_.begin(), pend_regs_.end());
    snap_counts_.insert(snap_counts_.end(), pend_counts_.begin(), pend_counts_.end());
    append_counts(end_counts_);
  }

  /// Group the serial-order segments per thread (stable, so each thread's
  /// stay in epoch order), fill thread_begin, and build the reader index
  /// over the grouped segment numbers.
  void finish(std::uint32_t num_blocks, std::uint32_t threads_per_block) {
    const std::uint32_t num_threads = num_blocks * threads_per_block;
    std::vector<std::uint32_t> begin(static_cast<std::size_t>(num_threads) + 1, 0);
    for (const std::uint32_t s : slots_) ++begin[s + 1];
    for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
    std::vector<J::Segment> grouped(j_.segments.size());
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    std::vector<std::uint32_t> serial(slots_.size());  ///< grouped index -> serial index
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::uint32_t g = next[slots_[i]]++;
      grouped[g] = j_.segments[i];
      serial[g] = static_cast<std::uint32_t>(i);
    }
    j_.segments = std::move(grouped);
    j_.thread_begin = std::move(begin);
    finish_snapshots(serial);

    // Entries are made in (segment, read) order, writes after a segment's
    // reads, so a stable sort by address alone orders them (addr, segment,
    // read).  Grouping is thread-major: block b owns the contiguous segment
    // range [thread_begin[b * T], thread_begin[(b + 1) * T]).
    std::vector<J::Access> global, shared;
    j_.shared_index_begin.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      shared.clear();
      for (std::uint32_t g = j_.thread_begin[b * threads_per_block];
           g < j_.thread_begin[(b + 1) * threads_per_block]; ++g) {
        const J::Segment& s = j_.segments[g];
        for (std::uint32_t r = s.first_reads; r < s.first_reads + s.global_reads; ++r)
          global.push_back({j_.reads[r].addr, g, r});
        for (std::uint32_t w = s.first_write; w < s.first_write + s.writes; ++w)
          global.push_back({j_.writes[w].addr, g, J::kWrite});
        for (std::uint32_t r = s.first_reads + s.global_reads;
             r < s.first_reads + s.global_reads + s.shared_reads; ++r)
          shared.push_back({j_.reads[r].addr, g, r});
      }
      const std::vector<J::Access> sorted = sort_by_addr(shared);
      j_.shared_index.insert(j_.shared_index.end(), sorted.begin(), sorted.end());
      j_.shared_index_begin[b + 1] = static_cast<std::uint32_t>(j_.shared_index.size());
    }
    j_.global_index = sort_by_addr(global);
    j_.global_index.erase(std::unique(j_.global_index.begin(), j_.global_index.end()),
                          j_.global_index.end());
    for (const J::Access& a : j_.global_index)
      if (j_.touched.empty() || j_.touched.back() != a.addr) j_.touched.push_back(a.addr);
    finish_net_shared(serial, threads_per_block);
  }

 private:
  struct Cell {
    std::uint32_t stamp = 0;
    std::uint32_t pre = 0;  ///< pre-segment value when only atomics touched it
    bool pending = false;
  };
  /// Give every segment its net shared writes, walking the serial order
  /// (`serial`: grouped index -> serial index) with each block's golden
  /// shared image (zero when the block begins): per word, the segment's
  /// last write (found walking its writes backwards), those that change
  /// the image first.  A golden run's cost is mostly first touches of
  /// fresh memory, so this runs last, and the recording's own buffers,
  /// idle by now, do the bookkeeping: sstamp_ marks the words a segment
  /// wrote (with stamps past every recorded one) and shared_reads_ gathers
  /// the writes that keep their word's value.
  void finish_net_shared(const std::vector<std::uint32_t>& serial,
                         std::uint32_t threads_per_block) {
    if (j_.shared_writes.empty()) return;
    std::vector<std::uint32_t> order(serial.size()), image(sstamp_.size());
    for (std::uint32_t g = 0; g < serial.size(); ++g) order[serial[g]] = g;
    std::vector<J::Word>& same = shared_reads_;
    std::uint32_t block = ~std::uint32_t{0};
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      J::Segment& s = j_.segments[order[i]];
      if (slots_[i] / threads_per_block != block) {
        block = slots_[i] / threads_per_block;
        std::fill(image.begin(), image.end(), 0u);
      }
      const std::uint32_t stamp = stamp_ + 1 + i;
      s.first_net_shared_write = static_cast<std::uint32_t>(j_.net_shared_writes.size());
      same.clear();
      for (std::uint32_t w = s.first_shared_write + s.shared_writes; w-- > s.first_shared_write;) {
        const J::Word& x = j_.shared_writes[w];
        if (sstamp_[x.addr] == stamp) continue;
        sstamp_[x.addr] = stamp;
        (x.value == image[x.addr] ? same : j_.net_shared_writes).push_back(x);
        image[x.addr] = x.value;
      }
      s.net_shared_changes =
          static_cast<std::uint32_t>(j_.net_shared_writes.size()) - s.first_net_shared_write;
      j_.net_shared_writes.insert(j_.net_shared_writes.end(), same.begin(), same.end());
      s.net_shared_writes =
          static_cast<std::uint32_t>(j_.net_shared_writes.size()) - s.first_net_shared_write;
    }
  }

  /// Append the running thread's count row.
  void append_counts(std::vector<std::uint32_t>& rows) const {
    for (const std::uint32_t s : counted_) rows.push_back(thread_counts_[s]);
  }

  /// Point each grouped segment at its snapshots, and store the count rows
  /// (snapshots in recording order, then segment ends in grouped order) with
  /// equal columns merged.
  void finish_snapshots(const std::vector<std::uint32_t>& serial) {
    J::SnapshotTable& t = j_.snapshots;
    const std::size_t cw = counted_.size();
    snap_first_.push_back(static_cast<std::uint32_t>(snaps_.size()));
    // Keep the table within kSnapshotTableBytes (counting count rows before
    // their columns merge): halve every segment's snapshots, keeping every
    // second one, until it fits.
    const std::size_t width = snaps_.empty() ? 0 : snap_regs_.size() / snaps_.size();
    const std::size_t fixed = (serial.size() * (2 + cw) + sites_) * sizeof(std::uint32_t);
    const std::size_t per = sizeof(J::Snapshot) + (width + cw) * sizeof(std::uint32_t);
    while (!snaps_.empty() && fixed + snaps_.size() * per > J::kSnapshotTableBytes) {
      std::size_t out = 0;
      for (std::size_t i = 0; i + 1 < snap_first_.size(); ++i) {
        const std::uint32_t from = snap_first_[i], to = snap_first_[i + 1];
        snap_first_[i] = static_cast<std::uint32_t>(out);
        for (std::uint32_t k = from + 1; k < to; k += 2, ++out) {
          snaps_[out] = snaps_[k];
          snaps_[out].regs = static_cast<std::uint32_t>(out * width);
          std::copy_n(snap_regs_.begin() + static_cast<std::ptrdiff_t>(k * width), width,
                      snap_regs_.begin() + static_cast<std::ptrdiff_t>(out * width));
          std::copy_n(snap_counts_.begin() + static_cast<std::ptrdiff_t>(k * cw), cw,
                      snap_counts_.begin() + static_cast<std::ptrdiff_t>(out * cw));
        }
      }
      snap_first_.back() = static_cast<std::uint32_t>(out);
      snaps_.resize(out);
      snap_regs_.resize(out * width);
      snap_counts_.resize(out * cw);
    }
    t.begin.resize(serial.size());
    t.end.resize(serial.size());
    std::vector<std::uint32_t> ends;
    ends.reserve(end_counts_.size());
    for (std::size_t g = 0; g < serial.size(); ++g) {
      t.begin[g] = snap_first_[serial[g]];
      t.end[g] = snap_first_[serial[g] + 1];
      ends.insert(ends.end(), end_counts_.begin() + std::size_t{serial[g]} * cw,
                  end_counts_.begin() + (std::size_t{serial[g]} + 1) * cw);
    }
    end_counts_ = std::move(ends);
    t.list = std::move(snaps_);
    t.regs = std::move(snap_regs_);
    if (cw == 0) return;
    // Rows: snapshot i's is snap_counts_[i * cw], segment g's end
    // end_counts_[g * cw].
    const std::size_t nsnap = snap_counts_.size() / cw, nrows = nsnap + end_counts_.size() / cw;
    const auto at = [&](std::size_t r, std::size_t c) {
      return r < nsnap ? snap_counts_[r * cw + c] : end_counts_[(r - nsnap) * cw + c];
    };
    std::vector<std::uint64_t> hash(cw, common::kFnvStandardBasis);
    for (std::size_t r = 0; r < nrows; ++r)
      for (std::size_t c = 0; c < cw; ++c) hash[c] = common::fnv_mix(hash[c], at(r, c));
    const auto same = [&](std::size_t a, std::size_t b) {
      if (hash[a] != hash[b]) return false;
      for (std::size_t r = 0; r < nrows; ++r)
        if (at(r, a) != at(r, b)) return false;
      return true;
    };
    std::vector<std::uint32_t> rep, column(cw);  // a counted column per merged one
    for (std::size_t c = 0; c < cw; ++c) {
      std::uint32_t m = 0;
      while (m < rep.size() && !same(rep[m], c)) ++m;
      if (m == rep.size()) rep.push_back(static_cast<std::uint32_t>(c));
      column[c] = m;
    }
    t.width = static_cast<std::uint32_t>(rep.size());
    t.site_column.resize(sites_);
    for (std::uint32_t s = 0; s < sites_; ++s) t.site_column[s] = column[site_row_[s]];
    t.counts.reserve(nrows * rep.size());
    for (std::size_t r = 0; r < nrows; ++r)
      for (const std::uint32_t c : rep) t.counts.push_back(at(r, c));
  }

  Cell& cell(std::uint32_t addr) {
    if (addr >= cells_.size())
      cells_.resize(std::max<std::size_t>(addr + std::size_t{1}, cells_.size() * 2));
    return cells_[addr];
  }
  void write(std::uint32_t addr, std::uint32_t value, J::WriteKind kind) {
    j_.writes.push_back({addr, value, kind});
  }
  /// Stable sort by address: a counting sort over the address range when
  /// that is no wider than a few entries per word (golden launches touch a
  /// compact range), std::stable_sort otherwise.
  static std::vector<J::Access> sort_by_addr(const std::vector<J::Access>& in) {
    std::uint32_t hi = 0;
    for (const J::Access& a : in) hi = std::max(hi, a.addr + 1);
    if (hi > 4 * in.size() + 4096) {
      std::vector<J::Access> out = in;
      std::stable_sort(out.begin(), out.end(), addr_less);
      return out;
    }
    std::vector<std::uint32_t> at(static_cast<std::size_t>(hi) + 1, 0);
    for (const J::Access& a : in) ++at[a.addr + 1];
    for (std::size_t i = 1; i < at.size(); ++i) at[i] += at[i - 1];
    std::vector<J::Access> out(in.size());
    for (const J::Access& a : in) out[at[a.addr]++] = a;
    return out;
  }

  LaunchJournal& j_;
  std::uint32_t stamp_ = 0;
  J::Segment seg_;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> sstamp_;
  std::vector<J::Word> shared_reads_;
  std::vector<std::uint32_t> slots_;  ///< thread slot of each serial segment
  // Snapshots: the current segment's kept ones (pending, thinned as they
  // come), then every kept one in recording order with its registers and
  // count row, the first of each serial segment, and each serial segment's
  // end counts.
  std::uint32_t sites_;
  std::vector<std::uint32_t> counted_;   ///< the sites a recording stream counts
  std::vector<std::uint32_t> site_row_;  ///< per site: its entry in a count row
  std::uint64_t spacing_ = J::kSnapshotSpacing;
  std::uint64_t last_instructions_ = 0;  ///< of the previous segment
  std::vector<std::uint32_t> counts_;  ///< per thread of the block: FI-site counts
  std::uint32_t* thread_counts_ = nullptr;
  std::vector<J::Snapshot> pend_;
  std::vector<std::uint32_t> pend_regs_, pend_counts_;
  std::vector<J::Snapshot> snaps_;
  std::vector<std::uint32_t> snap_first_, snap_regs_, snap_counts_, end_counts_;
};

/// Builds a net-effect journal during a serial launch, fed by the reference
/// interpreter's global accesses or a net-effect stream's Rec* ops: which
/// global words the launch touched and which it wrote, as bitmaps grown to
/// the highest address seen.
class TouchRecorder {
 public:
  void load(std::uint32_t addr) { set(touched_, addr); }
  void write(std::uint32_t addr) {
    set(touched_, addr);
    set(written_, addr);
  }
  /// Fill `j`'s touched words, and its net words with their final values in
  /// `words`, both in address order.
  void finish(LaunchJournal& j, std::span<const std::uint32_t> words) const {
    for_each(touched_, [&](std::uint32_t addr) { j.touched.push_back(addr); });
    for_each(written_, [&](std::uint32_t addr) { j.net.words.push_back({addr, words[addr]}); });
  }

 private:
  static void set(std::vector<std::uint64_t>& bits, std::uint32_t addr) {
    const std::size_t w = addr / 64;
    if (w >= bits.size()) bits.resize(std::max(w + 1, 2 * bits.size()), 0);
    bits[w] |= std::uint64_t{1} << (addr % 64);
  }
  template <class F>
  static void for_each(const std::vector<std::uint64_t>& bits, const F& f) {
    for (std::size_t w = 0; w < bits.size(); ++w)
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1)
        f(static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(std::countr_zero(b))));
  }

  std::vector<std::uint64_t> touched_, written_;
};

/// One past the highest global word `j`'s launch touched: no segment reads
/// or writes a global word at or above it.
std::uint32_t indexed_end(const LaunchJournal& j) noexcept {
  return j.touched.empty() ? 0 : j.touched.back() + 1;
}

/// The launch-start diff (DESIGN §10): every global word below
/// indexed_end(j) where `words` differs from the golden launch-start image
/// (zero at and above it; `words` is zero at and above `watermark`), in
/// address order.  Only words some segment reads or writes can matter.
std::vector<std::uint32_t> start_diff(const LaunchJournal& j, std::span<const std::uint32_t> words,
                                      std::uint32_t watermark) {
  std::vector<std::uint32_t> diff;
  const std::vector<std::uint32_t>& img = j.start_image;
  const std::size_t end = std::min<std::size_t>(indexed_end(j), words.size());
  const std::size_t n = std::min(img.size(), end);
  constexpr std::size_t kChunk = 256;
  for (std::size_t c = 0; c < n; c += kChunk) {
    const std::size_t e = std::min(n, c + kChunk);
    if (std::memcmp(words.data() + c, img.data() + c, (e - c) * sizeof(std::uint32_t)) == 0)
      continue;
    for (std::size_t i = c; i < e; ++i)
      if (words[i] != img[i]) diff.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = n; i < std::min<std::size_t>(watermark, end); ++i)
    if (words[i] != 0) diff.push_back(static_cast<std::uint32_t>(i));
  return diff;
}

/// Whether `j`'s launch touched (some segment first-reads or writes) global
/// word `addr`.
bool indexed(const LaunchJournal& j, std::uint32_t addr) noexcept {
  return std::binary_search(j.touched.begin(), j.touched.end(), addr);
}

/// Fill a full journal's net words from its just-recorded launch: the final
/// value in `words` of every global word with a writer entry.
void record_net_words(LaunchJournal& j, std::span<const std::uint32_t> words) {
  std::vector<LaunchJournal::Word>& net = j.net.words;
  for (const LaunchJournal::Access& a : j.global_index)
    if (a.read == LaunchJournal::kWrite && (net.empty() || net.back().addr != a.addr))
      net.push_back({a.addr, words[a.addr]});
}

/// Whether an unarmed replaying launch can take `j`'s net effect in one step
/// (DESIGN §10): the largest budget fits the watchdog, every latent pair the
/// golden launch touches decodes as correctable to its launch-start words
/// (those pairs go to `scrub`), and no other word of the launch-start diff
/// `diff` is touched.  Then, by induction over the serial schedule, every
/// first read returns its golden value, so every segment would apply.
bool net_effect_applies(const LaunchJournal& j, const DeviceMemory& mem,
                        std::span<const std::uint32_t> diff, std::uint64_t watchdog,
                        std::vector<std::uint32_t>& scrub) {
  if (j.net.totals.max_budget - 1 > watchdog) return false;
  const auto golden = [&](std::uint32_t addr) {
    return addr < j.start_image.size() ? j.start_image[addr] : 0u;
  };
  const std::span<const std::uint32_t> latent = mem.latent_pairs();
  for (const std::uint32_t p : latent) {
    if (!indexed(j, 2 * p) && !indexed(j, 2 * p + 1)) continue;  // stays latent
    const ecc::Decoded d = mem.decode_pair(p);
    if (d.bit == ecc::kUncorrectable || static_cast<std::uint32_t>(d.data) != golden(2 * p) ||
        static_cast<std::uint32_t>(d.data >> 32) != golden(2 * p + 1))
      return false;
    scrub.push_back(p);
  }
  for (const std::uint32_t addr : diff)
    if (indexed(j, addr) && std::find(scrub.begin(), scrub.end(), addr / 2) == scrub.end())
      return false;
  return true;
}

/// Take `j`'s net effect in one step: scrub the touched latent pairs
/// `scrub` (one correction each, as their first access would make), then
/// write the net words, re-encoding their pairs under protection.
void apply_net_effect(const LaunchJournal& j, DeviceMemory& mem,
                      std::span<const std::uint32_t> scrub) {
  for (const std::uint32_t p : scrub) (void)mem.scrub_pair(p);
  const std::vector<LaunchJournal::Word>& net = j.net.words;
  if (net.empty()) return;
  std::uint32_t* const gmem = mem.flat_words().data();
  for (const LaunchJournal::Word& w : net) gmem[w.addr] = w.value;
  if (mem.protection() != ecc::Scheme::None)
    for (std::size_t i = 0; i < net.size(); ++i)
      if (i == 0 || net[i].addr / 2 != net[i - 1].addr / 2) mem.reencode_pair(net[i].addr / 2);
  mem.note_store(net.back().addr);
}

/// Replay's delta set S (DESIGN §10): the global words, and the current
/// block's shared words, where memory may differ from the golden run's at
/// the current point of the serial schedule.  Every word outside S holds its
/// golden value there, so a first read outside S needs no compare.  S only
/// grows: the launch-start diff seeds it, and an interpreted slice adds its
/// own writes and its golden counterpart's unless the two write sequences
/// are equal (compared as the writes happen, reported by run_thread and the
/// stream's Rec* ops, so even a slice that stores until the watchdog
/// keeps nothing).  A word joining S queues its reader-index entries on
/// their segments; a segment then compares exactly its queued reads.
class DeltaSet {
 public:
  explicit DeltaSet(const LaunchJournal& j) : j_(j), indexed_(indexed_end(j)) {}

  /// Seed S with the launch-start diff (start_diff).
  void seed(std::span<const std::uint32_t> diff) {
    for (const std::uint32_t addr : diff) add_global(addr);
  }

  /// A new block: its shared memory starts zeroed in both runs.
  void begin_block(std::uint32_t block, std::uint32_t shared_words) {
    block_ = block;
    shared_.assign((shared_words + 63) / 64, 0);
    any_shared_ = false;
  }
  /// Whether S holds a shared word of the current block; and shared word `addr`.
  [[nodiscard]] bool any_shared() const noexcept { return any_shared_; }
  [[nodiscard]] bool has_shared(std::uint32_t addr) const noexcept {
    return addr / 64 < shared_.size() && (shared_[addr / 64] >> (addr % 64) & 1);
  }

  /// Add global word `addr` to S.  S is kept only below the highest indexed
  /// address: a word above it has no reader to queue, so a stray store far
  /// up the arena costs nothing.
  void add_global(std::uint32_t addr) {
    if (addr >= indexed_ || !insert(global_, addr)) return;
    const auto [lo, hi] = std::equal_range(j_.global_index.begin(), j_.global_index.end(),
                                           LaunchJournal::Access{addr, 0, 0}, addr_less);
    for (auto it = lo; it != hi; ++it)
      if (it->read != LaunchJournal::kWrite) queue(it->segment, it->read);
  }
  void add_shared(std::uint32_t addr) {
    if (!insert(shared_, addr)) return;
    any_shared_ = true;
    const auto from = j_.shared_index.begin() + j_.shared_index_begin[block_];
    const auto to = j_.shared_index.begin() + j_.shared_index_begin[block_ + 1];
    const auto [lo, hi] =
        std::equal_range(from, to, LaunchJournal::Access{addr, 0, 0}, addr_less);
    for (auto it = lo; it != hi; ++it) queue(it->segment, it->read);
  }

  /// Whether every first read of segment `g` (= `s`) returns its golden
  /// value: the reads queued on it, against global `gmem` and block-shared
  /// `smem`.
  [[nodiscard]] bool reads_match(std::uint32_t g, const LaunchJournal::Segment& s,
                                 const std::uint32_t* gmem,
                                 const std::uint32_t* smem) const noexcept {
    if (head_.empty()) return true;
    for (std::uint32_t c = head_[g]; c != kNone; c = checks_[c].next) {
      const LaunchJournal::Word& r = j_.reads[checks_[c].read];
      const bool global = checks_[c].read < s.first_reads + s.global_reads;
      if ((global ? gmem : smem)[r.addr] != r.value) return false;
    }
    return true;
  }

  /// Lower `gpos` / `spos` to the position, among segment g's global /
  /// shared first reads, of the earliest queued read whose word no longer
  /// holds its golden value: the segment runs as it did up to that read.
  void first_mismatch(std::uint32_t g, const LaunchJournal::Segment& s,
                      const std::uint32_t* gmem, const std::uint32_t* smem, std::uint32_t& gpos,
                      std::uint32_t& spos) const noexcept {
    if (head_.empty()) return;
    for (std::uint32_t c = head_[g]; c != kNone; c = checks_[c].next) {
      const std::uint32_t read = checks_[c].read;
      const LaunchJournal::Word& r = j_.reads[read];
      if (read < s.first_reads + s.global_reads) {
        if (gmem[r.addr] != r.value) gpos = std::min(gpos, read - s.first_reads);
      } else if (smem[r.addr] != r.value) {
        spos = std::min(spos, read - s.first_reads - s.global_reads);
      }
    }
  }

  /// Lower `gpos` / `wpos` to the position of segment g's first read / first
  /// write of a word of one of `latent` pairs: under protection, that access
  /// must take the checked path.
  void first_latent_touch(std::uint32_t g, const LaunchJournal::Segment& s,
                          std::span<const std::uint32_t> latent, std::uint32_t& gpos,
                          std::uint32_t& wpos) const noexcept {
    for (const std::uint32_t pair : latent)
      for (const std::uint32_t addr : {2 * pair, 2 * pair + 1}) {
        // Entries of (addr, g): its first read, if any, then its writer entry.
        auto it = std::lower_bound(j_.global_index.begin(), j_.global_index.end(),
                                   LaunchJournal::Access{addr, g, 0});
        for (; it != j_.global_index.end() && it->addr == addr && it->segment == g; ++it) {
          if (it->read != LaunchJournal::kWrite) {
            gpos = std::min(gpos, it->read - s.first_reads);
            continue;
          }
          for (std::uint32_t w = 0; w < s.writes; ++w)
            if (j_.writes[s.first_write + w].addr == addr) {
              wpos = std::min(wpos, w);
              break;
            }
        }
      }
  }

  /// Whether segment `g` first-reads or writes a word of one of `latent` pairs.
  [[nodiscard]] bool touches(std::uint32_t g,
                             std::span<const std::uint32_t> latent) const noexcept {
    for (const std::uint32_t pair : latent)
      for (const std::uint32_t addr : {2 * pair, 2 * pair + 1}) {
        const auto [lo, hi] = std::equal_range(j_.global_index.begin(), j_.global_index.end(),
                                               LaunchJournal::Access{addr, 0, 0}, addr_less);
        if (std::binary_search(lo, hi, LaunchJournal::Access{addr, g, 0}, by_segment))
          return true;
      }
    return false;
  }

  /// Thread `slot` is about to interpret its slice `k`: its writes are
  /// compared, as they happen, with those of golden segment k (none when
  /// the golden thread had halted by then).
  void begin_slice(std::uint32_t slot, std::uint32_t k) {
    first_ = j_.thread_begin[slot];
    count_ = j_.thread_begin[slot + 1] - first_;
    k_ = k;
    const LaunchJournal::Segment* gold = golden();
    gw_ = gold ? gold->first_write : 0;
    gw_end_ = gold ? gold->first_write + gold->writes : 0;
    gs_ = gold ? gold->first_shared_write : 0;
    gs_end_ = gold ? gold->first_shared_write + gold->shared_writes : 0;
    gdiff_ = sdiff_ = false;
  }
  /// The slice starts past a golden prefix that made the first `writes`
  /// global and `shared_writes` shared writes of its segment.
  void skip(std::uint32_t writes, std::uint32_t shared_writes) noexcept {
    gw_ += writes;
    gs_ += shared_writes;
  }
  /// Whether the slice's writes so far are exactly the first `writes`
  /// global and `shared_writes` shared writes of its golden segment.
  [[nodiscard]] bool wrote_golden_prefix(std::uint32_t writes,
                                         std::uint32_t shared_writes) const noexcept {
    const LaunchJournal::Segment* gold = golden();
    return gold && !gdiff_ && !sdiff_ && gw_ == gold->first_write + writes &&
           gs_ == gold->first_shared_write + shared_writes;
  }

  /// The slice's next global write (a store's value, or an atomic's addend).
  void global_write(std::uint32_t addr, std::uint32_t value, LaunchJournal::WriteKind kind) {
    if (!gdiff_) {
      if (gw_ < gw_end_ && j_.writes[gw_] == LaunchJournal::Write{addr, value, kind}) {
        ++gw_;
        return;
      }
      global_differs();
    }
    add_global(addr);
  }
  void shared_write(std::uint32_t addr, std::uint32_t value) {
    if (!sdiff_) {
      if (gs_ < gs_end_ && j_.shared_writes[gs_] == LaunchJournal::Word{addr, value}) {
        ++gs_;
        return;
      }
      shared_differs();
    }
    add_shared(addr);
  }
  /// The slice stopped at a Barrier or (`done`) at Halt.  A write sequence
  /// shorter than the golden one differs too.  A thread that halts before
  /// its golden run did also puts its remaining golden segments' writes
  /// into S: the golden run made them, this one never will.
  void end_slice(bool done) {
    if (!gdiff_ && gw_ != gw_end_) global_differs();
    if (!sdiff_ && gs_ != gs_end_) shared_differs();
    if (!done) return;
    for (std::uint32_t later = k_ + 1; later < count_; ++later) {
      const LaunchJournal::Segment& s = j_.segments[first_ + later];
      for (std::uint32_t w = 0; w < s.writes; ++w) add_global(j_.writes[s.first_write + w].addr);
      for (std::uint32_t w = 0; w < s.shared_writes; ++w)
        add_shared(j_.shared_writes[s.first_shared_write + w].addr);
    }
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// A queued first read (index into j_.reads) and the next one queued on
  /// the same segment.
  struct Check {
    std::uint32_t read;
    std::uint32_t next;
  };
  static bool by_segment(const LaunchJournal::Access& a,
                         const LaunchJournal::Access& b) noexcept {
    return a.segment < b.segment;
  }
  /// Set bit `addr`; false if it was set already.
  static bool insert(std::vector<std::uint64_t>& bits, std::uint32_t addr) {
    const std::size_t w = addr / 64;
    if (w >= bits.size()) bits.resize(w + 1, 0);
    const std::uint64_t m = std::uint64_t{1} << (addr % 64);
    if (bits[w] & m) return false;
    bits[w] |= m;
    return true;
  }
  [[nodiscard]] const LaunchJournal::Segment* golden() const noexcept {
    return k_ < count_ ? &j_.segments[first_ + k_] : nullptr;
  }
  /// The slice's global writes left the golden sequence: every golden write
  /// of the segment joins S (the slice's own writes so far equal a prefix
  /// of them), and so will each later write of the slice.
  void global_differs() {
    gdiff_ = true;
    if (const LaunchJournal::Segment* gold = golden())
      for (std::uint32_t w = 0; w < gold->writes; ++w)
        add_global(j_.writes[gold->first_write + w].addr);
  }
  void shared_differs() {
    sdiff_ = true;
    if (const LaunchJournal::Segment* gold = golden())
      for (std::uint32_t w = 0; w < gold->shared_writes; ++w)
        add_shared(j_.shared_writes[gold->first_shared_write + w].addr);
  }
  void queue(std::uint32_t g, std::uint32_t read) {
    if (head_.empty()) head_.assign(j_.segments.size(), kNone);
    checks_.push_back({read, head_[g]});
    head_[g] = static_cast<std::uint32_t>(checks_.size() - 1);
  }

  const LaunchJournal& j_;
  std::uint32_t indexed_;  ///< one past the highest address in the global index
  std::uint32_t block_ = 0;
  std::vector<std::uint64_t> global_, shared_;  ///< S as bitmaps, grown on demand
  bool any_shared_ = false;
  std::vector<std::uint32_t> head_;  ///< per segment: last queued check (empty: none yet)
  std::vector<Check> checks_;
  // The interpreted slice: its thread's segments [first_, first_ + count_),
  // its number k_, the next golden writes to match (gw_, gs_) and whether
  // its writes already differ (gdiff_, sdiff_).
  std::uint32_t first_ = 0, count_ = 0, k_ = 0;
  std::uint32_t gw_ = 0, gw_end_ = 0, gs_ = 0, gs_end_ = 0;
  bool gdiff_ = false, sdiff_ = false;
};

/// Executes all threads of one block.
class BlockExec {
 public:
  BlockExec(Device& dev, const kir::BytecodeProgram& prog, const LaunchConfig& cfg,
            const LaunchOptions& opts, const std::vector<std::uint32_t>& costs,
            const kir::DecodedProgram& decoded, const kir::ThreadedProgram* threaded,
            const kir::ThreadedProgram* armed_threaded, const kir::FIFilter& fi,
            std::uint32_t block_linear,
            std::vector<SanitizerReport>* report_sink, const LaunchJournal* journal,
            DeltaSet* delta, JournalRecorder* recorder, TouchRecorder* touch)
      : dev_(dev), prog_(prog), cfg_(cfg), opts_(opts), costs_(costs),
        tcode_(threaded && !threaded->code.empty() ? threaded->code.data() : nullptr),
        tcode_armed_(armed_threaded ? armed_threaded->code.data() : tcode_),
        fi_thread_(fi.thread),
        fi_site_(fi.site),
        fi_occurrence_(fi.occurrence),
        armed_(fi.kind == kir::FIFilter::Kind::Armed),
        journal_(journal),
        delta_(delta),
        rec_(recorder),
        touch_(touch),
        sites_(decoded.sanitizer_sites.data()),
        block_linear_(block_linear),
        sm_(block_linear % dev.props().num_sms),
        bx_(block_linear % cfg.grid_x), by_(block_linear / cfg.grid_x),
        threads_per_block_(cfg.block_x * cfg.block_y),
        shared_(prog.shared_mem_words, 0u) {
    if (report_sink)
      shadow_ = std::make_unique<SharedShadow>(
          static_cast<std::uint32_t>(shared_.size()), dev.props().warp_size,
          block_linear, *report_sink, opts.sanitize_report_cap);
    if (delta_) delta_->begin_block(block_linear, prog.shared_mem_words);
    if (rec_) rec_->begin_block(threads_per_block_);
  }

  LaunchStatus run(std::span<const kir::Value> args);

  std::uint64_t cycles = 0;
  std::uint64_t loop_cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t simt_cycles = 0;
  bool sdc = false;
  std::vector<std::uint64_t> exec_counts;  ///< per-instruction, when profiling
  std::vector<std::uint32_t> thread_counts;  ///< [thread][pc], when SIMT costing
  std::int64_t deadlock_pc = -1;    ///< barrier pc on CrashBarrierDeadlock
  std::int64_t deadlock_site = -1;  ///< its sanitizer site id
  std::uint64_t replayed = 0;       ///< segments applied from the journal
  /// Instructions replay took from the journal instead of interpreting:
  /// applied segments, skipped prefixes and rejoined suffixes.
  std::uint64_t replayed_instructions = 0;
  /// Instructions a hung thread's fast-forward skipped (fast_forward_loop).
  std::uint64_t fast_forwarded = 0;
  /// Shared words replay wrote from the journal.
  std::uint64_t replayed_shared_writes = 0;
  /// Recording launches: the segments (thread slices) the block ran, and the
  /// largest watchdog budget any of its threads used.
  std::uint64_t slices = 0, max_budget = 0;

  [[nodiscard]] std::uint64_t sanitizer_dropped() const noexcept {
    return shadow_ ? shadow_->dropped() : 0;
  }

 private:
  struct ThreadCtx {
    std::uint32_t pc = 0;
    std::uint64_t budget_used = 0;
    std::uint32_t tx = 0, ty = 0;
    std::uint32_t linear = 0;     // global linear thread id
    std::uint32_t block_index = 0;  // index within the block
    std::uint32_t barrier_pc = 0;   // pc of the barrier this thread last stopped at
    bool done = false;
    std::uint32_t* regs = nullptr;
    // Replay only: the thread's next slice (its golden counterpart is the
    // journal segment of that number), and whether its registers have left
    // the golden run's (it was interpreted).
    std::uint32_t segment = 0;
    bool diverged = false;
  };

  ThreadStop run_thread(ThreadCtx& t, LaunchStatus& crash_status);
  bool apply_segment(ThreadCtx& t, std::uint32_t slot, std::uint32_t k);
  std::uint32_t skip_prefix(ThreadCtx& t, std::uint32_t g, std::uint32_t k, std::uint32_t first,
                            std::uint32_t end);
  bool rejoin(ThreadCtx& t, std::uint32_t g, std::uint32_t i);
  void apply_writes(const LaunchJournal::Segment& s, std::uint32_t w0, std::uint32_t w1,
                    std::uint32_t sw0, std::uint32_t sw1);
  void apply_whole(const LaunchJournal::Segment& s);
  void apply_global_writes(const LaunchJournal::Segment& s, std::uint32_t w0, std::uint32_t w1);
  void charge(std::uint64_t instr, std::uint64_t cyc, std::uint64_t loop) noexcept {
    instructions += instr;
    cycles += cyc;
    loop_cycles += loop;
    replayed_instructions += instr;
  }
  /// t is the armed thread and its fault has not fired yet: its armed
  /// occurrence is still a possible difference.
  [[nodiscard]] bool armed_pending(const ThreadCtx& t) const noexcept {
    return armed_ && t.linear == fi_thread_ && !fired_;
  }
  /// An fi_hook call injected its fault.  The thread leaves the stream with
  /// live FIHooks at its next slice (step_thread); in a replay the slice
  /// also stops at its next taken backward jump, to leave sooner.
  void fire() noexcept {
    fired_ = true;
    if (journal_) stop_at_ = 0;
  }
  /// At a taken backward jump to `pc`, with `li`/`lc`/`ll` instructions,
  /// cycles and loop cycles the slice has not yet added to the block's
  /// totals, once the thread's budget has reached `stop_at_`: recording
  /// offers the recorder a snapshot, in place; replay returns true to stop
  /// the slice there (ThreadStop::Snapshot) and try to rejoin.
  bool snapshot_point(const ThreadCtx& t, std::uint32_t pc, std::uint64_t li, std::uint64_t lc,
                      std::uint64_t ll) {
    if (t.budget_used + li < stop_at_) return false;
    if (!rec_) return true;
    offer_snapshot(t, pc, li, lc, ll);
    return false;
  }
  void offer_snapshot(const ThreadCtx& t, std::uint32_t pc, std::uint64_t li, std::uint64_t lc,
                      std::uint64_t ll);
  ThreadStop replay_slice(ThreadCtx& t, LaunchStatus& crash_status);
  struct HangProbe;
  bool probe_hang(ThreadCtx& t, HangProbe& p);
  /// One period's instructions, cycles and loop cycles (trace_period).
  struct PeriodTotals {
    std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0;
  };
  bool fast_forward_loop(ThreadCtx& t);
  bool trace_period(const ThreadCtx& t, std::uint32_t* regs, Affine* vals, std::uint64_t last,
                    PeriodTotals& per);
  ThreadStop record_segment(ThreadCtx& t, LaunchStatus& crash_status);
  ThreadStop run_thread_threaded(ThreadCtx& t, LaunchStatus& crash_status,
                                 const kir::ThreadedInstr* tcode);
  ThreadStop step_thread(ThreadCtx& t, LaunchStatus& crash_status);
  void finish_simt_cost();
  std::uint32_t builtin_value(const ThreadCtx& t, BuiltinVal b) const noexcept;
  void maybe_hw_fault(std::uint32_t& bits, DType t) noexcept;
  [[nodiscard]] std::int64_t site_of(std::uint32_t pc) const noexcept {
    const std::uint32_t s = sites_[pc];
    return s == kir::kNoSite ? -1 : static_cast<std::int64_t>(s);
  }

  Device& dev_;
  const kir::BytecodeProgram& prog_;
  const LaunchConfig& cfg_;
  const LaunchOptions& opts_;
  const std::vector<std::uint32_t>& costs_;
  /// Threaded-code stream this launch runs; null when it runs on the
  /// reference interpreter (Device::launch decides).
  const kir::ThreadedInstr* tcode_;
  /// The stream the armed thread runs while its fault is pending: tcode_'s
  /// memory mode with every FIHook live.
  const kir::ThreadedInstr* tcode_armed_;
  std::uint32_t fi_thread_;       ///< the launch's armed thread
  std::uint32_t fi_site_;         ///< its armed site index
  std::uint64_t fi_occurrence_;   ///< its armed occurrence (0: unknown)
  bool armed_;                    ///< the launch's FI filter is Armed
  bool fired_ = false;            ///< an fi_hook call of this block injected its fault
  const LaunchJournal* journal_;  ///< non-null on a replaying launch
  /// The replaying launch's delta set, fed the interpreted slices' writes
  /// by run_thread and the stream's Rec* ops.
  DeltaSet* delta_;
  JournalRecorder* rec_;          ///< non-null on a recording launch
  TouchRecorder* touch_;          ///< non-null on a launch recording only the net effect
  const std::uint32_t* sites_;    ///< per-pc sanitizer site ids (all engines)
  std::uint32_t block_linear_, sm_, bx_, by_, threads_per_block_;
  std::vector<std::uint32_t> shared_;
  std::unique_ptr<SharedShadow> shadow_;  ///< non-null only on a sanitizing device
  std::uint32_t epoch_ = 0;  ///< barrier epoch, bumped at every successful release
  // Snapshot points (taken backward jumps): the budget at which the next
  // one acts — the recorder's next offer, or the next snapshot a replayed
  // slice may rejoin at.  Recording also keeps the block's totals when the
  // segment began and the thread's FI-site counters.
  static constexpr std::uint64_t kNoStop = ~std::uint64_t{0};
  std::uint64_t stop_at_ = kNoStop;
  std::uint64_t seg_instructions_ = 0, seg_cycles_ = 0, seg_loop_cycles_ = 0;
  std::uint32_t* site_counts_ = nullptr;
  /// Counter-loop fast-forward: each register's value at the period's
  /// start and as traced (fast_forward_loop).
  std::vector<Affine> probe_start_, probe_vals_;
  std::vector<std::uint32_t> trace_regs_;  ///< the registers a traced period runs on
};

std::uint32_t BlockExec::builtin_value(const ThreadCtx& t, BuiltinVal b) const noexcept {
  switch (b) {
    case BuiltinVal::ThreadIdxX: return t.tx;
    case BuiltinVal::ThreadIdxY: return t.ty;
    case BuiltinVal::BlockIdxX: return bx_;
    case BuiltinVal::BlockIdxY: return by_;
    case BuiltinVal::BlockDimX: return cfg_.block_x;
    case BuiltinVal::BlockDimY: return cfg_.block_y;
    case BuiltinVal::GridDimX: return cfg_.grid_x;
    case BuiltinVal::GridDimY: return cfg_.grid_y;
    case BuiltinVal::ThreadLinear: return t.linear;
  }
  return 0;
}

void BlockExec::maybe_hw_fault(std::uint32_t& bits, DType t) noexcept {
  // Slow path: only entered when a device fault model is installed.
  const DeviceFaultModel& fm = dev_.fault_;
  if (sm_ != fm.sm) return;
  const bool is_fp = t == DType::F32;
  if (fm.component == DeviceFaultModel::Component::ALU && is_fp) return;
  if (fm.component == DeviceFaultModel::Component::FPU && !is_fp) return;
  const std::uint64_t n = dev_.fault_op_counter_.fetch_add(1, std::memory_order_relaxed);
  if (fm.period > 1 && (n % fm.period) != 0) return;
  if (fm.kind != DeviceFaultModel::Kind::Permanent && fm.duration_ops > 0) {
    // Check-then-increment: the counter records *actual* injections so the
    // fault expires after exactly duration_ops corruptions.  (A concurrent
    // race could inject one extra op; fault experiments run deterministic
    // single-block configurations where this cannot happen.)
    if (dev_.fault_injected_ops_.load(std::memory_order_relaxed) >= fm.duration_ops) return;
    dev_.fault_injected_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  bits ^= fm.mask;
}

ThreadStop BlockExec::run_thread(ThreadCtx& t, LaunchStatus& crash_status) {
  const Instr* code = prog_.code.data();
  std::uint32_t* regs = t.regs;
  DeviceMemory& mem = dev_.mem();
  const bool hw_fault = dev_.has_fault();
  std::uint64_t local_cycles = 0, local_loop = 0, local_instr = 0;

  auto finish = [&] {
    cycles += local_cycles;
    loop_cycles += local_loop;
    instructions += local_instr;
    t.budget_used += local_instr;
  };

  for (;;) {
    if (local_instr + t.budget_used > opts_.watchdog_instructions) {
      finish();
      return ThreadStop::Budget;
    }
    const Instr& in = code[t.pc];
    const std::uint32_t c = costs_[t.pc];
    local_cycles += c;
    if (in.flags & kir::kInstrInLoop) local_loop += c;
    ++local_instr;
    if (!exec_counts.empty()) ++exec_counts[t.pc];
    if (!thread_counts.empty())
      ++thread_counts[static_cast<std::size_t>(t.block_index) * prog_.code.size() + t.pc];
    ++t.pc;

    switch (in.op) {
      case OpCode::Nop:
        break;
      case OpCode::Const:
        regs[in.dst] = in.imm;
        break;
      case OpCode::Mov:
        regs[in.dst] = regs[in.a];
        if (hw_fault && dev_.fault_.component == DeviceFaultModel::Component::RegisterFile)
          maybe_hw_fault(regs[in.dst], DType::I32);
        break;
      case OpCode::Builtin:
        regs[in.dst] = builtin_value(t, static_cast<BuiltinVal>(in.aux));
        break;
      case OpCode::Un: {
        std::uint32_t r = eval_un(static_cast<UnOp>(aux_op(in.aux)), aux_type(in.aux), regs[in.a]);
        if (hw_fault) maybe_hw_fault(r, aux_type(in.aux));
        regs[in.dst] = r;
        break;
      }
      case OpCode::Bin: {
        bool crash = false;
        std::uint32_t r = eval_bin(static_cast<BinOp>(aux_op(in.aux)), aux_type(in.aux),
                                   regs[in.a], regs[in.b], crash);
        if (crash) {
          crash_status = LaunchStatus::CrashDivByZero;
          finish();
          return ThreadStop::Crash;
        }
        if (hw_fault) maybe_hw_fault(r, aux_type(in.aux));
        regs[in.dst] = r;
        break;
      }
      case OpCode::Select:
        regs[in.dst] = regs[in.a] != 0 ? regs[in.b] : regs[static_cast<std::uint16_t>(in.imm)];
        break;
      case OpCode::LoadG: {
        const std::uint32_t addr = regs[in.a];
        if (!mem.load(addr, regs[in.dst])) {
          crash_status = mem_fail_status();
          finish();
          return ThreadStop::Crash;
        }
        if (rec_)
          rec_->global_load(addr, regs[in.dst]);
        else if (touch_)
          touch_->load(addr);
        break;
      }
      case OpCode::StoreG:
        if (!mem.store(regs[in.a], regs[in.b])) {
          crash_status = mem_fail_status();
          finish();
          return ThreadStop::Crash;
        }
        if (rec_)
          rec_->global_store(regs[in.a], regs[in.b]);
        else if (delta_)
          delta_->global_write(regs[in.a], regs[in.b], LaunchJournal::WriteKind::Store);
        else if (touch_)
          touch_->write(regs[in.a]);
        break;
      case OpCode::LoadS:
      case OpCode::StoreS: {
        // The sanitizer shadow only observes: same crash point, same writes.
        const std::uint32_t addr = regs[in.a];
        if (addr >= shared_.size()) {
          if (shadow_) shadow_->on_oob(t.pc - 1, sites_[t.pc - 1], t.block_index, addr, epoch_);
          crash_status = LaunchStatus::CrashSharedOutOfBounds;
          finish();
          return ThreadStop::Crash;
        }
        if (in.op == OpCode::LoadS) {
          if (shadow_) shadow_->on_load(t.pc - 1, sites_[t.pc - 1], t.block_index, addr, epoch_);
          regs[in.dst] = shared_[addr];
          if (rec_) rec_->shared_load(addr, regs[in.dst]);
        } else {
          if (shadow_) shadow_->on_store(t.pc - 1, sites_[t.pc - 1], t.block_index, addr, epoch_);
          shared_[addr] = regs[in.b];
          if (rec_)
            rec_->shared_store(addr, regs[in.b]);
          else if (delta_)
            delta_->shared_write(addr, regs[in.b]);
        }
        break;
      }
      case OpCode::AtomicAddG: {
        std::lock_guard<std::mutex> lk(dev_.atomic_mutex());
        const bool is_f = aux_type(in.aux) == DType::F32;
        std::uint32_t pre = 0;
        const bool ok =
            is_f ? mem.rmw(regs[in.a],
                           [&](std::uint32_t w) {
                             pre = w;
                             return fadd_bits(w, regs[in.b]);
                           })
                 : mem.rmw(regs[in.a], [&](std::uint32_t w) {
                     pre = w;
                     return i_bits(static_cast<std::int32_t>(
                         static_cast<std::int64_t>(as_i(w)) + as_i(regs[in.b])));
                   });
        if (!ok) {
          crash_status = mem_fail_status();
          finish();
          return ThreadStop::Crash;
        }
        const auto kind =
            is_f ? LaunchJournal::WriteKind::AtomicAddF : LaunchJournal::WriteKind::AtomicAddI;
        if (rec_)
          rec_->global_atomic(regs[in.a], regs[in.b], kind, pre);
        else if (delta_)
          delta_->global_write(regs[in.a], regs[in.b], kind);
        else if (touch_)
          touch_->write(regs[in.a]);
        break;
      }
      case OpCode::Jmp:
      case OpCode::Jz: {
        if (in.op == OpCode::Jz && regs[in.a] != 0) break;
        // A taken backward jump is a snapshot point of recording and
        // replaying launches (t.pc is one past the jump).
        const bool back = in.aux < t.pc;
        t.pc = in.aux;
        if (back && snapshot_point(t, t.pc, local_instr, local_cycles, local_loop)) {
          finish();
          return ThreadStop::Snapshot;
        }
        break;
      }
      case OpCode::Barrier:
        t.barrier_pc = t.pc - 1;
        finish();
        return ThreadStop::Barrier;
      case OpCode::Halt:
        finish();
        t.done = true;
        return ThreadStop::Done;

      case OpCode::ChkXor:
        regs[in.dst] ^= regs[in.a];
        break;
      case OpCode::ChkValidate:
        if (regs[in.dst] != 0) sdc = true;
        break;
      case OpCode::DupCmp:
        if (regs[in.a] != regs[in.b]) sdc = true;
        break;
      case OpCode::RangeCheck:
        if (opts_.hooks) {
          const DType vt = prog_.detectors[in.aux].value_type;
          if (opts_.hooks->check_range(static_cast<int>(in.aux), kir::Value{vt, regs[in.a]}))
            sdc = true;
        }
        break;
      case OpCode::EqualCheck:
        if (regs[in.a] != regs[in.b]) {
          sdc = true;
          if (opts_.hooks) opts_.hooks->equal_check_failed(static_cast<int>(in.aux));
        }
        break;
      case OpCode::ProfileVal:
        if (opts_.hooks) {
          const DType vt = prog_.detectors[in.aux].value_type;
          opts_.hooks->profile_value(static_cast<int>(in.aux), kir::Value{vt, regs[in.a]});
        }
        break;
      case OpCode::CountExec:
        if (opts_.hooks) opts_.hooks->count_exec(in.aux, t.linear);
        break;
      case OpCode::FIHook:
        if (site_counts_) ++site_counts_[in.aux];
        if (opts_.hooks && opts_.hooks->fi_hook(in.aux, t.linear, regs[in.a])) fire();
        break;
      default:
        crash_status = LaunchStatus::CrashInvalidInstr;
        finish();
        return ThreadStop::Crash;
    }
  }
}

/// The threaded-code engine.  Dispatches the kir::ThreadedProgram stream
/// compiled per launch plan: computed goto when the toolchain has
/// labels-as-values (HAUBERK_COMPUTED_GOTO, see top-level CMakeLists), a
/// switch loop otherwise — the two builds are bitwise identical, only
/// dispatch latency differs.
///
/// Semantics are pinned to run_thread by two rules:
///
///  * single ops replicate the reference handler bodies exactly, with the
///    watchdog test rewritten as a countdown (`left`) that is equivalent
///    step for step to the reference's `local_instr + budget_used >
///    watchdog` test;
///  * fused superinstructions perform *all* their checks — enough budget
///    for the whole region, every memory bound — before any register
///    write, memory write or cost charge.  Any case they cannot replicate
///    bit for bit (budget boundary inside the region, an out-of-bounds
///    fused load/store) delegates: finish() then resume the slice on
///    run_thread from the (position-stable) head pc, which reproduces
///    partial charges and crash points by construction.  The slice then
///    ends inside that region (budget exhausted or crash), so the reference
///    runs at most one region's worth of instructions.
///
/// Sanitized launches (Device::set_sanitize) run here too: their stream's
/// shared accesses are the SanLoadS/SanStoreS singles, which report to the shadow
/// exactly where run_thread does.  So do recording and replaying launches:
/// their Rec* ops report to the JournalRecorder (recording only the net
/// effect, to the TouchRecorder; replaying, to the delta set) where
/// run_thread does.
/// Launches that profile execution counts,
/// cost SIMT serialization or carry a hardware fault model run on
/// run_thread instead (see Device::launch), so instrumentation semantics
/// live in one place.
ThreadStop BlockExec::run_thread_threaded(ThreadCtx& t, LaunchStatus& crash_status,
                                          const kir::ThreadedInstr* tcode) {
  using kir::TOp;
  // The threaded stream, the thread's register file and the flat arena are
  // three disjoint allocations; __restrict lets the compiler keep operands
  // in registers across regs[]/gmem[] stores (plain uint32 writes that TBAA
  // alone cannot separate from ThreadedInstr's uint32 fields).
  const kir::ThreadedInstr* const __restrict code = tcode;
  std::uint32_t* const __restrict regs = t.regs;
  DeviceMemory& mem = dev_.mem();
  const std::span<std::uint32_t> arena = mem.flat_arena();
  std::uint32_t* const __restrict gmem = arena.data();  // null for PagedCpu
  const auto gsize = static_cast<std::uint32_t>(arena.size());
  const auto ssize = static_cast<std::uint32_t>(shared_.size());
  const std::uint64_t watchdog = opts_.watchdog_instructions;
  std::uint64_t local_cycles = 0, local_loop = 0, local_instr = 0;

  // Countdown form of the reference's watchdog test: that loop executes
  // an instruction iff local_instr + budget_used <= watchdog, i.e. exactly
  // watchdog - budget_used + 1 instructions this slice (zero if a barrier
  // landed the thread just past the budget).  The +1 can only wrap for
  // watchdog == UINT64_MAX, where the budget is unreachable anyway.
  std::uint64_t left = t.budget_used > watchdog ? 0 : watchdog - t.budget_used + 1;
  if (t.budget_used <= watchdog && left == 0) left = ~std::uint64_t{0};

  // Register-resident instruction cursor: t.pc is a uint32 member, so every
  // regs[] store (also uint32) could alias it as far as the compiler knows,
  // forcing a reload per dispatch.  Keep the cursor local and sync it back
  // only at slice exits (finish covers every return path, including the
  // reference delegation which resumes from t.pc).
  std::uint32_t pc = t.pc;

  auto finish = [&] {
    t.pc = pc;
    cycles += local_cycles;
    loop_cycles += local_loop;
    instructions += local_instr;
    t.budget_used += local_instr;
  };

// Per-single prologue: budget countdown, pre-folded cost charge, pc++ —
// the same order as the reference (budget test before any charge).
#define T_STEP1()                     \
  do {                                \
    if (left == 0) {                  \
      finish();                       \
      return ThreadStop::Budget;      \
    }                                 \
    --left;                           \
    local_cycles += in->cost;         \
    local_loop += in->loop_cost;      \
    ++local_instr;                    \
    ++pc;                             \
  } while (0)
// Fused prologue: the region's summed charge under one budget decrement.
// Callers must have verified left >= len and every crash condition first.
#define T_CHARGE(n)                   \
  do {                                \
    left -= (n);                      \
    local_cycles += in->cost;         \
    local_loop += in->loop_cost;      \
    local_instr += (n);               \
  } while (0)
#define T_CRASH(st)                   \
  {                                   \
    crash_status = (st);              \
    finish();                         \
    return ThreadStop::Crash;         \
  }
// Bail out of a fused head the interpreter cannot replicate exactly:
// resume this slice on the reference interpreter at the (unchanged) head
// pc.  Nothing has been charged or written yet, so the reference
// reproduces the reference trace including partial charges and crashes.
#define T_DELEGATE()                    \
  do {                                  \
    finish();                           \
    return run_thread(t, crash_status); \
  } while (0)
// Accounted fused prologue for a crash-free head covering n instructions:
// a budget boundary inside the region delegates, else one charge.
#define T_FUSED(n)                    \
  do {                                \
    if (left < (n)) T_DELEGATE();     \
    T_CHARGE(n);                      \
  } while (0)
// Naked prologues (inside a run, which its RunHead already billed): a
// single steps pc, a fused pair's body advances pc itself.
#define T_NK_STEP ++pc
#define T_NK_PAIR (void)0

#if HAUBERK_COMPUTED_GOTO
#define T_LABEL(n) lbl_##n
#define T_NEXT()                      \
  do {                                \
    in = &code[pc];                   \
    goto* kLabels[in->op];            \
  } while (0)
// RunHead tail: dispatch the head op's naked handler without reloading `in`
// (the head slot carries the first op's operands).
#define T_DISPATCH_D() goto* kLabels[in->d]
#else
#define T_LABEL(n) case kir::TOp::n
#define T_NEXT() break
#define T_DISPATCH_D()                          \
  do {                                          \
    opv = in->d;                                \
    goto lbl_redispatch;                        \
  } while (0)
#endif
// Crash inside a run: the head charged the whole region up front, so hand
// back the suffix *after* the crashing op (its refund fields) before the
// normal crash exit — the launch then bills exactly what the reference
// bills, the prefix up to and including the crashing op.
#define T_NK_CRASH(st)                \
  {                                   \
    left += in->len;                  \
    local_instr -= in->len;           \
    local_cycles -= in->cost;         \
    local_loop -= in->loop_cost;      \
    T_CRASH(st);                      \
  }
// After a taken backward jump of a recording or write-tracking stream: offer
// the recorder a snapshot, or stop the slice here if replay asked to
// (BlockExec::snapshot_point).
#define T_SNAPSHOT_POINT()                                                     \
  do {                                                                         \
    if (snapshot_point(t, pc, local_instr, local_cycles, local_loop)) {        \
      finish();                                                                \
      return ThreadStop::Snapshot;                                             \
    }                                                                          \
  } while (0)

// Operator evaluators, shared by the single-op handlers and the fused
// families that specialize on them.
#define HB_CMP_LtI(A, B) static_cast<std::uint32_t>(as_i(A) < as_i(B))
#define HB_CMP_LeI(A, B) static_cast<std::uint32_t>(as_i(A) <= as_i(B))
#define HB_CMP_GtI(A, B) static_cast<std::uint32_t>(as_i(A) > as_i(B))
#define HB_CMP_GeI(A, B) static_cast<std::uint32_t>(as_i(A) >= as_i(B))
#define HB_CMP_LtU(A, B) static_cast<std::uint32_t>((A) < (B))
#define HB_CMP_LeU(A, B) static_cast<std::uint32_t>((A) <= (B))
#define HB_CMP_GtU(A, B) static_cast<std::uint32_t>((A) > (B))
#define HB_CMP_GeU(A, B) static_cast<std::uint32_t>((A) >= (B))
#define HB_CMP_LtF(A, B) static_cast<std::uint32_t>(as_f(A) < as_f(B))
#define HB_CMP_LeF(A, B) static_cast<std::uint32_t>(as_f(A) <= as_f(B))
#define HB_CMP_GtF(A, B) static_cast<std::uint32_t>(as_f(A) > as_f(B))
#define HB_CMP_GeF(A, B) static_cast<std::uint32_t>(as_f(A) >= as_f(B))
#define HB_CMP_EqW(A, B) static_cast<std::uint32_t>((A) == (B))
#define HB_CMP_NeW(A, B) static_cast<std::uint32_t>((A) != (B))
#define HB_CMP_EqF(A, B) static_cast<std::uint32_t>(as_f(A) == as_f(B))
#define HB_CMP_NeF(A, B) static_cast<std::uint32_t>(as_f(A) != as_f(B))
#define HB_ALU_AddW(A, B) ((A) + (B))
#define HB_ALU_SubW(A, B) ((A) - (B))
#define HB_ALU_MulW(A, B) ((A) * (B))
#define HB_ALU_AddF(A, B) fadd_bits((A), (B))
#define HB_ALU_SubF(A, B) fsub_bits((A), (B))
#define HB_ALU_MulF(A, B) fmul_bits((A), (B))
#define HB_ALU_DivF(A, B) fdiv_bits((A), (B))
#define HB_ALU_MaxF(A, B) fmax_bits((A), (B))
#define HB_ALU_LtF(A, B) HB_CMP_LtF((A), (B))
#define HB_ALU_GtI(A, B) HB_CMP_GtI((A), (B))
#define HB_ALU_EqW(A, B) HB_CMP_EqW((A), (B))
#define HB_ALU_AndB(A, B) ((A) & (B))
#define HB_ALU_ShrA(A, B) i_bits(as_i(A) >> ((B) & 31))
#define HB_ALU_LAndW(A, B) static_cast<std::uint32_t>(((A) != 0) && ((B) != 0))

  // --- op bodies ---
  // Every op's semantics are written once, as a body parameterized by its
  // prologue PRE and crash exit CRASH, and instantiated in each form the
  // stream uses: accounted (PRE = T_STEP1(), CRASH = T_CRASH) and naked
  // inside a run (PRE = T_NK_STEP, CRASH = T_NK_CRASH with its suffix
  // refund); a fused family's body accounted (PRE = T_FUSED(n)) and naked
  // (PRE = T_NK_PAIR).  PRE steps pc first, so a body sees its op at pc - 1.

  // Singles that only set regs[dst]: (name, value).
#define T_SET_OPS(X)                                                                        \
  X(Const, in->imm)                                                                         \
  X(Mov, regs[in->a])                                                                       \
  X(Builtin, builtin_value(t, static_cast<BuiltinVal>(in->aux)))                            \
  X(Select, regs[in->a] != 0 ? regs[in->b] : regs[static_cast<std::uint16_t>(in->imm)])     \
  X(NegF, f_bits(-as_f(regs[in->a])))                                                       \
  X(NegI, neg_i_bits(regs[in->a]))                                                          \
  X(NotF, as_f(regs[in->a]) == 0.0f)                                                        \
  X(NotW, regs[in->a] == 0)                                                                 \
  X(BitNot, ~regs[in->a])                                                                   \
  X(AbsF, f_bits(std::fabs(as_f(regs[in->a]))))                                             \
  X(AbsI, abs_i_bits(regs[in->a]))                                                          \
  X(SqrtF, f_bits(std::sqrt(as_f(regs[in->a]))))                                            \
  X(RsqrtF, f_bits(1.0f / std::sqrt(as_f(regs[in->a]))))                                    \
  X(ExpF, f_bits(std::exp(as_f(regs[in->a]))))                                              \
  X(LogF, f_bits(std::log(as_f(regs[in->a]))))                                              \
  X(SinF, f_bits(std::sin(as_f(regs[in->a]))))                                              \
  X(CosF, f_bits(std::cos(as_f(regs[in->a]))))                                              \
  X(FloorF, f_bits(std::floor(as_f(regs[in->a]))))                                          \
  X(I2F, f_bits(static_cast<float>(as_i(regs[in->a]))))                                     \
  X(P2F, f_bits(static_cast<float>(regs[in->a])))                                           \
  X(F2I, f2i_sat(regs[in->a]))                                                              \
  X(CopyA, regs[in->a])                                                                     \
  X(UnGeneric, eval_un(static_cast<UnOp>(aux_op(in->aux)), aux_type(in->aux), regs[in->a])) \
  X(AddF, HB_ALU_AddF(regs[in->a], regs[in->b]))                                            \
  X(SubF, HB_ALU_SubF(regs[in->a], regs[in->b]))                                            \
  X(MulF, HB_ALU_MulF(regs[in->a], regs[in->b]))                                            \
  X(DivF, HB_ALU_DivF(regs[in->a], regs[in->b]))                                            \
  X(MinF, fmin_bits(regs[in->a], regs[in->b]))                                              \
  X(MaxF, HB_ALU_MaxF(regs[in->a], regs[in->b]))                                            \
  X(LtF, HB_CMP_LtF(regs[in->a], regs[in->b]))                                              \
  X(LeF, HB_CMP_LeF(regs[in->a], regs[in->b]))                                              \
  X(GtF, HB_CMP_GtF(regs[in->a], regs[in->b]))                                              \
  X(GeF, HB_CMP_GeF(regs[in->a], regs[in->b]))                                              \
  X(EqF, HB_CMP_EqF(regs[in->a], regs[in->b]))                                              \
  X(NeF, HB_CMP_NeF(regs[in->a], regs[in->b]))                                              \
  X(AddW, HB_ALU_AddW(regs[in->a], regs[in->b]))                                            \
  X(SubW, HB_ALU_SubW(regs[in->a], regs[in->b]))                                            \
  X(MulW, HB_ALU_MulW(regs[in->a], regs[in->b]))                                            \
  X(MinI, as_i(regs[in->a]) < as_i(regs[in->b]) ? regs[in->a] : regs[in->b])                \
  X(MaxI, as_i(regs[in->a]) > as_i(regs[in->b]) ? regs[in->a] : regs[in->b])                \
  X(MinU, regs[in->a] < regs[in->b] ? regs[in->a] : regs[in->b])                            \
  X(MaxU, regs[in->a] > regs[in->b] ? regs[in->a] : regs[in->b])                            \
  X(LtI, HB_CMP_LtI(regs[in->a], regs[in->b]))                                              \
  X(LeI, HB_CMP_LeI(regs[in->a], regs[in->b]))                                              \
  X(GtI, HB_CMP_GtI(regs[in->a], regs[in->b]))                                              \
  X(GeI, HB_CMP_GeI(regs[in->a], regs[in->b]))                                              \
  X(LtU, HB_CMP_LtU(regs[in->a], regs[in->b]))                                              \
  X(LeU, HB_CMP_LeU(regs[in->a], regs[in->b]))                                              \
  X(GtU, HB_CMP_GtU(regs[in->a], regs[in->b]))                                              \
  X(GeU, HB_CMP_GeU(regs[in->a], regs[in->b]))                                              \
  X(EqW, HB_CMP_EqW(regs[in->a], regs[in->b]))                                              \
  X(NeW, HB_CMP_NeW(regs[in->a], regs[in->b]))                                              \
  X(AndB, HB_ALU_AndB(regs[in->a], regs[in->b]))                                            \
  X(OrB, regs[in->a] | regs[in->b])                                                         \
  X(XorB, regs[in->a] ^ regs[in->b])                                                        \
  X(ShlB, regs[in->a] << (regs[in->b] & 31))                                                \
  X(ShrL, regs[in->a] >> (regs[in->b] & 31))                                                \
  X(ShrA, HB_ALU_ShrA(regs[in->a], regs[in->b]))                                            \
  X(LAndW, HB_ALU_LAndW(regs[in->a], regs[in->b]))                                          \
  X(LOrW, (regs[in->a] != 0) || (regs[in->b] != 0))
#define T_SET(PRE, ...)                 \
  {                                     \
    PRE;                                \
    regs[in->dst] = (__VA_ARGS__);      \
    T_NEXT();                           \
  }

  // The other singles with a naked form, and the recorded accesses (Rec*):
  // (name, body, body arguments).  T_DO runs its statements; an access's
  // body takes its form (AccessForm), so a recorded or sanitized access shares
  // the plain access's bounds, paging, note_store and crash logic.
#define T_BODY_OPS(X)                                                                  \
  X(Nop, T_DO)                                                                         \
  X(DivI, T_DIV_I, /)                                                                  \
  X(ModI, T_DIV_I, %)                                                                  \
  X(DivU, T_DIV_U, /)                                                                  \
  X(ModU, T_DIV_U, %)                                                                  \
  X(BinGeneric, T_BIN_GENERIC)                                                         \
  X(LoadG, T_LOAD_G, Plain)                                                            \
  X(StoreG, T_STORE_G, Plain)                                                          \
  X(LoadS, T_LOAD_S, Plain)                                                            \
  X(StoreS, T_STORE_S, Plain)                                                          \
  X(AtomicAddF, T_ATOMIC, Plain, AtomicAddF, fadd_bits)                                \
  X(AtomicAddI, T_ATOMIC, Plain, AtomicAddI, T_ADDI)                                   \
  X(RecLoadG, T_LOAD_G, Recorded)                                                      \
  X(RecStoreG, T_STORE_G, Recorded)                                                    \
  X(RecLoadS, T_LOAD_S, Recorded)                                                      \
  X(RecStoreS, T_STORE_S, Recorded)                                                    \
  X(RecAtomicAddF, T_ATOMIC, Recorded, AtomicAddF, fadd_bits)                          \
  X(RecAtomicAddI, T_ATOMIC, Recorded, AtomicAddI, T_ADDI)                             \
  X(ChkXor, T_DO, regs[in->dst] ^= regs[in->a])                                        \
  X(ChkValidate, T_DO, if (regs[in->dst] != 0) sdc = true)                             \
  X(DupCmp, T_DO, if (regs[in->a] != regs[in->b]) sdc = true)                          \
  X(RangeCheck, T_DO,                                                                  \
    if (opts_.hooks && opts_.hooks->check_range(static_cast<int>(in->aux),             \
                                                kir::Value{static_cast<DType>(in->t),  \
                                                           regs[in->a]})) sdc = true)  \
  X(EqualCheck, T_DO, if (regs[in->a] != regs[in->b]) {                                \
    sdc = true;                                                                        \
    if (opts_.hooks) opts_.hooks->equal_check_failed(static_cast<int>(in->aux));       \
  })                                                                                   \
  X(ProfileVal, T_DO,                                                                  \
    if (opts_.hooks) opts_.hooks->profile_value(static_cast<int>(in->aux),             \
                                                kir::Value{static_cast<DType>(in->t),  \
                                                           regs[in->a]}))              \
  X(CountExec, T_DO, if (opts_.hooks) opts_.hooks->count_exec(in->aux, t.linear))      \
  X(FIHook, T_DO,                                                                      \
    if (opts_.hooks && opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a])) fire())   \
  /* A recording stream's FIHook: counted for the snapshot table, then the */          \
  /* hook call the filter allows (see TOp::RecFIHook). */                              \
  X(RecFIHook, T_DO, ++site_counts_[in->aux];                                          \
    if (in->t == 1 && opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a])) fire())
#define T_DO(PRE, CRASH, ...)           \
  {                                     \
    PRE;                                \
    __VA_ARGS__;                        \
    T_NEXT();                           \
  }
#define T_DIV_I(PRE, CRASH, OP)                                        \
  {                                                                    \
    PRE;                                                               \
    const std::int64_t x = as_i(regs[in->a]), y = as_i(regs[in->b]);   \
    if (y == 0) CRASH(LaunchStatus::CrashDivByZero);                   \
    regs[in->dst] = i_bits(static_cast<std::int32_t>(x OP y));         \
    T_NEXT();                                                          \
  }
#define T_DIV_U(PRE, CRASH, OP)                                        \
  {                                                                    \
    PRE;                                                               \
    if (regs[in->b] == 0) CRASH(LaunchStatus::CrashDivByZero);         \
    regs[in->dst] = regs[in->a] OP regs[in->b];                        \
    T_NEXT();                                                          \
  }
#define T_BIN_GENERIC(PRE, CRASH)                                                            \
  {                                                                                          \
    PRE;                                                                                     \
    bool crash = false;                                                                      \
    const std::uint32_t r = eval_bin(static_cast<BinOp>(aux_op(in->aux)), aux_type(in->aux), \
                                     regs[in->a], regs[in->b], crash);                       \
    if (crash) CRASH(LaunchStatus::CrashDivByZero);                                          \
    regs[in->dst] = r;                                                                       \
    T_NEXT();                                                                                \
  }

  // Memory accesses.  A recorded access reports to the recorder, the touch
  // recorder (a net-effect stream has no shared Rec ops), or — in a
  // replaying launch, whose stream has no Rec loads — to the delta set, at
  // run_thread's points (after the access succeeded).  A sanitized shared
  // access lets the shadow observe at run_thread's points (out-of-bounds
  // before the crash exit, in-bounds before the access).
  //
  // One global load into DST (also the naked tiles' loads): bounds-checked
  // on the flat arena, through DeviceMemory otherwise.
#define T_GLOAD(DST, ADDR, CRASH)                                  \
  {                                                                \
    const std::uint32_t a_ = (ADDR);                               \
    if (gmem) {                                                    \
      if (a_ >= gsize) CRASH(LaunchStatus::CrashOutOfBounds);      \
      (DST) = gmem[a_];                                            \
    } else if (!mem.load(a_, (DST))) {                             \
      CRASH(mem_fail_status());                                    \
    }                                                              \
  }
#define T_LOAD_G(PRE, CRASH, FORM)                                                 \
  {                                                                                \
    PRE;                                                                           \
    const std::uint32_t addr = regs[in->a];                                        \
    T_GLOAD(regs[in->dst], addr, CRASH);                                           \
    if constexpr (AccessForm::FORM == AccessForm::Recorded) {                      \
      if (rec_)                                                                    \
        rec_->global_load(addr, regs[in->dst]);                                    \
      else                                                                         \
        touch_->load(addr);                                                        \
    }                                                                              \
    T_NEXT();                                                                      \
  }
#define T_STORE_G(PRE, CRASH, FORM)                                                \
  {                                                                                \
    PRE;                                                                           \
    const std::uint32_t addr = regs[in->a];                                        \
    const std::uint32_t value = regs[in->b];                                       \
    if (gmem) {                                                                    \
      if (addr >= gsize) CRASH(LaunchStatus::CrashOutOfBounds);                    \
      gmem[addr] = value;                                                          \
      mem.note_store(addr);                                                        \
    } else if (!mem.store(addr, value)) {                                          \
      CRASH(mem_fail_status());                                                    \
    }                                                                              \
    if constexpr (AccessForm::FORM == AccessForm::Recorded) {                      \
      if (delta_)                                                                  \
        delta_->global_write(addr, value, LaunchJournal::WriteKind::Store);        \
      else if (rec_)                                                               \
        rec_->global_store(addr, value);                                           \
      else                                                                         \
        touch_->write(addr);                                                       \
    }                                                                              \
    T_NEXT();                                                                      \
  }
#define T_LOAD_S(PRE, CRASH, FORM)                                                 \
  {                                                                                \
    PRE;                                                                           \
    constexpr bool sanitized = AccessForm::FORM == AccessForm::Sanitized;          \
    const std::uint32_t addr = regs[in->a];                                        \
    if (addr >= ssize) {                                                           \
      if constexpr (sanitized)                                                     \
        shadow_->on_oob(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);      \
      CRASH(LaunchStatus::CrashSharedOutOfBounds);                                 \
    }                                                                              \
    if constexpr (sanitized)                                                       \
      shadow_->on_load(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);       \
    regs[in->dst] = shared_[addr];                                                 \
    if constexpr (AccessForm::FORM == AccessForm::Recorded)                        \
      rec_->shared_load(addr, regs[in->dst]);                                      \
    T_NEXT();                                                                      \
  }
#define T_STORE_S(PRE, CRASH, FORM)                                                \
  {                                                                                \
    PRE;                                                                           \
    constexpr bool sanitized = AccessForm::FORM == AccessForm::Sanitized;          \
    const std::uint32_t addr = regs[in->a];                                        \
    if (addr >= ssize) {                                                           \
      if constexpr (sanitized)                                                     \
        shadow_->on_oob(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);      \
      CRASH(LaunchStatus::CrashSharedOutOfBounds);                                 \
    }                                                                              \
    if constexpr (sanitized)                                                       \
      shadow_->on_store(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);      \
    shared_[addr] = regs[in->b];                                                   \
    if constexpr (AccessForm::FORM == AccessForm::Recorded) {                      \
      if (rec_)                                                                    \
        rec_->shared_store(addr, regs[in->b]);                                     \
      else                                                                         \
        delta_->shared_write(addr, regs[in->b]);                                   \
    }                                                                              \
    T_NEXT();                                                                      \
  }
// The atomic body keeps the lock_guard inside an inner block: the computed
// goto in T_NEXT() must not jump out of the guard's scope (an indirect goto
// does not unwind locals, so the mutex would stay locked and the next
// atomic in any thread would deadlock the launch).
#define T_ATOMIC(PRE, CRASH, FORM, KIND, OP)                                       \
  {                                                                                \
    PRE;                                                                           \
    const std::uint32_t addr = regs[in->a];                                        \
    const std::uint32_t addend = regs[in->b];                                      \
    std::uint32_t pre = 0;                                                         \
    const auto add = [&](std::uint32_t w) {                                        \
      pre = w;                                                                     \
      return OP(w, addend);                                                        \
    };                                                                             \
    {                                                                              \
      std::lock_guard<std::mutex> lk(dev_.atomic_mutex());                         \
      if (gmem) {                                                                  \
        if (addr >= gsize) CRASH(LaunchStatus::CrashOutOfBounds);                  \
        mem.note_store(addr);                                                      \
        gmem[addr] = add(gmem[addr]);                                              \
      } else if (!mem.rmw(addr, add)) {                                            \
        CRASH(mem_fail_status());                                                  \
      }                                                                            \
    }                                                                              \
    if constexpr (AccessForm::FORM == AccessForm::Recorded) {                      \
      if (delta_)                                                                  \
        delta_->global_write(addr, addend, LaunchJournal::WriteKind::KIND);        \
      else if (rec_)                                                               \
        rec_->global_atomic(addr, addend, LaunchJournal::WriteKind::KIND, pre);    \
      else                                                                         \
        touch_->write(addr);                                                       \
    }                                                                              \
    T_NEXT();                                                                      \
  }
#define T_ADDI(A, B) \
  i_bits(static_cast<std::int32_t>(static_cast<std::int64_t>(as_i(A)) + as_i(B)))

  // Fused families with an accounted head and a naked form inside runs.
  // [Const c,imm][Bin dst,a,b]
#define T_CONST_BIN(PRE, K)                                                  \
  {                                                                          \
    PRE;                                                                     \
    regs[in->c] = in->imm;                                                   \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }
  // [Bin dst,a,b][ChkXor c,d]
#define T_BIN_CHK_XOR(PRE, K)                                                \
  {                                                                          \
    PRE;                                                                     \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    regs[in->c] ^= regs[in->d];                                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }
  // [Bin dst,a,b][DupCmp c,d]
#define T_BIN_DUP_CMP(PRE, K)                                                \
  {                                                                          \
    PRE;                                                                     \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    if (regs[in->c] != regs[in->d]) sdc = true;                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }
#define T_CHK_XOR2(PRE)                                                      \
  {                                                                          \
    PRE;                                                                     \
    regs[in->dst] ^= regs[in->a];                                            \
    regs[in->c] ^= regs[in->d];                                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }
#define T_RANGE_CHECK2(PRE)                                                              \
  {                                                                                      \
    PRE;                                                                                 \
    if (opts_.hooks) {                                                                   \
      if (opts_.hooks->check_range(static_cast<int>(in->aux),                            \
                                   kir::Value{static_cast<DType>(in->t & 0xf),           \
                                              regs[in->a]}))                             \
        sdc = true;                                                                      \
      if (opts_.hooks->check_range(static_cast<int>(in->imm),                            \
                                   kir::Value{static_cast<DType>(in->t >> 4),            \
                                              regs[in->c]}))                             \
        sdc = true;                                                                      \
    }                                                                                    \
    pc += 2;                                                                             \
    T_NEXT();                                                                            \
  }

  // The instantiations: accounted singles and their naked twins.
#define T_ACC_SET(n, ...) T_LABEL(n) : T_SET(T_STEP1(), __VA_ARGS__)
#define T_NK_SET(n, ...) T_LABEL(Nk_##n) : T_SET(T_NK_STEP, __VA_ARGS__)
#define T_ACC_BODY(n, BODY, ...) \
  T_LABEL(n) : BODY(T_STEP1(), T_CRASH __VA_OPT__(, ) __VA_ARGS__)
#define T_NK_BODY(n, BODY, ...) \
  T_LABEL(Nk_##n) : BODY(T_NK_STEP, T_NK_CRASH __VA_OPT__(, ) __VA_ARGS__)
  // Every naked-list op has exactly one body, and so has every recorded
  // access with its counted FIHook (six Rec accesses, RecFIHook).
#define T_ONE(...) +1
  static_assert(0 T_SET_OPS(T_ONE) T_BODY_OPS(T_ONE) == 7 HAUBERK_TOP_NAKED_LIST(T_ONE));
#undef T_ONE

  const kir::ThreadedInstr* in = code;
#if HAUBERK_COMPUTED_GOTO
  // Label table in TOp order — generated from the same X-macro lists as the
  // enum itself, so the two cannot drift.
  static const void* const kLabels[] = {
#define HAUBERK_TOP_L(n) &&lbl_##n,
      HAUBERK_TOP_SINGLE_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
#define HAUBERK_TOP_L(n) &&lbl_CmpJz_##n, &&lbl_ConstCmpJz_##n,
          HAUBERK_TOP_CMP_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
              && lbl_ConstAddJmp,
      &&lbl_AddJmp,
#define HAUBERK_TOP_L(n) \
  &&lbl_ConstBin_##n, &&lbl_LoadBinStore_##n, &&lbl_BinChkXor_##n, &&lbl_BinDupCmp_##n,
      HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
          && lbl_ChkXor2,
      &&lbl_RangeCheck2,
      &&lbl_RunHead,
#define HAUBERK_TOP_L(n) &&lbl_Nk_##n,
      HAUBERK_TOP_NAKED_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
#define HAUBERK_TOP_L(n) &&lbl_NkConstBin_##n, &&lbl_NkBinChkXor_##n, &&lbl_NkBinDupCmp_##n,
          HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
              && lbl_NkChkXor2,
      &&lbl_NkRangeCheck2,
#define HAUBERK_TOP_L(a, b) &&lbl_NkBinBin_##a##_##b,
      HAUBERK_TOP_ALU_PAIR_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
#define HAUBERK_TOP_L(n) \
  &&lbl_NkBinConst_##n, &&lbl_NkLoadBin_##n, &&lbl_NkBinLoad_##n, &&lbl_NkConstBinLoad_##n,
          HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_L)
#undef HAUBERK_TOP_L
              && lbl_NkConst2,
      &&lbl_NkLoadConst,
      &&lbl_SanLoadS,
      &&lbl_SanStoreS,
      &&lbl_RecLoadG,
      &&lbl_RecStoreG,
      &&lbl_RecLoadS,
      &&lbl_RecStoreS,
      &&lbl_RecAtomicAddF,
      &&lbl_RecAtomicAddI,
      &&lbl_Nk_RecLoadG,
      &&lbl_Nk_RecStoreG,
      &&lbl_Nk_RecLoadS,
      &&lbl_Nk_RecStoreS,
      &&lbl_Nk_RecAtomicAddF,
      &&lbl_Nk_RecAtomicAddI,
      &&lbl_JmpBk,
      &&lbl_JzBk,
      &&lbl_ConstAddJmpBk,
      &&lbl_AddJmpBk,
      &&lbl_RecFIHook,
      &&lbl_Nk_RecFIHook,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kir::kNumTOps);
  T_NEXT();
#else
  for (;;) {
    in = &code[pc];
    std::uint16_t opv = in->op;
  lbl_redispatch:
    switch (static_cast<kir::TOp>(opv)) {
#endif

  // --- singles (type-resolved mirrors of the run_thread handlers) ---
  T_SET_OPS(T_ACC_SET)
  T_BODY_OPS(T_ACC_BODY)
  T_LABEL(SanLoadS) : T_LOAD_S(T_STEP1(), T_CRASH, Sanitized)
  T_LABEL(SanStoreS) : T_STORE_S(T_STEP1(), T_CRASH, Sanitized)

  // Jumps; the *Bk forms of a recording or write-tracking stream are
  // snapshot points when taken.
#define T_JMP(BK)                         \
  {                                       \
    T_STEP1();                            \
    pc = in->aux;                         \
    if constexpr (BK) T_SNAPSHOT_POINT(); \
    T_NEXT();                             \
  }
#define T_JZ(BK)                                  \
  {                                               \
    T_STEP1();                                    \
    if (regs[in->a] == 0) {                       \
      pc = in->aux;                               \
      if constexpr (BK) T_SNAPSHOT_POINT();       \
    }                                             \
    T_NEXT();                                     \
  }
  T_LABEL(Jmp) : T_JMP(false)
  T_LABEL(Jz) : T_JZ(false)
  T_LABEL(JmpBk) : T_JMP(true)
  T_LABEL(JzBk) : T_JZ(true)
#undef T_JMP
#undef T_JZ
  T_LABEL(Barrier) : {
    T_STEP1();
    t.barrier_pc = pc - 1;
    finish();
    return ThreadStop::Barrier;
  }
  T_LABEL(Halt) : {
    T_STEP1();
    finish();
    t.done = true;
    return ThreadStop::Done;
  }
  T_LABEL(Invalid) : {
    T_STEP1();
    T_CRASH(LaunchStatus::CrashInvalidInstr);
  }

  // --- fused superinstructions ---
#define T_CMPJZ(K)                                                           \
  T_LABEL(CmpJz_##K) : {                                                     \
    T_FUSED(2);                                                              \
    const std::uint32_t v_ = HB_CMP_##K(regs[in->a], regs[in->b]);           \
    regs[in->dst] = v_;                                                      \
    pc = v_ == 0 ? in->aux : pc + 2;                                         \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(ConstCmpJz_##K) : {                                                \
    T_FUSED(3);                                                              \
    regs[in->c] = in->imm;                                                   \
    const std::uint32_t x_ = regs[in->a];                                    \
    const std::uint32_t v_ =                                                 \
        in->t ? HB_CMP_##K(in->imm, x_) : HB_CMP_##K(x_, in->imm);           \
    regs[in->dst] = v_;                                                      \
    pc = v_ == 0 ? in->aux : pc + 3;                                         \
    T_NEXT();                                                                \
  }
  HAUBERK_TOP_CMP_LIST(T_CMPJZ)
#undef T_CMPJZ

  // Loop back-edges [Const c,imm]? [AddW dst,a,b] [Jmp aux] over N source
  // instructions; the *Bk forms are snapshot points.
#define T_ADD_JMP(N, BK)                           \
  {                                                \
    T_FUSED(N);                                    \
    if constexpr ((N) == 3) regs[in->c] = in->imm; \
    regs[in->dst] = regs[in->a] + regs[in->b];     \
    pc = in->aux;                                  \
    if constexpr (BK) T_SNAPSHOT_POINT();          \
    T_NEXT();                                      \
  }
  T_LABEL(ConstAddJmp) : T_ADD_JMP(3, false)
  T_LABEL(AddJmp) : T_ADD_JMP(2, false)
  T_LABEL(ConstAddJmpBk) : T_ADD_JMP(3, true)
  T_LABEL(AddJmpBk) : T_ADD_JMP(2, true)
#undef T_ADD_JMP

#define T_ALUFUSE(K)                                                         \
  T_LABEL(ConstBin_##K) : T_CONST_BIN(T_FUSED(2), K)                         \
  T_LABEL(LoadBinStore_##K) : {                                              \
    const std::uint32_t la_ = regs[in->a];                                   \
    const std::uint32_t sa_ = regs[in->b];                                   \
    if (left < 3 || la_ >= gsize || sa_ >= gsize) T_DELEGATE();              \
    T_CHARGE(3);                                                             \
    regs[in->c] = gmem[la_];                                                 \
    const std::uint32_t r_ =                                                 \
        HB_ALU_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);            \
    regs[in->dst] = r_;                                                      \
    gmem[sa_] = r_;                                                          \
    mem.note_store(sa_);                                                     \
    pc += 3;                                                                 \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(BinChkXor_##K) : T_BIN_CHK_XOR(T_FUSED(2), K)                      \
  T_LABEL(BinDupCmp_##K) : T_BIN_DUP_CMP(T_FUSED(2), K)
  HAUBERK_TOP_ALU_LIST(T_ALUFUSE)
#undef T_ALUFUSE
  T_LABEL(ChkXor2) : T_CHK_XOR2(T_FUSED(2))
  T_LABEL(RangeCheck2) : T_RANGE_CHECK2(T_FUSED(2))

  // --- straight-line runs ---
  // RunHead: one budget test and one pre-summed charge for the whole
  // region, then dispatch the head op's naked handler (`in` unchanged —
  // the head slot carries that op's operands).  A budget boundary inside
  // the region delegates *before* any charge, so the reference replays
  // it per-instruction and stops exactly where the reference would.  In
  // a stream with FIHooks compiled away `skip` jumps over the slots of the
  // hooks the region charges but never dispatches (0 otherwise).
  T_LABEL(RunHead) : {
    if (left < in->len) T_DELEGATE();
    T_CHARGE(in->len);
    pc += in->skip;
    T_DISPATCH_D();
  }

  // Naked singles and fused pairs: the bodies above with no accounting —
  // the RunHead already billed the region.  Crashable ops refund their
  // suffix (carried in their cost/loop_cost/len fields) before the crash
  // exit.
  T_SET_OPS(T_NK_SET)
  T_BODY_OPS(T_NK_BODY)
#define T_NK_ALUFUSE(K)                                                      \
  T_LABEL(NkConstBin_##K) : T_CONST_BIN(T_NK_PAIR, K)                        \
  T_LABEL(NkBinChkXor_##K) : T_BIN_CHK_XOR(T_NK_PAIR, K)                     \
  T_LABEL(NkBinDupCmp_##K) : T_BIN_DUP_CMP(T_NK_PAIR, K)
  HAUBERK_TOP_ALU_LIST(T_NK_ALUFUSE)
#undef T_NK_ALUFUSE
  T_LABEL(NkChkXor2) : T_CHK_XOR2(T_NK_PAIR)
  T_LABEL(NkRangeCheck2) : T_RANGE_CHECK2(T_NK_PAIR)

  // Generic naked tiles (field layouts in threaded.cpp).  Sub-ops execute
  // strictly in source order against regs[], so operand aliasing between
  // them behaves exactly like the singles back to back; a load crash
  // refunds the tile's suffix but keeps the sub-ops already executed
  // billed, matching the reference's per-op trace.
#define T_NK_BINBIN(K1, K2)                                                    \
  T_LABEL(NkBinBin_##K1##_##K2) : {                                            \
    regs[in->dst] = HB_ALU_##K1(regs[in->a], regs[in->b]);                     \
    regs[in->c] = HB_ALU_##K2(regs[in->aux & 0xffffu], regs[in->aux >> 16]);   \
    pc += 2;                                                                   \
    T_NEXT();                                                                  \
  }
  HAUBERK_TOP_ALU_PAIR_LIST(T_NK_BINBIN)
#undef T_NK_BINBIN

#define T_NK_TILES(K)                                                          \
  T_LABEL(NkBinConst_##K) : {                                                  \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                      \
    regs[in->c] = in->imm;                                                     \
    pc += 2;                                                                   \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkLoadBin_##K) : {                                                   \
    pc += 2;                                                                   \
    T_GLOAD(regs[in->dst], regs[in->a], T_NK_CRASH);                           \
    regs[in->c] = HB_ALU_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);    \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkBinLoad_##K) : {                                                   \
    pc += 2;                                                                   \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                      \
    T_GLOAD(regs[in->c], regs[in->d], T_NK_CRASH);                             \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkConstBinLoad_##K) : {                                              \
    pc += 3;                                                                   \
    regs[in->dst] = in->imm;                                                   \
    regs[in->c] = HB_ALU_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);    \
    T_GLOAD(regs[in->b], regs[in->a], T_NK_CRASH);                             \
    T_NEXT();                                                                  \
  }
  HAUBERK_TOP_ALU_LIST(T_NK_TILES)
#undef T_NK_TILES

  T_LABEL(NkConst2) : {
    regs[in->dst] = in->imm;
    regs[in->c] = in->aux;
    pc += 2;
    T_NEXT();
  }
  T_LABEL(NkLoadConst) : {
    pc += 2;
    T_GLOAD(regs[in->dst], regs[in->a], T_NK_CRASH);
    regs[in->c] = in->imm;
    T_NEXT();
  }

#if !HAUBERK_COMPUTED_GOTO
      default:
        crash_status = LaunchStatus::CrashInvalidInstr;
        finish();
        return ThreadStop::Crash;
    }
  }
#endif
  // Not reached: every handler ends in a jump, break, or return.
  crash_status = LaunchStatus::CrashInvalidInstr;
  finish();
  return ThreadStop::Crash;

#undef T_STEP1
#undef T_CHARGE
#undef T_CRASH
#undef T_DELEGATE
#undef T_FUSED
#undef T_NK_STEP
#undef T_NK_PAIR
#undef T_LABEL
#undef T_NEXT
#undef T_DISPATCH_D
#undef T_NK_CRASH
#undef T_SNAPSHOT_POINT
#undef T_SET_OPS
#undef T_SET
#undef T_BODY_OPS
#undef T_DO
#undef T_DIV_I
#undef T_DIV_U
#undef T_BIN_GENERIC
#undef T_GLOAD
#undef T_LOAD_G
#undef T_STORE_G
#undef T_LOAD_S
#undef T_STORE_S
#undef T_ATOMIC
#undef T_ADDI
#undef T_CONST_BIN
#undef T_BIN_CHK_XOR
#undef T_BIN_DUP_CMP
#undef T_CHK_XOR2
#undef T_RANGE_CHECK2
#undef T_ACC_SET
#undef T_NK_SET
#undef T_ACC_BODY
#undef T_NK_BODY
#undef HB_CMP_LtI
#undef HB_CMP_LeI
#undef HB_CMP_GtI
#undef HB_CMP_GeI
#undef HB_CMP_LtU
#undef HB_CMP_LeU
#undef HB_CMP_GtU
#undef HB_CMP_GeU
#undef HB_CMP_LtF
#undef HB_CMP_LeF
#undef HB_CMP_GtF
#undef HB_CMP_GeF
#undef HB_CMP_EqW
#undef HB_CMP_NeW
#undef HB_CMP_EqF
#undef HB_CMP_NeF
#undef HB_ALU_AddW
#undef HB_ALU_SubW
#undef HB_ALU_MulW
#undef HB_ALU_AddF
#undef HB_ALU_SubF
#undef HB_ALU_MulF
#undef HB_ALU_DivF
#undef HB_ALU_MaxF
#undef HB_ALU_LtF
#undef HB_ALU_GtI
#undef HB_ALU_EqW
#undef HB_ALU_AndB
#undef HB_ALU_ShrA
#undef HB_ALU_LAndW
}

/// Engine dispatch for one thread time-slice (the choice is made once per
/// launch in Device::launch).
ThreadStop BlockExec::step_thread(ThreadCtx& t, LaunchStatus& crash_status) {
  if (!tcode_) return run_thread(t, crash_status);
  return run_thread_threaded(t, crash_status, armed_pending(t) ? tcode_armed_ : tcode_);
}

/// Replay: write golden writes [w0, w1) and shared writes [sw0, sw1) of
/// segment s into memory.  Addresses need no bounds checks: the journal
/// fingerprint pins the memory geometry, and the golden accesses were in
/// bounds.  Under protection each written pair is re-encoded.
void BlockExec::apply_writes(const LaunchJournal::Segment& s, std::uint32_t w0, std::uint32_t w1,
                             std::uint32_t sw0, std::uint32_t sw1) {
  apply_global_writes(s, w0, w1);
  const LaunchJournal& j = *journal_;
  for (std::uint32_t i = sw0; i < sw1; ++i) {
    const LaunchJournal::Word& w = j.shared_writes[s.first_shared_write + i];
    shared_[w.addr] = w.value;
  }
  replayed_shared_writes += sw1 - sw0;
}

/// Replay: write the whole segment s — its global writes and its net shared
/// writes.  A net write that leaves its word's golden value unchanged is a
/// no-op unless the word is in the delta set (every other shared word
/// holds its golden value here), so only those are written.
void BlockExec::apply_whole(const LaunchJournal::Segment& s) {
  apply_global_writes(s, 0, s.writes);
  const LaunchJournal::Word* net = journal_->net_shared_writes.data() + s.first_net_shared_write;
  for (std::uint32_t i = 0; i < s.net_shared_changes; ++i) shared_[net[i].addr] = net[i].value;
  replayed_shared_writes += s.net_shared_changes;
  if (!delta_->any_shared()) return;
  for (std::uint32_t i = s.net_shared_changes; i < s.net_shared_writes; ++i)
    if (delta_->has_shared(net[i].addr)) {
      shared_[net[i].addr] = net[i].value;
      ++replayed_shared_writes;
    }
}

void BlockExec::apply_global_writes(const LaunchJournal::Segment& s, std::uint32_t w0,
                                    std::uint32_t w1) {
  const LaunchJournal& j = *journal_;
  DeviceMemory& mem = dev_.mem();
  std::uint32_t* const gmem = mem.flat_words().data();
  const bool checked = mem.protection() != ecc::Scheme::None;
  std::uint32_t hi = 0;
  for (std::uint32_t i = w0; i < w1; ++i) {
    const LaunchJournal::Write& w = j.writes[s.first_write + i];
    std::uint32_t& m = gmem[w.addr];
    switch (w.kind) {
      case LaunchJournal::WriteKind::Store: m = w.value; break;
      case LaunchJournal::WriteKind::AtomicAddF: m = fadd_bits(m, w.value); break;
      case LaunchJournal::WriteKind::AtomicAddI:
        m = i_bits(static_cast<std::int32_t>(static_cast<std::int64_t>(as_i(m)) +
                                             as_i(w.value)));
        break;
    }
    if (checked) mem.reencode_pair(w.addr / 2);
    hi = std::max(hi, w.addr + 1);
  }
  if (hi > 0) mem.note_store(hi - 1);
}

/// Replay: apply thread t's slice k from journal segment k if it would
/// provably run exactly as it did in the golden launch — the thread still
/// holds its golden registers, the segment fits this launch's watchdog, it
/// touches no latent pair (protected memory: its first access there must
/// correct or fail), every first read returns its golden value, and, in the
/// armed thread before its fault fired, the armed occurrence lies beyond
/// the segment (the skipped occurrences are credited to the hooks).  Only
/// the reads of words in the delta set can differ, so only those are
/// compared (DeltaSet).  Otherwise the thread diverges: it takes its
/// registers from the previous segment's Barrier snapshot and is
/// interpreted (replay_slice).
bool BlockExec::apply_segment(ThreadCtx& t, std::uint32_t slot, std::uint32_t k) {
  if (t.diverged) return false;
  const LaunchJournal& j = *journal_;
  const std::uint32_t g = j.thread_begin[slot] + k;
  const LaunchJournal::Segment& s = j.segments[g];
  // The interpreter executes an instruction iff the thread's count before
  // it is <= watchdog, so a segment of n >= 1 instructions completes iff
  // budget_after - 1 <= watchdog.
  DeviceMemory& mem = dev_.mem();
  const bool armed = armed_pending(t);
  const LaunchJournal::SnapshotTable& snaps = j.snapshots;
  std::uint64_t credit = 0;
  bool apply = s.budget_after - 1 <= opts_.watchdog_instructions &&
               (mem.latent_pairs().empty() || !delta_->touches(g, mem.latent_pairs())) &&
               delta_->reads_match(g, s, mem.flat_words().data(), shared_.data());
  if (apply && armed) {
    const std::uint32_t before = k > 0 ? snaps.count(snaps.segment_end(g - 1), fi_site_) : 0;
    const std::uint32_t after = snaps.count(snaps.segment_end(g), fi_site_);
    apply = !snaps.empty() && after < fi_occurrence_;
    credit = after - before;
  }
  if (!apply) {
    t.diverged = true;
    if (k > 0) {
      const std::uint32_t* snap = j.regs.data() + j.segments[g - 1].regs;
      std::copy(snap, snap + prog_.num_slots, t.regs);
    }
    return false;
  }
  if (credit > 0) opts_.hooks->fi_skipped(fi_site_, t.linear, credit);
  apply_whole(s);
  charge(s.instructions, s.cycles, s.loop_cycles);
  if (s.sdc) sdc = true;
  t.pc = s.pc;
  t.barrier_pc = s.barrier_pc;
  t.budget_used = s.budget_after;
  t.done = s.done;
  ++replayed;
  return true;
}

/// Replay: start thread t's interpreted slice k (segment g, whose snapshots
/// are [first, end)) at the last snapshot before its first possible
/// difference from the golden run, applying the golden prefix from the
/// journal.  The first possible difference is the earliest of the first
/// queued first read that now mismatches, the first access to a latent
/// pair, and (armed thread, fault not yet fired) the armed occurrence; the
/// prefix must also fit the watchdog.  The thread held its golden registers
/// when the slice began.  Returns the first snapshot after the start.
std::uint32_t BlockExec::skip_prefix(ThreadCtx& t, std::uint32_t g, std::uint32_t k,
                                     std::uint32_t first, std::uint32_t end) {
  const LaunchJournal& j = *journal_;
  const LaunchJournal::SnapshotTable& snaps = j.snapshots;
  const LaunchJournal::Segment& s = j.segments[g];
  DeviceMemory& mem = dev_.mem();
  constexpr std::uint32_t kAll = ~std::uint32_t{0};
  std::uint32_t gpos = kAll, spos = kAll, wpos = kAll;
  delta_->first_mismatch(g, s, mem.flat_words().data(), shared_.data(), gpos, spos);
  if (!mem.latent_pairs().empty()) delta_->first_latent_touch(g, s, mem.latent_pairs(), gpos, wpos);
  const bool armed = armed_pending(t);
  if (armed && fi_occurrence_ == 0) return first;
  std::uint32_t start = end;
  for (std::uint32_t i = first; i < end; ++i) {
    const LaunchJournal::Snapshot& at = snaps.list[i];
    if (at.global_reads > gpos || at.shared_reads > spos || at.writes > wpos ||
        at.budget - 1 > opts_.watchdog_instructions ||
        (armed && snaps.count(i, fi_site_) >= fi_occurrence_))
      break;
    start = i;
  }
  if (start == end) return first;
  const LaunchJournal::Snapshot& at = snaps.list[start];
  if (armed) {
    const std::uint32_t before = k > 0 ? snaps.count(snaps.segment_end(g - 1), fi_site_) : 0;
    if (const std::uint32_t n = snaps.count(start, fi_site_) - before; n > 0)
      opts_.hooks->fi_skipped(fi_site_, t.linear, n);
  }
  apply_writes(s, 0, at.writes, 0, at.shared_writes);
  delta_->skip(at.writes, at.shared_writes);
  charge(at.instructions, at.cycles, at.loop_cycles);
  if (at.sdc) sdc = true;
  t.pc = at.pc;
  t.budget_used = at.budget;
  std::copy_n(snaps.regs.begin() + at.regs, prog_.num_slots, t.regs);
  return start + 1;
}

/// Replay: the interpreted thread t stopped at snapshot i of its segment g
/// (same budget).  It rejoins the journal — the rest of the segment is
/// applied and its later slices replay again — iff it provably runs the
/// rest exactly as the golden run did: it holds the snapshot's pc and
/// registers, its writes so far are the golden prefix (so every word the
/// prefix wrote holds its golden value), every first read queued on the
/// segment still returns its golden value (so does every other word the
/// rest can read), no latent pair is left for it to touch, its armed fault
/// (if any) has fired, the rest fits the watchdog, and the SDC bit the
/// golden prefix set (if any) is set already.
bool BlockExec::rejoin(ThreadCtx& t, std::uint32_t g, std::uint32_t i) {
  const LaunchJournal& j = *journal_;
  const LaunchJournal::Snapshot& at = j.snapshots.list[i];
  const LaunchJournal::Segment& s = j.segments[g];
  DeviceMemory& mem = dev_.mem();
  if (t.pc != at.pc || armed_pending(t) || (at.sdc && !sdc) ||
      s.budget_after - 1 > opts_.watchdog_instructions ||
      !std::equal(t.regs, t.regs + prog_.num_slots, j.snapshots.regs.begin() + at.regs) ||
      !delta_->wrote_golden_prefix(at.writes, at.shared_writes) ||
      (!mem.latent_pairs().empty() && delta_->touches(g, mem.latent_pairs())) ||
      !delta_->reads_match(g, s, mem.flat_words().data(), shared_.data()))
    return false;
  apply_writes(s, at.writes, s.writes, at.shared_writes, s.shared_writes);
  charge(s.instructions - at.instructions, s.cycles - at.cycles, s.loop_cycles - at.loop_cycles);
  if (s.sdc) sdc = true;
  t.pc = s.pc;
  t.barrier_pc = s.barrier_pc;
  t.budget_used = s.budget_after;
  t.done = s.done;
  t.diverged = false;
  return true;
}

/// Replay: the loop heads a slice's hang probe tried a counter-loop proof
/// at, and its stops so far (probe_hang).
struct BlockExec::HangProbe {
  /// Stops after which the probe gives up on the slice.
  static constexpr std::uint32_t kMaxStops = 256;
  /// Loop heads the probe tries a counter-loop proof at, at most.
  static constexpr std::uint32_t kMaxHeads = 8;
  std::array<std::uint32_t, kMaxHeads> heads{};
  std::uint32_t tried = 0;
  std::uint32_t stops = 0;
  bool over = false;
};

/// Replay: a stop of a slice past its golden segment (or of a thread with
/// none left), right after a taken backward jump.  The first stop at each
/// loop head tries to prove the thread hung in that loop until the watchdog
/// and skip the periods in between (fast_forward_loop).  Returns true when
/// the probe is over: a loop fast-forwarded or kMaxStops stops passed.
bool BlockExec::probe_hang(ThreadCtx& t, HangProbe& p) {
  if (p.tried < HangProbe::kMaxHeads &&
      std::find(p.heads.begin(), p.heads.begin() + p.tried, t.pc) == p.heads.begin() + p.tried) {
    p.heads[p.tried++] = t.pc;
    if (fast_forward_loop(t)) return true;
  }
  return ++p.stops >= HangProbe::kMaxStops;
}

/// Replay: counter-loop fast-forward.  Thread t stands at loop head t.pc,
/// right after a taken backward jump there.  One period — from the head to
/// the next taken backward jump back to it — is traced on a copy of its
/// registers (trace_period), which gives each register's step d, its
/// change over the period.  A second trace then carries every value as
/// v + n * d over periods n and proves, for every period up to the one the
/// watchdog cuts (last), that whatever decides the path or a crash — each
/// branch condition, load address and integer divisor — is affine in n and
/// keeps the branch's direction, stays inside the arena clear of latent
/// ECC pairs, and stays nonzero; that every write leaves its word as it
/// was (an invariant address clear of latent pairs, an invariant value,
/// and the word already holding what the write leaves); and that the
/// period makes no barrier, hook call or detector op.  A register whose
/// value at the period's end is not its start plus d turns opaque and the
/// trace is redone: it may feed only values nothing above depends on.  By
/// induction every period then runs the same path with no effect, and the
/// thread hangs; it skips k = floor((watchdog + 1 - budget) / P) - 1
/// periods of P instructions, setting each affine register to its value
/// after them, and the interpreter runs the last P to 2P - 1 instructions.
/// Opaque registers keep theirs: nothing that decides the path depends on
/// them, and the Hang ends the launch before anything else could read them.
bool BlockExec::fast_forward_loop(ThreadCtx& t) {
  const std::uint64_t watchdog = opts_.watchdog_instructions;
  if (watchdog == ~std::uint64_t{0} || t.budget_used > watchdog) return false;
  const std::uint32_t slots = prog_.num_slots;
  PeriodTotals per;
  trace_regs_.assign(t.regs, t.regs + slots);
  if (!trace_period(t, trace_regs_.data(), nullptr, 0, per)) return false;
  const std::uint64_t whole = (watchdog - t.budget_used + 1) / per.instructions;
  if (whole < 2) return false;
  std::vector<Affine>& start = probe_start_;
  start.resize(slots);
  for (std::uint32_t r = 0; r < slots; ++r) start[r] = {t.regs[r], trace_regs_[r] - t.regs[r]};
  // Each round turns at least one more register opaque, or proves the loop.
  for (std::uint32_t round = 0;; ++round) {
    if (round > slots) return false;
    probe_vals_ = start;
    trace_regs_.assign(t.regs, t.regs + slots);
    if (!trace_period(t, trace_regs_.data(), probe_vals_.data(), whole, per)) return false;
    bool stable = true;
    for (std::uint32_t r = 0; r < slots; ++r)
      if (!start[r].opaque && (probe_vals_[r].opaque || probe_vals_[r].step != start[r].step)) {
        start[r].opaque = true;
        stable = false;
      }
    if (stable) break;
  }
  const std::uint64_t k = whole - 1;
  for (std::uint32_t r = 0; r < slots; ++r)
    if (!start[r].opaque) t.regs[r] += static_cast<std::uint32_t>(k) * start[r].step;
  instructions += k * per.instructions;
  cycles += k * per.cycles;
  loop_cycles += k * per.loop_cycles;
  t.budget_used += k * per.instructions;
  fast_forwarded += k * per.instructions;
  return true;
}

/// Replay: one period of thread t's loop at head t.pc on `regs` (a copy of
/// its registers), run with the reference interpreter's semantics up to
/// the taken backward jump back to the head, its totals in `per`.  Fails
/// at an op a fast-forward cannot skip — a write that changes its word, a
/// barrier, Halt, a detector op, a hook call (a live FIHook or a profiling
/// op) — at a latent pair, at a crash, and past kMaxPeriod instructions.
/// With `vals` it also carries every register's Affine value and fails
/// unless every branch condition, load address and integer divisor is
/// shown to keep its direction, stay in bounds, resp. stay nonzero, and
/// every write's address and value to stay put, in every period n in
/// [0, last] (fast_forward_loop).
bool BlockExec::trace_period(const ThreadCtx& t, std::uint32_t* regs, Affine* vals,
                             std::uint64_t last, PeriodTotals& per) {
  static constexpr std::uint64_t kMaxPeriod = 4096;
  const Instr* code = prog_.code.data();
  DeviceMemory& mem = dev_.mem();
  const std::span<const std::uint32_t> gmem = mem.flat_words();
  const std::span<const std::uint32_t> latent = mem.latent_pairs();
  const bool fi_live = armed_pending(t);
  static constexpr Affine kZero{};
  const auto val = [&](std::uint16_t r) -> const Affine& { return vals ? vals[r] : kZero; };
  const auto set = [&](std::uint16_t r, std::uint32_t v, Affine a) {
    regs[r] = v;
    if (vals) vals[r] = a;
  };
  // Whether the access at `addr` (value a) stays inside a memory of `size`
  // words, clear of latent pairs when global, in every period.
  const auto load_ok = [&](std::uint32_t addr, const Affine& a, std::uint32_t size,
                           bool global) {
    if (a.opaque) return false;
    const auto p = progression({addr, a.step}, last, false);
    if (!p || addr >= size || p->second >= size) return false;
    const __int128 lo = std::min(p->first, p->second), hi = std::max(p->first, p->second);
    if (global)
      for (const std::uint32_t pair : latent)
        if (2 * pair + 1 >= lo && 2 * pair <= hi) return false;
    return true;
  };
  per = {};
  std::uint32_t pc = t.pc;
  const std::uint32_t head = pc;
  for (;;) {
    if (per.instructions == kMaxPeriod) return false;
    const Instr& in = code[pc];
    ++per.instructions;
    per.cycles += costs_[pc];
    if (in.flags & kir::kInstrInLoop) per.loop_cycles += costs_[pc];
    ++pc;
    switch (in.op) {
      case OpCode::Nop: break;
      case OpCode::Const: set(in.dst, in.imm, {in.imm, 0}); break;
      case OpCode::Mov: set(in.dst, regs[in.a], val(in.a)); break;
      case OpCode::Builtin: {
        const std::uint32_t v = builtin_value(t, static_cast<BuiltinVal>(in.aux));
        set(in.dst, v, {v, 0});
        break;
      }
      case OpCode::Un: {
        const std::uint32_t v =
            eval_un(static_cast<UnOp>(aux_op(in.aux)), aux_type(in.aux), regs[in.a]);
        set(in.dst, v, val(in.a).invariant() ? Affine{v, 0} : Affine{0, 0, true});
        break;
      }
      case OpCode::Bin: {
        const auto op = static_cast<BinOp>(aux_op(in.aux));
        const DType type = aux_type(in.aux);
        bool crash = false;
        const std::uint32_t v = eval_bin(op, type, regs[in.a], regs[in.b], crash);
        if (crash) return false;
        if (vals && type != DType::F32 && (op == BinOp::Div || op == BinOp::Mod)) {
          const Affine& b = vals[in.b];
          if (b.opaque || (!b.invariant() && !compare_holds(BinOp::Ne, type != DType::PTR, b,
                                                            kZero, last)))
            return false;
        }
        set(in.dst, v, vals ? affine_bin(op, type, vals[in.a], vals[in.b], v, last) : kZero);
        break;
      }
      case OpCode::Select: {
        const bool cond = regs[in.a] != 0;
        const std::uint16_t from = cond ? in.b : static_cast<std::uint16_t>(in.imm);
        set(in.dst, regs[from], val(in.a).invariant() ? val(from) : Affine{0, 0, true});
        break;
      }
      case OpCode::LoadG: {
        const std::uint32_t addr = regs[in.a];
        if (!load_ok(addr, val(in.a), static_cast<std::uint32_t>(gmem.size()), true))
          return false;
        set(in.dst, gmem[addr], val(in.a).invariant() ? Affine{gmem[addr], 0} : Affine{0, 0, true});
        break;
      }
      case OpCode::LoadS: {
        const std::uint32_t addr = regs[in.a];
        if (!load_ok(addr, val(in.a), static_cast<std::uint32_t>(shared_.size()), false))
          return false;
        set(in.dst, shared_[addr],
            val(in.a).invariant() ? Affine{shared_[addr], 0} : Affine{0, 0, true});
        break;
      }
      case OpCode::StoreG:
      case OpCode::StoreS:
      case OpCode::AtomicAddG: {
        // Effect-free writes only: memory is then the same at every
        // period's start.
        const std::uint32_t addr = regs[in.a], b = regs[in.b];
        const bool global = in.op != OpCode::StoreS;
        const std::span<const std::uint32_t> words =
            global ? gmem : std::span<const std::uint32_t>(shared_);
        if (!val(in.b).invariant() || !val(in.a).invariant() ||
            !load_ok(addr, val(in.a), static_cast<std::uint32_t>(words.size()), global))
          return false;
        const std::uint32_t w = words[addr];
        const std::uint32_t post = in.op != OpCode::AtomicAddG    ? b
                                   : aux_type(in.aux) == DType::F32 ? fadd_bits(w, b)
                                                                    : w + b;
        if (post != w) return false;
        break;
      }
      case OpCode::Jmp:
      case OpCode::Jz: {
        if (in.op == OpCode::Jz) {
          const Affine& c = val(in.a);
          if (c.opaque || (!c.invariant() && !compare_holds(BinOp::Eq, true, c, kZero, last)))
            return false;
          if (regs[in.a] != 0) break;
        }
        const bool back = in.aux < pc;
        pc = in.aux;
        if (back && pc == head) return true;
        break;
      }
      case OpCode::FIHook:
        // Compiled away for every thread but the armed one before it fires.
        if (fi_live) return false;
        break;
      default: return false;
    }
  }
}

/// Replay: one time-slice of thread t — applied from the journal, or
/// interpreted with its writes reported to the delta set, which grows when
/// they differ from the golden counterpart's.  An interpreted slice runs
/// only a window of its segment when the snapshot table allows: it starts
/// at skip_prefix's snapshot, and stops at each later snapshot's budget to
/// try to rejoin.  Once past its golden segment's end (at once when the
/// golden thread had halted), it stops at every taken backward jump for
/// probe_hang until the probe is over.  The armed thread runs the stream
/// with live FIHooks while its fault is pending; a fire stops the slice at
/// its next taken backward jump, and it goes on without them.
ThreadStop BlockExec::replay_slice(ThreadCtx& t, LaunchStatus& crash_status) {
  const std::uint32_t slot = block_linear_ * threads_per_block_ + t.block_index;
  const std::uint32_t k = t.segment++;
  const bool golden_start = !t.diverged;
  if (apply_segment(t, slot, k)) return t.done ? ThreadStop::Done : ThreadStop::Barrier;
  delta_->begin_slice(slot, k);
  const LaunchJournal& j = *journal_;
  const LaunchJournal::SnapshotTable& snaps = j.snapshots;
  const std::uint32_t g = j.thread_begin[slot] + k;
  const bool golden = g < j.thread_begin[slot + 1];
  std::uint32_t next = 0, end = 0;
  if (!snaps.empty() && golden) {
    next = snaps.begin[g];
    end = snaps.end[g];
    if (golden_start) next = skip_prefix(t, g, k, next, end);
  }
  // The budget from which the slice probes for a hang.
  const std::uint64_t probe_from = golden ? j.segments[g].budget_after + 1 : 0;
  HangProbe probe;
  for (;;) {
    stop_at_ = next < end ? snaps.list[next].budget
               : probe.over ? kNoStop
                            : std::max(probe_from, t.budget_used);
    const ThreadStop stop = step_thread(t, crash_status);
    if (stop != ThreadStop::Snapshot) {
      stop_at_ = kNoStop;
      if (stop == ThreadStop::Done || stop == ThreadStop::Barrier)
        delta_->end_slice(stop == ThreadStop::Done);
      return stop;
    }
    while (next < end && snaps.list[next].budget < t.budget_used) ++next;
    if (next < end && snaps.list[next].budget == t.budget_used && rejoin(t, g, next++)) {
      stop_at_ = kNoStop;
      return t.done ? ThreadStop::Done : ThreadStop::Barrier;
    }
    if (next == end && !probe.over && t.budget_used >= probe_from)
      probe.over = probe_hang(t, probe);
  }
}

/// Record: one time-slice on this launch's engine, bracketed as a journal
/// segment; the interpreter offers the recorder its snapshots on the way
/// (offer_snapshot).
ThreadStop BlockExec::record_segment(ThreadCtx& t, LaunchStatus& crash_status) {
  seg_instructions_ = instructions;
  seg_cycles_ = cycles;
  seg_loop_cycles_ = loop_cycles;
  const bool sdc0 = sdc;
  sdc = false;
  site_counts_ = rec_->begin(block_linear_ * threads_per_block_ + t.block_index, t.block_index);
  stop_at_ = rec_->first_stop(t.budget_used);
  const ThreadStop stop = step_thread(t, crash_status);
  stop_at_ = kNoStop;
  rec_->end(instructions - seg_instructions_, cycles - seg_cycles_,
            loop_cycles - seg_loop_cycles_, sdc, t.budget_used, t.pc, t.barrier_pc,
            stop == ThreadStop::Done, {t.regs, prog_.num_slots});
  sdc = sdc || sdc0;
  return stop;
}

/// Record: a snapshot offer — thread t right after a taken backward jump to
/// `pc` (see snapshot_point).
void BlockExec::offer_snapshot(const ThreadCtx& t, std::uint32_t pc, std::uint64_t li,
                               std::uint64_t lc, std::uint64_t ll) {
  LaunchJournal::Snapshot at;
  at.instructions = instructions + li - seg_instructions_;
  at.cycles = cycles + lc - seg_cycles_;
  at.loop_cycles = loop_cycles + ll - seg_loop_cycles_;
  at.budget = t.budget_used + li;
  at.pc = pc;
  at.sdc = sdc;
  stop_at_ = rec_->snapshot(at, {t.regs, prog_.num_slots});
}

LaunchStatus BlockExec::run(std::span<const kir::Value> args) {
  if (opts_.instr_exec_counts) exec_counts.assign(prog_.code.size(), 0);
  if (opts_.simt_cost)
    thread_counts.assign(static_cast<std::size_t>(threads_per_block_) * prog_.code.size(), 0);
  const std::uint32_t slots = prog_.num_slots;
  std::vector<std::uint32_t> reg_slab(
      static_cast<std::size_t>(threads_per_block_) * slots, 0u);
  std::vector<ThreadCtx> threads(threads_per_block_);

  for (std::uint32_t i = 0; i < threads_per_block_; ++i) {
    ThreadCtx& t = threads[i];
    t.regs = reg_slab.data() + static_cast<std::size_t>(i) * slots;
    t.tx = i % cfg_.block_x;
    t.ty = i / cfg_.block_x;
    t.linear = block_linear_ * threads_per_block_ + i;
    t.block_index = i;
    for (std::size_t p = 0; p < args.size(); ++p) t.regs[p] = args[p].bits;
  }

  for (;;) {
    std::uint32_t done = 0, at_barrier = 0;
    for (auto& t : threads) {
      if (t.done) {
        ++done;
        continue;
      }
      LaunchStatus crash = LaunchStatus::Ok;
      const ThreadStop stop = journal_ ? replay_slice(t, crash)
                              : rec_   ? record_segment(t, crash)
                                       : step_thread(t, crash);
      if (rec_ || touch_) {
        ++slices;
        max_budget = std::max(max_budget, t.budget_used);
      }
      switch (stop) {
        case ThreadStop::Done: ++done; break;
        case ThreadStop::Barrier: ++at_barrier; break;
        case ThreadStop::Crash: return crash;
        case ThreadStop::Budget: return LaunchStatus::Hang;
        case ThreadStop::Snapshot: break;  // consumed by record_segment / replay_slice
      }
    }
    if (done == threads_per_block_) {
      finish_simt_cost();
      return LaunchStatus::Ok;
    }
    if (at_barrier > 0 && done > 0) {
      // Barrier deadlock: some threads exited while peers wait at a
      // __syncthreads.  Diagnose with the first waiter's barrier site (all
      // non-done threads are waiters — crash/budget stops returned above).
      const ThreadCtx* waiter = nullptr;
      const ThreadCtx* exited = nullptr;
      for (const auto& t : threads) {
        if (t.done) { if (!exited) exited = &t; }
        else if (!waiter) { waiter = &t; }
      }
      deadlock_pc = waiter->barrier_pc;
      deadlock_site = site_of(waiter->barrier_pc);
      if (shadow_)
        shadow_->on_divergence(waiter->barrier_pc, sites_[waiter->barrier_pc],
                               SanitizerReport::kNoPc, waiter->block_index,
                               exited->block_index, epoch_);
      return LaunchStatus::CrashBarrierDeadlock;
    }
    // All non-done threads are at the barrier: release and continue.  Before
    // releasing, the sanitizer checks the waiters actually sit at the *same*
    // barrier site — releasing threads from different __syncthreads sites is
    // divergence real hardware would deadlock or corrupt on.
    if (shadow_) {
      const ThreadCtx* first = nullptr;
      for (const auto& t : threads) {
        if (!first) { first = &t; continue; }
        if (t.barrier_pc != first->barrier_pc)
          shadow_->on_divergence(t.barrier_pc, sites_[t.barrier_pc], first->barrier_pc,
                                 t.block_index, first->block_index, epoch_);
      }
    }
    ++epoch_;
  }
}

void BlockExec::finish_simt_cost() {
  if (thread_counts.empty()) return;
  // Warp-serialized cost: for each warp, an instruction issues
  // max-over-lanes(count) times.  For structured control flow this equals
  // the classic SIMT stack cost: divergent branches serialize (per-path
  // maxima add) and loops run to the warp's longest trip count.
  const std::size_t n = prog_.code.size();
  const std::uint32_t warp = dev_.props().warp_size;
  for (std::uint32_t w0 = 0; w0 < threads_per_block_; w0 += warp) {
    const std::uint32_t w1 = std::min(threads_per_block_, w0 + warp);
    for (std::size_t pc = 0; pc < n; ++pc) {
      std::uint32_t mx = 0;
      for (std::uint32_t t = w0; t < w1; ++t)
        mx = std::max(mx, thread_counts[static_cast<std::size_t>(t) * n + pc]);
      simt_cycles += static_cast<std::uint64_t>(mx) * costs_[pc];
    }
  }
}

/// Order-dependent 64-bit combiner for the launch-plan fingerprint.
constexpr std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

/// Fingerprint of everything a plan's launch semantics depend on: the
/// instruction stream, the slot count, the detector value types, the
/// register budget, the cost model and the protection scheme.  It names the
/// plan inside journal fingerprints; the plan cache compares the inputs
/// themselves (PlanEntry::built_from).  The engine and the sanitize bit are
/// not plan inputs: both engines execute bitwise the same launch, so a journal
/// recorded on either serves the other, and journals are never recorded or
/// replayed sanitized.  Hashed field-by-field (never raw struct bytes, which
/// would include indeterminate padding).
std::uint64_t plan_fingerprint(const kir::BytecodeProgram& program, const CostModel& cm,
                               std::uint32_t regs_per_thread, ecc::Scheme protection) noexcept {
  std::uint64_t h = fp_mix(0x48415542ULL, program.code.size());
  h = fp_mix(h, program.num_slots);
  for (const kir::DetectorMeta& d : program.detectors)
    h = fp_mix(h, static_cast<std::uint64_t>(d.value_type));
  h = fp_mix(h, regs_per_thread);
  // Protection folds ECC surcharges into the cost vector and switches the
  // threaded compile off the flat-arena specializations; a plan built for
  // one mode must never be served to the other.
  h = fp_mix(h, static_cast<std::uint64_t>(protection));
  for (const Instr& in : program.code) {
    h = fp_mix(h, (static_cast<std::uint64_t>(in.op) << 56) |
                      (static_cast<std::uint64_t>(in.flags) << 48) |
                      (static_cast<std::uint64_t>(in.dst) << 32) |
                      (static_cast<std::uint64_t>(in.a) << 16) | in.b);
    h = fp_mix(h, (static_cast<std::uint64_t>(in.aux) << 32) | in.imm);
  }
  for (std::uint32_t v : {cm.alu, cm.fpu_addmul, cm.fpu_div, cm.sfu, cm.load_global,
                          cm.store_global, cm.load_shared, cm.store_shared, cm.atomic_global,
                          cm.barrier, cm.chk_xor, cm.dup_cmp, cm.range_check, cm.equal_check,
                          cm.chk_validate, cm.spill, cm.scatter_percent,
                          cm.hauberk_dup_percent, cm.control_block_per_launch, cm.ecc_check,
                          cm.ecc_encode, cm.ecc_scrub})
    h = fp_mix(h, v);
  return h;
}

/// Identity of a journaled launch: the plan key (program, cost model,
/// register budget, protection), the launch configuration, the
/// arguments, and the memory geometry the journal's addresses assume.
std::uint64_t journal_fingerprint(std::uint64_t plan_key, const kir::BytecodeProgram& program,
                                  const LaunchConfig& cfg, std::span<const kir::Value> args,
                                  std::uint32_t global_words) noexcept {
  std::uint64_t h = fp_mix(plan_key, 0x4A524E4CULL);
  for (std::uint64_t v : {std::uint64_t{cfg.grid_x}, std::uint64_t{cfg.grid_y},
                          std::uint64_t{cfg.block_x}, std::uint64_t{cfg.block_y},
                          std::uint64_t{program.shared_mem_words}, std::uint64_t{global_words},
                          std::uint64_t{args.size()}})
    h = fp_mix(h, v);
  for (const kir::Value& a : args)
    h = fp_mix(h, (static_cast<std::uint64_t>(a.type) << 32) | a.bits);
  return h;
}

}  // namespace

// Instr has no padding, so equal bytes are equal instructions and the cache
// can compare whole instruction streams with one memcmp.
static_assert(std::has_unique_object_representations_v<kir::Instr>);

bool Device::PlanEntry::built_from(const kir::BytecodeProgram& program,
                                   const CostModel& cm) const noexcept {
  if (num_slots != program.num_slots || cost != cm ||
      code.size() != program.code.size() || detector_types.size() != program.detectors.size())
    return false;
  for (std::size_t i = 0; i < detector_types.size(); ++i)
    if (detector_types[i] != program.detectors[i].value_type) return false;
  return code.empty() ||
         std::memcmp(code.data(), program.code.data(), code.size() * sizeof(kir::Instr)) == 0;
}

std::shared_ptr<const Device::LaunchPlan> Device::launch_plan(
    const kir::BytecodeProgram& program) {
  // The decoded stream is always built alongside the cost vector: decoding
  // is a single O(n) pass (trivial next to the spill analysis), and its
  // sanitizer site table serves every engine.  Threaded-code streams are
  // compiled by the launches that run them (stream()): a campaign worker's
  // launches record, track writes or take one step, and never run the plain
  // stream.  A plan is served only to a launch that would build it from
  // equal inputs, so editing cost_model() or editing the program in place
  // misses once and can never serve a plan built for another; flipping
  // set_engine() or set_sanitize() keeps the plan.
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    // Most recent first: a campaign relaunches the program it just ran.
    for (auto it = plan_cache_.rbegin(); it != plan_cache_.rend(); ++it) {
      if (!it->built_from(program, cost_)) continue;
      plan_hits_.fetch_add(1, std::memory_order_relaxed);
      if (it != plan_cache_.rbegin())  // LRU: refresh
        std::rotate(std::prev(it.base()), it.base(), plan_cache_.end());
      return plan_cache_.back().plan;
    }
  }
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_shared<LaunchPlan>();
  plan->key = plan_fingerprint(program, cost_, props_.regs_per_thread, props_.protection);
  plan->costs = instruction_costs(program, cost_, props_.regs_per_thread,
                                  props_.protection != ecc::Scheme::None);
  plan->decoded = kir::decode_program(program, plan->costs);
  for (const kir::DecodedInstr& in : plan->decoded.code)
    if (in.op == kir::DecodedOp::FIHook) ++plan->fi_hooks;
  PlanEntry entry{program.code, program.num_slots, {}, cost_, plan};
  entry.detector_types.reserve(program.detectors.size());
  for (const kir::DetectorMeta& d : program.detectors)
    entry.detector_types.push_back(d.value_type);
  std::lock_guard<std::mutex> lk(plan_mu_);
  if (plan_cache_.size() >= kPlanCacheCapacity)
    plan_cache_.erase(plan_cache_.begin());  // evict least recently used
  plan_cache_.push_back(std::move(entry));
  return plan;
}

const kir::ThreadedProgram& Device::stream(const LaunchPlan& plan, std::uint16_t num_slots,
                                           kir::MemInstr mem, bool fi_hooks) const {
  LaunchPlan::Stream& s = plan.streams[static_cast<std::size_t>(mem)][fi_hooks];
  std::call_once(s.once, [&] {
    stream_compiles_.fetch_add(1, std::memory_order_relaxed);
    s.code = kir::compile_threaded(plan.decoded, num_slots,
                                   props_.memory_model == MemoryModel::FlatGpu &&
                                       props_.protection == ecc::Scheme::None,
                                   mem, fi_hooks);
  });
  return s.code;
}

LaunchResult Device::launch(const kir::BytecodeProgram& program, const LaunchConfig& cfg,
                            std::span<const kir::Value> args, const LaunchOptions& opts) {
  LaunchResult res;
  if (opts.record_journal) *opts.record_journal = LaunchJournal{};
  if (disabled_) {
    res.status = LaunchStatus::DeviceDisabled;
    return res;
  }
  if (program.shared_mem_words > props_.shared_mem_words ||
      args.size() != program.num_params) {
    res.status = LaunchStatus::LaunchFailure;
    return res;
  }

  const auto plan = launch_plan(program);
  const std::vector<std::uint32_t>& costs = plan->costs;
  const std::uint32_t num_blocks = cfg.grid_x * cfg.grid_y;
  const unsigned hw = common::WorkerPool::default_workers();
  unsigned nw = opts.max_workers > 0 ? static_cast<unsigned>(opts.max_workers) : hw;
  nw = std::min({nw, static_cast<unsigned>(num_blocks), static_cast<unsigned>(props_.num_sms)});
  const kir::FIFilter fi =
      opts.hooks ? opts.hooks->fi_filter() : kir::FIFilter{kir::FIFilter::Kind::None};
  // Segment replay (DESIGN §10) is decided here and nowhere else.  Recording
  // and replay need a serial flat launch: one block worker (the journal's
  // segment order), the flat arena (launch-start diff, compares and direct
  // writes; under protection the latent pairs name the words that must
  // still take the checked path), and plain semantics (no sanitizer shadow,
  // profiling counters or hardware fault model, which a journal cannot
  // reproduce).  A recording launch runs on the device's engine.  Replay
  // also needs the threaded engine and that no fi_hook outside the armed
  // (site, thread) can act: a non-Generic FI filter (no hooks count as None).
  const bool serial_flat = !sanitize_ && nw <= 1 &&
                           props_.memory_model == MemoryModel::FlatGpu && !has_fault() &&
                           !opts.instr_exec_counts && !opts.simt_cost;
  const bool record = opts.record_journal && serial_flat;
  bool replay = opts.journal && serial_flat && !record && engine_ == ExecEngine::Threaded &&
                fi.kind != kir::FIFilter::Kind::Generic;
  const std::uint64_t journal_key =
      record || replay
          ? journal_fingerprint(plan->key, program, cfg, args, props_.global_mem_words)
          : 0;
  if (replay && opts.journal->fingerprint != journal_key)
    throw std::invalid_argument(
        "Device::launch: the journal was recorded for a different launch");
  // A recording launch feeds the recorder, or the touch recorder when it
  // records only the net effect.  A replaying one diffs memory against the
  // launch-start image once: an unarmed launch that provably cannot differ
  // from the golden run takes the journal's net effect in one step and runs
  // no block; any other seeds its delta set from the diff and reports its
  // interpreted writes to it — or, against a net-effect journal (no segment
  // to apply), runs as a plain full launch.
  std::optional<JournalRecorder> recorder;
  std::optional<TouchRecorder> touch;
  std::optional<DeltaSet> delta;
  bool one_step = false;
  std::vector<std::uint32_t> scrub;  // one step: the touched latent pairs
  if (record) {
    if (opts.record_net_effect)
      touch.emplace();
    else
      recorder.emplace(*opts.record_journal, program.shared_mem_words,
                       kir::fi_count_sites(plan->decoded), cfg.total_threads(),
                       program.num_slots);
    const auto words = mem_->flat_words();
    opts.record_journal->start_image.assign(words.begin(),
                                            words.begin() + mem_->store_watermark());
  } else if (replay) {
    const std::vector<std::uint32_t> diff =
        start_diff(*opts.journal, mem_->flat_words(), mem_->store_watermark());
    if (fi.kind != kir::FIFilter::Kind::Armed && !opts.journal->net.empty())
      one_step = net_effect_applies(*opts.journal, *mem_, diff, opts.watchdog_instructions,
                                    scrub);
    if (!one_step && opts.journal->segments.empty()) {
      replay = false;
    } else if (!one_step) {
      delta.emplace(*opts.journal);
      delta->seed(diff);
    }
  }

  // Which interpreter runs this launch.  Plain, sanitized, recording and
  // replaying launches run the threaded stream (on the Threaded engine);
  // launches that profile execution counts, cost SIMT serialization or carry
  // a hardware fault model — one-off profiling and BIST runs — run on the
  // reference interpreter (stream null), the only place those semantics are
  // implemented.  A threaded launch runs the plan's streams for its memory
  // mode (write tracking, recording, net effect, or the plain/sanitized
  // one): every slice the one with FIHooks compiled away unless the FI
  // filter is Generic, except the armed thread's while its fault is
  // pending, which runs the one with every FIHook live (`armed_stream`).
  // A plan without FIHooks runs one stream.
  const bool threaded =
      !one_step && engine_ == ExecEngine::Threaded && !plan->decoded.code.empty() &&
      !opts.instr_exec_counts && !opts.simt_cost && !has_fault();
  const kir::MemInstr mem_instr = touch    ? kir::MemInstr::NetEffect
                                  : record ? kir::MemInstr::Record
                                  : replay ? kir::MemInstr::Writes
                                           : plain_instr();
  const kir::ThreadedProgram* stream = nullptr;
  const kir::ThreadedProgram* armed_stream = nullptr;
  if (threaded) {
    const bool hooks = plan->fi_hooks > 0;
    stream = &this->stream(*plan, program.num_slots, mem_instr,
                           hooks && fi.kind == kir::FIFilter::Kind::Generic);
    if (hooks && fi.kind == kir::FIFilter::Kind::Armed)
      armed_stream = &this->stream(*plan, program.num_slots, mem_instr, true);
  }
  // Corrections are counted by the memory itself (it scrubs each corrupted
  // codeword exactly once); the delta across the launch is this launch's
  // corrected count, deterministic because the set of pairs read is.
  const std::uint64_t ecc_before = mem_->ecc_corrected();

  std::atomic<std::uint32_t> next_block{0};
  std::atomic<std::uint64_t> cycles{0}, loop_cycles{0}, instructions{0}, simt_cycles{0};
  std::atomic<std::uint64_t> reports_dropped{0}, replayed{0}, replayed_instructions{0},
      fast_forwarded{0}, replayed_shared_writes{0};
  std::uint64_t slices = 0, max_budget = 0;  // recording launches, which are serial
  std::atomic<bool> sdc{false};
  std::atomic<int> bad_status{static_cast<int>(LaunchStatus::Ok)};
  std::mutex profile_mu;
  if (opts.instr_exec_counts) opts.instr_exec_counts->assign(program.code.size(), 0);
  // Per-block report sinks, flattened in block order after the join, so the
  // sanitizer's report stream does not depend on worker scheduling.
  std::vector<std::vector<SanitizerReport>> block_reports(sanitize_ ? num_blocks : 0);
  // Deadlock diagnostics from the block whose failure won the status race;
  // written only by the CAS winner, read after the pool join (synchronized).
  std::int64_t deadlock_pc = -1, deadlock_site = -1;

  auto worker = [&] {
    for (;;) {
      // A kernel crash aborts the whole launch (the GPU runtime kills the grid).
      if (bad_status.load(std::memory_order_relaxed) != static_cast<int>(LaunchStatus::Ok))
        return;
      const std::uint32_t b = next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      BlockExec exec(*this, program, cfg, opts, costs, plan->decoded, stream, armed_stream, fi, b,
                     sanitize_ ? &block_reports[b] : nullptr, replay ? opts.journal : nullptr,
                     delta ? &*delta : nullptr, recorder ? &*recorder : nullptr,
                     touch ? &*touch : nullptr);
      const LaunchStatus st = exec.run(args);
      cycles.fetch_add(exec.cycles, std::memory_order_relaxed);
      loop_cycles.fetch_add(exec.loop_cycles, std::memory_order_relaxed);
      instructions.fetch_add(exec.instructions, std::memory_order_relaxed);
      simt_cycles.fetch_add(exec.simt_cycles, std::memory_order_relaxed);
      reports_dropped.fetch_add(exec.sanitizer_dropped(), std::memory_order_relaxed);
      replayed.fetch_add(exec.replayed, std::memory_order_relaxed);
      replayed_instructions.fetch_add(exec.replayed_instructions, std::memory_order_relaxed);
      fast_forwarded.fetch_add(exec.fast_forwarded, std::memory_order_relaxed);
      replayed_shared_writes.fetch_add(exec.replayed_shared_writes, std::memory_order_relaxed);
      if (record) {
        slices += exec.slices;
        max_budget = std::max(max_budget, exec.max_budget);
      }
      if (exec.sdc) sdc.store(true, std::memory_order_relaxed);
      if (opts.instr_exec_counts) {
        std::lock_guard<std::mutex> lk(profile_mu);
        for (std::size_t i = 0; i < exec.exec_counts.size(); ++i)
          (*opts.instr_exec_counts)[i] += exec.exec_counts[i];
      }
      if (st != LaunchStatus::Ok) {
        // Keep the most severe (first observed) failure; crash > hang.
        int expected = static_cast<int>(LaunchStatus::Ok);
        if (bad_status.compare_exchange_strong(expected, static_cast<int>(st))) {
          deadlock_pc = exec.deadlock_pc;
          deadlock_site = exec.deadlock_site;
        }
        return;  // this worker stops; others finish their current block
      }
    }
  };

  if (one_step) {
    const LaunchJournal::NetEffect& net = opts.journal->net;
    apply_net_effect(*opts.journal, *mem_, scrub);
    instructions = net.totals.instructions;
    cycles = net.totals.cycles;
    loop_cycles = net.totals.loop_cycles;
    sdc = net.totals.sdc;
    replayed = net.segments;
    replayed_instructions = net.totals.instructions;
  } else if (nw <= 1) {
    worker();
  } else {
    // Reusable pool: created once, then fed every subsequent multi-worker
    // launch (the former per-launch spawn/join dominated small kernels).
    // The mutex also serializes concurrent multi-worker launches, which is
    // safe because workers claim blocks from this launch's own counter.
    std::lock_guard<std::mutex> lk(launch_pool_mu_);
    if (!launch_pool_ || launch_pool_->size() < nw)
      launch_pool_ = std::make_unique<common::WorkerPool>(std::max(nw, hw));
    launch_pool_->run(nw, [&](unsigned) { worker(); });
  }

  res.status = static_cast<LaunchStatus>(bad_status.load());
  res.sdc_alarm = sdc.load();
  res.deadlock_pc = deadlock_pc;
  res.deadlock_site = deadlock_site;
  if (sanitize_) {
    std::size_t total = 0;
    for (const auto& v : block_reports) total += v.size();
    res.sanitizer_reports.reserve(total);
    for (const auto& v : block_reports)
      res.sanitizer_reports.insert(res.sanitizer_reports.end(), v.begin(), v.end());
    res.sanitizer_reports_dropped = reports_dropped.load();
  }
  res.cycles = cycles.load();
  res.loop_cycles = loop_cycles.load();
  res.instructions = instructions.load();
  res.simt_cycles = simt_cycles.load();
  res.threads = cfg.total_threads();
  res.replayed_segments = replayed.load();
  res.replayed_instructions = replayed_instructions.load();
  res.replayed_in_one_step = one_step;
  res.fast_forwarded_instructions = fast_forwarded.load();
  res.replayed_shared_writes = replayed_shared_writes.load();
  if (record) {
    // Only a fault-free launch is a golden run worth journaling.
    if (res.status == LaunchStatus::Ok) {
      LaunchJournal& j = *opts.record_journal;
      if (touch) {
        touch->finish(j, mem_->flat_words());
      } else {
        recorder->finish(num_blocks, cfg.block_x * cfg.block_y);
        record_net_words(j, mem_->flat_words());
      }
      j.net.totals = {res.instructions, res.cycles, res.loop_cycles, max_budget, res.sdc_alarm};
      j.net.segments = slices;
      j.net.recorded = true;
      j.fingerprint = journal_key;
    } else {
      *opts.record_journal = LaunchJournal{};
    }
  }
  // Per-correction scrub write-back: charged flat per corrected codeword
  // (the per-access check/encode cost is already folded into the plan's
  // static costs, so only the rare correction path is charged here).
  res.ecc_corrected = mem_->ecc_corrected() - ecc_before;
  res.cycles += res.ecc_corrected * cost_.ecc_scrub;
  // The control-block delivery is a host-side per-launch cost; it is charged
  // to the thread-cycle total only (simt_cycles measures kernel execution at
  // warp granularity and would be distorted by a flat host-side constant).
  if (opts.charge_control_block) res.cycles += cost_.control_block_per_launch;
  return res;
}

}  // namespace hauberk::gpusim
