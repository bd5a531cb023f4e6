#include "gpusim/device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

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

enum class ThreadStop : std::uint8_t { Done, Barrier, Crash, Budget };

/// Builds a LaunchJournal during a serial reference launch.  Every segment
/// gets a serial stamp; per-address stamps (dense arrays, grown to the
/// highest address touched) tell a first read from a re-read of the
/// segment's own store without any per-segment clearing.
class JournalRecorder {
 public:
  using J = LaunchJournal;

  JournalRecorder(LaunchJournal& j, std::uint32_t shared_words) : j_(j), sstamp_(shared_words) {}

  void begin(std::uint32_t thread_slot) {
    ++stamp_;
    slots_.push_back(thread_slot);
    seg_ = J::Segment{};
    seg_.first_reads = static_cast<std::uint32_t>(j_.reads.size());
    seg_.first_write = static_cast<std::uint32_t>(j_.writes.size());
    seg_.first_shared_write = static_cast<std::uint32_t>(j_.shared_writes.size());
    shared_reads_.clear();
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
  }

  /// Group the serial-order segments per thread (stable, so each thread's
  /// stay in epoch order) and fill thread_begin.
  void finish(std::uint32_t num_threads) {
    std::vector<std::uint32_t> begin(static_cast<std::size_t>(num_threads) + 1, 0);
    for (const std::uint32_t s : slots_) ++begin[s + 1];
    for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
    std::vector<J::Segment> grouped(j_.segments.size());
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < slots_.size(); ++i) grouped[next[slots_[i]]++] = j_.segments[i];
    j_.segments = std::move(grouped);
    j_.thread_begin = std::move(begin);
  }

 private:
  struct Cell {
    std::uint32_t stamp = 0;
    std::uint32_t pre = 0;  ///< pre-segment value when only atomics touched it
    bool pending = false;
  };
  Cell& cell(std::uint32_t addr) {
    if (addr >= cells_.size())
      cells_.resize(std::max<std::size_t>(addr + std::size_t{1}, cells_.size() * 2));
    return cells_[addr];
  }
  void write(std::uint32_t addr, std::uint32_t value, J::WriteKind kind) {
    j_.writes.push_back({addr, value, kind});
    seg_.write_hi = std::max(seg_.write_hi, addr + 1);
  }

  LaunchJournal& j_;
  std::uint32_t stamp_ = 0;
  J::Segment seg_;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> sstamp_;
  std::vector<J::Word> shared_reads_;
  std::vector<std::uint32_t> slots_;  ///< thread slot of each serial segment
};

/// Executes all threads of one block.
class BlockExec {
 public:
  BlockExec(Device& dev, const kir::BytecodeProgram& prog, const LaunchConfig& cfg,
            const LaunchOptions& opts, const std::vector<std::uint32_t>& costs,
            const kir::DecodedProgram& decoded, const kir::ThreadedProgram* threaded,
            const kir::FIFilter& fi, std::uint32_t block_linear,
            std::vector<SanitizerReport>* report_sink, const LaunchJournal* journal,
            JournalRecorder* recorder)
      : dev_(dev), prog_(prog), cfg_(cfg), opts_(opts), costs_(costs),
        tcode_(threaded && !threaded->code.empty() ? threaded->code.data() : nullptr),
        fi_thread_(fi.thread),
        armed_(fi.kind == kir::FIFilter::Kind::Armed),
        journal_(journal),
        rec_(recorder),
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
    // Replay only: the thread's next journal segment, and whether its
    // registers have left the golden run's (it was interpreted).
    std::uint32_t segment = 0;
    bool diverged = false;
  };

  ThreadStop run_thread(ThreadCtx& t, LaunchStatus& crash_status);
  bool apply_segment(ThreadCtx& t);
  ThreadStop record_segment(ThreadCtx& t, LaunchStatus& crash_status);
  ThreadStop run_thread_threaded(ThreadCtx& t, LaunchStatus& crash_status);
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
  std::uint32_t fi_thread_;       ///< armed thread of an Armed FI-specialized stream
  bool armed_;                    ///< the launch's FI filter is Armed
  const LaunchJournal* journal_;  ///< non-null on a replaying launch
  JournalRecorder* rec_;          ///< non-null on a recording launch
  const std::uint32_t* sites_;    ///< per-pc sanitizer site ids (all engines)
  std::uint32_t block_linear_, sm_, bx_, by_, threads_per_block_;
  std::vector<std::uint32_t> shared_;
  std::unique_ptr<SharedShadow> shadow_;  ///< non-null only on a sanitizing device
  std::uint32_t epoch_ = 0;  ///< barrier epoch, bumped at every successful release
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
        if (rec_) rec_->global_load(addr, regs[in.dst]);
        break;
      }
      case OpCode::StoreG:
        if (!mem.store(regs[in.a], regs[in.b])) {
          crash_status = mem_fail_status();
          finish();
          return ThreadStop::Crash;
        }
        if (rec_) rec_->global_store(regs[in.a], regs[in.b]);
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
          if (rec_) rec_->shared_store(addr, regs[in.b]);
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
        if (rec_)
          rec_->global_atomic(regs[in.a], regs[in.b],
                              is_f ? LaunchJournal::WriteKind::AtomicAddF
                                   : LaunchJournal::WriteKind::AtomicAddI,
                              pre);
        break;
      }
      case OpCode::Jmp:
        t.pc = in.aux;
        break;
      case OpCode::Jz:
        if (regs[in.a] == 0) t.pc = in.aux;
        break;
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
        if (opts_.hooks) opts_.hooks->fi_hook(in.aux, t.linear, regs[in.a]);
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
/// Sanitized plans (Device::set_sanitize) run here too: their shared
/// accesses are the SanLoadS/SanStoreS singles, which report to the shadow
/// exactly where run_thread does.  Launches that profile execution counts,
/// cost SIMT serialization or carry a hardware fault model run on
/// run_thread instead (see Device::launch), so instrumentation semantics
/// live in one place.
ThreadStop BlockExec::run_thread_threaded(ThreadCtx& t, LaunchStatus& crash_status) {
  using kir::TOp;
  // The threaded stream, the thread's register file and the flat arena are
  // three disjoint allocations; __restrict lets the compiler keep operands
  // in registers across regs[]/gmem[] stores (plain uint32 writes that TBAA
  // alone cannot separate from ThreadedInstr's uint32 fields).
  const kir::ThreadedInstr* const __restrict code = tcode_;
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
#define T_SET(expr)                   \
  {                                   \
    T_STEP1();                        \
    regs[in->dst] = (expr);           \
    T_NEXT();                         \
  }

// Fused operand evaluators — bit-identical to the corresponding
// single-op handlers.
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
      &&lbl_FIHookArmed,
      &&lbl_Nk_FIHookArmed,
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
  T_LABEL(Nop) : {
    T_STEP1();
    T_NEXT();
  }
  T_LABEL(Const) : T_SET(in->imm);
  T_LABEL(Mov) : T_SET(regs[in->a]);
  T_LABEL(Builtin) : T_SET(builtin_value(t, static_cast<BuiltinVal>(in->aux)));
  T_LABEL(Select) :
      T_SET(regs[in->a] != 0 ? regs[in->b] : regs[static_cast<std::uint16_t>(in->imm)]);

  T_LABEL(NegF) : T_SET(f_bits(-as_f(regs[in->a])));
  T_LABEL(NegI) : T_SET(neg_i_bits(regs[in->a]));
  T_LABEL(NotF) : T_SET(as_f(regs[in->a]) == 0.0f);
  T_LABEL(NotW) : T_SET(regs[in->a] == 0);
  T_LABEL(BitNot) : T_SET(~regs[in->a]);
  T_LABEL(AbsF) : T_SET(f_bits(std::fabs(as_f(regs[in->a]))));
  T_LABEL(AbsI) : T_SET(abs_i_bits(regs[in->a]));
  T_LABEL(SqrtF) : T_SET(f_bits(std::sqrt(as_f(regs[in->a]))));
  T_LABEL(RsqrtF) : T_SET(f_bits(1.0f / std::sqrt(as_f(regs[in->a]))));
  T_LABEL(ExpF) : T_SET(f_bits(std::exp(as_f(regs[in->a]))));
  T_LABEL(LogF) : T_SET(f_bits(std::log(as_f(regs[in->a]))));
  T_LABEL(SinF) : T_SET(f_bits(std::sin(as_f(regs[in->a]))));
  T_LABEL(CosF) : T_SET(f_bits(std::cos(as_f(regs[in->a]))));
  T_LABEL(FloorF) : T_SET(f_bits(std::floor(as_f(regs[in->a]))));
  T_LABEL(I2F) : T_SET(f_bits(static_cast<float>(as_i(regs[in->a]))));
  T_LABEL(P2F) : T_SET(f_bits(static_cast<float>(regs[in->a])));
  T_LABEL(F2I) : T_SET(f2i_sat(regs[in->a]));
  T_LABEL(CopyA) : T_SET(regs[in->a]);
  T_LABEL(UnGeneric) :
      T_SET(eval_un(static_cast<UnOp>(aux_op(in->aux)), aux_type(in->aux), regs[in->a]));

  T_LABEL(AddF) : T_SET(fadd_bits(regs[in->a], regs[in->b]));
  T_LABEL(SubF) : T_SET(fsub_bits(regs[in->a], regs[in->b]));
  T_LABEL(MulF) : T_SET(fmul_bits(regs[in->a], regs[in->b]));
  T_LABEL(DivF) : T_SET(fdiv_bits(regs[in->a], regs[in->b]));
  T_LABEL(MinF) : T_SET(fmin_bits(regs[in->a], regs[in->b]));
  T_LABEL(MaxF) : T_SET(fmax_bits(regs[in->a], regs[in->b]));
  T_LABEL(LtF) : T_SET(HB_CMP_LtF(regs[in->a], regs[in->b]));
  T_LABEL(LeF) : T_SET(HB_CMP_LeF(regs[in->a], regs[in->b]));
  T_LABEL(GtF) : T_SET(HB_CMP_GtF(regs[in->a], regs[in->b]));
  T_LABEL(GeF) : T_SET(HB_CMP_GeF(regs[in->a], regs[in->b]));
  T_LABEL(EqF) : T_SET(HB_CMP_EqF(regs[in->a], regs[in->b]));
  T_LABEL(NeF) : T_SET(HB_CMP_NeF(regs[in->a], regs[in->b]));
  T_LABEL(AddW) : T_SET(regs[in->a] + regs[in->b]);
  T_LABEL(SubW) : T_SET(regs[in->a] - regs[in->b]);
  T_LABEL(MulW) : T_SET(regs[in->a] * regs[in->b]);
  T_LABEL(DivI) : {
    T_STEP1();
    const std::int64_t x = as_i(regs[in->a]), y = as_i(regs[in->b]);
    if (y == 0) T_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = i_bits(static_cast<std::int32_t>(x / y));
    T_NEXT();
  }
  T_LABEL(ModI) : {
    T_STEP1();
    const std::int64_t x = as_i(regs[in->a]), y = as_i(regs[in->b]);
    if (y == 0) T_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = i_bits(static_cast<std::int32_t>(x % y));
    T_NEXT();
  }
  T_LABEL(DivU) : {
    T_STEP1();
    if (regs[in->b] == 0) T_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = regs[in->a] / regs[in->b];
    T_NEXT();
  }
  T_LABEL(ModU) : {
    T_STEP1();
    if (regs[in->b] == 0) T_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = regs[in->a] % regs[in->b];
    T_NEXT();
  }
  T_LABEL(MinI) : T_SET(as_i(regs[in->a]) < as_i(regs[in->b]) ? regs[in->a] : regs[in->b]);
  T_LABEL(MaxI) : T_SET(as_i(regs[in->a]) > as_i(regs[in->b]) ? regs[in->a] : regs[in->b]);
  T_LABEL(MinU) : T_SET(regs[in->a] < regs[in->b] ? regs[in->a] : regs[in->b]);
  T_LABEL(MaxU) : T_SET(regs[in->a] > regs[in->b] ? regs[in->a] : regs[in->b]);
  T_LABEL(LtI) : T_SET(HB_CMP_LtI(regs[in->a], regs[in->b]));
  T_LABEL(LeI) : T_SET(HB_CMP_LeI(regs[in->a], regs[in->b]));
  T_LABEL(GtI) : T_SET(HB_CMP_GtI(regs[in->a], regs[in->b]));
  T_LABEL(GeI) : T_SET(HB_CMP_GeI(regs[in->a], regs[in->b]));
  T_LABEL(LtU) : T_SET(HB_CMP_LtU(regs[in->a], regs[in->b]));
  T_LABEL(LeU) : T_SET(HB_CMP_LeU(regs[in->a], regs[in->b]));
  T_LABEL(GtU) : T_SET(HB_CMP_GtU(regs[in->a], regs[in->b]));
  T_LABEL(GeU) : T_SET(HB_CMP_GeU(regs[in->a], regs[in->b]));
  T_LABEL(EqW) : T_SET(HB_CMP_EqW(regs[in->a], regs[in->b]));
  T_LABEL(NeW) : T_SET(HB_CMP_NeW(regs[in->a], regs[in->b]));
  T_LABEL(AndB) : T_SET(regs[in->a] & regs[in->b]);
  T_LABEL(OrB) : T_SET(regs[in->a] | regs[in->b]);
  T_LABEL(XorB) : T_SET(regs[in->a] ^ regs[in->b]);
  T_LABEL(ShlB) : T_SET(regs[in->a] << (regs[in->b] & 31));
  T_LABEL(ShrL) : T_SET(regs[in->a] >> (regs[in->b] & 31));
  T_LABEL(ShrA) : T_SET(i_bits(as_i(regs[in->a]) >> (regs[in->b] & 31)));
  T_LABEL(LAndW) : T_SET((regs[in->a] != 0) && (regs[in->b] != 0));
  T_LABEL(LOrW) : T_SET((regs[in->a] != 0) || (regs[in->b] != 0));
  T_LABEL(BinGeneric) : {
    T_STEP1();
    bool crash = false;
    const std::uint32_t r = eval_bin(static_cast<BinOp>(aux_op(in->aux)), aux_type(in->aux),
                                     regs[in->a], regs[in->b], crash);
    if (crash) T_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = r;
    T_NEXT();
  }

  T_LABEL(LoadG) : {
    T_STEP1();
    const std::uint32_t addr = regs[in->a];
    if (gmem) {
      if (addr >= gsize) T_CRASH(LaunchStatus::CrashOutOfBounds);
      regs[in->dst] = gmem[addr];
    } else if (!mem.load(addr, regs[in->dst])) {
      T_CRASH(mem_fail_status());
    }
    T_NEXT();
  }
  T_LABEL(StoreG) : {
    T_STEP1();
    const std::uint32_t addr = regs[in->a];
    if (gmem) {
      if (addr >= gsize) T_CRASH(LaunchStatus::CrashOutOfBounds);
      gmem[addr] = regs[in->b];
      mem.note_store(addr);
    } else if (!mem.store(addr, regs[in->b])) {
      T_CRASH(mem_fail_status());
    }
    T_NEXT();
  }
  T_LABEL(LoadS) : {
    T_STEP1();
    const std::uint32_t addr = regs[in->a];
    if (addr >= ssize) T_CRASH(LaunchStatus::CrashSharedOutOfBounds);
    regs[in->dst] = shared_[addr];
    T_NEXT();
  }
  T_LABEL(StoreS) : {
    T_STEP1();
    const std::uint32_t addr = regs[in->a];
    if (addr >= ssize) T_CRASH(LaunchStatus::CrashSharedOutOfBounds);
    shared_[addr] = regs[in->b];
    T_NEXT();
  }
  // Sanitized shared accesses: the LoadS/StoreS bodies with the shadow
  // observing at run_thread's points (out-of-bounds before the crash exit,
  // in-bounds before the access).
  T_LABEL(SanLoadS) : {
    T_STEP1();
    const std::uint32_t addr = regs[in->a];
    if (addr >= ssize) {
      shadow_->on_oob(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);
      T_CRASH(LaunchStatus::CrashSharedOutOfBounds);
    }
    shadow_->on_load(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);
    regs[in->dst] = shared_[addr];
    T_NEXT();
  }
  T_LABEL(SanStoreS) : {
    T_STEP1();
    const std::uint32_t addr = regs[in->a];
    if (addr >= ssize) {
      shadow_->on_oob(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);
      T_CRASH(LaunchStatus::CrashSharedOutOfBounds);
    }
    shadow_->on_store(pc - 1, sites_[pc - 1], t.block_index, addr, epoch_);
    shared_[addr] = regs[in->b];
    T_NEXT();
  }
  // The atomic handlers keep the lock_guard inside an inner block: the
  // computed goto in T_NEXT() must not jump out of the guard's scope (an
  // indirect goto does not unwind locals, so the mutex would stay locked
  // and the next atomic in any thread would deadlock the launch).
  T_LABEL(AtomicAddF) : {
    T_STEP1();
    {
      std::lock_guard<std::mutex> lk(dev_.atomic_mutex());
      if (gmem) {
        if (regs[in->a] >= gsize) T_CRASH(LaunchStatus::CrashOutOfBounds);
        mem.note_store(regs[in->a]);
        std::uint32_t* const w = gmem + regs[in->a];
        *w = fadd_bits(*w, regs[in->b]);
      } else if (!mem.rmw(regs[in->a],
                          [&](std::uint32_t w) { return fadd_bits(w, regs[in->b]); })) {
        T_CRASH(mem_fail_status());
      }
    }
    T_NEXT();
  }
  T_LABEL(AtomicAddI) : {
    T_STEP1();
    {
      std::lock_guard<std::mutex> lk(dev_.atomic_mutex());
      if (gmem) {
        if (regs[in->a] >= gsize) T_CRASH(LaunchStatus::CrashOutOfBounds);
        mem.note_store(regs[in->a]);
        std::uint32_t* const w = gmem + regs[in->a];
        *w = i_bits(static_cast<std::int32_t>(
            static_cast<std::int64_t>(as_i(*w)) + as_i(regs[in->b])));
      } else if (!mem.rmw(regs[in->a], [&](std::uint32_t w) {
                   return i_bits(static_cast<std::int32_t>(
                       static_cast<std::int64_t>(as_i(w)) + as_i(regs[in->b])));
                 })) {
        T_CRASH(mem_fail_status());
      }
    }
    T_NEXT();
  }

  T_LABEL(Jmp) : {
    T_STEP1();
    pc = in->aux;
    T_NEXT();
  }
  T_LABEL(Jz) : {
    T_STEP1();
    if (regs[in->a] == 0) pc = in->aux;
    T_NEXT();
  }
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

  T_LABEL(ChkXor) : {
    T_STEP1();
    regs[in->dst] ^= regs[in->a];
    T_NEXT();
  }
  T_LABEL(ChkValidate) : {
    T_STEP1();
    if (regs[in->dst] != 0) sdc = true;
    T_NEXT();
  }
  T_LABEL(DupCmp) : {
    T_STEP1();
    if (regs[in->a] != regs[in->b]) sdc = true;
    T_NEXT();
  }
  T_LABEL(RangeCheck) : {
    T_STEP1();
    if (opts_.hooks &&
        opts_.hooks->check_range(static_cast<int>(in->aux),
                                 kir::Value{static_cast<DType>(in->t), regs[in->a]}))
      sdc = true;
    T_NEXT();
  }
  T_LABEL(EqualCheck) : {
    T_STEP1();
    if (regs[in->a] != regs[in->b]) {
      sdc = true;
      if (opts_.hooks) opts_.hooks->equal_check_failed(static_cast<int>(in->aux));
    }
    T_NEXT();
  }
  T_LABEL(ProfileVal) : {
    T_STEP1();
    if (opts_.hooks)
      opts_.hooks->profile_value(static_cast<int>(in->aux),
                                 kir::Value{static_cast<DType>(in->t), regs[in->a]});
    T_NEXT();
  }
  T_LABEL(CountExec) : {
    T_STEP1();
    if (opts_.hooks) opts_.hooks->count_exec(in->aux, t.linear);
    T_NEXT();
  }
  T_LABEL(FIHook) : {
    T_STEP1();
    if (opts_.hooks) opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a]);
    T_NEXT();
  }
  // The armed site's hook in an FI-specialized stream: only the armed
  // thread calls it (the filter promises every other call is a no-op).
  T_LABEL(FIHookArmed) : {
    T_STEP1();
    if (t.linear == fi_thread_) opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a]);
    T_NEXT();
  }
  T_LABEL(Invalid) : {
    T_STEP1();
    T_CRASH(LaunchStatus::CrashInvalidInstr);
  }

  // --- fused superinstructions ---
#define T_CMPJZ(K)                                                           \
  T_LABEL(CmpJz_##K) : {                                                     \
    if (left < 2) T_DELEGATE();                                              \
    T_CHARGE(2);                                                             \
    const std::uint32_t v_ = HB_CMP_##K(regs[in->a], regs[in->b]);           \
    regs[in->dst] = v_;                                                      \
    pc = v_ == 0 ? in->aux : pc + 2;                                     \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(ConstCmpJz_##K) : {                                                \
    if (left < 3) T_DELEGATE();                                              \
    T_CHARGE(3);                                                             \
    regs[in->c] = in->imm;                                                   \
    const std::uint32_t x_ = regs[in->a];                                    \
    const std::uint32_t v_ =                                                 \
        in->t ? HB_CMP_##K(in->imm, x_) : HB_CMP_##K(x_, in->imm);           \
    regs[in->dst] = v_;                                                      \
    pc = v_ == 0 ? in->aux : pc + 3;                                     \
    T_NEXT();                                                                \
  }
  HAUBERK_TOP_CMP_LIST(T_CMPJZ)
#undef T_CMPJZ

  T_LABEL(ConstAddJmp) : {
    if (left < 3) T_DELEGATE();
    T_CHARGE(3);
    regs[in->c] = in->imm;
    regs[in->dst] = regs[in->a] + regs[in->b];
    pc = in->aux;
    T_NEXT();
  }
  T_LABEL(AddJmp) : {
    if (left < 2) T_DELEGATE();
    T_CHARGE(2);
    regs[in->dst] = regs[in->a] + regs[in->b];
    pc = in->aux;
    T_NEXT();
  }

#define T_ALUFUSE(K)                                                         \
  T_LABEL(ConstBin_##K) : {                                                  \
    if (left < 2) T_DELEGATE();                                              \
    T_CHARGE(2);                                                             \
    regs[in->c] = in->imm;                                                   \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    pc += 2;                                                               \
    T_NEXT();                                                                \
  }                                                                          \
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
    pc += 3;                                                               \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(BinChkXor_##K) : {                                                 \
    if (left < 2) T_DELEGATE();                                              \
    T_CHARGE(2);                                                             \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    regs[in->c] ^= regs[in->d];                                              \
    pc += 2;                                                               \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(BinDupCmp_##K) : {                                                 \
    if (left < 2) T_DELEGATE();                                              \
    T_CHARGE(2);                                                             \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    if (regs[in->c] != regs[in->d]) sdc = true;                              \
    pc += 2;                                                               \
    T_NEXT();                                                                \
  }
  HAUBERK_TOP_ALU_LIST(T_ALUFUSE)
#undef T_ALUFUSE

  T_LABEL(ChkXor2) : {
    if (left < 2) T_DELEGATE();
    T_CHARGE(2);
    regs[in->dst] ^= regs[in->a];
    regs[in->c] ^= regs[in->d];
    pc += 2;
    T_NEXT();
  }
  T_LABEL(RangeCheck2) : {
    if (left < 2) T_DELEGATE();
    T_CHARGE(2);
    if (opts_.hooks) {
      if (opts_.hooks->check_range(static_cast<int>(in->aux),
                                   kir::Value{static_cast<DType>(in->t & 0xf), regs[in->a]}))
        sdc = true;
      if (opts_.hooks->check_range(static_cast<int>(in->imm),
                                   kir::Value{static_cast<DType>(in->t >> 4), regs[in->c]}))
        sdc = true;
    }
    pc += 2;
    T_NEXT();
  }

  // --- straight-line runs ---
  // RunHead: one budget test and one pre-summed charge for the whole
  // region, then dispatch the head op's naked handler (`in` unchanged —
  // the head slot carries that op's operands).  A budget boundary inside
  // the region delegates *before* any charge, so the reference replays
  // it per-instruction and stops exactly where the reference would.  In
  // an FI-specialized stream `skip` jumps over the slots of the hooks the
  // region charges but never dispatches (0 otherwise).
  T_LABEL(RunHead) : {
    if (left < in->len) T_DELEGATE();
    T_CHARGE(in->len);
    pc += in->skip;
    T_DISPATCH_D();
  }

  // Naked singles: the single-op bodies minus all accounting — the RunHead
  // already billed the region.  Crashable ops refund their suffix (carried
  // in their cost/loop_cost/len fields) before the crash exit; the atomic
  // handlers keep the lock_guard scoped exactly like the accounted ones.
#define T_NSET(expr)          \
  {                           \
    regs[in->dst] = (expr);   \
    ++pc;                     \
    T_NEXT();                 \
  }
  T_LABEL(Nk_Nop) : {
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_Const) : T_NSET(in->imm);
  T_LABEL(Nk_Mov) : T_NSET(regs[in->a]);
  T_LABEL(Nk_Builtin) : T_NSET(builtin_value(t, static_cast<BuiltinVal>(in->aux)));
  T_LABEL(Nk_Select) :
      T_NSET(regs[in->a] != 0 ? regs[in->b] : regs[static_cast<std::uint16_t>(in->imm)]);

  T_LABEL(Nk_NegF) : T_NSET(f_bits(-as_f(regs[in->a])));
  T_LABEL(Nk_NegI) : T_NSET(neg_i_bits(regs[in->a]));
  T_LABEL(Nk_NotF) : T_NSET(as_f(regs[in->a]) == 0.0f);
  T_LABEL(Nk_NotW) : T_NSET(regs[in->a] == 0);
  T_LABEL(Nk_BitNot) : T_NSET(~regs[in->a]);
  T_LABEL(Nk_AbsF) : T_NSET(f_bits(std::fabs(as_f(regs[in->a]))));
  T_LABEL(Nk_AbsI) : T_NSET(abs_i_bits(regs[in->a]));
  T_LABEL(Nk_SqrtF) : T_NSET(f_bits(std::sqrt(as_f(regs[in->a]))));
  T_LABEL(Nk_RsqrtF) : T_NSET(f_bits(1.0f / std::sqrt(as_f(regs[in->a]))));
  T_LABEL(Nk_ExpF) : T_NSET(f_bits(std::exp(as_f(regs[in->a]))));
  T_LABEL(Nk_LogF) : T_NSET(f_bits(std::log(as_f(regs[in->a]))));
  T_LABEL(Nk_SinF) : T_NSET(f_bits(std::sin(as_f(regs[in->a]))));
  T_LABEL(Nk_CosF) : T_NSET(f_bits(std::cos(as_f(regs[in->a]))));
  T_LABEL(Nk_FloorF) : T_NSET(f_bits(std::floor(as_f(regs[in->a]))));
  T_LABEL(Nk_I2F) : T_NSET(f_bits(static_cast<float>(as_i(regs[in->a]))));
  T_LABEL(Nk_P2F) : T_NSET(f_bits(static_cast<float>(regs[in->a])));
  T_LABEL(Nk_F2I) : T_NSET(f2i_sat(regs[in->a]));
  T_LABEL(Nk_CopyA) : T_NSET(regs[in->a]);
  T_LABEL(Nk_UnGeneric) :
      T_NSET(eval_un(static_cast<UnOp>(aux_op(in->aux)), aux_type(in->aux), regs[in->a]));

  T_LABEL(Nk_AddF) : T_NSET(fadd_bits(regs[in->a], regs[in->b]));
  T_LABEL(Nk_SubF) : T_NSET(fsub_bits(regs[in->a], regs[in->b]));
  T_LABEL(Nk_MulF) : T_NSET(fmul_bits(regs[in->a], regs[in->b]));
  T_LABEL(Nk_DivF) : T_NSET(fdiv_bits(regs[in->a], regs[in->b]));
  T_LABEL(Nk_MinF) : T_NSET(fmin_bits(regs[in->a], regs[in->b]));
  T_LABEL(Nk_MaxF) : T_NSET(fmax_bits(regs[in->a], regs[in->b]));
  T_LABEL(Nk_LtF) : T_NSET(HB_CMP_LtF(regs[in->a], regs[in->b]));
  T_LABEL(Nk_LeF) : T_NSET(HB_CMP_LeF(regs[in->a], regs[in->b]));
  T_LABEL(Nk_GtF) : T_NSET(HB_CMP_GtF(regs[in->a], regs[in->b]));
  T_LABEL(Nk_GeF) : T_NSET(HB_CMP_GeF(regs[in->a], regs[in->b]));
  T_LABEL(Nk_EqF) : T_NSET(HB_CMP_EqF(regs[in->a], regs[in->b]));
  T_LABEL(Nk_NeF) : T_NSET(HB_CMP_NeF(regs[in->a], regs[in->b]));
  T_LABEL(Nk_AddW) : T_NSET(regs[in->a] + regs[in->b]);
  T_LABEL(Nk_SubW) : T_NSET(regs[in->a] - regs[in->b]);
  T_LABEL(Nk_MulW) : T_NSET(regs[in->a] * regs[in->b]);
  T_LABEL(Nk_DivI) : {
    ++pc;
    const std::int64_t x = as_i(regs[in->a]), y = as_i(regs[in->b]);
    if (y == 0) T_NK_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = i_bits(static_cast<std::int32_t>(x / y));
    T_NEXT();
  }
  T_LABEL(Nk_ModI) : {
    ++pc;
    const std::int64_t x = as_i(regs[in->a]), y = as_i(regs[in->b]);
    if (y == 0) T_NK_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = i_bits(static_cast<std::int32_t>(x % y));
    T_NEXT();
  }
  T_LABEL(Nk_DivU) : {
    ++pc;
    if (regs[in->b] == 0) T_NK_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = regs[in->a] / regs[in->b];
    T_NEXT();
  }
  T_LABEL(Nk_ModU) : {
    ++pc;
    if (regs[in->b] == 0) T_NK_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = regs[in->a] % regs[in->b];
    T_NEXT();
  }
  T_LABEL(Nk_MinI) : T_NSET(as_i(regs[in->a]) < as_i(regs[in->b]) ? regs[in->a] : regs[in->b]);
  T_LABEL(Nk_MaxI) : T_NSET(as_i(regs[in->a]) > as_i(regs[in->b]) ? regs[in->a] : regs[in->b]);
  T_LABEL(Nk_MinU) : T_NSET(regs[in->a] < regs[in->b] ? regs[in->a] : regs[in->b]);
  T_LABEL(Nk_MaxU) : T_NSET(regs[in->a] > regs[in->b] ? regs[in->a] : regs[in->b]);
  T_LABEL(Nk_LtI) : T_NSET(HB_CMP_LtI(regs[in->a], regs[in->b]));
  T_LABEL(Nk_LeI) : T_NSET(HB_CMP_LeI(regs[in->a], regs[in->b]));
  T_LABEL(Nk_GtI) : T_NSET(HB_CMP_GtI(regs[in->a], regs[in->b]));
  T_LABEL(Nk_GeI) : T_NSET(HB_CMP_GeI(regs[in->a], regs[in->b]));
  T_LABEL(Nk_LtU) : T_NSET(HB_CMP_LtU(regs[in->a], regs[in->b]));
  T_LABEL(Nk_LeU) : T_NSET(HB_CMP_LeU(regs[in->a], regs[in->b]));
  T_LABEL(Nk_GtU) : T_NSET(HB_CMP_GtU(regs[in->a], regs[in->b]));
  T_LABEL(Nk_GeU) : T_NSET(HB_CMP_GeU(regs[in->a], regs[in->b]));
  T_LABEL(Nk_EqW) : T_NSET(HB_CMP_EqW(regs[in->a], regs[in->b]));
  T_LABEL(Nk_NeW) : T_NSET(HB_CMP_NeW(regs[in->a], regs[in->b]));
  T_LABEL(Nk_AndB) : T_NSET(regs[in->a] & regs[in->b]);
  T_LABEL(Nk_OrB) : T_NSET(regs[in->a] | regs[in->b]);
  T_LABEL(Nk_XorB) : T_NSET(regs[in->a] ^ regs[in->b]);
  T_LABEL(Nk_ShlB) : T_NSET(regs[in->a] << (regs[in->b] & 31));
  T_LABEL(Nk_ShrL) : T_NSET(regs[in->a] >> (regs[in->b] & 31));
  T_LABEL(Nk_ShrA) : T_NSET(i_bits(as_i(regs[in->a]) >> (regs[in->b] & 31)));
  T_LABEL(Nk_LAndW) : T_NSET((regs[in->a] != 0) && (regs[in->b] != 0));
  T_LABEL(Nk_LOrW) : T_NSET((regs[in->a] != 0) || (regs[in->b] != 0));
  T_LABEL(Nk_BinGeneric) : {
    ++pc;
    bool crash = false;
    const std::uint32_t r = eval_bin(static_cast<BinOp>(aux_op(in->aux)), aux_type(in->aux),
                                     regs[in->a], regs[in->b], crash);
    if (crash) T_NK_CRASH(LaunchStatus::CrashDivByZero);
    regs[in->dst] = r;
    T_NEXT();
  }

  T_LABEL(Nk_LoadG) : {
    ++pc;
    const std::uint32_t addr = regs[in->a];
    if (gmem) {
      if (addr >= gsize) T_NK_CRASH(LaunchStatus::CrashOutOfBounds);
      regs[in->dst] = gmem[addr];
    } else if (!mem.load(addr, regs[in->dst])) {
      T_NK_CRASH(mem_fail_status());
    }
    T_NEXT();
  }
  T_LABEL(Nk_StoreG) : {
    ++pc;
    const std::uint32_t addr = regs[in->a];
    if (gmem) {
      if (addr >= gsize) T_NK_CRASH(LaunchStatus::CrashOutOfBounds);
      gmem[addr] = regs[in->b];
      mem.note_store(addr);
    } else if (!mem.store(addr, regs[in->b])) {
      T_NK_CRASH(mem_fail_status());
    }
    T_NEXT();
  }
  T_LABEL(Nk_LoadS) : {
    ++pc;
    const std::uint32_t addr = regs[in->a];
    if (addr >= ssize) T_NK_CRASH(LaunchStatus::CrashSharedOutOfBounds);
    regs[in->dst] = shared_[addr];
    T_NEXT();
  }
  T_LABEL(Nk_StoreS) : {
    ++pc;
    const std::uint32_t addr = regs[in->a];
    if (addr >= ssize) T_NK_CRASH(LaunchStatus::CrashSharedOutOfBounds);
    shared_[addr] = regs[in->b];
    T_NEXT();
  }
  T_LABEL(Nk_AtomicAddF) : {
    ++pc;
    {
      std::lock_guard<std::mutex> lk(dev_.atomic_mutex());
      if (gmem) {
        if (regs[in->a] >= gsize) T_NK_CRASH(LaunchStatus::CrashOutOfBounds);
        mem.note_store(regs[in->a]);
        std::uint32_t* const w = gmem + regs[in->a];
        *w = fadd_bits(*w, regs[in->b]);
      } else if (!mem.rmw(regs[in->a],
                          [&](std::uint32_t w) { return fadd_bits(w, regs[in->b]); })) {
        T_NK_CRASH(mem_fail_status());
      }
    }
    T_NEXT();
  }
  T_LABEL(Nk_AtomicAddI) : {
    ++pc;
    {
      std::lock_guard<std::mutex> lk(dev_.atomic_mutex());
      if (gmem) {
        if (regs[in->a] >= gsize) T_NK_CRASH(LaunchStatus::CrashOutOfBounds);
        mem.note_store(regs[in->a]);
        std::uint32_t* const w = gmem + regs[in->a];
        *w = i_bits(static_cast<std::int32_t>(
            static_cast<std::int64_t>(as_i(*w)) + as_i(regs[in->b])));
      } else if (!mem.rmw(regs[in->a], [&](std::uint32_t w) {
                   return i_bits(static_cast<std::int32_t>(
                       static_cast<std::int64_t>(as_i(w)) + as_i(regs[in->b])));
                 })) {
        T_NK_CRASH(mem_fail_status());
      }
    }
    T_NEXT();
  }

  T_LABEL(Nk_ChkXor) : {
    regs[in->dst] ^= regs[in->a];
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_ChkValidate) : {
    if (regs[in->dst] != 0) sdc = true;
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_DupCmp) : {
    if (regs[in->a] != regs[in->b]) sdc = true;
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_RangeCheck) : {
    if (opts_.hooks &&
        opts_.hooks->check_range(static_cast<int>(in->aux),
                                 kir::Value{static_cast<DType>(in->t), regs[in->a]}))
      sdc = true;
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_EqualCheck) : {
    if (regs[in->a] != regs[in->b]) {
      sdc = true;
      if (opts_.hooks) opts_.hooks->equal_check_failed(static_cast<int>(in->aux));
    }
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_ProfileVal) : {
    if (opts_.hooks)
      opts_.hooks->profile_value(static_cast<int>(in->aux),
                                 kir::Value{static_cast<DType>(in->t), regs[in->a]});
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_CountExec) : {
    if (opts_.hooks) opts_.hooks->count_exec(in->aux, t.linear);
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_FIHook) : {
    if (opts_.hooks) opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a]);
    ++pc;
    T_NEXT();
  }
  T_LABEL(Nk_FIHookArmed) : {
    if (t.linear == fi_thread_) opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a]);
    ++pc;
    T_NEXT();
  }

  // Naked fused pairs: two ops, one dispatch, zero accounting.
#define T_NK_ALUFUSE(K)                                                      \
  T_LABEL(NkConstBin_##K) : {                                                \
    regs[in->c] = in->imm;                                                   \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(NkBinChkXor_##K) : {                                               \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    regs[in->c] ^= regs[in->d];                                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(NkBinDupCmp_##K) : {                                               \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                    \
    if (regs[in->c] != regs[in->d]) sdc = true;                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }
  HAUBERK_TOP_ALU_LIST(T_NK_ALUFUSE)
#undef T_NK_ALUFUSE

  T_LABEL(NkChkXor2) : {
    regs[in->dst] ^= regs[in->a];
    regs[in->c] ^= regs[in->d];
    pc += 2;
    T_NEXT();
  }
  T_LABEL(NkRangeCheck2) : {
    if (opts_.hooks) {
      if (opts_.hooks->check_range(static_cast<int>(in->aux),
                                   kir::Value{static_cast<DType>(in->t & 0xf), regs[in->a]}))
        sdc = true;
      if (opts_.hooks->check_range(static_cast<int>(in->imm),
                                   kir::Value{static_cast<DType>(in->t >> 4), regs[in->c]}))
        sdc = true;
    }
    pc += 2;
    T_NEXT();
  }

// Load a word inside a naked tile: same bounds/paging behavior as Nk_LoadG,
// with the tile's suffix-refund crash exit.
#define T_NK_LOAD(DST, ADDREXPR)                                   \
  {                                                                \
    const std::uint32_t a_ = (ADDREXPR);                           \
    if (gmem) {                                                    \
      if (a_ >= gsize) T_NK_CRASH(LaunchStatus::CrashOutOfBounds); \
      (DST) = gmem[a_];                                            \
    } else if (!mem.load(a_, (DST))) {                             \
      T_NK_CRASH(mem_fail_status());                               \
    }                                                              \
  }

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
    T_NK_LOAD(regs[in->dst], regs[in->a]);                                     \
    regs[in->c] = HB_ALU_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);    \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkBinLoad_##K) : {                                                   \
    pc += 2;                                                                   \
    regs[in->dst] = HB_ALU_##K(regs[in->a], regs[in->b]);                      \
    T_NK_LOAD(regs[in->c], regs[in->d]);                                       \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkConstBinLoad_##K) : {                                              \
    pc += 3;                                                                   \
    regs[in->dst] = in->imm;                                                   \
    regs[in->c] = HB_ALU_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);    \
    T_NK_LOAD(regs[in->b], regs[in->a]);                                       \
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
    T_NK_LOAD(regs[in->dst], regs[in->a]);
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
#undef T_NK_CRASH
#undef T_NK_LOAD
#undef T_DELEGATE
#undef T_LABEL
#undef T_NEXT
#undef T_DISPATCH_D
#undef T_SET
#undef T_NSET
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
  return tcode_ ? run_thread_threaded(t, crash_status) : run_thread(t, crash_status);
}

/// Whether segment `s` reads or writes a word of one of `latent` pairs.
bool touches_latent(const LaunchJournal& j, const LaunchJournal::Segment& s,
                    std::span<const std::uint32_t> latent) noexcept {
  const auto listed = [&](std::uint32_t addr) {
    return std::find(latent.begin(), latent.end(), addr / 2) != latent.end();
  };
  const LaunchJournal::Word* r = j.reads.data() + s.first_reads;
  for (const LaunchJournal::Word* e = r + s.global_reads; r != e; ++r)
    if (listed(r->addr)) return true;
  const LaunchJournal::Write* w = j.writes.data() + s.first_write;
  for (const LaunchJournal::Write* e = w + s.writes; w != e; ++w)
    if (listed(w->addr)) return true;
  return false;
}

/// Replay: apply thread t's next journal segment if it would provably run
/// exactly as it did in the golden launch — the thread still holds its
/// golden registers, it is not the armed thread (whose FIHooks must run),
/// the segment fits this launch's watchdog, it touches no latent pair
/// (protected memory: its first access there must correct or fail), and
/// every first read returns its golden value.  Otherwise the thread
/// diverges: it takes its registers from the previous segment's Barrier
/// snapshot and is interpreted from here on.  Addresses need no bounds
/// checks: the journal fingerprint pins the memory geometry, and the
/// golden accesses were in bounds.
bool BlockExec::apply_segment(ThreadCtx& t) {
  if (t.diverged) return false;
  const LaunchJournal& j = *journal_;
  const std::uint32_t slot = block_linear_ * threads_per_block_ + t.block_index;
  const std::uint32_t k = t.segment++;
  const LaunchJournal::Segment& s = j.segment(slot, k);
  // The interpreter executes an instruction iff the thread's count before
  // it is <= watchdog, so a segment of n >= 1 instructions completes iff
  // budget_after - 1 <= watchdog.
  DeviceMemory& mem = dev_.mem();
  bool apply = !(armed_ && t.linear == fi_thread_) &&
               s.budget_after - 1 <= opts_.watchdog_instructions &&
               (mem.latent_pairs().empty() || !touches_latent(j, s, mem.latent_pairs()));
  std::uint32_t* const gmem = mem.flat_words().data();
  const LaunchJournal::Word* r = j.reads.data() + s.first_reads;
  for (const LaunchJournal::Word* e = r + s.global_reads; apply && r != e; ++r)
    apply = gmem[r->addr] == r->value;
  for (const LaunchJournal::Word* e = r + s.shared_reads; apply && r != e; ++r)
    apply = shared_[r->addr] == r->value;
  if (!apply) {
    t.diverged = true;
    if (k > 0) {
      const std::uint32_t* snap = j.regs.data() + j.segment(slot, k - 1).regs;
      std::copy(snap, snap + prog_.num_slots, t.regs);
    }
    return false;
  }

  const bool checked = mem.protection() != ecc::Scheme::None;
  for (std::uint32_t i = 0; i < s.writes; ++i) {
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
  }
  if (s.write_hi > 0) mem.note_store(s.write_hi - 1);
  for (std::uint32_t i = 0; i < s.shared_writes; ++i) {
    const LaunchJournal::Word& w = j.shared_writes[s.first_shared_write + i];
    shared_[w.addr] = w.value;
  }
  instructions += s.instructions;
  cycles += s.cycles;
  loop_cycles += s.loop_cycles;
  if (s.sdc) sdc = true;
  t.pc = s.pc;
  t.barrier_pc = s.barrier_pc;
  t.budget_used = s.budget_after;
  t.done = s.done;
  ++replayed;
  return true;
}

/// Record: one reference time-slice, bracketed as a journal segment.
ThreadStop BlockExec::record_segment(ThreadCtx& t, LaunchStatus& crash_status) {
  const std::uint64_t i0 = instructions, c0 = cycles, l0 = loop_cycles;
  const bool sdc0 = sdc;
  sdc = false;
  rec_->begin(block_linear_ * threads_per_block_ + t.block_index);
  const ThreadStop stop = run_thread(t, crash_status);
  rec_->end(instructions - i0, cycles - c0, loop_cycles - l0, sdc, t.budget_used, t.pc,
            t.barrier_pc, stop == ThreadStop::Done, {t.regs, prog_.num_slots});
  sdc = sdc || sdc0;
  return stop;
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
      const ThreadStop stop = journal_ && apply_segment(t) ? (t.done ? ThreadStop::Done
                                                                      : ThreadStop::Barrier)
                              : rec_                       ? record_segment(t, crash)
                                                           : step_thread(t, crash);
      switch (stop) {
        case ThreadStop::Done: ++done; break;
        case ThreadStop::Barrier: ++at_barrier; break;
        case ThreadStop::Crash: return crash;
        case ThreadStop::Budget: return LaunchStatus::Hang;
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

/// Fingerprint of everything the plan's contents depend on: the instruction
/// stream, the slot count, the register budget, the cost model, the engine
/// kind and the sanitize bit (the threaded stream is only compiled for
/// Threaded plans, with shadow-observing shared accesses when sanitizing,
/// so flipping set_engine() or set_sanitize() on a live device must miss
/// rather than serve the wrong stream).  Hashed field-by-field (never
/// raw struct bytes, which would include indeterminate padding).
std::uint64_t plan_fingerprint(const kir::BytecodeProgram& program, const CostModel& cm,
                               std::uint32_t regs_per_thread, ExecEngine engine, bool sanitize,
                               ecc::Scheme protection) noexcept {
  std::uint64_t h = fp_mix(0x48415542ULL, program.code.size());
  h = fp_mix(h, program.num_slots);
  h = fp_mix(h, regs_per_thread);
  h = fp_mix(h, static_cast<std::uint64_t>(engine));
  h = fp_mix(h, static_cast<std::uint64_t>(sanitize));
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
/// register budget, engine, sanitize, protection), the launch configuration, the
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

std::shared_ptr<const Device::LaunchPlan> Device::launch_plan(
    const kir::BytecodeProgram& program) {
  // The decoded stream is always built alongside the cost vector: decoding
  // is a single O(n) pass (trivial next to the spill analysis), and its
  // sanitizer site table serves every engine.  The threaded-code stream is
  // compiled for Threaded plans (with shadow-observing shared accesses when
  // sanitizing) — the engine kind and the sanitize bit are part of the
  // cache key, so flipping set_engine() or set_sanitize() between launches
  // misses once per setting and can never serve a plan built for another.
  const std::uint64_t key = plan_fingerprint(program, cost_, props_.regs_per_thread, engine_,
                                             sanitize_, props_.protection);
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    for (auto it = plan_cache_.begin(); it != plan_cache_.end(); ++it) {
      if (it->key == key && it->code_size == program.code.size()) {
        plan_hits_.fetch_add(1, std::memory_order_relaxed);
        PlanEntry hit = *it;
        plan_cache_.erase(it);
        plan_cache_.push_back(hit);  // LRU: refresh
        return hit.plan;
      }
    }
  }
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_shared<LaunchPlan>();
  plan->key = key;
  plan->costs = instruction_costs(program, cost_, props_.regs_per_thread,
                                  props_.protection != ecc::Scheme::None);
  plan->decoded = kir::decode_program(program, plan->costs);
  if (engine_ == ExecEngine::Threaded)
    plan->threaded = compile_stream(plan->decoded, program.num_slots, kir::FIFilter{});
  std::lock_guard<std::mutex> lk(plan_mu_);
  if (plan_cache_.size() >= kPlanCacheCapacity)
    plan_cache_.erase(plan_cache_.begin());  // evict least recently used
  plan_cache_.push_back(PlanEntry{key, program.code.size(), plan});
  return plan;
}

kir::ThreadedProgram Device::compile_stream(const kir::DecodedProgram& decoded,
                                            std::uint16_t num_slots,
                                            const kir::FIFilter& fi) const {
  return kir::compile_threaded(decoded, num_slots,
                               props_.memory_model == MemoryModel::FlatGpu &&
                                   props_.protection == ecc::Scheme::None,
                               /*form_runs=*/true, sanitize_, fi);
}

std::shared_ptr<const kir::ThreadedProgram> Device::fi_stream(const LaunchPlan& plan,
                                                              std::uint16_t num_slots,
                                                              const kir::FIFilter& fi) const {
  // One specialized stream per plan: campaigns plan each site's trials
  // consecutively, and an Armed stream serves every thread of its site, so
  // rebuilds happen once per site, not per trial.
  std::lock_guard<std::mutex> lk(plan.fi_mu);
  if (!plan.fi_stream || !plan.fi_filter.same_stream(fi)) {
    plan.fi_stream = std::make_shared<const kir::ThreadedProgram>(
        compile_stream(plan.decoded, num_slots, fi));
    plan.fi_filter = fi;
  }
  return plan.fi_stream;
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
  const kir::FIFilter fi = opts.hooks ? opts.hooks->fi_filter() : kir::FIFilter{};
  // Segment replay (DESIGN §10) is decided here and nowhere else.  Recording
  // and replay need a serial flat launch: one block worker (the journal's
  // segment order), the flat arena (gather-compare and direct writes; under
  // protection the latent pairs name the words that must still take the
  // checked path), and the threaded engine's plain semantics (no sanitizer
  // shadow, profiling counters or hardware fault model, which a journal
  // cannot reproduce).  Replay also needs that no fi_hook outside the armed
  // (site, thread) can act: no hooks, or a non-Generic FI filter.  A
  // recording launch runs on the reference interpreter.
  const bool serial_flat = engine_ == ExecEngine::Threaded && !sanitize_ && nw <= 1 &&
                           props_.memory_model == MemoryModel::FlatGpu && !has_fault() &&
                           !opts.instr_exec_counts && !opts.simt_cost;
  const bool record = opts.record_journal && serial_flat;
  const bool replay = opts.journal && serial_flat && !record &&
                      (!opts.hooks || fi.kind != kir::FIFilter::Kind::Generic);
  const std::uint64_t journal_key =
      record || replay
          ? journal_fingerprint(plan->key, program, cfg, args, props_.global_mem_words)
          : 0;
  if (replay && opts.journal->fingerprint != journal_key)
    throw std::invalid_argument(
        "Device::launch: the journal was recorded for a different launch");
  std::optional<JournalRecorder> recorder;
  if (record) recorder.emplace(*opts.record_journal, program.shared_mem_words);

  // Which interpreter runs this launch.  Plain and sanitized launches run
  // the threaded stream (compiled for Threaded plans); launches
  // that profile execution counts, cost SIMT serialization or carry a
  // hardware fault model — one-off profiling and BIST runs — and journal
  // recordings run on the reference interpreter (stream null), the only
  // place those semantics are implemented.  When the hooks report an FI
  // filter, the threaded stream is the plan's FI-specialized one, held until
  // the launch returns.
  const bool threaded = !plan->threaded.code.empty() && !opts.instr_exec_counts &&
                        !opts.simt_cost && !has_fault() && !record;
  const kir::ThreadedProgram* stream = threaded ? &plan->threaded : nullptr;
  std::shared_ptr<const kir::ThreadedProgram> specialized;
  if (threaded && fi.kind != kir::FIFilter::Kind::Generic && plan->threaded.fi_hooks > 0) {
    specialized = fi_stream(*plan, program.num_slots, fi);
    stream = specialized.get();
  }
  // Corrections are counted by the memory itself (it scrubs each corrupted
  // codeword exactly once); the delta across the launch is this launch's
  // corrected count, deterministic because the set of pairs read is.
  const std::uint64_t ecc_before = mem_->ecc_corrected();

  std::atomic<std::uint32_t> next_block{0};
  std::atomic<std::uint64_t> cycles{0}, loop_cycles{0}, instructions{0}, simt_cycles{0};
  std::atomic<std::uint64_t> reports_dropped{0}, replayed{0};
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
      BlockExec exec(*this, program, cfg, opts, costs, plan->decoded, stream, fi, b,
                     sanitize_ ? &block_reports[b] : nullptr, replay ? opts.journal : nullptr,
                     recorder ? &*recorder : nullptr);
      const LaunchStatus st = exec.run(args);
      cycles.fetch_add(exec.cycles, std::memory_order_relaxed);
      loop_cycles.fetch_add(exec.loop_cycles, std::memory_order_relaxed);
      instructions.fetch_add(exec.instructions, std::memory_order_relaxed);
      simt_cycles.fetch_add(exec.simt_cycles, std::memory_order_relaxed);
      reports_dropped.fetch_add(exec.sanitizer_dropped(), std::memory_order_relaxed);
      replayed.fetch_add(exec.replayed, std::memory_order_relaxed);
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

  if (nw <= 1) {
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
  if (recorder) {
    // Only a fault-free launch is a golden run worth journaling.
    if (res.status == LaunchStatus::Ok) {
      recorder->finish(num_blocks * (cfg.block_x * cfg.block_y));
      opts.record_journal->fingerprint = journal_key;
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
