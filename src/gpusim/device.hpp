// The simulated GPGPU device: properties, cycle cost model, hardware fault
// model, launch configuration/result types, and the Device facade.
//
// The device executes kernel bytecode over a CUDA-style grid of thread
// blocks.  Blocks are scheduled across worker threads (one per simulated SM,
// capped at host concurrency); threads within a block run to the next
// barrier in turn.  All timing is a deterministic cycle model: each
// instruction charges a cost from CostModel, attributed to loop or non-loop
// source code (Fig. 4) and to R-Scatter duplicated code where applicable
// (Fig. 13).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "gpusim/cost.hpp"
#include "gpusim/journal.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/sanitizer.hpp"
#include "kir/bytecode.hpp"
#include "kir/threaded.hpp"
#include "kir/value.hpp"

namespace hauberk::common {
class WorkerPool;
}

namespace hauberk::gpusim {

/// Hardware resource limits, loosely modeled on the paper's GT200-class
/// device (Tesla S1070): 16 KiB shared memory per block and a per-thread
/// register budget.  Exceeding shared memory is a launch (compile) failure —
/// this is why TPACF cannot be built with R-Scatter (Section IX.A).
/// Exceeding the register budget is legal but spills: each access to a
/// spilled register charges CostModel::spill extra cycles (Section V.A).
struct DeviceProps {
  std::uint32_t num_sms = 30;
  std::uint32_t warp_size = 32;
  std::uint32_t regs_per_thread = 28;
  std::uint32_t shared_mem_words = 4096;  // 16 KiB
  std::uint32_t global_mem_words = 16u << 20;
  MemoryModel memory_model = MemoryModel::FlatGpu;
  /// Hardware memory protection on global memory (gpusim/ecc.hpp): a
  /// (72,64) SEC-DED code checked on every device-side read.  The paper's
  /// GT200-class parts have none; Hamming/Hsiao model the Fermi-and-later
  /// ECC the hardware-vs-Hauberk study compares against.
  ecc::Scheme protection = ecc::Scheme::None;
};

// CostModel (the per-opcode cycle table) and the spill/static-cost helpers
// live in the dedicated cost layer; the device consumes them verbatim so
// launch plans and static estimators can never disagree on a price.
// (gpusim/cost.hpp is included above.)

/// Simulated hardware fault in the device itself (used by the BIST/guardian
/// recovery path, Section VI): corrupts results of matching operations.
struct DeviceFaultModel {
  enum class Kind { None, Transient, Intermittent, Permanent };
  enum class Component { ALU, FPU, RegisterFile };

  Kind kind = Kind::None;
  Component component = Component::ALU;
  std::uint32_t sm = 0;           ///< affected streaming multiprocessor
  std::uint32_t mask = 1;         ///< error bits XORed into results
  std::uint64_t period = 1;       ///< corrupt every `period`-th matching op
  std::uint64_t duration_ops = 0; ///< Transient/Intermittent: stop after this many corruptions
};

enum class LaunchStatus : std::uint8_t {
  Ok,
  CrashOutOfBounds,      ///< invalid global memory access
  CrashSharedOutOfBounds,
  CrashDivByZero,        ///< integer division by zero
  CrashInvalidInstr,     ///< undecodable instruction (code-segment fault)
  CrashBarrierDeadlock,  ///< thread exited while others wait at a barrier
  Hang,                  ///< per-thread watchdog budget exceeded
  LaunchFailure,         ///< resource violation (e.g. shared memory too large)
  DeviceDisabled,        ///< guardian disabled this device
  EccUncorrectable,      ///< protected memory detected a double-bit error
                         ///  (the machine-check analog: kernel is killed,
                         ///  but the corruption never reaches results)
};

[[nodiscard]] const char* launch_status_name(LaunchStatus s) noexcept;

/// Interpreter engine selection.  There are two interpreters — the
/// reference switch interpreter and the threaded-code engine — and
/// Device::launch picks one per launch:
///
///  * Threaded — the default.  The launch plan predecodes the bytecode
///    (kir::DecodedProgram: type-resolved opcodes, costs pre-folded) and
///    compiles it into a kir::ThreadedProgram (fused superinstructions,
///    straight-line runs, folded loop constants, one countdown budget),
///    dispatched with computed goto when the toolchain supports
///    labels-as-values (CMake option HAUBERK_COMPUTED_GOTO; a portable
///    switch fallback is bitwise identical).
///  * Reference — the switch interpreter over raw bytecode, kept as the
///    behavioral oracle.
///
/// Sanitizing is not an engine but a device bit (Device::set_sanitize) that
/// works on both: the shared-memory shadow (racecheck analog, see
/// gpusim/sanitizer.hpp) detects WW/RW races between barrier epochs,
/// barrier divergence, out-of-bounds and uninitialized shared reads, and
/// fills LaunchResult::sanitizer_reports.  The reference interpreter
/// consults the shadow directly; the threaded stream is compiled with
/// shadow-observing shared loads/stores.  Opt-in and diagnostic-only: it
/// adds observations, never behavior.
///
/// Under Threaded, a launch that profiles execution counts
/// (LaunchOptions::instr_exec_counts), costs SIMT serialization
/// (LaunchOptions::simt_cost) or runs with an installed DeviceFaultModel
/// runs on the reference interpreter — those are one-off profiling and BIST
/// runs, and the reference is the one place their semantics live (with the
/// sanitizer shadow still attached when sanitizing).  A launch that records
/// a segment journal (LaunchOptions::record_journal) runs on the device's
/// engine: the threaded one records through a stream whose memory accesses
/// report to the recorder.  The threaded engine also hands a thread's slice
/// to the reference when a fused region hits the watchdog boundary or an
/// out-of-bounds access.
///
/// Both engines are bitwise identical on every observable, sanitized or
/// not: registers, memory, cycle/instruction counts, SIMT cost, crash/hang
/// status, detector verdicts, FI outcomes and sanitizer reports.
/// tests/test_differential_fuzz.cpp holds this guarantee in place with a
/// seeded program generator; any divergence is a bug in the threaded
/// engine, never an accepted tradeoff.
enum class ExecEngine : std::uint8_t { Reference, Threaded };

[[nodiscard]] const char* exec_engine_name(ExecEngine e) noexcept;
[[nodiscard]] constexpr bool is_crash(LaunchStatus s) noexcept {
  return s != LaunchStatus::Ok && s != LaunchStatus::Hang;
}

struct LaunchResult {
  LaunchStatus status = LaunchStatus::Ok;
  bool sdc_alarm = false;          ///< any Hauberk detector set the SDC bit
  std::uint64_t cycles = 0;        ///< modeled kernel time
  std::uint64_t loop_cycles = 0;   ///< portion attributed to loop code (Fig. 4)
  std::uint64_t instructions = 0;
  std::uint64_t threads = 0;
  /// SIMT warp-serialized cycles (filled when LaunchOptions::simt_cost):
  /// per warp, an instruction costs once per *warp* execution, and divergent
  /// paths serialize — sum over pc of cost[pc] * max-per-warp execution
  /// count, which is exact for structured control flow.  Fault-free Hauberk
  /// checks are warp-uniform, so simt_cycles shows they add no divergence
  /// penalty (Section V.A step (iii)).
  std::uint64_t simt_cycles = 0;

  /// Single-bit errors the protected memory corrected (and scrubbed) during
  /// this launch; 0 when DeviceProps::protection is off.  Each corrected
  /// codeword also charges CostModel::ecc_scrub into `cycles`.  An
  /// uncorrectable (double-bit) error instead kills the launch with
  /// LaunchStatus::EccUncorrectable.
  std::uint64_t ecc_corrected = 0;

  /// CrashBarrierDeadlock diagnostics (any engine): the pc of the barrier
  /// the waiting threads were stuck at and its dense sanitizer site id
  /// (kir::DecodedProgram::sanitizer_sites); -1 when the launch did not
  /// deadlock.  With multiple launch workers the fields come from the block
  /// whose failure won the status race, same as `status` itself.
  std::int64_t deadlock_pc = -1;
  std::int64_t deadlock_site = -1;

  /// Sanitizer findings (Device::set_sanitize), concatenated per block in
  /// block order (deterministic and worker-count-invariant for crash-free
  /// launches and for single-worker launches, the campaign configuration).
  /// Always empty on an unsanitized device.
  std::vector<SanitizerReport> sanitizer_reports;
  /// Reports suppressed by the per-block cap (SharedShadow::kMaxReportsPerBlock).
  std::uint64_t sanitizer_reports_dropped = 0;

  /// Segments this launch applied from LaunchOptions::journal instead of
  /// interpreting them (0 when the launch was not replay-eligible).  A
  /// diagnostic like the sanitizer fields: every other field is the same
  /// as a full launch's, and no digest, checkpoint or log folds it.
  std::uint64_t replayed_segments = 0;
  /// Instructions this launch took from the journal instead of
  /// interpreting them: applied segments, the golden prefixes interpreted
  /// slices skipped, and the suffixes of slices that rejoined (DESIGN §10).
  /// The same kind of diagnostic as replayed_segments.
  std::uint64_t replayed_instructions = 0;
  /// The launch took the journal's net effect in one step and ran no block
  /// (DESIGN §10); every segment then counts as replayed.  The same kind of
  /// diagnostic as replayed_segments.
  bool replayed_in_one_step = false;
  /// Instructions a replayed hung thread skipped: the periods of a loop
  /// proven to run with no effect until the watchdog (hang fast-forward,
  /// DESIGN §10).  They are counted in `instructions` like the interpreted
  /// ones, not in replayed_instructions.  The same kind of diagnostic as
  /// replayed_segments.
  std::uint64_t fast_forwarded_instructions = 0;
  /// Shared-memory words replay wrote from the journal: applied segments'
  /// net shared writes that may change a word, and the ordered shared
  /// writes of skipped prefixes and rejoined suffixes.  The same kind of
  /// diagnostic as replayed_segments.
  std::uint64_t replayed_shared_writes = 0;
};

/// FI filter of the hook contract (see LaunchHooks::fi_filter).
using FIFilter = kir::FIFilter;

/// Callbacks from the interpreter into the Hauberk runtime (range checks,
/// profiling) and the SWIFI injector.  Implementations must be thread-safe:
/// blocks may execute on concurrent workers.
class LaunchHooks {
 public:
  virtual ~LaunchHooks() = default;
  /// Which fi_hook calls can have an effect this launch.  Queried once per
  /// launch, before any thread runs.  The default, Generic, makes the
  /// threaded engine call fi_hook at every executed FIHook.  A hook that
  /// reports None promises fi_hook is a no-op (returns false, leaves the
  /// value alone, keeps no state) for every call; Armed promises the same
  /// for every call outside (filter.site, filter.thread).  The threaded
  /// engine then runs every thread but the armed one on a stream with
  /// FIHooks compiled away (DESIGN §10); the reference interpreter ignores
  /// the filter and calls fi_hook at every FIHook, which is what makes it
  /// the oracle for the promise.  A launch without hooks counts as None.
  [[nodiscard]] virtual FIFilter fi_filter() const { return {}; }
  /// Loop-detector range check; return true when the value is an outlier
  /// (sets the kernel's SDC bit).  `detector` indexes program.detectors.
  virtual bool check_range(int detector, kir::Value value) {
    (void)detector; (void)value;
    return false;
  }
  /// Iteration-count invariant failed (HauberkCheckEqual mismatch).
  virtual void equal_check_failed(int detector) { (void)detector; }
  /// Profiler-mode sample of a detector value.
  virtual void profile_value(int detector, kir::Value value) { (void)detector; (void)value; }
  /// Profiler-mode execution count of an FI site for one thread.
  virtual void count_exec(std::uint32_t site_index, std::uint32_t thread_linear) {
    (void)site_index; (void)thread_linear;
  }
  /// FI-mode hook: may corrupt `value` (the just-defined variable).
  /// Returns true if a fault was injected (for activation accounting).
  virtual bool fi_hook(std::uint32_t site_index, std::uint32_t thread_linear,
                       std::uint32_t& value_bits) {
    (void)site_index; (void)thread_linear; (void)value_bits;
    return false;
  }
  /// Segment replay skipped `executions` executions of FI site `site_index`
  /// in thread `thread_linear` that the golden run made and that could not
  /// act (all before the Armed filter's occurrence): count them as if
  /// fi_hook had seen them.  Called only under an Armed filter, for its site
  /// and thread.
  virtual void fi_skipped(std::uint32_t site_index, std::uint32_t thread_linear,
                          std::uint64_t executions) {
    (void)site_index; (void)thread_linear; (void)executions;
  }
};

struct LaunchConfig {
  std::uint32_t grid_x = 1, grid_y = 1;
  std::uint32_t block_x = 1, block_y = 1;
  [[nodiscard]] std::uint64_t total_threads() const noexcept {
    return static_cast<std::uint64_t>(grid_x) * grid_y * block_x * block_y;
  }
};

struct LaunchOptions {
  LaunchHooks* hooks = nullptr;
  /// Per-thread instruction budget; exceeding it reports Hang (the
  /// guardian's preemptive hang detection, Section VI(i), maps its
  /// 10x-previous-time rule onto this budget).
  std::uint64_t watchdog_instructions = 50'000'000;
  int max_workers = 0;  ///< 0 = hardware concurrency
  bool charge_control_block = false;  ///< add control-block delivery overhead
  /// When non-null, resized to program.code.size() and filled with the
  /// number of times each instruction executed (all threads summed) — the
  /// basis for cycle-breakdown profiling (see bench_overhead_breakdown).
  std::vector<std::uint64_t>* instr_exec_counts = nullptr;
  /// Per-block sanitizer report cap (sanitizing devices only): further
  /// hazards in a block only bump LaunchResult::sanitizer_reports_dropped.
  /// 0 is clamped to 1.
  std::size_t sanitize_report_cap = SharedShadow::kMaxReportsPerBlock;
  /// Compute LaunchResult::simt_cycles (per-thread counting; slower).
  bool simt_cost = false;

  // --- segment replay (gpusim/journal.hpp, DESIGN §10) ---
  // Both fields only take effect on a *serial flat* launch: an unsanitized
  // device, one block worker, FlatGpu memory (unprotected or SEC-DED), no
  // installed DeviceFaultModel, and neither instr_exec_counts nor simt_cost.
  // Replay also needs ExecEngine::Threaded.  Other launches ignore them (a
  // requested journal comes back empty), so a caller may always ask.
  /// When non-null, cleared and — on a serial flat launch that ends Ok —
  /// filled with the launch's per-segment journal.  A recording launch runs
  /// on the device's engine, and both engines record byte-equal journals; it
  /// is the fault-free golden run a campaign makes anyway.
  LaunchJournal* record_journal = nullptr;
  /// With record_journal: record only the launch's net effect (a net-effect
  /// journal, gpusim/journal.hpp) — the fingerprint, launch-start image,
  /// touched words, net words and totals.  The recording stream reports
  /// only global loads, stores and atomics, and nothing is grouped or
  /// sorted per segment.
  bool record_net_effect = false;
  /// A journal recorded by a launch of the same program, LaunchConfig,
  /// arguments, protection and memory geometry (anything else throws
  /// std::invalid_argument); memory may differ in any way.  A serial flat
  /// Threaded launch without hooks, or whose hooks report a non-Generic
  /// fi_filter(), then takes the journal's net effect in one step when it is
  /// not Armed and provably cannot differ from the golden run: the largest
  /// golden budget fits its watchdog, every latent pair the golden launch
  /// touches corrects to its launch-start words (it is scrubbed, one
  /// correction each), and no other word that differs from the launch-start
  /// image is touched.  Otherwise it applies every segment whose thread has
  /// not diverged, fits this launch's watchdog, touches no
  /// DeviceMemory::latent_pairs() word, finds its first reads unchanged
  /// and, in the armed thread before its fault fired, ends before the armed
  /// occurrence.  It interprets the rest, each slice only from the
  /// journal's last snapshot before the slice's first possible difference,
  /// and hands a slice back to the journal at a later snapshot whose state
  /// it reproduces (DESIGN §10).  The LaunchResult and memory (check bytes
  /// included) equal a full launch's; the hook calls of applied segments,
  /// of a one-step launch and of skipped or rejoined parts (detector
  /// checks, ControlBlock counters and outliers) do not happen, and skipped
  /// armed-site occurrences reach the hooks as one LaunchHooks::fi_skipped
  /// call.  A slice that has run past its golden segment and provably
  /// loops with no effect until the watchdog charges those periods at once
  /// (hang fast-forward, DESIGN §10;
  /// LaunchResult::fast_forwarded_instructions).  A net-effect journal has
  /// no segments: a launch that cannot take it in one step runs as a plain
  /// full launch.
  const LaunchJournal* journal = nullptr;
};

/// A simulated GPU (or CPU when props.memory_model == PagedCpu).
class Device {
 public:
  explicit Device(DeviceProps props = {});
  ~Device();

  [[nodiscard]] const DeviceProps& props() const noexcept { return props_; }
  [[nodiscard]] DeviceMemory& mem() noexcept { return *mem_; }
  [[nodiscard]] const DeviceMemory& mem() const noexcept { return *mem_; }
  [[nodiscard]] CostModel& cost_model() noexcept { return cost_; }

  /// Reset device memory between program runs.
  void reset_memory() { mem_->reset(); }

  /// Execute a kernel.  Deterministic: result (including cycle counts) is
  /// independent of worker scheduling.
  LaunchResult launch(const kir::BytecodeProgram& program, const LaunchConfig& cfg,
                      std::span<const kir::Value> args, const LaunchOptions& opts = {});

  // Hardware fault model (BIST / guardian experiments).
  void install_fault(const DeviceFaultModel& fm);
  void clear_fault();
  [[nodiscard]] bool has_fault() const noexcept {
    return fault_.kind != DeviceFaultModel::Kind::None;
  }
  [[nodiscard]] const DeviceFaultModel& fault() const noexcept { return fault_; }

  /// Guardian-controlled availability (Section VI: a faulty device is
  /// disabled and periodically re-tested with exponential backoff).
  void set_disabled(bool d) noexcept { disabled_ = d; }
  [[nodiscard]] bool disabled() const noexcept { return disabled_; }

  std::mutex& atomic_mutex() noexcept { return atomic_mu_; }

  /// Interpreter engine (see ExecEngine).  Takes effect on the next launch;
  /// results are bitwise identical either way, only wall-clock changes.
  void set_engine(ExecEngine e) noexcept { engine_ = e; }
  [[nodiscard]] ExecEngine engine() const noexcept { return engine_; }
  /// Attach the shared-memory sanitizer shadow to every launch, on either
  /// engine (see ExecEngine).  Takes effect on the next launch; adds
  /// LaunchResult::sanitizer_reports, every other observable is unchanged.
  void set_sanitize(bool on) noexcept { sanitize_ = on; }
  [[nodiscard]] bool sanitize() const noexcept { return sanitize_; }

  // --- launch-plan cache ---
  // The spill analysis, per-instruction cost vector and compiled streams
  // depend only on the program's instructions, slot count and detector
  // value types and the cost model (plus the register budget, memory model
  // and protection, fixed at construction), yet a SWIFI campaign launches
  // the same program thousands of times.  The device therefore caches
  // recent plans together with a copy of those inputs and serves a plan
  // only when they compare equal; editing a program in place or mutating
  // cost_model() misses, so a stale plan can never be served.  One plan
  // serves both engines and both settings of the sanitize bit: decoding
  // and the cost vector do not depend on them, and its streams are kept
  // per memory mode, the sanitized one included.
  [[nodiscard]] std::uint64_t plan_cache_hits() const noexcept {
    return plan_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t plan_cache_misses() const noexcept {
    return plan_misses_.load(std::memory_order_relaxed);
  }
  /// Threaded-code streams this device compiled, over every plan it built:
  /// at most two per plan and memory mode (LaunchPlan::streams).
  [[nodiscard]] std::uint64_t stream_compiles() const noexcept {
    return stream_compiles_.load(std::memory_order_relaxed);
  }

  // Internal: fault-model bookkeeping shared by block executors.
  DeviceFaultModel fault_{};
  std::atomic<std::uint64_t> fault_op_counter_{0};
  std::atomic<std::uint64_t> fault_injected_ops_{0};

 private:
  /// Everything derived from (program, cost model, register budget,
  /// protection) that a launch needs: the per-instruction cost vector
  /// (reference engine, SIMT costing) and the predecoded instruction stream
  /// with those costs folded in (threaded-compiler input, sanitizer site
  /// table).  Threaded-code streams are compiled from it on demand, by the
  /// first launch that runs each one (stream()).
  struct LaunchPlan {
    std::uint64_t key = 0;  ///< plan fingerprint (folded into journal fingerprints)
    std::vector<std::uint32_t> costs;
    kir::DecodedProgram decoded;
    std::uint32_t fi_hooks = 0;  ///< FIHook instructions in the program
    /// The threaded streams, per memory mode (kir::MemInstr) and
    /// [0] with every FIHook compiled away, [1] with every FIHook live.
    /// Each is built once, by the first launch that runs it, and lives as
    /// long as the plan.
    struct Stream {
      std::once_flag once;
      kir::ThreadedProgram code;
    };
    mutable std::array<std::array<Stream, 2>, kir::kNumMemInstr> streams;
  };
  /// A cached plan and the launch-varying inputs it was built from.
  struct PlanEntry {
    std::vector<kir::Instr> code;
    std::uint16_t num_slots = 0;
    std::vector<kir::DType> detector_types;
    CostModel cost;
    std::shared_ptr<const LaunchPlan> plan;

    /// True iff this plan was built from exactly what launching `program`
    /// under `cm` would build it from.
    [[nodiscard]] bool built_from(const kir::BytecodeProgram& program,
                                  const CostModel& cm) const noexcept;
  };
  static constexpr std::size_t kPlanCacheCapacity = 16;

  /// Spill analysis + cost vector + predecoded stream for one launch, served
  /// from the cache when possible.  The shared_ptr keeps a plan alive across
  /// eviction.
  [[nodiscard]] std::shared_ptr<const LaunchPlan> launch_plan(
      const kir::BytecodeProgram& program);
  /// The plan's stream instrumented per `mem`, with every FIHook live or
  /// compiled away, for this device's memory model and protection (built on
  /// first use).
  [[nodiscard]] const kir::ThreadedProgram& stream(const LaunchPlan& plan,
                                                   std::uint16_t num_slots, kir::MemInstr mem,
                                                   bool fi_hooks) const;
  /// The instrumentation of an ordinary launch: the sanitize bit's.
  [[nodiscard]] kir::MemInstr plain_instr() const noexcept {
    return sanitize_ ? kir::MemInstr::Sanitize : kir::MemInstr::None;
  }

  DeviceProps props_;
  CostModel cost_;
  std::unique_ptr<DeviceMemory> mem_;
  std::mutex atomic_mu_;
  bool disabled_ = false;
  ExecEngine engine_ = ExecEngine::Threaded;
  bool sanitize_ = false;

  std::vector<PlanEntry> plan_cache_;  ///< LRU order: most recent at the back
  std::mutex plan_mu_;
  std::atomic<std::uint64_t> plan_hits_{0}, plan_misses_{0};
  mutable std::atomic<std::uint64_t> stream_compiles_{0};

  /// Reusable block-execution pool, created on the first multi-worker
  /// launch; replaces the former per-launch std::thread spawn/join.
  std::unique_ptr<common::WorkerPool> launch_pool_;
  std::mutex launch_pool_mu_;
};

}  // namespace hauberk::gpusim
