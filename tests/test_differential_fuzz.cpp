// Differential fuzzer for the interpreter engines (gpusim::ExecEngine).
//
// A seeded generator builds random kernels over the builder DSL — arithmetic
// of all three types, loads/stores (mostly in-bounds, occasionally wild),
// shared memory, atomics, nested loops, divergent branches, barriers (some
// deliberately deadlocking), division by zero and intentional hangs — lowers
// them, and runs each program through the threaded-code engine, the
// sanitized threaded engine (shadow-observing shared accesses) and the
// reference switch interpreter.  Every observable must match
// bitwise: status, SDC alarm, cycle/loop-cycle/instruction totals, deadlock
// diagnostics and the entire device memory image (which covers partial
// state of crashed runs).  A subset is additionally run through the Hauberk
// FT translator (detector semantics) and through memory-fault campaigns
// with 1 vs N workers across engines; a protected-memory corpus repeats the
// engine comparison on a SEC-DED device.
//
// An FI mode instruments generated programs with the FI and FI&FT
// pipelines, adds global loads (occasionally wild, so some crash right
// after a hook), arms a random (site, thread, occurrence, mask) and sweeps
// watchdog budgets through the armed thread's execution: the threaded
// engine (every thread but the armed one on the stream with FIHooks
// compiled away) must match the reference interpreter and the stream with
// every FIHook live on every observable, activation included.
//
// A second generator mode (racy) skews the distribution toward shared-memory
// conflicts and divergent barriers on a small-warp device; on those programs
// the sanitizer must agree with the other engines on every observable while
// being the only one that emits hazard reports — and its reports must be the
// same whether the launch runs on the threaded stream or, instrumented with
// an execution profile and SIMT costing, on the reference interpreter.
//
// Reproducing a failure: every divergence report starts with the program
// index and the kernel pretty-printed by kir::print_kernel.  Environment
// knobs: HAUBERK_FUZZ_PROGRAMS overrides the program count (CI smoke uses
// ~200, local soaks 1000+); HAUBERK_FUZZ_SEED overrides the campaign seed;
// HAUBERK_FUZZ_DUMP_DIR additionally writes each failing program to
// <dir>/fuzz_<index>.kir so CI can upload them as artifacts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "hauberk/translator.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/printer.hpp"
#include "kir/threaded.hpp"
#include "swifi/executor.hpp"
#include "swifi/injector.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::kir;
using hauberk::common::Rng;

namespace {

constexpr std::uint32_t kBufWords = 64;  // in/out buffers; power of two for masking

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v && *v ? std::strtoull(v, nullptr, 0) : fallback;  // base 0: 0x… works
}

// ---------------------------------------------------------------------------
// Random program generation
// ---------------------------------------------------------------------------

struct FuzzProgram {
  Kernel kernel;
  gpusim::LaunchConfig cfg;
  gpusim::MemoryModel mem_model = gpusim::MemoryModel::FlatGpu;
  std::uint32_t warp_size = 32;
};

/// Grows one random kernel with the fixed signature (out: ptr, in: ptr,
/// n: i32).  All choices are drawn from the supplied Rng, so a (seed, index)
/// pair fully reproduces a program.  In `racy` mode every program has shared
/// memory, blocks span several 4-thread warps, and the statement mix is
/// skewed toward conflicting shared accesses and divergent barriers — food
/// for the sanitizer.
class ProgramGen {
 public:
  /// `loads` adds global-load statements (FI mode); `int_atomics` adds
  /// integer atomicAdds next to them (replay mode); `loop_scale` multiplies
  /// every loop's trip count (replay mode: loops long enough for the golden
  /// journal to take snapshots in).  `spins`, when set, draws spin loops
  /// (spin_loop) from its own stream, and `counters` counter loops
  /// (counter_loop) and clear-then-update shared blocks
  /// (clear_then_update), so the other draws stay the same.  Off, the
  /// generator's draws — and so every other corpus — are unchanged.
  explicit ProgramGen(Rng& rng, bool racy = false, bool loads = false,
                      bool int_atomics = false, std::int32_t loop_scale = 1,
                      Rng* spins = nullptr, Rng* counters = nullptr)
      : rng_(rng), racy_(racy), loads_(loads), int_atomics_(int_atomics),
        loop_scale_(loop_scale), spins_(spins), counters_(counters) {}

  FuzzProgram gen() {
    FuzzProgram fp;
    shared_words_ = racy_ ? pick_of<std::uint32_t>({16, 32})
                          : pick_of<std::uint32_t>({0, 0, 16, 32});
    KernelBuilder kb("fuzz", shared_words_);
    ExprH out = kb.param_ptr("out");
    ExprH in = kb.param_ptr("in");
    ExprH n = kb.param_i32("n");
    ptrs_ = {out, in};
    i32s_ = {n, kb.thread_linear(), kb.tid_x(), kb.bid_x(), kb.bdim_x(),
             i32c(0), i32c(1), i32c(7), i32c(-3), i32c(1000000007)};
    f32s_ = {f32c(0.0f), f32c(1.5f), f32c(-3.25f), f32c(1e30f),
             f32c(std::numeric_limits<float>::infinity()), f32c(0.125f)};
    mutable_f32_.clear();
    mutable_i32_.clear();

    const int stmts = 4 + static_cast<int>(rng_.next_below(18));
    for (int s = 0; s < stmts; ++s) statement(kb, 0);
    // Always end with at least one observable store so "everything masked"
    // programs still differentiate engine output state.
    kb.store(safe_addr(), f32_expr());

    fp.kernel = kb.build();
    fp.cfg.grid_x = 1 + static_cast<std::uint32_t>(rng_.next_below(2));
    fp.cfg.block_x = racy_ ? pick_of<std::uint32_t>({8, 16, 32})
                           : pick_of<std::uint32_t>({1, 4, 8, 32});
    fp.cfg.block_y = (!racy_ && chance(10)) ? 2 : 1;
    fp.mem_model = (!racy_ && chance(10)) ? gpusim::MemoryModel::PagedCpu
                                          : gpusim::MemoryModel::FlatGpu;
    if (racy_) fp.warp_size = 4;  // cross-warp hazards inside one block
    return fp;
  }

 private:
  bool chance(unsigned percent) { return rng_.next_below(100) < percent; }

  template <typename T>
  T pick_of(std::initializer_list<T> opts) {
    return *(opts.begin() + rng_.next_below(opts.size()));
  }
  ExprH pick(const std::vector<ExprH>& pool) {
    return pool[rng_.next_below(pool.size())];
  }

  ExprH i32_expr() {
    ExprH a = pick(i32s_);
    switch (rng_.next_below(12)) {
      case 0: return a + pick(i32s_);
      case 1: return a - pick(i32s_);
      case 2: return a * pick(i32s_);
      case 3: return a / pick(i32s_);  // may divide by zero: both engines crash
      case 4: return a % pick(i32s_);
      case 5: return a & pick(i32s_);
      case 6: return a | pick(i32s_);
      case 7: return a ^ pick(i32s_);
      case 8: return a << pick(i32s_);
      case 9: return a >> pick(i32s_);
      case 10: return -a;
      default: return a;
    }
  }

  ExprH f32_expr() {
    ExprH a = pick(f32s_);
    switch (rng_.next_below(14)) {
      case 0: return a + pick(f32s_);
      case 1: return a - pick(f32s_);
      case 2: return a * pick(f32s_);
      case 3: return a / pick(f32s_);        // /0 -> inf, no trap
      case 4: return a % pick(f32s_);        // fmod: BinGeneric path
      case 5: return sqrt_(a);               // negative -> NaN
      case 6: return min_(a, pick(f32s_));
      case 7: return max_(a, pick(f32s_));
      case 8: return abs_(a);
      case 9: return sin_(a);
      case 10: return to_f32(pick(i32s_));
      case 11: return select_(cond_expr(), a, pick(f32s_));
      case 12: return -a;
      default: return a;
    }
  }

  ExprH cond_expr() {
    if (chance(50)) {
      ExprH a = pick(i32s_), b = pick(i32s_);
      switch (rng_.next_below(6)) {
        case 0: return a < b;
        case 1: return a <= b;
        case 2: return a > b;
        case 3: return a == b;
        case 4: return a != b;
        default: return (a < b) && (b != i32c(0));
      }
    }
    ExprH a = pick(f32s_), b = pick(f32s_);  // NaN/-0.0 compare semantics
    return chance(50) ? (a < b) : (a == b);
  }

  /// In-bounds address: base + (i32 & (kBufWords-1)).  A masked non-negative
  /// word offset always lands inside the 64-word buffer.
  ExprH safe_addr() {
    return pick(ptrs_) + (i32_expr() & i32c(kBufWords - 1));
  }
  /// Occasionally wild: raw offsets may go far out of bounds (or negative,
  /// wrapping to huge) — the engines must agree on the crash.
  ExprH addr() { return chance(8) ? pick(ptrs_) + i32_expr() : safe_addr(); }

  /// Hazard-biased statement for racy mode: shared accesses through
  /// colliding indices (tiny constants or low tid bits, so threads of
  /// *different* warps touch the same word inside one epoch) and barriers
  /// that only part of the block executes.
  void racy_statement(KernelBuilder& kb, int depth) {
    ExprH idx = chance(60)
                    ? i32c(static_cast<std::int32_t>(rng_.next_below(4)))
                    : (kb.tid_x() & i32c(3));
    const std::uint64_t roll = rng_.next_below(10);
    if (roll < 4) {
      kb.shstore(idx, f32_expr());
    } else if (roll < 7) {  // may read uninitialized or racing words
      ExprH v = kb.let("r" + std::to_string(serial_++), kb.shload_f32(idx));
      f32s_.push_back(v);
    } else if (roll < 8 || depth >= 2) {
      kb.barrier();
    } else if (roll < 9) {  // exit divergence: non-takers leave waiters stuck
      kb.if_then(cond_expr(), [&] { kb.barrier(); });
    } else {  // two distinct barrier sites in one release
      kb.if_then_else(cond_expr(), [&] { kb.barrier(); }, [&] { kb.barrier(); });
    }
  }

  /// Spin loop (replay mode): a loop gated on a fresh variable `spin<N>` =
  /// tid & 7, which a golden run never enters and a fault lifting the
  /// variable above 7 makes spin until the watchdog.  Its body leaves memory
  /// as it found it: it only reads a word, rewrites a word (global or
  /// shared) with the value it holds, or adds 0 to one; half the loops also
  /// define a variable, so an FIHook sits inside.
  void spin_loop(KernelBuilder& kb) {
    Rng& r = *spins_;
    const ExprH gate = kb.let("spin" + std::to_string(serial_++), kb.tid_x() & i32c(7));
    const ExprH at = ptrs_[r.next_below(ptrs_.size())] +
                     (kb.thread_linear() & i32c(kBufWords - 1));
    const std::uint64_t kind = r.next_below(shared_words_ > 0 ? 4 : 3);
    const bool hook = r.next_below(2) == 0;
    kb.while_loop([&] { return gate > i32c(7); }, [&] {
      switch (kind) {
        case 0:
          (void)kb.let("sr" + std::to_string(serial_++), kb.load_i32(at));
          break;
        case 1:
          kb.store(at, kb.load_i32(at));
          break;
        case 2:
          kb.atomic_add(at, i32c(0));
          break;
        default: {
          const ExprH idx =
              kb.tid_x() & i32c(static_cast<std::int32_t>(shared_words_ - 1));
          kb.shstore(idx, kb.shload_i32(idx));
        }
      }
      if (hook) (void)kb.let("sh" + std::to_string(serial_++), gate + i32c(1));
    });
  }

  /// Counter loop (replay mode): `for (cl<N> = tid & 3; cl<N> < 4; ++cl<N>)`,
  /// which a sign-bit fault on the counter turns into a loop that runs
  /// until the watchdog while `ptr + cl * stride` wraps back in bounds.  Its
  /// body is one of the counter-loop fast-forward's cases (test_replay's
  /// CounterLoopHangsFastForward): affine loads, a nested loop of constant
  /// trip count, float math alone — which a replay may skip — or a global
  /// or shared store, loads that leave the arena, a loaded divisor or a
  /// branch on loaded data, which it may not.
  void counter_loop(KernelBuilder& kb) {
    Rng& r = *counters_;
    const std::string id = std::to_string(serial_++);
    const ExprH c = kb.let("cl" + id, kb.tid_x() & i32c(3));
    const ExprH ptr = ptrs_[r.next_below(ptrs_.size())];
    const std::uint64_t kind = r.next_below(shared_words_ > 0 ? 8 : 7);
    const ExprH acc = kb.let("ca" + id, i32c(0));
    kb.while_loop([&] { return c < i32c(4); }, [&] {
      const ExprH at = ptr + c * i32c(4);
      switch (kind) {
        case 0: kb.assign(acc, acc + kb.load_i32(at) * kb.load_i32(at + i32c(1))); break;
        case 1:
          kb.for_loop("cx" + id, i32c(0), i32c(3), [&](ExprH x) {
            kb.assign(acc, acc ^ kb.load_i32(ptr + c * i32c(8) + x));
          });
          break;
        case 2: kb.assign(acc, acc + to_i32(to_f32(c) * f32c(0.5f))); break;
        case 3: kb.store(ptr + (c & i32c(kBufWords - 1)), acc); break;
        case 4: kb.assign(acc, acc + kb.load_i32(ptr + c * i32c(1024))); break;
        case 5: kb.assign(acc, acc + i32c(7) / (kb.load_i32(at) | i32c(1))); break;
        case 6:
          kb.if_then(kb.load_i32(at) > i32c(3), [&] { kb.assign(acc, acc + i32c(1)); });
          break;
        default:
          kb.shstore(c & i32c(static_cast<std::int32_t>(shared_words_ - 1)), acc);
      }
      kb.assign(c, c + i32c(1));
    });
    i32s_.push_back(acc);
  }

  /// TPACF-style shared histogram (replay mode): every thread clears its
  /// shared word, and after a barrier adds a value into a colliding one, so
  /// segments store words that already hold the value they store.
  void clear_then_update(KernelBuilder& kb) {
    const auto mask = static_cast<std::int32_t>(shared_words_ - 1);
    kb.shstore(kb.tid_x() & i32c(mask), f32c(0.0f));
    kb.barrier();
    const ExprH idx = i32_expr() & i32c(mask);
    kb.shstore(idx, kb.shload_f32(idx) + f32_expr());
    kb.barrier();
  }

  void statement(KernelBuilder& kb, int depth) {
    if (spins_ && depth == 0 && spins_->next_below(100) < 12) spin_loop(kb);
    if (counters_ && depth == 0) {
      const std::uint64_t roll = counters_->next_below(100);
      if (roll < 4)
        counter_loop(kb);
      else if (roll < 10 && shared_words_ > 0)
        clear_then_update(kb);
    }
    if (racy_ && chance(30)) {
      racy_statement(kb, depth);
      return;
    }
    if (loads_ && chance(15)) {  // global load, occasionally wild
      // Half of them load through a fresh address variable, so the
      // variable's FIHook sits between the address arithmetic and the load.
      const ExprH at = chance(50) ? kb.let("p" + std::to_string(serial_++), addr()) : addr();
      if (chance(50)) {
        ExprH v = kb.let("g" + std::to_string(serial_++), kb.load_f32(at));
        f32s_.push_back(v);
      } else {
        ExprH v = kb.let("g" + std::to_string(serial_++), kb.load_i32(at));
        i32s_.push_back(v);
      }
      return;
    }
    if (int_atomics_ && chance(8)) {  // integer atomic accumulation
      kb.atomic_add(safe_addr(), i32_expr());
      return;
    }
    const std::uint64_t roll = rng_.next_below(100);
    if (roll < 22) {  // new f32 variable
      ExprH v = kb.let("f" + std::to_string(serial_++), f32_expr());
      f32s_.push_back(v);
      mutable_f32_.push_back(v);
    } else if (roll < 38) {  // new i32 variable
      ExprH v = kb.let("i" + std::to_string(serial_++), i32_expr());
      i32s_.push_back(v);
      mutable_i32_.push_back(v);
    } else if (roll < 50) {  // reassignment
      if (!mutable_f32_.empty() && chance(50))
        kb.assign(pick(mutable_f32_), f32_expr());
      else if (!mutable_i32_.empty())
        kb.assign(pick(mutable_i32_), i32_expr());
    } else if (roll < 62) {  // global store
      kb.store(addr(), chance(60) ? f32_expr() : i32_expr());
    } else if (roll < 68) {  // shared memory
      if (shared_words_ > 0) {
        ExprH idx = i32_expr() & i32c(static_cast<std::int32_t>(shared_words_ - 1));
        if (chance(50)) {
          kb.shstore(idx, f32_expr());
        } else {
          ExprH v = kb.let("s" + std::to_string(serial_++), kb.shload_f32(idx));
          f32s_.push_back(v);
        }
      }
    } else if (roll < 74) {  // atomic accumulation
      kb.atomic_add(safe_addr(), f32_expr());
    } else if (roll < 84 && depth < 2) {  // branch
      if (chance(60)) {
        kb.if_then_else(
            cond_expr(), [&] { statement(kb, depth + 1); },
            [&] { statement(kb, depth + 1); });
      } else {
        kb.if_then(cond_expr(), [&] {
          statement(kb, depth + 1);
          // Rare divergent barrier: threads skipping the branch leave the
          // others waiting -> CrashBarrierDeadlock on both engines.
          if (chance(6)) kb.barrier();
        });
      }
    } else if (roll < 92 && depth < 2) {  // counted loop
      const auto trip = static_cast<std::int32_t>(1 + rng_.next_below(5)) * loop_scale_;
      kb.for_loop("k" + std::to_string(serial_++), i32c(0), i32c(trip),
                  [&](ExprH it) {
                    i32s_.push_back(it);
                    statement(kb, depth + 1);
                    if (chance(30)) statement(kb, depth + 1);
                  });
    } else if (roll < 95 && depth < 2) {  // while loop, occasionally infinite
      ExprH c = kb.let("w" + std::to_string(serial_++), i32c(0));
      const bool hang = chance(4);  // watchdog Hang must match too
      const auto lim = static_cast<std::int32_t>(1 + rng_.next_below(4)) * loop_scale_;
      kb.while_loop([&, c] { return hang ? (c >= i32c(0)) : (c < i32c(lim)); },
                    [&, c] {
                      statement(kb, depth + 1);
                      kb.assign(c, c + i32c(1));
                    });
    } else if (roll < 97) {
      kb.barrier();  // uniform barrier at this nesting level
    } else {  // integer division hazard in a fresh variable
      ExprH v = kb.let("d" + std::to_string(serial_++), pick(i32s_) / i32_expr());
      i32s_.push_back(v);
    }
  }

  Rng& rng_;
  bool racy_ = false;
  bool loads_ = false;
  bool int_atomics_ = false;
  std::int32_t loop_scale_ = 1;
  Rng* spins_ = nullptr;
  Rng* counters_ = nullptr;
  std::uint32_t shared_words_ = 0;
  int serial_ = 0;
  std::vector<ExprH> ptrs_, i32s_, f32s_;
  std::vector<ExprH> mutable_f32_, mutable_i32_;
};

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

/// Everything one engine run exposes; compared field-for-field.
struct EngineRun {
  gpusim::LaunchResult res;
  std::vector<std::uint32_t> mem;           ///< full live arena, incl. crashes
  std::vector<std::uint8_t> check_mem;      ///< shadow check arena (protected mode)
  std::vector<std::uint64_t> exec_counts;   ///< per-pc execution profile
  bool cb_sdc = false;
  std::uint64_t cb_checks = 0, cb_violations = 0;
  std::uint64_t ecc_corrected = 0, ecc_uncorrectable = 0;  ///< device counters
  bool fi_activated = false;                ///< armed FI trials only
};

/// An armed SWIFI trial for run_engine.
struct FiArm {
  swifi::FaultSpec spec;
  std::uint64_t watchdog = 10'000;
  bool generic = false;  ///< the injector reports Generic: FIHooks live in every thread
  /// Golden journal to replay (LaunchOptions::journal); null = full launch.
  const gpusim::LaunchJournal* journal = nullptr;
  /// Off: the injector stays disarmed (its filter is None), so a replay may
  /// take the journal's net effect in one step.
  bool armed = true;
};

/// A change to memory after staging: `mask` XORed raw into word `idx` (a
/// memory-cell upset), into the check byte of its pair, or — `host` — into
/// the word by a host copy_in, which stores (and re-encodes) like any write.
struct Upset {
  std::uint32_t idx = 0;
  std::uint32_t mask = 0;
  bool check = false;
  bool host = false;
};

/// InjectingHooks that reports the Generic filter.
class GenericInjector : public swifi::InjectingHooks {
 public:
  using InjectingHooks::InjectingHooks;
  [[nodiscard]] gpusim::FIFilter fi_filter() const override { return {}; }
};

/// Deterministic input staging shared by both engines.
void stage_input(std::vector<std::uint32_t>& words, std::uint64_t salt) {
  Rng r = Rng::fork(salt, 0xdeadbeef);
  for (std::size_t i = 0; i < words.size(); ++i) {
    // Alternate float-looking and integer-looking patterns.
    words[i] = (i % 3 == 0) ? Value::f32(r.next_float() * 8.0f - 4.0f).bits
                            : r.next_u32();
  }
}

/// An interpreter setting for run_engine: the engine plus the device's
/// sanitize bit.  A bare engine converts to its unsanitized setting.
struct Setting {
  Setting(gpusim::ExecEngine e, bool s = false) : engine(e), sanitize(s) {}
  gpusim::ExecEngine engine;
  bool sanitize;
};
const Setting kSanitized{gpusim::ExecEngine::Threaded, true};
const Setting kSanitizedReference{gpusim::ExecEngine::Reference, true};

EngineRun run_engine(const BytecodeProgram& prog, const FuzzProgram& fp,
                     Setting setting, std::uint64_t salt,
                     bool with_cb, bool instrumented = false,
                     gpusim::ecc::Scheme protection = gpusim::ecc::Scheme::None,
                     const FiArm* fi = nullptr, gpusim::LaunchJournal* record = nullptr,
                     const std::vector<Upset>* upsets = nullptr) {
  gpusim::DeviceProps props;
  props.global_mem_words = 1u << 16;
  props.memory_model = fp.mem_model;
  props.warp_size = fp.warp_size;
  props.protection = protection;
  gpusim::Device dev(props);
  dev.set_engine(setting.engine);
  dev.set_sanitize(setting.sanitize);

  const std::uint32_t out_a = dev.mem().alloc(kBufWords, gpusim::AllocClass::F32Data);
  const std::uint32_t in_a = dev.mem().alloc(kBufWords, gpusim::AllocClass::F32Data);
  std::vector<std::uint32_t> input(kBufWords);
  stage_input(input, salt);
  dev.mem().copy_in(in_a, input);
  if (upsets) {
    // Exactly these upsets (none: a clean device, e.g. a golden run).
    for (const Upset& u : *upsets) {
      if (u.host) {
        std::uint32_t w = 0;
        dev.mem().copy_out(u.idx, std::span<std::uint32_t>(&w, 1));
        w ^= u.mask;
        dev.mem().copy_in(u.idx, std::span<const std::uint32_t>(&w, 1));
      } else if (u.check) {
        dev.mem().corrupt_check(u.idx, static_cast<std::uint8_t>(u.mask));
      } else {
        dev.mem().corrupt_word(u.idx, u.mask);
      }
    }
  }

  const Value args[] = {Value::ptr(out_a), Value::ptr(in_a),
                        Value::i32(kBufWords)};
  core::ControlBlock cb(prog);
  gpusim::LaunchOptions opts;
  opts.watchdog_instructions = 10'000;
  opts.max_workers = 1;
  // SIMT costing and the execution profile route a launch to the reference
  // interpreter on every engine; a plain run is the configuration the
  // threaded-code engine actually executes (campaigns run plain).
  opts.simt_cost = instrumented;
  opts.hooks = with_cb ? &cb : nullptr;
  std::unique_ptr<swifi::InjectingHooks> injector;
  if (fi) {
    core::ControlBlock* const cbp = with_cb ? &cb : nullptr;
    injector = fi->generic ? std::make_unique<GenericInjector>(prog, cbp)
                           : std::make_unique<swifi::InjectingHooks>(prog, cbp);
    if (fi->armed) injector->arm(fi->spec);
    opts.hooks = injector.get();
    opts.watchdog_instructions = fi->watchdog;
    opts.journal = fi->journal;
  }
  opts.record_journal = record;
  EngineRun r;
  std::vector<std::uint64_t> counts;
  if (instrumented) opts.instr_exec_counts = &counts;
  r.res = dev.launch(prog, fp.cfg, args, opts);
  r.mem = dev.mem().image();
  r.check_mem = dev.mem().check_image();
  r.exec_counts = std::move(counts);
  r.ecc_corrected = dev.mem().ecc_corrected();
  r.ecc_uncorrectable = dev.mem().ecc_uncorrectable();
  if (injector) r.fi_activated = injector->activated();
  if (with_cb) {
    r.cb_sdc = cb.sdc_detected();
    r.cb_checks = cb.total_checks();
    r.cb_violations = cb.total_violations();
  }
  return r;
}

/// The protected-mode corpus's memory-cell upset for program `salt`, planted
/// in a word whose codeword the program reads: a word of the reader index
/// of a clean Reference recording on a Hsiao device — a first read, or a
/// store or atomic, which read-modify-write the pair — or a word of the
/// input buffer when the launch records no journal.  A single-bit data flip (corrected on
/// first read), a check-bit flip, or a double-bit flip in one codeword
/// (uncorrectable once the pair is read).
std::vector<Upset> read_word_upsets(const BytecodeProgram& prog, const FuzzProgram& fp,
                                    std::uint64_t salt) {
  const std::vector<Upset> clean;
  gpusim::LaunchJournal j;
  (void)run_engine(prog, fp, gpusim::ExecEngine::Reference, salt, false, false,
                   gpusim::ecc::Scheme::Hsiao, nullptr, &j, &clean);
  std::vector<std::uint32_t> reads;
  for (const gpusim::LaunchJournal::Access& a : j.global_index) reads.push_back(a.addr);
  // run_engine's input buffer follows its output buffer.
  gpusim::DeviceMemory layout(fp.mem_model, 1u << 16);
  (void)layout.alloc(kBufWords, gpusim::AllocClass::F32Data);
  const std::uint32_t in_a = layout.alloc(kBufWords, gpusim::AllocClass::F32Data);

  Rng cr = Rng::fork(salt, 0x0ecc);
  const std::uint32_t widx =
      reads.empty() ? in_a + static_cast<std::uint32_t>(cr.next_below(kBufWords))
                    : reads[cr.next_below(reads.size())];
  const auto bit = 1u << cr.next_below(32);
  switch (cr.next_below(5)) {
    case 0:  // sibling word, same pair
      return {{widx, bit}, {widx ^ 1u, bit}};
    case 1:
      return {{widx, 1u << cr.next_below(8), /*check=*/true}};
    default:
      return {{widx, bit}};
  }
}

/// Compares one program's runs; on divergence reports the pretty-printed
/// kernel and (when HAUBERK_FUZZ_DUMP_DIR is set) writes it to disk.
void expect_identical(const EngineRun& ref, const EngineRun& other,
                      const FuzzProgram& fp, std::size_t index,
                      const char* phase) {
  const bool same = other.res.status == ref.res.status &&
                    other.res.sdc_alarm == ref.res.sdc_alarm &&
                    other.res.cycles == ref.res.cycles &&
                    other.res.loop_cycles == ref.res.loop_cycles &&
                    other.res.instructions == ref.res.instructions &&
                    other.res.simt_cycles == ref.res.simt_cycles &&
                    other.res.deadlock_pc == ref.res.deadlock_pc &&
                    other.res.deadlock_site == ref.res.deadlock_site &&
                    other.mem == ref.mem && other.exec_counts == ref.exec_counts &&
                    other.cb_sdc == ref.cb_sdc && other.cb_checks == ref.cb_checks &&
                    other.cb_violations == ref.cb_violations &&
                    other.res.ecc_corrected == ref.res.ecc_corrected &&
                    other.check_mem == ref.check_mem &&
                    other.ecc_corrected == ref.ecc_corrected &&
                    other.ecc_uncorrectable == ref.ecc_uncorrectable &&
                    other.fi_activated == ref.fi_activated;
  if (same) return;

  std::string mem_diff;
  for (std::size_t w = 0; w < other.mem.size() && w < ref.mem.size(); ++w) {
    if (other.mem[w] != ref.mem[w]) {
      mem_diff += "\n  word " + std::to_string(w) + ": other=0x" +
                  std::to_string(other.mem[w]) + " ref=0x" + std::to_string(ref.mem[w]);
      if (mem_diff.size() > 400) break;
    }
  }
  const std::string dump = print_kernel(fp.kernel);
  ADD_FAILURE() << "engine divergence at program " << index << " (" << phase
                << ")\n"
                << "  other: status=" << gpusim::launch_status_name(other.res.status)
                << " cycles=" << other.res.cycles
                << " instr=" << other.res.instructions
                << " simt=" << other.res.simt_cycles << " sdc=" << other.res.sdc_alarm
                << " ecc=" << other.ecc_corrected << "/" << other.ecc_uncorrectable
                << " fi=" << other.fi_activated
                << "\n  ref:   status=" << gpusim::launch_status_name(ref.res.status)
                << " cycles=" << ref.res.cycles << " instr=" << ref.res.instructions
                << " simt=" << ref.res.simt_cycles << " sdc=" << ref.res.sdc_alarm
                << " ecc=" << ref.ecc_corrected << "/" << ref.ecc_uncorrectable
                << " fi=" << ref.fi_activated
                << "\n  mem equal=" << (other.mem == ref.mem)
                << " check equal=" << (other.check_mem == ref.check_mem)
                << " profile equal=" << (other.exec_counts == ref.exec_counts)
                << mem_diff
                << "\n--- program ---\n"
                << dump;
  if (const char* dir = std::getenv("HAUBERK_FUZZ_DUMP_DIR"); dir && *dir) {
    std::ofstream f(std::string(dir) + "/fuzz_" + std::to_string(index) + ".kir");
    f << "# phase: " << phase << "\n" << dump;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(DifferentialFuzz, ThreadedEngineMatchesReferenceEverywhere) {
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0001);
  const auto programs =
      static_cast<std::size_t>(env_u64("HAUBERK_FUZZ_PROGRAMS", 400));

  std::size_t ok = 0, crash = 0, hang = 0, ft_checked = 0;
  for (std::size_t i = 0; i < programs; ++i) {
    Rng rng = Rng::fork(seed, i);
    ProgramGen gen(rng);
    const FuzzProgram fp = gen.gen();
    const BytecodeProgram prog = lower(fp.kernel);

    // Plain launches: the configuration campaigns use, and the one the
    // threaded stream (fused superinstructions, runs) executes — with and
    // without the sanitizer's shared-access singles.
    const EngineRun ref = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, false);
    const EngineRun thr = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false);
    expect_identical(ref, thr, fp, i, "threaded");
    const EngineRun san = run_engine(prog, fp, kSanitized, i, false);
    expect_identical(ref, san, fp, i, "sanitizer");

    switch (ref.res.status) {
      case gpusim::LaunchStatus::Ok: ++ok; break;
      case gpusim::LaunchStatus::Hang: ++hang; break;
      default: ++crash; break;
    }

    // FT differential on a slice of the clean programs: detectors, checksum
    // code, and the hook-driven control block must agree too — through the
    // fused ChkXor2/BinChkXor/RangeCheck2/BinDupCmp handlers.
    if (ref.res.status == gpusim::LaunchStatus::Ok && i % 7 == 0) {
      try {
        core::TranslateOptions topt;
        topt.mode = core::LibMode::FT;
        const BytecodeProgram ft = lower(core::translate(fp.kernel, topt));
        const EngineRun fref = run_engine(ft, fp, gpusim::ExecEngine::Reference, i, true);
        const EngineRun fthr = run_engine(ft, fp, gpusim::ExecEngine::Threaded, i, true);
        expect_identical(fref, fthr, fp, i, "ft threaded");
        ++ft_checked;
      } catch (const std::exception&) {
        // The translator may reject exotic generated kernels; that is not an
        // engine-equivalence concern.
      }
    }
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }

  // The generator must actually exercise the interesting regions; a fuzzer
  // that only produces clean runs proves much less.
  EXPECT_GT(ok, programs / 4) << "generator produces too few clean programs";
  EXPECT_GT(crash, 0u) << "generator never crashed a kernel";
  EXPECT_GT(ft_checked, 0u) << "no FT-instrumented program was compared";
  (void)hang;  // hangs are seed-dependent; equality is asserted per program
}

TEST(DifferentialFuzz, SanitizerAgreesOnRacyPrograms) {
  // Racy-mode corpus: the sanitizer must be a perfect bystander — bitwise
  // identical to unsanitized Threaded and Reference on every observable —
  // while its hazard reports are (a) absent on unsanitized launches, (b)
  // bitwise reproducible across runs and (c) the same on the threaded
  // stream as on the sanitized reference interpreter.  The corpus as a
  // whole must actually tickle both hazard families, or the generator has
  // gone stale.
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0003);
  const auto programs =
      static_cast<std::size_t>(env_u64("HAUBERK_FUZZ_PROGRAMS", 400)) / 2;

  std::size_t with_race = 0, with_divergence = 0;
  for (std::size_t i = 0; i < programs; ++i) {
    Rng rng = Rng::fork(seed, i);
    ProgramGen gen(rng, /*racy=*/true);
    const FuzzProgram fp = gen.gen();
    const BytecodeProgram prog = lower(fp.kernel);

    const EngineRun ref = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, false);
    const EngineRun thr = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false);
    const EngineRun san = run_engine(prog, fp, kSanitized, i, false);
    expect_identical(ref, thr, fp, i, "racy threaded");
    expect_identical(ref, san, fp, i, "racy sanitizer");

    const EngineRun san_ref = run_engine(prog, fp, kSanitizedReference, i, false);
    ASSERT_EQ(san.res.sanitizer_reports, san_ref.res.sanitizer_reports)
        << "threaded and reference sanitizer reports differ on fuzz program " << i;
    ASSERT_EQ(san.res.sanitizer_reports_dropped, san_ref.res.sanitizer_reports_dropped);
    expect_identical(ref, san_ref, fp, i, "racy sanitizer (reference)");

    ASSERT_TRUE(thr.res.sanitizer_reports.empty());
    ASSERT_TRUE(ref.res.sanitizer_reports.empty());
    const EngineRun again = run_engine(prog, fp, kSanitized, i, false);
    ASSERT_EQ(san.res.sanitizer_reports, again.res.sanitizer_reports)
        << "sanitizer reports not reproducible on fuzz program " << i;
    ASSERT_EQ(san.res.sanitizer_reports_dropped,
              again.res.sanitizer_reports_dropped);

    bool race = false, divergence = false;
    for (const auto& r : san.res.sanitizer_reports) {
      if (r.kind == gpusim::HazardKind::WriteWrite ||
          r.kind == gpusim::HazardKind::ReadWrite)
        race = true;
      if (r.kind == gpusim::HazardKind::BarrierDivergence) divergence = true;
    }
    with_race += race;
    with_divergence += divergence;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(with_race, 0u) << "racy generator never produced a shared race";
  EXPECT_GT(with_divergence, 0u) << "racy generator never diverged a barrier";
}

TEST(DifferentialFuzz, ArmedFIHooksMatchReferenceEverywhere) {
  // FI-mode corpus: programs with global loads, instrumented by the FI or
  // FI&FT pipeline, one random armed fault each.  Every budget of the sweep
  // runs on Reference (which ignores the FI filter), Threaded and sanitized
  // Threaded (unarmed threads without FIHooks) and Threaded with an injector
  // reporting Generic (FIHooks live everywhere).  Budgets are drawn inside the
  // per-thread instruction count, so they land on and inside runs whose
  // hooks the stream without FIHooks dropped; wild loads after a
  // dropped hook crash through the refund path.  Each FI&FT program also
  // runs with its control block as the only hooks, which reports the None
  // filter: Threaded (every hook dropped) against Reference.
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0005);
  const auto programs =
      static_cast<std::size_t>(env_u64("HAUBERK_FUZZ_PROGRAMS", 400)) / 2;

  std::size_t compared = 0, activated = 0, crash = 0, budget_hang = 0, dropped = 0, cb_only = 0;
  for (std::size_t i = 0; i < programs; ++i) {
    Rng rng = Rng::fork(seed, i);
    ProgramGen gen(rng, /*racy=*/false, /*loads=*/true);
    const FuzzProgram fp = gen.gen();
    const bool fift = i % 2 == 1;
    BytecodeProgram prog;
    try {
      core::TranslateOptions topt;
      topt.mode = fift ? core::LibMode::FIFT : core::LibMode::FI;
      prog = lower(core::translate(fp.kernel, topt));
    } catch (const std::exception&) {
      continue;  // the translator may reject exotic generated kernels
    }
    if (prog.fi_sites.empty()) continue;
    {
      const std::vector<std::uint32_t> unit(prog.code.size(), 1);
      const auto tp = compile_threaded(decode_program(prog, unit), prog.num_slots, true,
                                       kir::MemInstr::None, /*fi_hooks=*/false);
      dropped += tp.fi_dropped > 0;
    }

    Rng arm = Rng::fork(seed ^ 0xf1f1, i);
    FiArm fi;
    fi.spec.site_id = prog.fi_sites[arm.next_below(prog.fi_sites.size())].site_id;
    fi.spec.thread = static_cast<std::uint32_t>(arm.next_below(fp.cfg.total_threads()));
    fi.spec.occurrence = 1 + static_cast<std::uint32_t>(arm.next_below(2));
    fi.spec.mask = arm.next_below(4) == 0 ? static_cast<std::uint32_t>(arm.next_u32() | 1u)
                                          : 1u << arm.next_below(32);

    const EngineRun full =
        run_engine(prog, fp, gpusim::ExecEngine::Reference, i, fift, false,
                   gpusim::ecc::Scheme::None, &fi);
    const std::uint64_t per_thread =
        1 + full.res.instructions / std::max<std::uint64_t>(1, fp.cfg.total_threads());
    std::vector<std::uint64_t> budgets = {fi.watchdog};
    for (int b = 0; b < 3; ++b) budgets.push_back(1 + arm.next_below(2 * per_thread));

    if (fift) {
      // The control block alone as hooks: it reports the None filter, so
      // the threaded engine runs the FI build with every hook dropped.
      const EngineRun cref = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, true);
      const EngineRun cthr = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, true);
      expect_identical(cref, cthr, fp, i, "fi+ft control block only");
      ++cb_only;
    }
    for (const std::uint64_t budget : budgets) {
      fi.watchdog = budget;
      fi.generic = false;
      const EngineRun ref = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, fift, false,
                                       gpusim::ecc::Scheme::None, &fi);
      const EngineRun thr = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, fift, false,
                                       gpusim::ecc::Scheme::None, &fi);
      expect_identical(ref, thr, fp, i, "fi threaded");
      const EngineRun san =
          run_engine(prog, fp, kSanitized, i, fift, false, gpusim::ecc::Scheme::None, &fi);
      expect_identical(ref, san, fp, i, "fi sanitizer");
      fi.generic = true;
      const EngineRun gen_thr = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, fift,
                                           false, gpusim::ecc::Scheme::None, &fi);
      expect_identical(ref, gen_thr, fp, i, "fi threaded (generic filter)");
      ++compared;
      activated += ref.fi_activated;
      if (ref.res.status == gpusim::LaunchStatus::Hang && budget != budgets.front())
        ++budget_hang;
      else if (gpusim::is_crash(ref.res.status))
        ++crash;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(compared, programs) << "too few FI programs compared";
  EXPECT_GT(activated, compared / 16) << "armed faults rarely fire";
  EXPECT_GT(crash, 0u) << "no FI trial crashed";
  EXPECT_GT(budget_hang, compared / 8) << "budgets rarely land inside the run";
  EXPECT_GT(dropped, programs / 2) << "streams without FIHooks rarely drop a hook";
  EXPECT_GT(cb_only, programs / 4) << "too few control-block-only FI&FT launches";
}

namespace {

/// How the golden launch first touches the pair holding word `struck`, in
/// serial segment order (blocks in order, then barrier epochs, then
/// threads).  A segment that first-reads either word counts as a read;
/// otherwise its first write there decides (a store to `struck`, a store to
/// its sibling, or an atomic).
enum class FirstTouch { None, Read, Store, SiblingStore, Atomic };

FirstTouch first_touch(const gpusim::LaunchJournal& j, const gpusim::LaunchConfig& cfg,
                       std::uint32_t struck) {
  const std::uint32_t pair = struck / 2;
  const auto threads = static_cast<std::uint32_t>(cfg.block_x * cfg.block_y);
  for (std::uint32_t b = 0; b < cfg.grid_x * cfg.grid_y; ++b) {
    for (std::uint32_t e = 0;; ++e) {
      bool any = false;
      for (std::uint32_t t = 0; t < threads; ++t) {
        const std::uint32_t slot = b * threads + t;
        if (j.thread_begin[slot] + e >= j.thread_begin[slot + 1]) continue;
        any = true;
        const gpusim::LaunchJournal::Segment& sg = j.segment(slot, e);
        for (std::uint32_t r = 0; r < sg.global_reads; ++r)
          if (j.reads[sg.first_reads + r].addr / 2 == pair) return FirstTouch::Read;
        for (std::uint32_t w = 0; w < sg.writes; ++w) {
          const gpusim::LaunchJournal::Write& wr = j.writes[sg.first_write + w];
          if (wr.addr / 2 != pair) continue;
          if (wr.kind != gpusim::LaunchJournal::WriteKind::Store) return FirstTouch::Atomic;
          return wr.addr == struck ? FirstTouch::Store : FirstTouch::SiblingStore;
        }
      }
      if (!any) break;
    }
  }
  return FirstTouch::None;
}

/// One upset for a replay trial on a protected device: a data bit, a check
/// bit or a double data bit, in a word the golden launch reads, the sibling
/// of a word it stores, a word it updates atomically, or any word of the
/// two buffers.
Upset draw_upset(Rng& r, const gpusim::LaunchJournal& j) {
  std::vector<std::uint32_t> reads, stores, atomics;
  for (const gpusim::LaunchJournal::Segment& sg : j.segments)
    for (std::uint32_t k = 0; k < sg.global_reads; ++k)
      reads.push_back(j.reads[sg.first_reads + k].addr);
  for (const gpusim::LaunchJournal::Write& w : j.writes)
    (w.kind == gpusim::LaunchJournal::WriteKind::Store ? stores : atomics).push_back(w.addr);
  const auto pick = [&](const std::vector<std::uint32_t>& v) {
    return v[r.next_below(v.size())];
  };
  Upset u;
  switch (r.next_below(4)) {
    case 0: u.idx = reads.empty() ? 0 : pick(reads); break;
    case 1: u.idx = stores.empty() ? 0 : pick(stores) ^ 1u; break;
    case 2: u.idx = atomics.empty() ? 0 : pick(atomics); break;
    default: u.idx = static_cast<std::uint32_t>(r.next_below(2 * kBufWords)); break;
  }
  const auto bit = static_cast<std::uint32_t>(r.next_below(32));
  switch (r.next_below(3)) {
    case 0: u.mask = 1u << bit; break;
    case 1:
      u.check = true;
      u.mask = 1u << (bit % 8);
      break;
    default: u.mask = (1u << bit) | (1u << ((bit + 1 + r.next_below(31)) % 32)); break;
  }
  return u;
}

}  // namespace

TEST(DifferentialFuzz, ReplayMatchesFullLaunch) {
  // Replay corpus: FI-mode programs plus integer atomics — cross-thread
  // global reads and writes (every thread computes its addresses into the
  // shared in/out buffers, so stray stores land in other threads' inputs),
  // barriers, shared memory and f32/i32 atomics — on an unprotected and a
  // Hsiao device.  A fault-free launch records each device's journal on
  // both engines, and the two journals must be equal; then each armed fault
  // at each budget of the sweep runs in full on Reference and Threaded
  // (both recording, so budgets inside a fused region hand a recorded slice
  // to the reference interpreter; the recordings must be equal too) and
  // replayed on Threaded twice — with the golden journal, and with the same
  // journal stripped of its snapshot table (whole segments only) — and all
  // four must agree on every observable.  One budget of the sweep sits at a
  // snapshot of the journal (one below, at or one above its budget), so
  // watchdogs land inside the windows replay interprets.
  // Memory changes between staging and launch, so the launch-start diff is
  // exercised: on the Hsiao device every trial carries one planted upset
  // (data bit, check bit or double bit) in a pair the golden launch reads,
  // stores to the sibling of, or updates atomically, so replay must leave
  // each pair's first touch to the checked path; and every trial also gets
  // a second change to such a word — a host copy_in on even trials, on the
  // unprotected device a raw corrupt_word on odd ones.  The control block's
  // own counters are the exception by contract: applied segments make no
  // hook calls (DESIGN §10), so the replayed run's cb counters are not
  // compared — its SDC alarm is.
  // Programs also carry spin loops (ProgramGen::spin_loop) that only a fault
  // in their gate variable enters; half the trials of such a program arm
  // one, and trade a drawn budget for a watchdog a few dozen instructions
  // past the golden run's largest budget, so hung replayed threads
  // fast-forward (DESIGN §10) at tight and loose watchdogs alike.  In the
  // other half, one trial of a program with counter loops
  // (ProgramGen::counter_loop) sets a counter's sign bit, with a watchdog
  // up to 2048 past that budget, so counter loops fast-forward or, where
  // no proof holds, run interpreted; and TPACF-style clear-then-update
  // shared blocks give applied segments net shared writes that leave their
  // words' golden values unchanged.
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0016);
  const auto programs =
      static_cast<std::size_t>(env_u64("HAUBERK_FUZZ_PROGRAMS", 400)) / 2;

  std::size_t compared = 0, partial = 0, whole = 0, activated = 0, budget_hang = 0;
  std::size_t windowed = 0, snapshot_budgets = 0;
  std::size_t host_writes = 0, raw_upsets = 0, recorded = 0;
  std::size_t ecc_corrected = 0, ecc_failed = 0, sibling_store_first = 0, atomic_first = 0;
  std::size_t spin_hangs = 0, fast_forwarded = 0, counter_hangs = 0, counter_fast = 0;
  for (std::size_t i = 0; i < programs; ++i) {
    Rng rng = Rng::fork(seed, i);
    Rng spins = Rng::fork(seed ^ 0x5b1e, i);
    Rng counters = Rng::fork(seed ^ 0xc0c1, i);
    ProgramGen gen(rng, /*racy=*/false, /*loads=*/true, /*int_atomics=*/true, /*loop_scale=*/4,
                   &spins, &counters);
    const FuzzProgram fp = gen.gen();
    if (fp.mem_model != gpusim::MemoryModel::FlatGpu) continue;  // replay-ineligible
    const bool fift = i % 2 == 1;
    BytecodeProgram prog;
    try {
      core::TranslateOptions topt;
      topt.mode = fift ? core::LibMode::FIFT : core::LibMode::FI;
      prog = lower(core::translate(fp.kernel, topt));
    } catch (const std::exception&) {
      continue;
    }
    if (prog.fi_sites.empty()) continue;
    for (const auto scheme : {gpusim::ecc::Scheme::None, gpusim::ecc::Scheme::Hsiao}) {
      const bool ecc = scheme != gpusim::ecc::Scheme::None;
      const std::vector<Upset> clean;
      gpusim::LaunchJournal journal, ref_journal;
      const EngineRun golden = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, fift,
                                          false, scheme, nullptr, &journal, &clean);
      (void)run_engine(prog, fp, gpusim::ExecEngine::Reference, i, fift, false, scheme, nullptr,
                       &ref_journal, &clean);
      EXPECT_TRUE(journal == ref_journal) << "program " << i << ": golden journals differ";
      if (golden.res.status != gpusim::LaunchStatus::Ok) continue;  // no golden, no journal
      ASSERT_FALSE(journal.empty()) << "program " << i;
      gpusim::LaunchJournal stripped = journal;
      stripped.snapshots = {};

      Rng arm = Rng::fork(seed ^ 0x5e65, i);
      FiArm fi;
      fi.spec.site_id = prog.fi_sites[arm.next_below(prog.fi_sites.size())].site_id;
      fi.spec.thread = static_cast<std::uint32_t>(arm.next_below(fp.cfg.total_threads()));
      fi.spec.occurrence = 1 + static_cast<std::uint32_t>(arm.next_below(2));
      fi.spec.mask = arm.next_below(4) == 0 ? static_cast<std::uint32_t>(arm.next_u32() | 1u)
                                            : 1u << arm.next_below(32);
      const std::uint64_t per_thread =
          1 + golden.res.instructions / std::max<std::uint64_t>(1, fp.cfg.total_threads());
      std::vector<std::uint64_t> budgets = {fi.watchdog};
      for (int b = 0; b < 3; ++b) budgets.push_back(1 + arm.next_below(2 * per_thread));
      if (!journal.snapshots.list.empty()) {
        const auto& at =
            journal.snapshots.list[arm.next_below(journal.snapshots.list.size())];
        budgets.push_back(at.budget + arm.next_below(3) - 1);
        ++snapshot_budgets;
      }
      Rng spin_arm = Rng::fork(seed ^ 0x5b1f, i);
      std::vector<std::uint32_t> gates;
      for (const kir::FISite& site : prog.fi_sites)
        if (site.var_name.rfind("spin", 0) == 0 && !site.dead_window) gates.push_back(site.site_id);
      const bool spin_armed = !gates.empty() && spin_arm.next_below(2) == 0;
      if (spin_armed) {
        fi.spec.site_id = gates[spin_arm.next_below(gates.size())];
        fi.spec.occurrence = 1;
        fi.spec.mask = 1u << (3 + spin_arm.next_below(28));
        budgets[1] = journal.net.totals.max_budget + 1 + spin_arm.next_below(64);
      }
      // In the other half, the second budget's trial arms a counter loop's
      // counter, if any, with its sign bit, and a watchdog up to 2048
      // instructions past the golden run's largest budget, so fast-forwards
      // skip a few periods or many.
      Rng counter_arm = Rng::fork(seed ^ 0xc0c2, i);
      std::vector<std::uint32_t> counter_sites;
      for (const kir::FISite& site : prog.fi_sites)
        if (site.var_name.rfind("cl", 0) == 0 && !site.dead_window)
          counter_sites.push_back(site.site_id);
      const bool counter_armed = !spin_armed && !counter_sites.empty();
      const swifi::FaultSpec drawn = fi.spec;
      swifi::FaultSpec counter_spec = drawn;
      if (counter_armed) {
        counter_spec.site_id = counter_sites[counter_arm.next_below(counter_sites.size())];
        counter_spec.occurrence = 1;
        counter_spec.mask = 0x80000000u;
        budgets[1] = journal.net.totals.max_budget + 1 + counter_arm.next_below(2048);
      }

      Rng strike = Rng::fork(seed ^ 0x0ecc, i);
      Rng change = Rng::fork(seed ^ 0x4057, i);
      for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
        const std::uint64_t budget = budgets[bi];
        std::vector<Upset> upsets;
        if (ecc) {
          upsets.push_back(draw_upset(strike, journal));
          switch (first_touch(journal, fp.cfg, upsets.front().idx)) {
            case FirstTouch::SiblingStore: ++sibling_store_first; break;
            case FirstTouch::Atomic: ++atomic_first; break;
            default: break;
          }
        }
        Upset second = draw_upset(change, journal);
        second.check = false;
        second.host = bi % 2 == 0;
        if (second.host || !ecc) {
          // Host writes go first: they store through the checked path, so
          // they must not meet a pair the raw upset already broke.
          upsets.insert(second.host ? upsets.begin() : upsets.end(), second);
          ++(second.host ? host_writes : raw_upsets);
        }
        const bool counter_trial = counter_armed && bi == 1;
        fi.spec = counter_trial ? counter_spec : drawn;
        fi.watchdog = budget;
        fi.journal = nullptr;
        gpusim::LaunchJournal rec_ref, rec_full;
        const EngineRun ref = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, fift,
                                         false, scheme, &fi, &rec_ref, &upsets);
        const EngineRun full = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, fift,
                                          false, scheme, &fi, &rec_full, &upsets);
        expect_identical(ref, full, fp, i, "replay corpus: full threaded");
        EXPECT_TRUE(rec_ref == rec_full) << "program " << i << " budget " << budget
                                         << ": recordings differ";
        recorded += !rec_full.empty();
        fi.journal = &journal;
        EngineRun rep = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, fift, false,
                                   scheme, &fi, nullptr, &upsets);
        const std::uint64_t applied = rep.res.replayed_segments;
        rep.cb_sdc = ref.cb_sdc;
        rep.cb_checks = ref.cb_checks;
        rep.cb_violations = ref.cb_violations;
        expect_identical(ref, rep, fp, i, ecc ? "replay corpus: replayed, hsiao"
                                              : "replay corpus: replayed");
        fi.journal = &stripped;
        EngineRun seg = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, fift, false,
                                   scheme, &fi, nullptr, &upsets);
        seg.cb_sdc = ref.cb_sdc;
        seg.cb_checks = ref.cb_checks;
        seg.cb_violations = ref.cb_violations;
        expect_identical(ref, seg, fp, i, ecc ? "replay corpus: whole segments, hsiao"
                                              : "replay corpus: whole segments");
        ++compared;
        activated += ref.fi_activated;
        whole += seg.res.replayed_segments == journal.segments.size();
        windowed += rep.res.replayed_instructions > seg.res.replayed_instructions;
        partial += applied > 0 && applied < journal.segments.size();
        ecc_corrected += ref.res.ecc_corrected > 0;
        ecc_failed += ref.res.status == gpusim::LaunchStatus::EccUncorrectable;
        if (ref.res.status == gpusim::LaunchStatus::Hang && budget != budgets.front())
          ++budget_hang;
        spin_hangs += spin_armed && ref.res.status == gpusim::LaunchStatus::Hang;
        counter_hangs += counter_trial && ref.res.status == gpusim::LaunchStatus::Hang;
        counter_fast += counter_trial && rep.res.fast_forwarded_instructions > 0;
        fast_forwarded += rep.res.fast_forwarded_instructions > 0;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(compared, programs) << "too few replay programs compared";
  EXPECT_GT(activated, compared / 16) << "armed faults rarely fire";
  EXPECT_GT(partial, compared / 4) << "replays rarely mix applied and interpreted segments";
  EXPECT_GT(budget_hang, compared / 8) << "budgets rarely land inside the run";
  EXPECT_EQ(whole, 0u) << "without snapshots the armed thread's segments must be interpreted";
  EXPECT_GT(windowed, compared / 8) << "snapshots rarely shorten an interpreted slice";
  EXPECT_GT(snapshot_budgets, compared / 10) << "too few budgets inside windows";
  EXPECT_GT(ecc_corrected, compared / 16) << "planted upsets are rarely corrected";
  EXPECT_GT(ecc_failed, compared / 32) << "planted double-bit upsets rarely fail a launch";
  EXPECT_GT(sibling_store_first, 0u) << "no upset is first touched by a sibling store";
  EXPECT_GT(atomic_first, 0u) << "no upset is first touched by an atomic";
  EXPECT_GT(host_writes, compared / 3) << "too few host writes between staging and launch";
  EXPECT_GT(raw_upsets, compared / 8) << "too few unprotected upsets";
  EXPECT_GT(recorded, compared / 4) << "trial launches rarely record a journal";
  EXPECT_GT(spin_hangs, compared / 32) << "armed spin loops rarely hang";
  EXPECT_GT(fast_forwarded, spin_hangs / 8) << "hung replayed threads rarely fast-forward";
  EXPECT_GT(counter_hangs, compared / 64) << "armed counter loops rarely hang";
  EXPECT_GT(counter_fast, counter_hangs / 8) << "hung counter loops rarely fast-forward";
}

namespace {

/// FNV-1a over a stream of 64-bit words (the pinned sanitizer digests).
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(static_cast<std::uint64_t>(x));
  }
};

/// Every LaunchResult observable, sanitizer reports field by field.
void digest_result(Fnv64& d, const gpusim::LaunchResult& r) {
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.status), std::uint64_t{r.sdc_alarm}, r.cycles,
        r.loop_cycles, r.instructions, r.simt_cycles,
        static_cast<std::uint64_t>(r.deadlock_pc),
        static_cast<std::uint64_t>(r.deadlock_site), r.ecc_corrected,
        r.sanitizer_reports_dropped})
    d.add(v);
  d.add(r.sanitizer_reports.size());
  for (const gpusim::SanitizerReport& s : r.sanitizer_reports)
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(s.kind), std::uint64_t{s.block}, std::uint64_t{s.pc},
          std::uint64_t{s.other_pc}, std::uint64_t{s.site}, std::uint64_t{s.thread},
          std::uint64_t{s.other_thread}, std::uint64_t{s.addr}, std::uint64_t{s.epoch}})
      d.add(v);
}

/// One sanitized workload launch on the default engine, digested with its output
/// (and its execution profile when `instrumented`).
void digest_sanitized_workload(Fnv64& d, workloads::Workload& w, const workloads::Dataset& ds,
                               const BytecodeProgram& prog, gpusim::LaunchHooks* hooks,
                               bool instrumented) {
  gpusim::Device dev;
  dev.set_sanitize(true);
  auto job = w.make_job(ds);
  const auto args = job->setup(dev);
  gpusim::LaunchOptions opts;
  opts.hooks = hooks;
  std::vector<std::uint64_t> counts;
  if (instrumented) {
    opts.instr_exec_counts = &counts;
    opts.simt_cost = true;
  }
  const gpusim::LaunchResult res = dev.launch(prog, job->config(), args, opts);
  digest_result(d, res);
  d.add_all(counts);
  if (res.status == gpusim::LaunchStatus::Ok) d.add_all(job->read_output(dev).words);
}

}  // namespace

TEST(DifferentialFuzz, SanitizerObservablesMatchPinnedGolden) {
  // Pins the sanitizer's full output — reports, dropped counts and every
  // other observable — on the racy corpus and on the 12 workloads, plain and
  // instrumented (execution profile + SIMT costing).  The digests were
  // captured before sanitized launches moved onto the threaded engine and
  // instrumented ones onto the reference engine; any drift in hazard
  // detection order, report fields or accounting shows up here.
  // Regenerate after an intentional change with HAUBERK_GOLDEN_PRINT=1.
  const std::uint64_t seed = 0xfa57'0003;  // deliberately not env-overridable
  constexpr std::size_t kPrograms = 200;

  Fnv64 corpus;
  std::size_t reports = 0;
  for (std::size_t i = 0; i < kPrograms; ++i) {
    Rng rng = Rng::fork(seed, i);
    ProgramGen gen(rng, /*racy=*/true);
    const FuzzProgram fp = gen.gen();
    const BytecodeProgram prog = lower(fp.kernel);
    for (const bool instrumented : {false, true}) {
      const EngineRun r =
          run_engine(prog, fp, kSanitized, i, false, instrumented);
      digest_result(corpus, r.res);
      corpus.add_all(r.mem);
      corpus.add_all(r.exec_counts);
      reports += r.res.sanitizer_reports.size();
    }
  }

  Fnv64 suite;
  std::size_t workloads_run = 0;
  std::vector<std::unique_ptr<workloads::Workload>> all;
  for (auto& w : workloads::hpc_suite()) all.push_back(std::move(w));
  for (auto& w : workloads::graphics_suite()) all.push_back(std::move(w));
  for (auto& w : workloads::cpu_suite()) all.push_back(std::move(w));
  all.push_back(workloads::make_cpu_matmul());
  for (auto& w : all) {
    const workloads::Dataset ds = w->make_dataset(20260806, workloads::Scale::Tiny);
    const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
    digest_sanitized_workload(suite, *w, ds, v.baseline, nullptr, false);
    digest_sanitized_workload(suite, *w, ds, v.baseline, nullptr, true);
    core::ControlBlock cb(v.ft);
    digest_sanitized_workload(suite, *w, ds, v.ft, &cb, false);
    ++workloads_run;
  }

  if (std::getenv("HAUBERK_GOLDEN_PRINT")) {
    std::printf("corpus 0x%016llx suite 0x%016llx reports %zu\n",
                static_cast<unsigned long long>(corpus.h),
                static_cast<unsigned long long>(suite.h), reports);
    return;
  }
  EXPECT_EQ(workloads_run, 12u);
  EXPECT_GT(reports, 0u) << "racy corpus produced no sanitizer reports";
  EXPECT_EQ(corpus.h, 0x080ac7c45ca17fb9ULL) << "racy-corpus sanitizer digest drifted";
  EXPECT_EQ(suite.h, 0x107d94ab89028d33ULL) << "12-workload sanitizer digest drifted";
}

TEST(DifferentialFuzz, CampaignsAgreeAcrossEnginesAndWorkerCounts) {
  // Memory-fault campaigns over generated programs: the (engine x workers)
  // matrix must yield bitwise-identical per-trial outcomes.
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0002);
  using workloads::BufferJob;

  std::size_t campaigns = 0;
  for (std::size_t i = 0; campaigns < 3 && i < 64; ++i) {
    Rng rng = Rng::fork(seed, 1'000'000 + i);
    ProgramGen gen(rng);
    FuzzProgram fp = gen.gen();
    fp.mem_model = gpusim::MemoryModel::FlatGpu;
    const BytecodeProgram prog = lower(fp.kernel);

    // Only campaign on programs whose golden run completes.
    if (run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false).res.status !=
        gpusim::LaunchStatus::Ok)
      continue;
    ++campaigns;

    std::vector<std::uint32_t> input(kBufWords);
    stage_input(input, i);
    auto factory = [&fp, input] {
      swifi::WorkerContext ctx;
      gpusim::DeviceProps props;
      props.global_mem_words = 1u << 16;
      props.memory_model = fp.mem_model;
      ctx.device = std::make_unique<gpusim::Device>(props);
      std::vector<BufferJob::Buffer> bufs(2);
      bufs[0].data.assign(kBufWords, 0u);  // out
      bufs[1].data = input;                // in
      ctx.job = std::make_unique<BufferJob>(
          std::move(bufs),
          std::vector<BufferJob::Arg>{BufferJob::Arg::buf(0), BufferJob::Arg::buf(1),
                                      BufferJob::Arg::val(Value::i32(kBufWords))},
          fp.cfg, /*output_buffer=*/0, DType::F32);
      return ctx;
    };

    const workloads::Requirement req{};  // Exact
    swifi::CampaignConfig ccfg;
    ccfg.hang_floor = 20'000;

    swifi::CampaignExecutor one(1);
    const auto base = one.run_memory_faults(prog, factory, seed + i, 40, 2, req, ccfg);
    ASSERT_EQ(base.per_fault.size(), 40u);

    for (const int workers : {2, 8}) {
      swifi::CampaignExecutor ex(workers);
      const auto res = ex.run_memory_faults(prog, factory, seed + i, 40, 2, req, ccfg);
      ASSERT_EQ(res.per_fault, base.per_fault)
          << "worker count " << workers << " diverged on fuzz program " << i;
    }
    // `base` ran the default (threaded) engine; the oracle must agree.
    swifi::CampaignConfig rcfg = ccfg;
    rcfg.engine = gpusim::ExecEngine::Reference;
    swifi::CampaignExecutor ref_ex(4);
    const auto ref = ref_ex.run_memory_faults(prog, factory, seed + i, 40, 2, req, rcfg);
    ASSERT_EQ(ref.per_fault, base.per_fault)
        << "reference-engine campaign diverged on fuzz program " << i;
  }
  EXPECT_EQ(campaigns, 3u) << "not enough clean fuzz programs for campaigns";
}

TEST(DifferentialFuzz, SanitizedCampaignsDeterministicAcrossWorkers) {
  // CampaignConfig::sanitize over racy fuzz programs: per-trial outcomes are
  // worker-count invariant, equal to the same sanitized campaign on the
  // reference engine (the oracle), and against the unsanitized campaign
  // each trial either keeps its outcome or is reclassified into a sanitizer
  // class.
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0004);
  using workloads::BufferJob;

  std::size_t campaigns = 0, reclassified = 0;
  for (std::size_t i = 0; campaigns < 3 && i < 64; ++i) {
    Rng rng = Rng::fork(seed, 2'000'000 + i);
    ProgramGen gen(rng, /*racy=*/true);
    const FuzzProgram fp = gen.gen();
    const BytecodeProgram prog = lower(fp.kernel);

    // Only campaign on programs whose golden run completes (divergent
    // barriers in the corpus make many of them deadlock outright).
    if (run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false).res.status !=
        gpusim::LaunchStatus::Ok)
      continue;
    ++campaigns;

    std::vector<std::uint32_t> input(kBufWords);
    stage_input(input, i);
    auto factory = [&fp, input] {
      swifi::WorkerContext ctx;
      gpusim::DeviceProps props;
      props.global_mem_words = 1u << 16;
      props.memory_model = fp.mem_model;
      props.warp_size = fp.warp_size;
      ctx.device = std::make_unique<gpusim::Device>(props);
      std::vector<BufferJob::Buffer> bufs(2);
      bufs[0].data.assign(kBufWords, 0u);  // out
      bufs[1].data = input;                // in
      ctx.job = std::make_unique<BufferJob>(
          std::move(bufs),
          std::vector<BufferJob::Arg>{BufferJob::Arg::buf(0), BufferJob::Arg::buf(1),
                                      BufferJob::Arg::val(Value::i32(kBufWords))},
          fp.cfg, /*output_buffer=*/0, DType::F32);
      return ctx;
    };

    const workloads::Requirement req{};  // Exact
    swifi::CampaignConfig plain;
    plain.hang_floor = 20'000;
    swifi::CampaignConfig sanitized = plain;
    sanitized.sanitize = true;

    swifi::CampaignExecutor one(1);
    const auto off = one.run_memory_faults(prog, factory, seed + i, 40, 2, req, plain);
    const auto on = one.run_memory_faults(prog, factory, seed + i, 40, 2, req, sanitized);
    ASSERT_EQ(off.per_fault.size(), on.per_fault.size());
    for (std::size_t t = 0; t < on.per_fault.size(); ++t) {
      if (on.per_fault[t] == swifi::Outcome::RaceDetected ||
          on.per_fault[t] == swifi::Outcome::BarrierDivergence)
        ++reclassified;
      else
        ASSERT_EQ(on.per_fault[t], off.per_fault[t])
            << "sanitize flag changed a non-hazard outcome, program " << i
            << " trial " << t;
    }

    for (const int workers : {2, 8}) {
      swifi::CampaignExecutor ex(workers);
      const auto res =
          ex.run_memory_faults(prog, factory, seed + i, 40, 2, req, sanitized);
      ASSERT_EQ(res.per_fault, on.per_fault)
          << "sanitized campaign with " << workers
          << " workers diverged on fuzz program " << i;
    }
    // `on` ran the default (threaded) engine; the oracle must agree.
    swifi::CampaignConfig sanitized_ref = sanitized;
    sanitized_ref.engine = gpusim::ExecEngine::Reference;
    const auto ref =
        swifi::CampaignExecutor(4).run_memory_faults(prog, factory, seed + i, 40, 2, req,
                                                     sanitized_ref);
    ASSERT_EQ(ref.per_fault, on.per_fault)
        << "reference-engine sanitized campaign diverged on fuzz program " << i;
  }
  EXPECT_EQ(campaigns, 3u) << "not enough clean racy programs for campaigns";
  EXPECT_GT(reclassified, 0u)
      << "no trial was ever reclassified as race/divergence";
}

TEST(DifferentialFuzz, EnginesAgreeUnderEccProtection) {
  // Protected-mode corpus: every program runs with a raw memory-cell upset
  // planted after staging (single data bit, check bit, or a double-bit
  // codeword) in a word it reads (read_word_upsets) on a Hsiao SEC-DED
  // device.  Every engine routes global memory
  // through the EDC-checked load/store path (flat_arena() is empty), and
  // must stay bitwise identical on every observable — including the
  // correction counters, the EccUncorrectable status, the scrubbed data
  // arena, and the shadow check arena.  So must segment replay of the same
  // upset launch, with and without the journal's net effect.
  const std::uint64_t seed = env_u64("HAUBERK_FUZZ_SEED", 0xfa57'0005);
  const auto programs =
      static_cast<std::size_t>(env_u64("HAUBERK_FUZZ_PROGRAMS", 400)) / 2;

  std::uint64_t corrected = 0;
  std::size_t uncorrectable_runs = 0, replays = 0, one_step = 0;
  for (std::size_t i = 0; i < programs; ++i) {
    Rng rng = Rng::fork(seed, i);
    ProgramGen gen(rng);
    const FuzzProgram fp = gen.gen();
    const BytecodeProgram prog = lower(fp.kernel);
    constexpr auto kProt = gpusim::ecc::Scheme::Hsiao;
    const std::vector<Upset> upsets = read_word_upsets(prog, fp, i);
    // On a flat device, the upset launch replayed on Threaded against the
    // clean golden journal, unarmed: with its net effect (one step where
    // nothing can differ) and without it (segment by segment).  Both must
    // equal the reference's full launch.
    const auto replay = [&](gpusim::ecc::Scheme scheme, const EngineRun& oracle,
                            const char* one_phase, const char* seg_phase) {
      if (fp.mem_model != gpusim::MemoryModel::FlatGpu) return;
      const std::vector<Upset> clean;
      gpusim::LaunchJournal golden;
      if (run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false, false, scheme, nullptr,
                     &golden, &clean)
              .res.status != gpusim::LaunchStatus::Ok)
        return;
      gpusim::LaunchJournal per_segment = golden;
      per_segment.net = {};
      FiArm unarmed;
      unarmed.armed = false;
      unarmed.journal = &golden;
      const EngineRun one =
          run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false, false, scheme, &unarmed,
                     nullptr, &upsets);
      expect_identical(oracle, one, fp, i, one_phase);
      unarmed.journal = &per_segment;
      const EngineRun seg =
          run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false, false, scheme, &unarmed,
                     nullptr, &upsets);
      expect_identical(oracle, seg, fp, i, seg_phase);
      EXPECT_FALSE(seg.res.replayed_in_one_step) << "program " << i;
      ++replays;
      one_step += one.res.replayed_in_one_step;
    };

    const EngineRun ref = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, false, false,
                                     kProt, nullptr, nullptr, &upsets);
    const EngineRun thr = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false, false,
                                     kProt, nullptr, nullptr, &upsets);
    expect_identical(ref, thr, fp, i, "ecc threaded");
    const EngineRun san =
        run_engine(prog, fp, kSanitized, i, false, false, kProt, nullptr, nullptr, &upsets);
    expect_identical(ref, san, fp, i, "ecc sanitizer");
    replay(kProt, ref, "ecc replayed in one step", "ecc replayed per segment");

    // Hamming spot check on a slice: same contract, different H matrix (and
    // so different correctable syndromes for the one-step rule).
    if (i % 11 == 0) {
      const EngineRun hr = run_engine(prog, fp, gpusim::ExecEngine::Reference, i, false, false,
                                      gpusim::ecc::Scheme::Hamming, nullptr, nullptr, &upsets);
      const EngineRun ht = run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false, false,
                                      gpusim::ecc::Scheme::Hamming, nullptr, nullptr, &upsets);
      expect_identical(hr, ht, fp, i, "ecc hamming");
      replay(gpusim::ecc::Scheme::Hamming, hr, "ecc hamming replayed in one step",
             "ecc hamming replayed per segment");
    }

    corrected += ref.ecc_corrected;
    uncorrectable_runs += ref.res.status == gpusim::LaunchStatus::EccUncorrectable;
    if (::testing::Test::HasFailure()) break;
  }
  // The corpus must actually exercise both halves of the SEC-DED contract.
  EXPECT_GT(corrected, 0u) << "no planted fault was ever corrected";
  EXPECT_GT(uncorrectable_runs, 0u) << "no double-bit fault was ever detected";
  EXPECT_GT(one_step, 0u) << "no replay took the net effect in one step";
  EXPECT_LT(one_step, replays) << "every replay took the net effect in one step";
}

TEST(DifferentialFuzz, ProtectionNoneCampaignMatchesPinnedGoldens) {
  // Golden regression for the unprotected path: the exact per-trial outcome
  // sequence of a fixed memory-fault campaign, pinned byte for byte.  The
  // protected mode consumes extra RNG draws and reclassifies outcomes; none
  // of that may leak into protection=none campaigns, whose result logs and
  // checkpoints must stay bitwise valid across the ECC change.
  const std::uint64_t seed = 0xfa57'0002;  // deliberately not env-overridable
  using workloads::BufferJob;

  for (std::size_t i = 0; i < 64; ++i) {
    Rng rng = Rng::fork(seed, 1'000'000 + i);
    ProgramGen gen(rng);
    FuzzProgram fp = gen.gen();
    fp.mem_model = gpusim::MemoryModel::FlatGpu;
    const BytecodeProgram prog = lower(fp.kernel);
    if (run_engine(prog, fp, gpusim::ExecEngine::Threaded, i, false).res.status !=
        gpusim::LaunchStatus::Ok)
      continue;

    std::vector<std::uint32_t> input(kBufWords);
    stage_input(input, i);
    auto factory = [&fp, input](gpusim::ecc::Scheme prot) {
      return [&fp, input, prot] {
        swifi::WorkerContext ctx;
        gpusim::DeviceProps props;
        props.global_mem_words = 1u << 16;
        props.memory_model = fp.mem_model;
        props.protection = prot;
        ctx.device = std::make_unique<gpusim::Device>(props);
        std::vector<BufferJob::Buffer> bufs(2);
        bufs[0].data.assign(kBufWords, 0u);  // out
        bufs[1].data = input;                // in
        ctx.job = std::make_unique<BufferJob>(
            std::move(bufs),
            std::vector<BufferJob::Arg>{BufferJob::Arg::buf(0), BufferJob::Arg::buf(1),
                                        BufferJob::Arg::val(Value::i32(kBufWords))},
            fp.cfg, /*output_buffer=*/0, DType::F32);
        return ctx;
      };
    };

    const workloads::Requirement req{};  // Exact
    swifi::CampaignConfig ccfg;
    ccfg.hang_floor = 20'000;
    swifi::CampaignExecutor one(1);
    const auto res = one.run_memory_faults(prog, factory(gpusim::ecc::Scheme::None),
                                           seed + i, 40, 2, req, ccfg);

    // Pinned from the pre-ECC harness: Masked=1, Undetected=4 (swifi::Outcome
    // values are part of the result-log format and never renumber).
    const std::uint8_t golden[40] = {
        4, 1, 4, 1, 1, 1, 4, 1, 4, 4, 1, 4, 4, 1, 1, 4, 1, 4, 4, 4,
        4, 4, 1, 1, 1, 4, 1, 1, 4, 4, 4, 4, 4, 4, 1, 4, 1, 4, 1, 4,
    };
    ASSERT_EQ(res.per_fault.size(), std::size(golden));
    for (std::size_t t = 0; t < std::size(golden); ++t)
      EXPECT_EQ(static_cast<std::uint8_t>(res.per_fault[t]), golden[t])
          << "trial " << t << " diverged from the pre-ECC golden sequence";

    // The same campaign on a Hsiao device: two-bit data faults become
    // detected-uncorrectable, check-bit singles are corrected — silent data
    // corruption and crashes must both be gone.
    swifi::CampaignConfig pcfg = ccfg;
    pcfg.protection = gpusim::ecc::Scheme::Hsiao;
    const auto prot = one.run_memory_faults(prog, factory(gpusim::ecc::Scheme::Hsiao),
                                            seed + i, 40, 2, req, pcfg);
    EXPECT_EQ(prot.counts.undetected, 0u);
    EXPECT_EQ(prot.counts.failure, 0u);
    EXPECT_GT(prot.counts.ecc_uncorrectable, 0u);
    return;  // first clean program is the pinned one
  }
  FAIL() << "no clean fuzz program found for the golden campaign";
}
