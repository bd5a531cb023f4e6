// Threaded-code engine tests: decode/emitter completeness (every kir opcode
// has a single-op translation, sanitized plans included), compiler fusion
// behavior on the real workload kernels, bitwise engine equality against
// the reference interpreter (complementing test_differential_fuzz's random
// programs and test_golden_outputs' pinned digests), watchdog-boundary
// delegation, the routing of instrumented launches to the reference
// interpreter, the launch-plan cache's exact keying (engine, sanitize bit,
// detector value types, in-place program and cost-model edits), and the
// FI streams (armed SWIFI trials on the FI and FI&FT builds of every
// workload against the reference interpreter and against launches that run
// every thread with FIHooks live).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/cost.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/threaded.hpp"
#include "swifi/campaign.hpp"
#include "swifi/injector.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::workloads;

namespace {

constexpr std::uint64_t kDatasetSeed = 20260806;

struct RunObs {
  gpusim::LaunchStatus status{};
  bool sdc = false;
  std::uint64_t cycles = 0, loop_cycles = 0, instructions = 0;
  std::vector<std::uint32_t> output;

  bool operator==(const RunObs&) const = default;
};

// One job of `w` on `dev`, memory reset first, so a warm device observes
// what a fresh one would.
RunObs run_on(gpusim::Device& dev, Workload& w, const Dataset& ds,
              const kir::BytecodeProgram& prog, gpusim::LaunchHooks* hooks,
              std::uint64_t watchdog = 50'000'000) {
  dev.reset_memory();
  auto job = w.make_job(ds);
  const auto args = job->setup(dev);
  gpusim::LaunchOptions opts;
  opts.hooks = hooks;
  opts.watchdog_instructions = watchdog;
  const auto res = dev.launch(prog, job->config(), args, opts);
  RunObs o;
  o.status = res.status;
  o.sdc = res.sdc_alarm;
  o.cycles = res.cycles;
  o.loop_cycles = res.loop_cycles;
  o.instructions = res.instructions;
  if (res.status == gpusim::LaunchStatus::Ok) o.output = job->read_output(dev).words;
  return o;
}

RunObs run_workload(Workload& w, const Dataset& ds, const kir::BytecodeProgram& prog,
                    gpusim::ExecEngine engine, gpusim::LaunchHooks* hooks,
                    std::uint64_t watchdog = 50'000'000) {
  gpusim::Device dev;
  dev.set_engine(engine);
  return run_on(dev, w, ds, prog, hooks, watchdog);
}

std::vector<std::unique_ptr<Workload>> all_workloads() {
  std::vector<std::unique_ptr<Workload>> all;
  for (auto& w : hpc_suite()) all.push_back(std::move(w));
  for (auto& w : graphics_suite()) all.push_back(std::move(w));
  for (auto& w : cpu_suite()) all.push_back(std::move(w));
  all.push_back(make_cpu_matmul());
  return all;
}

}  // namespace

// Every DecodedOp has a threaded single-op mirror at the same numeric value
// with a real name, and compile_threaded translates every one of them —
// adding an opcode without wiring the threaded engine fails here, not at
// fuzz time.
TEST(Threaded, EveryDecodedOpHasAThreadedEmitter) {
  using kir::DecodedOp;
  using kir::TOp;
  const auto n_single = static_cast<std::uint8_t>(DecodedOp::Invalid) + 1;
  ASSERT_EQ(n_single, kir::kTOpFusedBegin);
  kir::DecodedProgram d;
  for (std::uint8_t v = 0; v < n_single; ++v) {
    const auto op = static_cast<DecodedOp>(v);
    const TOp top = kir::threaded_single_op(op);
    EXPECT_EQ(static_cast<std::uint8_t>(top), v);
    EXPECT_FALSE(kir::top_is_fused(top));
    EXPECT_STRNE(kir::top_name(top), "?") << "unnamed TOp " << int(v);
    // Barrier separators prevent any fusion pattern from matching and end
    // every straight line, so each op is a one-op region that stays a
    // single: the compiled stream must be the identity translation, slot
    // for slot.
    kir::DecodedInstr in;
    in.op = op;
    kir::DecodedInstr barrier;
    barrier.op = DecodedOp::Barrier;
    d.code.push_back(in);
    d.code.push_back(barrier);
    d.code.push_back(barrier);
  }
  const kir::ThreadedProgram tp = kir::compile_threaded(d, 8, true);
  ASSERT_EQ(tp.code.size(), d.code.size());
  EXPECT_EQ(tp.fused_heads, 0u);
  for (std::size_t pc = 0; pc < d.code.size(); ++pc) {
    EXPECT_EQ(tp.code[pc].op, static_cast<std::uint8_t>(d.code[pc].op)) << "pc " << pc;
    EXPECT_EQ(tp.code[pc].len, 1) << "pc " << pc;
  }
  // A sanitized plan differs only in its shared accesses, which become the
  // shadow-observing singles.
  const kir::ThreadedProgram st = kir::compile_threaded(d, 8, true, kir::MemInstr::Sanitize);
  for (std::size_t pc = 0; pc < d.code.size(); ++pc) {
    TOp want = kir::threaded_single_op(d.code[pc].op);
    if (want == TOp::LoadS) want = TOp::SanLoadS;
    if (want == TOp::StoreS) want = TOp::SanStoreS;
    EXPECT_EQ(st.code[pc].op, static_cast<std::uint16_t>(want)) << "pc " << pc;
  }
  // A recording plan turns every memory access into its Rec single, a
  // write-tracking plan only the stores and atomics.  Both turn backward
  // jumps (here every jump: the targets are all 0) into their snapshot-point
  // forms, and a recording plan counts its FIHook.  A net-effect plan turns
  // only the global accesses, and nothing else.
  const auto rec = [](kir::DecodedOp op, kir::MemInstr mem) {
    const bool record = mem == kir::MemInstr::Record;
    const bool net = mem == kir::MemInstr::NetEffect;
    switch (op) {
      case kir::DecodedOp::LoadG: return record || net ? TOp::RecLoadG : TOp::LoadG;
      case kir::DecodedOp::LoadS: return record ? TOp::RecLoadS : TOp::LoadS;
      case kir::DecodedOp::StoreG: return TOp::RecStoreG;
      case kir::DecodedOp::StoreS: return net ? TOp::StoreS : TOp::RecStoreS;
      case kir::DecodedOp::AtomicAddF: return TOp::RecAtomicAddF;
      case kir::DecodedOp::AtomicAddI: return TOp::RecAtomicAddI;
      case kir::DecodedOp::Jmp: return net ? TOp::Jmp : TOp::JmpBk;
      case kir::DecodedOp::Jz: return net ? TOp::Jz : TOp::JzBk;
      case kir::DecodedOp::FIHook: return record ? TOp::RecFIHook : TOp::FIHook;
      default: return kir::threaded_single_op(op);
    }
  };
  for (const auto mem :
       {kir::MemInstr::Record, kir::MemInstr::Writes, kir::MemInstr::NetEffect}) {
    const kir::ThreadedProgram rt = kir::compile_threaded(d, 8, true, mem);
    for (std::size_t pc = 0; pc < d.code.size(); ++pc)
      EXPECT_EQ(rt.code[pc].op, static_cast<std::uint16_t>(rec(d.code[pc].op, mem)))
          << "pc " << pc;
  }
  // Every fused opcode has a name too (the dispatch table is fully wired);
  // the sanitizer, recorded-access, snapshot-point and counted-FIHook ops
  // close the table and are not counted as fused.
  const auto san_begin = static_cast<unsigned>(TOp::SanLoadS);
  for (unsigned v = kir::kTOpFusedBegin; v < kir::kNumTOps; ++v) {
    EXPECT_EQ(kir::top_is_fused(static_cast<TOp>(v)), v < san_begin) << "TOp " << v;
    EXPECT_STRNE(kir::top_name(static_cast<TOp>(v)), "?") << "unnamed TOp " << v;
  }
}

// Recording and write-tracking streams keep their runs: a recorded access
// inside a run is its naked Nk_Rec form, and no fused head or tile covers
// one (each must reach the recorder or the delta set on its own).  On every
// workload's FI&FT build the recording stream has no plain memory access
// left, and the write-tracking stream no plain store or atomic.
TEST(Threaded, RecordedAccessesRunNakedAndNeverFuse) {
  using kir::TOp;
  for (auto& w : all_workloads()) {
    auto v = core::build_variants(w->build_kernel(Scale::Tiny));
    const auto costs = gpusim::instruction_costs(v.fift, gpusim::CostModel{},
                                                 gpusim::DeviceProps{}.regs_per_thread, false);
    const kir::DecodedProgram d = kir::decode_program(v.fift, costs);
    const kir::ThreadedProgram plain = kir::compile_threaded(d, v.fift.num_slots, true);
    for (const auto mem : {kir::MemInstr::Record, kir::MemInstr::Writes}) {
      const kir::ThreadedProgram tp = kir::compile_threaded(d, v.fift.num_slots, true, mem);
      const bool record = mem == kir::MemInstr::Record;
      std::size_t naked = 0;
      for (const kir::ThreadedInstr& ti : tp.code) {
        const auto op = static_cast<TOp>(ti.op);
        const std::string name = kir::top_name(op);
        naked += name.rfind("Nk_Rec", 0) == 0;
        EXPECT_EQ(name.find("LoadBinStore"), std::string::npos) << w->name();
        for (const TOp banned : {TOp::StoreG, TOp::StoreS, TOp::AtomicAddF, TOp::AtomicAddI,
                                 TOp::Nk_StoreG, TOp::Nk_StoreS, TOp::Nk_AtomicAddF,
                                 TOp::Nk_AtomicAddI})
          EXPECT_NE(op, banned) << w->name();
        if (record && name.find("Load") != std::string::npos) {
          EXPECT_NE(name.find("RecLoad"), std::string::npos) << w->name() << " " << name;
        }
      }
      EXPECT_GT(naked, 0u) << w->name();
      // The same regions form runs (a LoadBinStore triple becomes one).
      EXPECT_GE(tp.run_heads, plain.run_heads) << w->name();
    }
  }
}

// The threaded engine must be bitwise identical to the reference engine on
// every workload, base and FT variants, including cycle/instruction totals.
TEST(Threaded, MatchesReferenceEngineOnAllWorkloads) {
  for (auto& w : all_workloads()) {
    const Dataset ds = w->make_dataset(kDatasetSeed, Scale::Tiny);
    auto v = core::build_variants(w->build_kernel(Scale::Tiny));

    const RunObs base_ref =
        run_workload(*w, ds, v.baseline, gpusim::ExecEngine::Reference, nullptr);
    const RunObs base_thr =
        run_workload(*w, ds, v.baseline, gpusim::ExecEngine::Threaded, nullptr);
    EXPECT_EQ(base_ref, base_thr) << w->name() << " baseline";

    core::ControlBlock cb_ref(v.ft);
    const RunObs ft_ref = run_workload(*w, ds, v.ft, gpusim::ExecEngine::Reference, &cb_ref);
    core::ControlBlock cb_thr(v.ft);
    const RunObs ft_thr = run_workload(*w, ds, v.ft, gpusim::ExecEngine::Threaded, &cb_thr);
    EXPECT_EQ(ft_ref, ft_thr) << w->name() << " FT";
  }
}

// Watchdog boundaries must land on the same instruction with the same
// partial cycle charge in both engines — including budgets that expire in
// the *middle* of a fused region, where the threaded engine delegates the
// slice to the reference interpreter.  Sweep a window of budgets around
// full completion and a window of tiny budgets (mid-loop-head boundaries).
TEST(Threaded, WatchdogBoundariesMatchReferenceEngine) {
  auto workloads = all_workloads();
  ASSERT_FALSE(workloads.empty());
  Workload& w = *workloads.front();  // CP: flat memory, dense loop fusion
  const Dataset ds = w.make_dataset(kDatasetSeed, Scale::Tiny);
  auto v = core::build_variants(w.build_kernel(Scale::Tiny));

  const RunObs full = run_workload(w, ds, v.baseline, gpusim::ExecEngine::Reference, nullptr);
  ASSERT_EQ(full.status, gpusim::LaunchStatus::Ok);

  std::vector<std::uint64_t> budgets;
  for (std::uint64_t b = 1; b <= 40; ++b) budgets.push_back(b);
  for (std::uint64_t b = 90; b <= 130; ++b) budgets.push_back(b);
  for (auto b : budgets) {
    const RunObs r = run_workload(w, ds, v.baseline, gpusim::ExecEngine::Reference, nullptr, b);
    const RunObs t = run_workload(w, ds, v.baseline, gpusim::ExecEngine::Threaded, nullptr, b);
    EXPECT_EQ(r, t) << "watchdog " << b;
  }
}

// Launches that profile execution counts, cost SIMT serialization or run
// under an installed hardware fault model take the reference interpreter on
// a Threaded device (Device::launch), so they must match a Reference device
// bitwise: profile, SIMT cycles, cycle/instruction totals, memory image.
TEST(Threaded, InstrumentedLaunchesRouteToReference) {
  struct Obs {
    gpusim::LaunchStatus status{};
    std::uint64_t cycles = 0, instructions = 0, simt_cycles = 0;
    std::vector<std::uint64_t> counts;
    std::vector<std::uint32_t> mem;
    bool operator==(const Obs&) const = default;
  };
  enum class Mode { Counts, Simt, Fault };
  auto run = [](Workload& w, const Dataset& ds, const kir::BytecodeProgram& prog,
                gpusim::ExecEngine engine, Mode mode) {
    gpusim::Device dev;
    dev.set_engine(engine);
    auto job = w.make_job(ds);
    const auto args = job->setup(dev);
    gpusim::LaunchOptions opts;
    opts.max_workers = 1;  // the fault model's op counter is launch-global
    Obs o;
    if (mode == Mode::Counts) opts.instr_exec_counts = &o.counts;
    if (mode == Mode::Simt) opts.simt_cost = true;
    if (mode == Mode::Fault) {
      gpusim::DeviceFaultModel fm;
      fm.kind = gpusim::DeviceFaultModel::Kind::Intermittent;
      fm.component = gpusim::DeviceFaultModel::Component::FPU;
      fm.mask = 0x00400000;
      fm.period = 7;
      fm.duration_ops = 40;
      dev.install_fault(fm);
    }
    const auto res = dev.launch(prog, job->config(), args, opts);
    o.status = res.status;
    o.cycles = res.cycles;
    o.instructions = res.instructions;
    o.simt_cycles = res.simt_cycles;
    o.mem = dev.mem().image();
    return o;
  };
  auto workloads = all_workloads();
  for (std::size_t i = 0; i < 3; ++i) {  // CP, MRI-FHD, MRI-Q: float-heavy loops
    Workload& w = *workloads[i];
    const Dataset ds = w.make_dataset(kDatasetSeed, Scale::Tiny);
    auto v = core::build_variants(w.build_kernel(Scale::Tiny));
    for (const Mode mode : {Mode::Counts, Mode::Simt, Mode::Fault}) {
      const Obs ref = run(w, ds, v.baseline, gpusim::ExecEngine::Reference, mode);
      const Obs thr = run(w, ds, v.baseline, gpusim::ExecEngine::Threaded, mode);
      EXPECT_EQ(ref, thr) << w.name() << " mode " << static_cast<int>(mode);
      if (mode == Mode::Counts) {
        EXPECT_FALSE(thr.counts.empty());
      } else if (mode == Mode::Simt) {
        EXPECT_GT(thr.simt_cycles, 0u);
      }
    }
    // The fault model really corrupted something: the plain launch differs.
    const Obs plain = run(w, ds, v.baseline, gpusim::ExecEngine::Threaded, Mode::Simt);
    const Obs faulty = run(w, ds, v.baseline, gpusim::ExecEngine::Threaded, Mode::Fault);
    EXPECT_NE(plain.mem, faulty.mem) << w.name();
  }
}

// The workload kernels' hot idioms must actually fuse — this pins the
// compiler's coverage so a lowering change that silently defeats fusion
// (and the engine's speed) is caught by a test, not a benchmark regression.
TEST(Threaded, WorkloadKernelsFuseTheirLoops) {
  for (auto& w : all_workloads()) {
    auto v = core::build_variants(w->build_kernel(Scale::Tiny));
    gpusim::Device dev;
    const auto plan_costs = std::vector<std::uint32_t>(v.baseline.code.size(), 1);
    const kir::DecodedProgram d = kir::decode_program(v.baseline, plan_costs);
    const kir::ThreadedProgram tp = kir::compile_threaded(d, v.baseline.num_slots, true);
    EXPECT_GT(tp.fused_heads, 0u) << w->name();
    // Every kernel in the suites is loop-based: the canonical Const/Cmp/Jz
    // head and the back-edge must both fuse.  (cpu-linkedlist is the one
    // exception for the head: its exit test is `cur != 0 && steps < n`, so
    // the Jz consumes a LAndW, not a compare.)
    const auto fam = [&](kir::FuseFamily f) {
      return tp.fuse_counts[static_cast<std::size_t>(f)];
    };
    if (w->name() != "cpu-linkedlist") {
      EXPECT_GT(fam(kir::FuseFamily::ConstCmpJz) + fam(kir::FuseFamily::CmpJz), 0u)
          << w->name();
    }
    EXPECT_GT(fam(kir::FuseFamily::ConstAddJmp) + fam(kir::FuseFamily::AddJmp), 0u)
        << w->name();
    // Every kernel body has at least one straight-line region long enough
    // to compile as a zero-accounting run.
    EXPECT_GT(tp.run_heads, 0u) << w->name();
  }
}

// Integer negation and |x| of INT32_MIN wrap to 0x80000000 (two's
// complement, no signed overflow) on both engines.  The kernel places abs
// and neg both inside a straight-line run (naked handlers) and on a branch
// arm (single handlers); the reference engine evaluates them generically.
TEST(Threaded, IntegerAbsAndNegOfMinIntWrapOnBothEngines) {
  kir::KernelBuilder kb("absmin");
  auto x = kb.param_i32("x");
  auto out = kb.param_ptr("out");
  kb.store(out, kir::abs_(x));
  kb.store(out + kir::i32c(1), -x);
  auto a = kb.let("a", kir::i32c(0));
  kb.if_then_else(x < kir::i32c(0), [&] { kb.assign(a, kir::abs_(x)); },
                  [&] { kb.assign(a, -x); });
  kb.store(out + kir::i32c(2), a);
  const auto prog = kir::lower(kb.build());

  // The threaded stream really holds both handler forms.
  const std::vector<std::uint32_t> costs(prog.code.size(), 1);
  const auto tp = kir::compile_threaded(kir::decode_program(prog, costs), prog.num_slots, true);
  const auto has = [&](kir::TOp op) {
    for (const auto& t : tp.code)
      if (t.op == static_cast<std::uint16_t>(op) ||
          (t.op == static_cast<std::uint16_t>(kir::TOp::RunHead) &&
           t.d == static_cast<std::uint16_t>(op)))
        return true;
    return false;
  };
  EXPECT_TRUE(has(kir::TOp::AbsI));
  EXPECT_TRUE(has(kir::TOp::Nk_AbsI));

  for (const auto engine : {gpusim::ExecEngine::Reference, gpusim::ExecEngine::Threaded}) {
    for (const std::int32_t in : {INT32_MIN, -5}) {
      gpusim::Device dev;
      dev.set_engine(engine);
      const auto oa = dev.mem().alloc(3, gpusim::AllocClass::I32Data);
      const kir::Value args[] = {kir::Value::i32(in), kir::Value::ptr(oa)};
      ASSERT_EQ(dev.launch(prog, gpusim::LaunchConfig{}, args).status,
                gpusim::LaunchStatus::Ok);
      std::vector<std::uint32_t> got(3);
      dev.mem().copy_out(oa, got);
      const std::uint32_t want = in == INT32_MIN ? 0x80000000u : 5u;
      EXPECT_EQ(got, (std::vector<std::uint32_t>{want, want, want}))
          << gpusim::exec_engine_name(engine) << " x=" << in;
    }
  }
}

// Run formation on a synthetic straight line: one RunHead charging the
// whole region, naked interiors, and suffix-refund fields on crashable ops.
TEST(Threaded, StraightLineCompilesToRun) {
  using kir::DecodedOp;
  using kir::TOp;
  kir::DecodedProgram d;
  auto push = [&](DecodedOp op, std::uint32_t cost) {
    kir::DecodedInstr in;
    in.op = op;
    in.cost = cost;
    d.code.push_back(in);
  };
  push(DecodedOp::Mov, 1);     // head (non-crashing single)
  push(DecodedOp::AddW, 2);    // naked
  push(DecodedOp::LoadG, 3);   // naked crashable -> refund fields
  push(DecodedOp::MulF, 4);    // naked
  push(DecodedOp::Halt, 1);    // terminator, outside the run
  const kir::ThreadedProgram tp = kir::compile_threaded(d, 8, true);
  ASSERT_EQ(tp.run_heads, 1u);
  EXPECT_EQ(tp.run_covered, 4u);
  EXPECT_EQ(tp.code[0].op, static_cast<std::uint16_t>(TOp::RunHead));
  EXPECT_EQ(tp.code[0].d, static_cast<std::uint16_t>(TOp::Nk_Mov));
  EXPECT_EQ(tp.code[0].len, 4);
  EXPECT_EQ(tp.code[0].cost, 1u + 2u + 3u + 4u);
  // [AddW][LoadG] tiles into a single naked pair; the LoadG is the crashable
  // sub-op, so the tile's refund fields cover the suffix after it (MulF).
  EXPECT_EQ(tp.code[1].op, static_cast<std::uint16_t>(TOp::NkBinLoad_AddW));
  EXPECT_EQ(tp.code[1].len, 1);    // one op (MulF) after the load in the run
  EXPECT_EQ(tp.code[1].cost, 4u);  // its cost, refunded if the load crashes
  EXPECT_EQ(tp.code[3].op, static_cast<std::uint16_t>(TOp::Nk_MulF));
  EXPECT_EQ(tp.code[4].op, static_cast<std::uint16_t>(TOp::Halt));
}

// Flipping the engine or the sanitize bit on a live device mid-campaign
// must never run a stream meant for the previous setting (the reference
// runs no stream, a sanitized launch runs the stream with shadow-observing
// shared accesses): each launch picks its engine and its memory mode's
// stream from the one cached plan, so every setting observes the same
// results and only the first launch misses.
TEST(Threaded, EngineFlipMidCampaignNeverServesStalePlan) {
  auto workloads = all_workloads();
  Workload& w = *workloads.front();
  const Dataset ds = w.make_dataset(kDatasetSeed, Scale::Tiny);
  auto v = core::build_variants(w.build_kernel(Scale::Tiny));

  gpusim::Device dev;
  auto job = w.make_job(ds);
  const auto args = job->setup(dev);

  using gpusim::ExecEngine;
  RunObs per_setting[4];
  const std::pair<ExecEngine, bool> seq[] = {
      {ExecEngine::Reference, false}, {ExecEngine::Threaded, false},
      {ExecEngine::Threaded, true},   {ExecEngine::Reference, true},
      {ExecEngine::Threaded, false},  {ExecEngine::Threaded, true},
      {ExecEngine::Reference, true},  {ExecEngine::Reference, false}};
  for (const auto& [engine, sanitize] : seq) {
    dev.set_engine(engine);
    dev.set_sanitize(sanitize);
    dev.reset_memory();
    job->setup(dev);
    const auto res = dev.launch(v.baseline, job->config(), args, {});
    ASSERT_EQ(res.status, gpusim::LaunchStatus::Ok);
    RunObs o;
    o.status = res.status;
    o.sdc = res.sdc_alarm;
    o.cycles = res.cycles;
    o.loop_cycles = res.loop_cycles;
    o.instructions = res.instructions;
    o.output = job->read_output(dev).words;
    RunObs& pinned = per_setting[2 * static_cast<std::size_t>(engine) + (sanitize ? 1 : 0)];
    if (pinned.output.empty())
      pinned = o;
    else
      EXPECT_EQ(pinned, o) << gpusim::exec_engine_name(engine) << " sanitize " << sanitize;
  }
  // All settings observed identical results...
  for (const RunObs& o : per_setting) EXPECT_EQ(per_setting[0], o);
  // ...from one plan: neither the engine nor the sanitize bit is a plan
  // input (the sanitized stream is one of the plan's memory modes), so only
  // the first launch missed.
  EXPECT_EQ(dev.plan_cache_misses(), 1u);
  EXPECT_EQ(dev.plan_cache_hits(), 7u);
}

namespace {

// Records which value types each detector's check_range calls carried.
class RangeTypeRecorder : public gpusim::LaunchHooks {
 public:
  bool check_range(int detector, kir::Value value) override {
    std::lock_guard<std::mutex> lk(mu_);
    seen_[detector].insert(value.type);
    return false;
  }
  [[nodiscard]] std::map<int, std::set<kir::DType>> seen() const { return seen_; }

 private:
  std::mutex mu_;
  std::map<int, std::set<kir::DType>> seen_;
};

std::map<int, std::set<kir::DType>> range_types(gpusim::Device& dev, Workload& w,
                                                const Dataset& ds,
                                                const kir::BytecodeProgram& prog) {
  RangeTypeRecorder rec;
  EXPECT_EQ(run_on(dev, w, ds, prog, &rec).status, gpusim::LaunchStatus::Ok);
  return rec.seen();
}

}  // namespace

// The decoder bakes each detector's value type into the plan, so a program
// that differs from a cached one only in detector value types must get its
// own plan: a warm device must hand check_range the new types, exactly as
// a fresh device does.
TEST(Threaded, DetectorValueTypeEditMissesThePlanCache) {
  int exercised = 0;
  for (auto& w : all_workloads()) {
    const Dataset ds = w->make_dataset(kDatasetSeed, Scale::Tiny);
    const auto v = core::build_variants(w->build_kernel(Scale::Tiny));
    gpusim::Device warm;
    if (range_types(warm, *w, ds, v.ft).empty()) continue;
    ++exercised;
    kir::BytecodeProgram retyped = v.ft;
    for (kir::DetectorMeta& d : retyped.detectors)
      d.value_type = d.value_type == kir::DType::F32 ? kir::DType::I32 : kir::DType::F32;
    const auto warm_types = range_types(warm, *w, ds, retyped);
    gpusim::Device fresh;
    EXPECT_EQ(warm_types, range_types(fresh, *w, ds, retyped)) << w->name();
    for (const auto& [detector, types] : warm_types)
      EXPECT_EQ(types, std::set<kir::DType>{retyped.detectors.at(detector).value_type})
          << w->name() << " detector " << detector;
    EXPECT_EQ(warm.plan_cache_misses(), 2u) << w->name();
  }
  EXPECT_GT(exercised, 0);
}

// An instruction edited in place (same program object, same size) and an
// edit through cost_model() both miss, and the warm device then observes
// exactly what a fresh device does.
TEST(Threaded, InPlaceProgramAndCostEditsMissThePlanCache) {
  auto workloads = all_workloads();
  Workload& w = *workloads.front();
  const Dataset ds = w.make_dataset(kDatasetSeed, Scale::Tiny);
  const kir::BytecodeProgram built = core::build_variants(w.build_kernel(Scale::Tiny)).baseline;
  kir::BytecodeProgram prog = built;
  const auto observe = [&](gpusim::Device& dev) { return run_on(dev, w, ds, prog, nullptr); };

  gpusim::Device warm;
  const RunObs original = observe(warm);
  EXPECT_EQ(observe(warm), original);  // unchanged program: a hit
  EXPECT_EQ(warm.plan_cache_misses(), 1u);
  EXPECT_EQ(warm.plan_cache_hits(), 1u);

  prog.code.front() = kir::Instr{kir::OpCode::Halt};  // same size, new first op
  const RunObs halted = observe(warm);
  EXPECT_EQ(warm.plan_cache_misses(), 2u);
  EXPECT_NE(halted, original);
  {
    gpusim::Device fresh;
    EXPECT_EQ(halted, observe(fresh));
  }

  prog = built;
  warm.cost_model().alu += 3;
  const RunObs costed = observe(warm);
  EXPECT_EQ(warm.plan_cache_misses(), 3u);
  EXPECT_NE(costed.cycles, original.cycles);
  gpusim::Device fresh;
  fresh.cost_model().alu += 3;
  EXPECT_EQ(costed, observe(fresh));
}

// FIHooks compiled away on a synthetic run: the hooks get no slot, the
// executed ops are right-aligned against the run's end with the RunHead
// skipping the gap, the tile the hook used to split re-forms, and the
// RunHead still charges the hooks.  A leading hook whose next op could
// crash stays as a Nop head.
TEST(Threaded, FISpecializationDropsUnarmedHooksFromRuns) {
  using kir::DecodedOp;
  using kir::TOp;
  kir::DecodedProgram d;
  auto push = [&](DecodedOp op, std::uint32_t cost, std::uint32_t aux = 0) {
    kir::DecodedInstr in;
    in.op = op;
    in.cost = cost;
    in.aux = aux;
    d.code.push_back(in);
  };
  push(DecodedOp::Mov, 1);        // 0: head
  push(DecodedOp::AddW, 2);       // 1
  push(DecodedOp::FIHook, 0, 0);  // 2: site 0
  push(DecodedOp::ChkXor, 3);     // 3: [AddW][ChkXor] once the hook is gone
  push(DecodedOp::FIHook, 0, 1);  // 4: site 1
  push(DecodedOp::LoadG, 5);      // 5: crashable
  push(DecodedOp::MulF, 4);       // 6
  push(DecodedOp::Halt, 1);       // 7: terminator
  auto op_at = [](const kir::ThreadedProgram& tp, std::size_t pc) {
    return static_cast<TOp>(tp.code[pc].op);
  };

  // Hooks live: they are dispatched naked and split the tiles.
  const kir::ThreadedProgram gen = kir::compile_threaded(d, 8, true);
  ASSERT_EQ(gen.run_heads, 1u);
  EXPECT_EQ(gen.fi_hooks, 2u);
  EXPECT_EQ(gen.fi_dropped, 0u);
  EXPECT_EQ(gen.code[0].skip, 0);
  EXPECT_EQ(op_at(gen, 2), TOp::Nk_FIHook);

  // Hooks off: both hooks dropped; 5 executed ops at slots 2..6.
  const kir::ThreadedProgram none =
      kir::compile_threaded(d, 8, true, kir::MemInstr::None, /*fi_hooks=*/false);
  ASSERT_EQ(none.run_heads, 1u);
  EXPECT_EQ(none.fi_dropped, 2u);
  EXPECT_EQ(none.fi_nops, 0u);
  EXPECT_EQ(op_at(none, 0), TOp::RunHead);
  EXPECT_EQ(none.code[0].len, 7);                        // hooks still charged
  EXPECT_EQ(none.code[0].cost, 1u + 2u + 3u + 5u + 4u);
  EXPECT_EQ(none.code[0].skip, 2);
  EXPECT_EQ(none.code[0].d, static_cast<std::uint16_t>(TOp::Nk_Mov));
  EXPECT_EQ(op_at(none, 3), TOp::NkBinChkXor_AddW);      // re-formed tile
  EXPECT_EQ(op_at(none, 5), TOp::NkLoadBin_MulF);
  EXPECT_EQ(none.code[5].len, 1);                        // refund: the MulF after the load
  EXPECT_EQ(none.code[5].cost, 4u);
  EXPECT_EQ(op_at(none, 7), TOp::Halt);

  // A run that would start at a crashable op keeps its leading hook as the
  // head; a lone hook outside any run becomes a Nop single.
  kir::DecodedProgram d2;
  auto push2 = [&](DecodedOp op, std::uint32_t cost) {
    kir::DecodedInstr in;
    in.op = op;
    in.cost = cost;
    d2.code.push_back(in);
  };
  push2(DecodedOp::Mov, 1);     // 0: single (region of one op before the Jmp)
  push2(DecodedOp::Jmp, 1);     // 1
  push2(DecodedOp::FIHook, 0);  // 2: run head, kept as Nk_Nop
  push2(DecodedOp::LoadG, 3);   // 3
  push2(DecodedOp::AddF, 2);    // 4
  push2(DecodedOp::Jmp, 1);     // 5
  push2(DecodedOp::FIHook, 0);  // 6: lone hook
  push2(DecodedOp::Halt, 1);    // 7
  d2.code[1].aux = 2;
  d2.code[5].aux = 6;
  const kir::ThreadedProgram lead =
      kir::compile_threaded(d2, 8, true, kir::MemInstr::None, /*fi_hooks=*/false);
  EXPECT_EQ(op_at(lead, 2), TOp::RunHead);
  EXPECT_EQ(lead.code[2].d, static_cast<std::uint16_t>(TOp::Nk_Nop));
  EXPECT_EQ(lead.code[2].skip, 0);
  EXPECT_EQ(op_at(lead, 6), TOp::Nop);
  EXPECT_EQ(lead.fi_dropped, 0u);
  EXPECT_EQ(lead.fi_nops, 2u);
}

namespace {

/// A SWIFI injector that reports the Generic filter — the threaded engine
/// then runs every thread on the stream with live FIHooks and calls fi_hook
/// at every FIHook —
/// and records every call's (site, value after injection) per thread.
class RecordingInjector : public swifi::InjectingHooks {
 public:
  using InjectingHooks::InjectingHooks;
  [[nodiscard]] gpusim::FIFilter fi_filter() const override { return {}; }
  bool fi_hook(std::uint32_t site, std::uint32_t thread, std::uint32_t& value) override {
    const bool hit = InjectingHooks::fi_hook(site, thread, value);
    const std::lock_guard<std::mutex> lk(mu_);
    seen[thread].emplace_back(site, value);
    return hit;
  }
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>> seen;

 private:
  std::mutex mu_;
};

/// Everything one armed trial launch exposes.
struct TrialObs {
  gpusim::LaunchStatus status{};
  std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0;
  bool sdc = false, cb_sdc = false, activated = false;
  std::vector<std::uint32_t> mem;
  std::vector<gpusim::SanitizerReport> reports;
  bool operator==(const TrialObs&) const = default;
};

TrialObs armed_launch(gpusim::Device& dev, swifi::TrialStage& stage, core::KernelJob& job,
                      const kir::BytecodeProgram& prog, core::ControlBlock* cb,
                      swifi::InjectingHooks& hooks, const swifi::FaultSpec& spec,
                      std::uint64_t watchdog) {
  hooks.arm(spec);
  const auto& args = stage.stage();
  if (cb) cb->reset_results();
  gpusim::LaunchOptions opts;
  opts.hooks = &hooks;
  opts.watchdog_instructions = watchdog;
  opts.max_workers = 1;
  const auto res = dev.launch(prog, job.config(), args, opts);
  TrialObs o;
  o.status = res.status;
  o.instructions = res.instructions;
  o.cycles = res.cycles;
  o.loop_cycles = res.loop_cycles;
  o.sdc = res.sdc_alarm;
  o.cb_sdc = cb && cb->sdc_detected();
  o.activated = hooks.activated();
  o.mem = dev.mem().image();
  o.reports = res.sanitizer_reports;
  return o;
}

}  // namespace

// Running unarmed threads with FIHooks compiled away is an optimization of
// the threaded engine only, so an armed trial must observe exactly what the
// reference interpreter (which ignores the filter) observes.  For the FI and FI&FT
// builds of every workload: every executed FI site x 2 masks x {first,
// last} occurrence, on Reference, Threaded and sanitized Threaded — same
// Outcome through run_one_fault, same activation, status, instruction,
// cycle and loop-cycle totals and memory image through a direct launch; the
// armed launch equals one with FIHooks live in every thread (an injector
// reporting Generic) on both Threaded settings, sanitizer reports
// included; and every FIHook call sees the same per-thread (site, value)
// sequence on the reference interpreter and the live-hook threaded stream.
TEST(Threaded, ArmedFIHooksMatchReferenceOnAllWorkloads) {
  using gpusim::ExecEngine;
  constexpr std::pair<ExecEngine, bool> kSettings[] = {
      {ExecEngine::Reference, false}, {ExecEngine::Threaded, false}, {ExecEngine::Threaded, true}};
  const char* const kNames[] = {"reference", "threaded", "threaded+sanitize"};
  std::size_t trials = 0, activated = 0, crashed = 0;
  for (auto& w : all_workloads()) {
    const Dataset ds = w->make_dataset(kDatasetSeed, Scale::Tiny);
    const auto v = core::build_variants(w->build_kernel(Scale::Tiny));
    gpusim::Device prof_dev;
    auto prof_job = w->make_job(ds);
    const core::ProfileData pd = core::profile(prof_dev, v, {prof_job.get()});
    const auto req = w->requirement();

    for (const bool fift : {false, true}) {
      const kir::BytecodeProgram& prog = fift ? v.fift : v.fi;
      struct Rig {
        gpusim::Device dev;
        std::unique_ptr<core::KernelJob> job;
        std::unique_ptr<core::ControlBlock> cb;
        std::unique_ptr<swifi::TrialStage> stage;
      };
      Rig rigs[3];
      swifi::GoldenRun gold;
      std::uint64_t watchdog = 0;
      for (std::size_t e = 0; e < 3; ++e) {
        Rig& r = rigs[e];
        r.dev.set_engine(kSettings[e].first);
        r.dev.set_sanitize(kSettings[e].second);
        r.job = w->make_job(ds);
        if (fift) r.cb = core::make_configured_control_block(prog, pd);
        if (e == 0) {
          gold = swifi::golden_run(r.dev, prog, *r.job, r.cb.get(), 1);
          watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
        }
        r.stage = std::make_unique<swifi::TrialStage>(r.dev, *r.job);
      }

      for (std::uint32_t si = 0; si < prog.fi_sites.size() && si < pd.exec_counts.size();
           ++si) {
        std::vector<std::uint32_t> threads;
        for (std::uint32_t t = 0; t < pd.exec_counts[si].size(); ++t)
          if (pd.exec_counts[si][t] > 0) threads.push_back(t);
        if (threads.empty()) continue;
        for (int m = 0; m < 2; ++m) {
          for (const bool last : {false, true}) {
            swifi::FaultSpec spec;
            spec.site_id = prog.fi_sites[si].site_id;
            spec.thread = threads[(si * 7u + static_cast<std::uint32_t>(m)) % threads.size()];
            spec.occurrence = last ? pd.exec_counts[si][spec.thread] : 1;
            spec.mask = m == 0 ? 1u << (si % 32) : 0x80000000u | (0x3u << ((si * 5) % 30));
            const std::string what = w->name() + (fift ? " fi+ft" : " fi") + " site " +
                                     std::to_string(spec.site_id) + " thread " +
                                     std::to_string(spec.thread) + " occ " +
                                     std::to_string(spec.occurrence) + " mask " +
                                     std::to_string(spec.mask);

            swifi::Outcome outcome[3];
            TrialObs spec_obs[3];
            for (std::size_t e = 0; e < 3; ++e) {
              Rig& r = rigs[e];
              outcome[e] = swifi::run_one_fault(r.dev, prog, *r.job, r.cb.get(), spec,
                                                gold.output, req, watchdog, 1,
                                                gpusim::SharedShadow::kMaxReportsPerBlock,
                                                r.stage.get());
              swifi::InjectingHooks hooks(prog, r.cb.get());
              spec_obs[e] = armed_launch(r.dev, *r.stage, *r.job, prog, r.cb.get(), hooks,
                                         spec, watchdog);
            }
            // Reference vs the armed threaded and sanitized launches.
            EXPECT_EQ(outcome[0], outcome[1]) << what;
            const bool san_class = outcome[2] == swifi::Outcome::RaceDetected ||
                                   outcome[2] == swifi::Outcome::BarrierDivergence;
            EXPECT_TRUE(outcome[0] == outcome[2] || san_class) << what;
            TrialObs san_plain = spec_obs[2];
            san_plain.reports.clear();
            EXPECT_EQ(spec_obs[0], spec_obs[1]) << what;
            EXPECT_EQ(spec_obs[0], san_plain) << what;

            // Armed vs live-hook launches, and the per-thread hook value
            // sequences on the reference vs the live-hook stream.
            RecordingInjector rec_ref(prog, rigs[0].cb.get());
            (void)armed_launch(rigs[0].dev, *rigs[0].stage, *rigs[0].job, prog,
                               rigs[0].cb.get(), rec_ref, spec, watchdog);
            for (std::size_t e = 1; e < 3; ++e) {
              Rig& r = rigs[e];
              RecordingInjector rec(prog, r.cb.get());
              const TrialObs generic =
                  armed_launch(r.dev, *r.stage, *r.job, prog, r.cb.get(), rec, spec, watchdog);
              EXPECT_EQ(spec_obs[e], generic) << what << " " << kNames[e];
              EXPECT_EQ(rec_ref.seen, rec.seen) << what << " " << kNames[e];
            }
            ++trials;
            activated += spec_obs[0].activated;
            crashed += gpusim::is_crash(spec_obs[0].status);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  // The sweep must reach the interesting cases: injections that fire, and
  // some that crash (a crash inside a run exercises the refund path).
  EXPECT_GT(trials, 500u);
  EXPECT_GT(activated, trials / 2);
  EXPECT_GT(crashed, 0u);
}
