// Threaded-code engine tests: decode/emitter completeness (every kir opcode
// has a single-op translation, sanitized plans included), compiler fusion
// behavior on the real workload kernels, bitwise engine equality against
// the reference interpreter (complementing test_differential_fuzz's random
// programs and test_golden_outputs' pinned digests), watchdog-boundary
// delegation, the routing of instrumented launches to the reference
// interpreter, and the launch-plan cache's engine-in-key behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "kir/bytecode.hpp"
#include "kir/threaded.hpp"
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

RunObs run_workload(Workload& w, const Dataset& ds, const kir::BytecodeProgram& prog,
                    gpusim::ExecEngine engine, gpusim::LaunchHooks* hooks,
                    std::uint64_t watchdog = 50'000'000) {
  gpusim::Device dev;
  dev.set_engine(engine);
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
    // Nop separators prevent any fusion pattern from matching, so with run
    // formation off the compiled stream must be the identity translation,
    // slot for slot.
    kir::DecodedInstr in;
    in.op = op;
    d.code.push_back(in);
    d.code.push_back(kir::DecodedInstr{});  // Nop
    d.code.push_back(kir::DecodedInstr{});  // Nop
  }
  const kir::ThreadedProgram tp = kir::compile_threaded(d, 8, true, /*form_runs=*/false);
  ASSERT_EQ(tp.code.size(), d.code.size());
  EXPECT_EQ(tp.fused_heads, 0u);
  for (std::size_t pc = 0; pc < d.code.size(); ++pc) {
    EXPECT_EQ(tp.code[pc].op, static_cast<std::uint8_t>(d.code[pc].op)) << "pc " << pc;
    EXPECT_EQ(tp.code[pc].len, 1) << "pc " << pc;
  }
  // A sanitized plan differs only in its shared accesses, which become the
  // shadow-observing singles.
  const kir::ThreadedProgram st = kir::compile_threaded(d, 8, true, false, /*sanitize=*/true);
  for (std::size_t pc = 0; pc < d.code.size(); ++pc) {
    TOp want = kir::threaded_single_op(d.code[pc].op);
    if (want == TOp::LoadS) want = TOp::SanLoadS;
    if (want == TOp::StoreS) want = TOp::SanStoreS;
    EXPECT_EQ(st.code[pc].op, static_cast<std::uint16_t>(want)) << "pc " << pc;
  }
  // Every fused opcode has a name too (the dispatch table is fully wired);
  // the sanitizer singles close the table and are not fused.
  const auto san_begin = static_cast<unsigned>(TOp::SanLoadS);
  for (unsigned v = kir::kTOpFusedBegin; v < kir::kNumTOps; ++v) {
    EXPECT_EQ(kir::top_is_fused(static_cast<TOp>(v)), v < san_begin) << "TOp " << v;
    EXPECT_STRNE(kir::top_name(static_cast<TOp>(v)), "?") << "unnamed TOp " << v;
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
// a Threaded device (BlockExec::run), so they must match a Reference device
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

// Flipping engines on a live device mid-campaign must never serve a plan
// compiled for the previous engine (a Reference plan has no threaded
// stream, a Sanitizer plan has shadow-observing shared accesses): the
// engine kind is part of the plan cache key, so each engine's first launch
// misses and later launches hit.
TEST(Threaded, EngineFlipMidCampaignNeverServesStalePlan) {
  auto workloads = all_workloads();
  Workload& w = *workloads.front();
  const Dataset ds = w.make_dataset(kDatasetSeed, Scale::Tiny);
  auto v = core::build_variants(w.build_kernel(Scale::Tiny));

  gpusim::Device dev;
  auto job = w.make_job(ds);
  const auto args = job->setup(dev);

  RunObs per_engine[3];
  const gpusim::ExecEngine seq[] = {gpusim::ExecEngine::Reference, gpusim::ExecEngine::Threaded,
                                    gpusim::ExecEngine::Sanitizer, gpusim::ExecEngine::Threaded,
                                    gpusim::ExecEngine::Sanitizer, gpusim::ExecEngine::Reference};
  for (const auto engine : seq) {
    dev.set_engine(engine);
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
    RunObs& pinned = per_engine[static_cast<std::size_t>(engine)];
    if (pinned.output.empty())
      pinned = o;
    else
      EXPECT_EQ(pinned, o) << gpusim::exec_engine_name(engine);
  }
  // All engines observed identical results...
  EXPECT_EQ(per_engine[0], per_engine[1]);
  EXPECT_EQ(per_engine[0], per_engine[2]);
  // ...and the cache missed exactly once per engine kind (3 of the 6
  // launches hit).
  EXPECT_EQ(dev.plan_cache_misses(), 3u);
  EXPECT_EQ(dev.plan_cache_hits(), 3u);
}
