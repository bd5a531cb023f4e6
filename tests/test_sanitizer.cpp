// Sanitizer tests (Device::set_sanitize): one deterministic positive test
// per hazard class (write-write race, read-write race both orders, barrier
// divergence at distinct sites, exit-while-peers-wait deadlock, shared
// out-of-bounds, uninitialized shared read), clean-kernel negative pins
// (zero false positives, including the GT200 warp-synchronous idiom),
// engine equality on every observable, report equality between the
// sanitized threaded stream and the sanitized reference interpreter (the
// oracle, and the path instrumented sanitized launches and delegated slices
// take), the CrashBarrierDeadlock site diagnostic, the decoded site table,
// and SWIFI outcome reclassification under CampaignConfig::sanitize.
//
// Hazard kernels run on a warp_size=4 device with 8-thread blocks so the
// two warps {0..3} and {4..7} exercise the cross-warp hazard rules; threads
// of a block execute serialized in thread order, so every report below is
// exactly predictable (thread 4 always detects against warp 0's last
// toucher, thread 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/threaded.hpp"
#include "swifi/campaign.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::gpusim;
using kir::i32c;
using kir::KernelBuilder;
using kir::lower;
using kir::Value;

namespace {

/// Two 4-thread warps per 8-thread block: cross-warp hazards are visible.
DeviceProps cross_warp_props() {
  DeviceProps p;
  p.warp_size = 4;
  p.global_mem_words = 1u << 16;
  return p;
}

struct EngineOut {
  LaunchResult res;
  std::vector<std::uint32_t> out;
};

/// Launch `prog` (single ptr param -> zeroed out buffer) on one engine,
/// sanitizing or not.  `instrumented` asks for an execution profile, which
/// routes the launch to the reference interpreter (with the shadow attached
/// when sanitizing).
EngineOut run_engine(const kir::BytecodeProgram& prog, const DeviceProps& props,
                     ExecEngine engine, bool sanitize, std::uint32_t threads = 8,
                     bool instrumented = false,
                     std::uint64_t watchdog = LaunchOptions{}.watchdog_instructions) {
  Device dev(props);
  dev.set_engine(engine);
  dev.set_sanitize(sanitize);
  constexpr std::uint32_t kOutWords = 64;
  const auto out = dev.mem().alloc(kOutWords, AllocClass::I32Data);
  std::vector<std::uint32_t> zero(kOutWords, 0);
  dev.mem().copy_in(out, zero);
  const Value args[] = {Value::ptr(out)};
  LaunchOptions opts;
  opts.watchdog_instructions = watchdog;
  std::vector<std::uint64_t> counts;
  if (instrumented) opts.instr_exec_counts = &counts;
  EngineOut r;
  r.res = dev.launch(prog, LaunchConfig{1, 1, threads, 1}, args, opts);
  r.out.resize(kOutWords);
  dev.mem().copy_out(out, r.out);
  return r;
}

/// Assert the sanitized launch `san` matches `base` on every observable.
void expect_same_observables(const EngineOut& base, const EngineOut& san) {
  EXPECT_EQ(san.res.status, base.res.status);
  EXPECT_EQ(san.res.cycles, base.res.cycles);
  EXPECT_EQ(san.res.instructions, base.res.instructions);
  EXPECT_EQ(san.res.sdc_alarm, base.res.sdc_alarm);
  EXPECT_EQ(san.res.deadlock_pc, base.res.deadlock_pc);
  EXPECT_EQ(san.res.deadlock_site, base.res.deadlock_site);
  EXPECT_EQ(san.out, base.out);
}

/// Run on both engines, sanitized and not; assert every setting agrees on
/// every observable, only sanitized launches carry reports, and the
/// sanitized threaded stream reports exactly what the sanitized reference
/// interpreter reports — as does an instrumented sanitized Threaded launch,
/// which routes to the reference path.  Returns the sanitized threaded run
/// (after pinning a second one to identical reports).
EngineOut run_all_engines(const kir::BytecodeProgram& prog, const DeviceProps& props,
                          std::uint32_t threads = 8) {
  const EngineOut ref = run_engine(prog, props, ExecEngine::Reference, false, threads);
  const EngineOut thr = run_engine(prog, props, ExecEngine::Threaded, false, threads);
  const EngineOut san = run_engine(prog, props, ExecEngine::Threaded, true, threads);
  const EngineOut san_ref = run_engine(prog, props, ExecEngine::Reference, true, threads);
  const EngineOut san_instr =
      run_engine(prog, props, ExecEngine::Threaded, true, threads, /*instrumented=*/true);
  for (const EngineOut* e : {&thr, &san, &san_ref, &san_instr}) expect_same_observables(ref, *e);
  EXPECT_TRUE(thr.res.sanitizer_reports.empty());
  EXPECT_TRUE(ref.res.sanitizer_reports.empty());
  for (const EngineOut* e : {&san_ref, &san_instr}) {
    EXPECT_EQ(e->res.sanitizer_reports, san.res.sanitizer_reports);
    EXPECT_EQ(e->res.sanitizer_reports_dropped, san.res.sanitizer_reports_dropped);
  }
  // Report determinism: a second sanitized launch is bitwise identical.
  const EngineOut again = run_engine(prog, props, ExecEngine::Threaded, true, threads);
  EXPECT_EQ(san.res.sanitizer_reports, again.res.sanitizer_reports);
  EXPECT_EQ(san.res.sanitizer_reports_dropped, again.res.sanitizer_reports_dropped);
  return san;
}

}  // namespace

// --- hazard positives ---

TEST(Sanitizer, WriteWriteRaceAcrossWarps) {
  KernelBuilder kb("ww", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.shstore(i32c(0), tid);
  kb.store(out + tid, kb.shload_i32(i32c(0)));
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::WriteWrite);
  EXPECT_EQ(r.block, 0u);
  EXPECT_EQ(r.thread, 4u);        // first thread of warp 1...
  EXPECT_EQ(r.other_thread, 3u);  // ...colliding with warp 0's last writer
  EXPECT_EQ(r.addr, 0u);
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_EQ(r.pc, r.other_pc);  // same store instruction, different threads
  EXPECT_NE(r.site, kir::kNoSite);
  EXPECT_FALSE(sanitizer_report_to_string(r).empty());
}

TEST(Sanitizer, ReadAfterWriteRaceAcrossWarps) {
  KernelBuilder kb("raw", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.if_then(tid == i32c(0), [&] { kb.shstore(i32c(0), i32c(42)); });
  kb.store(out + tid, kb.shload_i32(i32c(0)));
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::ReadWrite);
  EXPECT_EQ(r.thread, 4u);        // cross-warp reader
  EXPECT_EQ(r.other_thread, 0u);  // thread 0's unordered write
  EXPECT_EQ(r.addr, 0u);
  EXPECT_EQ(r.epoch, 0u);
  // Every thread saw 42: the race is real but silent — exactly what the
  // sanitizer exists to surface.
  for (std::uint32_t t = 0; t < 8; ++t) EXPECT_EQ(san.out[t], 42u);
}

TEST(Sanitizer, WriteAfterReadRaceAcrossWarps) {
  KernelBuilder kb("war", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.if_then(tid == i32c(0), [&] { kb.shstore(i32c(0), i32c(5)); });
  kb.barrier();
  kb.if_then_else(tid == i32c(4),
                  [&] { kb.shstore(i32c(0), i32c(9)); },
                  [&] { kb.store(out + tid, kb.shload_i32(i32c(0))); });
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::ReadWrite);
  EXPECT_EQ(r.thread, 4u);        // the unordered writer (epoch 1)...
  EXPECT_EQ(r.other_thread, 3u);  // ...against warp 0's last reader
  EXPECT_EQ(r.epoch, 1u);         // after the barrier release
  EXPECT_NE(r.pc, r.other_pc);    // store site vs load site
}

TEST(Sanitizer, BarrierDivergenceAtTwoSites) {
  KernelBuilder kb("div2", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.if_then_else(tid < i32c(4), [&] { kb.barrier(); }, [&] { kb.barrier(); });
  kb.store(out + tid, tid);
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  // The block-serialized model releases and completes, so the only trace of
  // the bug is the sanitizer's report — on hardware this is deadlock or
  // corruption territory.
  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::BarrierDivergence);
  EXPECT_EQ(r.thread, 4u);        // first thread at the second barrier site
  EXPECT_EQ(r.other_thread, 0u);
  EXPECT_NE(r.pc, r.other_pc);    // two distinct barrier instructions
  EXPECT_NE(r.other_pc, SanitizerReport::kNoPc);
  EXPECT_EQ(r.epoch, 0u);
}

TEST(Sanitizer, BarrierExitDivergenceIsDeadlockWithSiteOnAllEngines) {
  KernelBuilder kb("exitdiv", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.if_then(tid == i32c(0), [&] { kb.barrier(); });
  kb.store(out + tid, tid);
  const auto prog = lower(kb.build());
  const auto san = run_all_engines(prog, cross_warp_props());

  // All engines crash identically AND report *which* barrier deadlocked
  // (previously CrashBarrierDeadlock carried no site at all).
  ASSERT_EQ(san.res.status, LaunchStatus::CrashBarrierDeadlock);
  ASSERT_GE(san.res.deadlock_pc, 0);
  ASSERT_GE(san.res.deadlock_site, 0);
  EXPECT_EQ(prog.code[static_cast<std::size_t>(san.res.deadlock_pc)].op,
            kir::OpCode::Barrier);

  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::BarrierDivergence);
  EXPECT_EQ(r.thread, 0u);                          // the stuck waiter
  EXPECT_EQ(r.other_thread, 1u);                    // a peer that exited
  EXPECT_EQ(r.other_pc, SanitizerReport::kNoPc);    // peer left the kernel
  EXPECT_EQ(static_cast<std::int64_t>(r.pc), san.res.deadlock_pc);
  EXPECT_EQ(static_cast<std::int64_t>(r.site), san.res.deadlock_site);
}

TEST(Sanitizer, SharedOutOfBoundsReportsFaultingAddress) {
  KernelBuilder kb("oob", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.shstore(i32c(100), tid);
  kb.store(out + tid, tid);
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  ASSERT_EQ(san.res.status, LaunchStatus::CrashSharedOutOfBounds);
  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::SharedOutOfBounds);
  EXPECT_EQ(r.thread, 0u);   // first thread crashes, aborting the block
  EXPECT_EQ(r.addr, 100u);   // 16-word allocation
}

TEST(Sanitizer, UninitializedSharedReadReportedOnce) {
  KernelBuilder kb("uninit", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.store(out + tid, kb.shload_i32(tid));
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  // All 8 threads read uninitialized words at the same load instruction;
  // per-(kind, pc) dedupe keeps exactly one report.
  ASSERT_EQ(san.res.sanitizer_reports.size(), 1u);
  const auto& r = san.res.sanitizer_reports[0];
  EXPECT_EQ(r.kind, HazardKind::UninitSharedRead);
  EXPECT_EQ(r.thread, 0u);
  EXPECT_EQ(r.other_thread, SanitizerReport::kNoThread);
  EXPECT_EQ(san.res.sanitizer_reports_dropped, 0u);
}

// --- clean-kernel negatives (zero false positives) ---

TEST(Sanitizer, CleanStagedPipelineHasNoReports) {
  // Classic stage: each thread writes its own word, syncs, then reads a
  // *different* thread's word.  Cross-warp, but barrier-ordered: clean.
  KernelBuilder kb("staged", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.shstore(tid, tid * i32c(2));
  kb.barrier();
  kb.store(out + tid, kb.shload_i32((tid + i32c(1)) % i32c(8)));
  const auto san = run_all_engines(lower(kb.build()), cross_warp_props());

  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  EXPECT_TRUE(san.res.sanitizer_reports.empty());
  for (std::uint32_t t = 0; t < 8; ++t) EXPECT_EQ(san.out[t], ((t + 1) % 8) * 2);
}

TEST(Sanitizer, WarpSynchronousIdiomIsNotReported) {
  // TPACF-style: one 32-thread warp hammering one shared word.  On the
  // modeled GT200 part the warp runs in lockstep, so this intra-warp
  // conflict is the era's intended idiom, not a bug — racecheck filtered it
  // and so do we.  Default props: warp_size == block size == 32.
  KernelBuilder kb("warpsync", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.shstore(i32c(0), tid);
  kb.store(out + tid, kb.shload_i32(i32c(0)));
  const auto san = run_all_engines(lower(kb.build()), DeviceProps{}, /*threads=*/32);

  ASSERT_EQ(san.res.status, LaunchStatus::Ok);
  EXPECT_TRUE(san.res.sanitizer_reports.empty());
}

TEST(Sanitizer, AllWorkloadsCleanUnderSanitizerWithIdenticalObservables) {
  // Every shipped workload (the paper's 9 GPU programs + the CPU rows) runs
  // report-free under the sanitizer, with output and cycle totals bitwise
  // equal to the unsanitized threaded engine — the zero-overhead/zero-noise
  // pin that makes `--sanitize` safe to leave on in campaigns.
  constexpr std::uint64_t kDatasetSeed = 20260806;  // test_golden_outputs.cpp
  std::vector<std::unique_ptr<workloads::Workload>> all;
  for (auto& w : workloads::hpc_suite()) all.push_back(std::move(w));
  for (auto& w : workloads::graphics_suite()) all.push_back(std::move(w));
  for (auto& w : workloads::cpu_suite()) all.push_back(std::move(w));
  all.push_back(workloads::make_cpu_matmul());
  ASSERT_EQ(all.size(), 12u);

  for (auto& w : all) {
    const workloads::Dataset ds = w->make_dataset(kDatasetSeed, workloads::Scale::Tiny);
    const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
    LaunchResult thr_res, san_res;
    core::ProgramOutput thr_out, san_out;
    for (const bool sanitize : {false, true}) {
      Device dev;
      dev.set_sanitize(sanitize);
      auto job = w->make_job(ds);
      const auto args = job->setup(dev);
      const auto res = dev.launch(v.baseline, job->config(), args);
      ASSERT_EQ(res.status, LaunchStatus::Ok) << w->name();
      if (!sanitize) {
        thr_res = res;
        thr_out = job->read_output(dev);
      } else {
        san_res = res;
        san_out = job->read_output(dev);
      }
    }
    EXPECT_TRUE(san_res.sanitizer_reports.empty())
        << w->name() << ": " << san_res.sanitizer_reports.size() << " reports, first: "
        << (san_res.sanitizer_reports.empty()
                ? std::string()
                : sanitizer_report_to_string(san_res.sanitizer_reports[0]));
    EXPECT_EQ(san_res.sanitizer_reports_dropped, 0u) << w->name();
    EXPECT_EQ(san_out.words, thr_out.words) << w->name();
    EXPECT_EQ(san_res.cycles, thr_res.cycles) << w->name();
    EXPECT_EQ(san_res.instructions, thr_res.instructions) << w->name();
  }
}

// --- threaded stream vs the reference path ---

TEST(Sanitizer, DelegatedSlicesReportLikeTheReferencePath) {
  // Straight-line code around racy shared accesses: the sanitized threaded
  // stream compiles the arithmetic into runs and keeps every shared access
  // a shadow-observing single.  Sweeping the watchdog over every per-thread
  // budget lands boundaries inside RunHeads, where the threaded engine
  // hands the slice to the reference interpreter; the second kernel ends in
  // a shared out-of-bounds store after a run.  Every launch must match the
  // sanitized reference interpreter on reports and observables alike.
  KernelBuilder race("deleg_race", 16);
  {
    auto out = race.param_ptr("out");
    auto tid = race.tid_x();
    auto x = race.let("x", tid * i32c(3) + i32c(1));
    auto y = race.let("y", (x ^ i32c(5)) * x + (tid << i32c(2)) - i32c(9));
    race.shstore(i32c(0), y);  // cross-warp write-write race
    auto z = race.let("z", race.shload_i32(i32c(0)) + y * i32c(7) - (x & i32c(12)));
    race.barrier();
    race.shstore(tid, z ^ x);
    race.store(out + tid, race.shload_i32(i32c(0)) + z * x - (y | i32c(3)));
  }
  KernelBuilder oob("deleg_oob", 16);
  {
    auto out = oob.param_ptr("out");
    auto tid = oob.tid_x();
    auto x = oob.let("x", tid * i32c(5) + i32c(2));
    auto y = oob.let("y", (x ^ i32c(3)) * x + (tid << i32c(1)));
    oob.shstore(tid, y);
    oob.store(out + tid, y - x);
    oob.shstore(x * i32c(4) + i32c(16), y);  // out of bounds for every thread
  }

  std::size_t hangs = 0, oob_crashes = 0;
  for (const kir::Kernel& kernel : {race.build(), oob.build()}) {
    const auto prog = lower(kernel);
    // The sanitized stream really has runs and no naked shared access.
    const std::vector<std::uint32_t> unit_costs(prog.code.size(), 1);
    const kir::ThreadedProgram tp = kir::compile_threaded(
        kir::decode_program(prog, unit_costs), prog.num_slots, true, kir::MemInstr::Sanitize);
    EXPECT_GT(tp.run_heads, 0u) << kernel.name;
    for (const auto& ti : tp.code) {
      EXPECT_NE(ti.op, static_cast<std::uint16_t>(kir::TOp::Nk_LoadS));
      EXPECT_NE(ti.op, static_cast<std::uint16_t>(kir::TOp::Nk_StoreS));
    }

    const EngineOut full = run_engine(prog, cross_warp_props(), ExecEngine::Threaded, true);
    ASSERT_FALSE(full.res.sanitizer_reports.empty());
    // The launch total bounds every thread's budget, the crashing one's too.
    for (std::uint64_t w = 0; w <= full.res.instructions; ++w) {
      const EngineOut thr =
          run_engine(prog, cross_warp_props(), ExecEngine::Threaded, true, 8, false, w);
      const EngineOut ref =
          run_engine(prog, cross_warp_props(), ExecEngine::Reference, true, 8, false, w);
      expect_same_observables(ref, thr);
      EXPECT_EQ(thr.res.sanitizer_reports, ref.res.sanitizer_reports) << "watchdog " << w;
      EXPECT_EQ(thr.res.sanitizer_reports_dropped, ref.res.sanitizer_reports_dropped);
      hangs += thr.res.status == LaunchStatus::Hang;
      oob_crashes += thr.res.status == LaunchStatus::CrashSharedOutOfBounds;
    }
  }
  EXPECT_GT(hangs, 10u);
  EXPECT_GT(oob_crashes, 0u);
}

// --- decoded site table ---

TEST(Sanitizer, DecodedProgramAssignsDenseSiteIds) {
  KernelBuilder kb("sites", 8);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.shstore(tid, tid);
  kb.barrier();
  kb.store(out + tid, kb.shload_i32(tid));
  const auto prog = lower(kb.build());
  const auto dec = kir::decode_program(prog, {});

  ASSERT_EQ(dec.sanitizer_sites.size(), prog.code.size());
  std::uint32_t expect_next = 0, barriers = 0;
  for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
    const auto op = prog.code[pc].op;
    const bool is_site = op == kir::OpCode::LoadS || op == kir::OpCode::StoreS ||
                         op == kir::OpCode::Barrier;
    if (is_site) {
      EXPECT_EQ(dec.sanitizer_sites[pc], expect_next) << "pc " << pc;
      EXPECT_EQ(dec.site_of(static_cast<std::uint32_t>(pc)), expect_next);
      ++expect_next;
      if (op == kir::OpCode::Barrier) ++barriers;
    } else {
      EXPECT_EQ(dec.sanitizer_sites[pc], kir::kNoSite) << "pc " << pc;
    }
  }
  EXPECT_EQ(dec.num_sites, expect_next);
  EXPECT_GE(dec.num_sites, 3u);  // at least the shstore + barrier + shload
  EXPECT_EQ(dec.num_barrier_sites, barriers);
  EXPECT_EQ(barriers, 1u);
  // Out-of-range pcs are never sites.
  EXPECT_EQ(dec.site_of(static_cast<std::uint32_t>(prog.code.size())), kir::kNoSite);
}

// --- SWIFI reclassification ---

namespace {

/// Minimal job for the gate kernel: word 0 of `gate` selects the clean or
/// racy path; faults flipping it turn the kernel racy without changing its
/// output (the race is *silent* — only the sanitizer can tell).
class GateJob final : public core::KernelJob {
 public:
  std::vector<Value> setup(Device& dev) override {
    dev.mem().reset();
    gate_ = dev.mem().alloc(4, AllocClass::I32Data);
    out_ = dev.mem().alloc(8, AllocClass::I32Data);
    const std::vector<std::uint32_t> zero_gate(4, 0), zero_out(8, 0);
    dev.mem().copy_in(gate_, zero_gate);
    dev.mem().copy_in(out_, zero_out);
    return {Value::ptr(gate_), Value::ptr(out_)};
  }
  [[nodiscard]] LaunchConfig config() const override { return {1, 1, 8, 1}; }
  [[nodiscard]] core::ProgramOutput read_output(const Device& dev) const override {
    core::ProgramOutput o;
    o.type = kir::DType::I32;
    o.words.resize(8);
    dev.mem().copy_out(out_, o.words);
    return o;
  }

 private:
  std::uint32_t gate_ = 0, out_ = 0;
};

kir::BytecodeProgram gate_program() {
  KernelBuilder kb("gate", 16);
  auto gatep = kb.param_ptr("gate");
  auto outp = kb.param_ptr("out");
  auto tid = kb.tid_x();
  auto g = kb.let("g", kb.load_i32(gatep));
  kb.if_then_else(g != i32c(0),
                  [&] {
                    // Racy path: every thread fights over word 0, yet each
                    // reads back its own store — the output is unchanged.
                    kb.shstore(i32c(0), tid);
                    kb.store(outp + tid, kb.shload_i32(i32c(0)));
                  },
                  [&] {
                    kb.shstore(tid, tid);
                    kb.store(outp + tid, kb.shload_i32(tid));
                  });
  return lower(kb.build());
}

}  // namespace

TEST(Sanitizer, SanitizedMemoryFaultCampaignReclassifiesSilentRaces) {
  const auto prog = gate_program();
  const workloads::Requirement req{};  // exact output match

  auto run_trials = [&](bool sanitize) {
    Device dev(cross_warp_props());
    dev.set_sanitize(sanitize);
    GateJob job;
    const auto gold = swifi::golden_run(dev, prog, job);
    const std::uint64_t watchdog = swifi::campaign_watchdog(gold, {});
    std::vector<swifi::Outcome> outcomes;
    for (std::size_t i = 0; i < 64; ++i) {
      common::Rng rng = common::Rng::fork(0x5a11, i);
      const std::uint32_t mask = common::random_mask(rng, 3);
      outcomes.push_back(swifi::run_one_memory_fault(dev, prog, job, rng, mask,
                                                     gold.output, req, watchdog, 1));
    }
    return outcomes;
  };

  const auto off = run_trials(false);
  const auto on = run_trials(true);
  ASSERT_EQ(off.size(), on.size());
  std::size_t reclassified = 0;
  for (std::size_t i = 0; i < off.size(); ++i) {
    if (on[i] == swifi::Outcome::RaceDetected ||
        on[i] == swifi::Outcome::BarrierDivergence) {
      // Reclassified trials must have been silent (or failing) before —
      // here the gate kernel's race is output-preserving, so they were
      // Masked: exactly the class the sanitizer exists to un-silence.
      EXPECT_EQ(off[i], swifi::Outcome::Masked) << "trial " << i;
      ++reclassified;
    } else {
      EXPECT_EQ(on[i], off[i]) << "trial " << i;  // sanitize=off unchanged
    }
  }
  EXPECT_GT(reclassified, 0u);
  // Determinism: the sanitized campaign replays bit-identically.
  EXPECT_EQ(on, run_trials(true));
}

TEST(Sanitizer, ReportCapIsConfigurablePerLaunch) {
  // Two racy stores at distinct pcs yield two distinct (kind, pc, other_pc)
  // reports under the default cap; LaunchOptions::sanitize_report_cap = 1
  // keeps the first and counts the rest in sanitizer_reports_dropped.
  KernelBuilder kb("cap", 16);
  auto out = kb.param_ptr("out");
  auto tid = kb.tid_x();
  kb.shstore(i32c(0), tid);
  kb.shstore(i32c(1), tid);
  kb.store(out + tid, i32c(0));
  const auto prog = lower(kb.build());

  Device dev(cross_warp_props());
  dev.set_sanitize(true);
  const auto out_buf = dev.mem().alloc(64, AllocClass::I32Data);
  const Value args[] = {Value::ptr(out_buf)};
  const LaunchConfig cfg{1, 1, 8, 1};

  const auto full = dev.launch(prog, cfg, args);
  ASSERT_EQ(full.status, LaunchStatus::Ok);
  ASSERT_EQ(full.sanitizer_reports.size(), 2u);
  EXPECT_EQ(full.sanitizer_reports_dropped, 0u);

  LaunchOptions capped;
  capped.sanitize_report_cap = 1;
  const auto one = dev.launch(prog, cfg, args, capped);
  ASSERT_EQ(one.status, LaunchStatus::Ok);
  ASSERT_EQ(one.sanitizer_reports.size(), 1u);
  EXPECT_EQ(one.sanitizer_reports[0], full.sanitizer_reports[0])
      << "the cap truncates, it never reorders";
  EXPECT_EQ(one.sanitizer_reports_dropped, 1u);

  // 0 clamps to 1: the first hazard per block always survives.
  LaunchOptions zero;
  zero.sanitize_report_cap = 0;
  const auto clamped = dev.launch(prog, cfg, args, zero);
  EXPECT_EQ(clamped.sanitizer_reports.size(), 1u);
  EXPECT_EQ(clamped.sanitizer_reports_dropped, 1u);
}
