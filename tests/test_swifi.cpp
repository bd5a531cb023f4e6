// Tests for the SWIFI fault injector: spec planning, activation, outcome
// classification, memory/code faults, and the R-Naive/R-Scatter baselines.
#include <gtest/gtest.h>

#include <functional>

#include "hauberk/runtime.hpp"
#include "kir/builder.hpp"
#include "swifi/baselines.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "swifi/injector.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::swifi;
using namespace hauberk::workloads;
using core::ProfileData;

namespace {

struct Fixture {
  std::unique_ptr<Workload> w;
  core::KernelVariants v;
  Dataset ds;
  std::unique_ptr<core::KernelJob> job;
  gpusim::Device dev;
  ProfileData pd;

  explicit Fixture(std::unique_ptr<Workload> wl, std::uint64_t seed = 21)
      : w(std::move(wl)),
        v(core::build_variants(w->build_kernel(Scale::Tiny))),
        ds(w->make_dataset(seed, Scale::Tiny)),
        job(w->make_job(ds)) {
    pd = core::profile(dev, v, {job.get()});
  }

  /// One worker's private device, job and (optionally) control block.
  [[nodiscard]] WorkerContextFactory factory(bool with_cb = false) const {
    return [this, with_cb] {
      WorkerContext ctx;
      ctx.device = std::make_unique<gpusim::Device>();
      ctx.job = w->make_job(ds);
      if (with_cb) ctx.cb = core::make_configured_control_block(v.fift, pd);
      return ctx;
    };
  }
};

}  // namespace

TEST(PlanFaults, RespectsBudgetsAndDeterminism) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 5;
  opt.masks_per_var = 4;
  opt.seed = 3;
  auto specs = plan_faults(f.v.fi, f.pd, opt);
  EXPECT_EQ(specs.size(), 20u);
  auto specs2 = plan_faults(f.v.fi, f.pd, opt);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].site_id, specs2[i].site_id);
    EXPECT_EQ(specs[i].mask, specs2[i].mask);
    EXPECT_EQ(specs[i].thread, specs2[i].thread);
  }
}

TEST(PlanFaults, TypeFilterRestrictsTargets) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.type_filter = kir::DType::F32;
  for (const auto& s : plan_faults(f.v.fi, f.pd, opt)) EXPECT_EQ(s.type, kir::DType::F32);
  opt.type_filter = kir::DType::PTR;
  auto ptr_specs = plan_faults(f.v.fi, f.pd, opt);
  EXPECT_FALSE(ptr_specs.empty()) << "CP has pointer-typed virtual variables (abase)";
  for (const auto& s : ptr_specs) EXPECT_EQ(s.type, kir::DType::PTR);
}

TEST(PlanFaults, ErrorBitsControlMaskPopcount) {
  Fixture f(make_mri_q());
  for (int bits : {1, 3, 6, 10, 15}) {
    PlanOptions opt;
    opt.error_bits = bits;
    opt.max_vars = 3;
    opt.masks_per_var = 3;
    for (const auto& s : plan_faults(f.v.fi, f.pd, opt))
      EXPECT_EQ(std::popcount(s.mask), bits);
  }
}

TEST(PlanFaults, OccurrenceWithinProfiledCount) {
  Fixture f(make_pns());
  PlanOptions opt;
  opt.max_vars = 50;
  opt.masks_per_var = 2;
  for (const auto& s : plan_faults(f.v.fi, f.pd, opt)) {
    EXPECT_GE(s.occurrence, 1u);
    // occurrence must not exceed the profiled execution count for the thread
    bool found = false;
    for (std::uint32_t si = 0; si < f.v.fi.fi_sites.size(); ++si) {
      if (f.v.fi.fi_sites[si].site_id != s.site_id) continue;
      found = true;
      ASSERT_LT(s.thread, f.pd.exec_counts[si].size());
      EXPECT_LE(s.occurrence, f.pd.exec_counts[si][s.thread]);
    }
    EXPECT_TRUE(found);
  }
}

TEST(Injection, PlannedFaultsActuallyActivate) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 8;
  opt.masks_per_var = 2;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);
  const auto gold = golden_run(f.dev, f.v.fi, *f.job);
  int activated = 0;
  for (const auto& spec : specs) {
    const Outcome o = run_one_fault(f.dev, f.v.fi, *f.job, nullptr, spec, gold.output,
                                    f.w->requirement(), 10'000'000);
    activated += o != Outcome::NotActivated;
  }
  // Every planned fault targets a profiled execution => all must activate.
  EXPECT_EQ(activated, static_cast<int>(specs.size()));
}

TEST(Injection, ZeroMaskIsAlwaysMasked) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 4;
  opt.masks_per_var = 1;
  auto specs = plan_faults(f.v.fi, f.pd, opt);
  const auto gold = golden_run(f.dev, f.v.fi, *f.job);
  for (auto& spec : specs) {
    spec.mask = 0;  // XOR with zero: fault has no effect
    const Outcome o = run_one_fault(f.dev, f.v.fi, *f.job, nullptr, spec, gold.output,
                                    f.w->requirement(), 10'000'000);
    EXPECT_EQ(o, Outcome::Masked);
  }
}

TEST(Injection, CampaignProducesAllCountsConsistently) {
  Fixture f(make_mri_q());
  PlanOptions opt;
  opt.max_vars = 10;
  opt.masks_per_var = 5;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);
  const auto res = CampaignExecutor(1).run(f.v.fi, f.factory(), specs, f.w->requirement());
  EXPECT_EQ(res.per_fault.size(), specs.size());
  EXPECT_EQ(res.counts.activated() + res.counts.not_activated, specs.size());
  // Without detectors there can be no detected outcomes.
  EXPECT_EQ(res.counts.detected, 0u);
  EXPECT_EQ(res.counts.detected_masked, 0u);
}

TEST(Injection, FtDetectorsConvertUndetectedToDetected) {
  // The core claim: FI&FT coverage > plain-FI coverage.
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 12;
  opt.masks_per_var = 6;
  opt.seed = 5;
  opt.error_bits = 6;
  const auto fi_specs = plan_faults(f.v.fi, f.pd, opt);
  CampaignExecutor ex(1);
  const auto fi = ex.run(f.v.fi, f.factory(), fi_specs, f.w->requirement());

  const auto fift_specs = plan_faults(f.v.fift, f.pd, opt);
  const auto fift = ex.run(f.v.fift, f.factory(true), fift_specs, f.w->requirement());

  EXPECT_GT(fift.counts.detected + fift.counts.detected_masked, 0u)
      << "Hauberk detectors must catch some injected faults";
  EXPECT_GE(fift.counts.coverage(), fi.counts.coverage());
}

TEST(Outcome, CountsArithmetic) {
  OutcomeCounts c;
  c.add(Outcome::Failure);
  c.add(Outcome::Masked);
  c.add(Outcome::Undetected);
  c.add(Outcome::Undetected);
  c.add(Outcome::NotActivated);
  EXPECT_EQ(c.activated(), 4u);
  EXPECT_DOUBLE_EQ(c.coverage(), 0.5);
  EXPECT_DOUBLE_EQ(c.ratio(c.failure), 0.25);
}

// --- memory & code faults (CPU rows of Fig. 1) ---

TEST(MemoryFault, RunsAndClassifies) {
  Fixture f(make_sad());
  const auto gold = golden_run(f.dev, f.v.baseline, *f.job);
  common::Rng rng(4);
  OutcomeCounts counts;
  for (int i = 0; i < 30; ++i)
    counts.add(run_one_memory_fault(f.dev, f.v.baseline, *f.job, rng, 1u << (i % 32),
                                    gold.output, f.w->requirement(), 10'000'000));
  EXPECT_EQ(counts.activated(), 30u);
}

namespace {

/// Protected-memory job for the check-byte regression: a 2-word output
/// pair, then 64 input words that nothing uploads or stores — only the
/// kernel's first 32 loads ever touch them.
class SpareJob final : public core::KernelJob {
 public:
  std::vector<kir::Value> setup(gpusim::Device& dev) override {
    dev.mem().reset();
    out_ = dev.mem().alloc(2, gpusim::AllocClass::I32Data);
    in_ = dev.mem().alloc(64, gpusim::AllocClass::I32Data);
    return {kir::Value::ptr(out_), kir::Value::ptr(in_)};
  }
  [[nodiscard]] gpusim::LaunchConfig config() const override { return {1, 1, 1, 1}; }
  [[nodiscard]] core::ProgramOutput read_output(const gpusim::Device& dev) const override {
    core::ProgramOutput o;
    o.type = kir::DType::I32;
    o.words.resize(1);
    dev.mem().copy_out(out_, o.words);
    return o;
  }

 private:
  std::uint32_t out_ = 0, in_ = 0;
};

/// out[0] = sum of in[0..32): reads pairs 1..16, never pairs 17..32.
kir::BytecodeProgram spare_program() {
  kir::KernelBuilder kb("spare", 0);
  auto outp = kb.param_ptr("out");
  auto inp = kb.param_ptr("in");
  auto s = kb.let("s", kir::i32c(0));
  kb.for_loop("k", kir::i32c(0), kir::i32c(32),
              [&](kir::ExprH k) { kb.assign(s, s + kb.load_i32(inp + k)); });
  kb.store(outp, s);
  return kir::lower(kb.build());
}

/// The first Rng::fork(seed, i) whose run_one_memory_fault draws (word
/// index over the 66 live words, then the 72-way code-bit position) satisfy
/// `want(index, check_bit)`.
common::Rng fault_rng(std::uint64_t seed,
                      const std::function<bool(std::uint64_t, bool)>& want) {
  for (std::uint64_t i = 0;; ++i) {
    common::Rng r = common::Rng::fork(seed, i);
    common::Rng probe = r;
    const std::uint64_t idx = probe.next_below(66);
    const bool check = probe.next_below(gpusim::ecc::kCodeBits) >= gpusim::ecc::kDataBits;
    if (want(idx, check)) return r;
  }
}

}  // namespace

// A check-bit upset the first trial never reads must not survive into the
// next trial on the same device: corrupt_check raises the store watermark,
// so the next job's reset() wipes it.  Trial 1 flips a check byte of a pair
// the kernel reads, but hangs at its first instruction; trial 2 flips a
// word no one reads, so it is Masked on a fresh device.  Before the fix the
// shared device corrected trial 1's stale upset during trial 2 and
// reported EccCorrected.
TEST(MemoryFault, CheckByteUpsetDoesNotOutliveItsTrial) {
  const auto prog = spare_program();
  const workloads::Requirement req{};
  gpusim::DeviceProps props;
  props.protection = gpusim::ecc::Scheme::Hsiao;
  SpareJob job;
  common::Rng first = fault_rng(1, [](std::uint64_t idx, bool check) {
    return check && idx >= 2 && idx < 34;  // a read pair's check byte
  });
  common::Rng second = fault_rng(2, [](std::uint64_t idx, bool) { return idx >= 34; });

  gpusim::Device shared(props), fresh(props);
  const auto gold = golden_run(shared, prog, job, nullptr, 1);
  const std::uint64_t watchdog = 1'000'000;
  EXPECT_EQ(run_one_memory_fault(shared, prog, job, first, 1u, gold.output, req,
                                 /*watchdog_instructions=*/0, 1),
            Outcome::Failure);  // hangs before its first load
  const Outcome on_shared =
      run_one_memory_fault(shared, prog, job, second, 1u, gold.output, req, watchdog, 1);
  common::Rng second_again = fault_rng(2, [](std::uint64_t idx, bool) { return idx >= 34; });
  const Outcome on_fresh =
      run_one_memory_fault(fresh, prog, job, second_again, 1u, gold.output, req, watchdog, 1);
  EXPECT_EQ(on_fresh, Outcome::Masked);
  EXPECT_EQ(on_shared, on_fresh);
  EXPECT_EQ(shared.mem().ecc_corrected(), fresh.mem().ecc_corrected());
}

TEST(CodeFault, InvalidMutantsAreFailures) {
  Fixture f(make_pns());
  kir::BytecodeProgram mutant = f.v.baseline;
  mutant.code[0].op = static_cast<kir::OpCode>(200);
  EXPECT_FALSE(validate_program(mutant));
  EXPECT_TRUE(validate_program(f.v.baseline));
}

TEST(CodeFault, JumpTargetAtProgramEndIsInvalid) {
  // Regression: a branch target of exactly code.size() used to pass
  // validation, but the interpreter then fetches one past the final Halt.
  Fixture f(make_pns());
  for (const kir::OpCode op : {kir::OpCode::Jmp, kir::OpCode::Jz}) {
    kir::BytecodeProgram mutant = f.v.baseline;
    mutant.code[0].op = op;
    mutant.code[0].aux = static_cast<std::uint32_t>(mutant.code.size());
    EXPECT_FALSE(validate_program(mutant)) << "target == code.size() is out of range";
    mutant.code[0].aux = static_cast<std::uint32_t>(mutant.code.size() - 1);
    EXPECT_TRUE(validate_program(mutant)) << "target of the final Halt is still in range";
  }
}

TEST(CodeFault, FinalInstructionThatFallsThroughIsInvalid) {
  // Regression: one flipped opcode bit turns the final Halt (15) into
  // Barrier, Jz, AtomicAddG or LoadG; each continues at pc + 1, one past the
  // end of the program, and the launch crashed the host instead of being
  // classified as a Failure.
  Fixture f(make_pns());
  ASSERT_EQ(f.v.baseline.code.back().op, kir::OpCode::Halt);
  for (const int bit : {0, 1, 2, 3}) {
    kir::BytecodeProgram mutant = f.v.baseline;
    mutant.code.back().op = static_cast<kir::OpCode>(
        static_cast<std::uint8_t>(mutant.code.back().op) ^ (1u << bit));
    EXPECT_FALSE(validate_program(mutant)) << "opcode bit " << bit;
  }
  kir::BytecodeProgram loop = f.v.baseline;
  loop.code.back().op = kir::OpCode::Jmp;
  loop.code.back().aux = 0;
  EXPECT_TRUE(validate_program(loop)) << "a final Jmp never falls through";
}

TEST(CodeFault, CampaignMostlyCrashesOrMasks) {
  Fixture f(make_pns());
  const auto gold = golden_run(f.dev, f.v.baseline, *f.job);
  common::Rng rng(9);
  OutcomeCounts counts;
  for (int i = 0; i < 60; ++i)
    counts.add(run_one_code_fault(f.dev, f.v.baseline, *f.job, rng, gold.output,
                                  f.w->requirement(), 5'000'000));
  EXPECT_EQ(counts.activated(), 60u);
  EXPECT_GT(counts.failure, 0u) << "bit flips in encodings must produce illegal instructions";
}

// --- baselines ---

TEST(RNaive, DetectsNothingFaultFreeAndDoublesCycles) {
  Fixture f(make_mri_q());
  auto single_args = f.job->setup(f.dev);
  const auto single = f.dev.launch(f.v.baseline, f.job->config(), single_args);
  ASSERT_EQ(single.status, gpusim::LaunchStatus::Ok);

  const auto rn = run_r_naive(f.dev, f.v.baseline, *f.job);
  EXPECT_TRUE(rn.completed);
  EXPECT_FALSE(rn.mismatch);
  EXPECT_GE(rn.total_cycles, 2 * single.cycles);
  EXPECT_LT(rn.total_cycles, 2 * single.cycles + 100000);
}

TEST(RNaive, DetectsDeviceFaultViaMismatch) {
  Fixture f(make_cp());
  gpusim::DeviceFaultModel fm;
  fm.kind = gpusim::DeviceFaultModel::Kind::Intermittent;
  fm.component = gpusim::DeviceFaultModel::Component::FPU;
  fm.mask = 0x7f000000;
  fm.period = 101;          // corrupts different ops across the two runs
  fm.duration_ops = 1u << 30;
  f.dev.install_fault(fm);
  const auto rn = run_r_naive(f.dev, f.v.baseline, *f.job);
  ASSERT_TRUE(rn.completed);
  EXPECT_TRUE(rn.mismatch);
}

TEST(RScatter, CompilesForMostProgramsButNotTpacf) {
  gpusim::DeviceProps props;
  for (const auto& w : hpc_suite()) {
    const auto sk = make_r_scatter(w->build_kernel(Scale::Tiny), props);
    if (w->name() == "TPACF") {
      EXPECT_FALSE(sk.compiles) << "TPACF uses >half shared memory (Section IX.A)";
      EXPECT_NE(sk.reason.find("shared memory"), std::string::npos);
    } else {
      EXPECT_TRUE(sk.compiles) << w->name();
      EXPECT_GT(sk.duplicated_defs, 0) << w->name();
    }
  }
}

TEST(RScatter, InstrumentedKernelPreservesSemantics) {
  auto w = make_cp();
  const auto ds = w->make_dataset(31, Scale::Tiny);
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto base_prog = kir::lower(w->build_kernel(Scale::Tiny));
  auto args = job->setup(dev);
  const auto base = dev.launch(base_prog, job->config(), args);
  ASSERT_EQ(base.status, gpusim::LaunchStatus::Ok);
  const auto base_out = job->read_output(dev);

  const auto sk = make_r_scatter(w->build_kernel(Scale::Tiny), dev.props());
  ASSERT_TRUE(sk.compiles);
  const auto scat_prog = kir::lower(sk.kernel);
  args = job->setup(dev);
  const auto scat = dev.launch(scat_prog, job->config(), args);
  ASSERT_EQ(scat.status, gpusim::LaunchStatus::Ok);
  EXPECT_FALSE(scat.sdc_alarm);
  EXPECT_EQ(job->read_output(dev).words, base_out.words);
  // Scatter-duplicated work is cheaper than 2x but clearly above 1x.
  EXPECT_GT(scat.cycles, base.cycles * 140 / 100);
  EXPECT_LT(scat.cycles, base.cycles * 215 / 100);
}

TEST(Injection, Footnote1FpFaultCanCrashViaDataflowToAddress) {
  // Paper footnote 1: "if there is a data-flow from an FP variable to an
  // integer or a pointer variable (e.g., FP data is used to calculate a
  // memory address), a corrupted FP value can propagate to a control data
  // and cause a failure."  Build exactly that kernel and corrupt the FP
  // variable with a high-exponent mask: the saturating float->int cast
  // produces a huge offset and the access faults.
  kir::KernelBuilder kb("footnote1");
  auto data = kb.param_ptr("data");
  auto out = kb.param_ptr("out");
  auto scale = kb.param_f32("scale");
  auto fpos = kb.let("fpos", scale * kir::to_f32(kb.thread_linear()));  // FP index
  auto idx = kb.let("idx", kir::to_i32(fpos));                          // FP -> int
  kb.store(out + kb.thread_linear(), kb.load_f32(data + idx));          // int -> address

  core::TranslateOptions topt;
  topt.mode = core::LibMode::FI;
  const auto fi_prog = kir::lower(core::translate(kb.build(), topt));

  gpusim::Device dev;
  const auto da = dev.mem().alloc(64, gpusim::AllocClass::F32Data);
  const auto oa = dev.mem().alloc(32, gpusim::AllocClass::F32Data);
  const kir::Value args[] = {kir::Value::ptr(da), kir::Value::ptr(oa), kir::Value::f32(1.5f)};

  // Locate fpos's live-window FI site.
  std::uint32_t site_id = 0;
  bool found = false;
  for (const auto& s : fi_prog.fi_sites)
    if (s.var_name == "fpos" && !s.dead_window) {
      site_id = s.site_id;
      found = true;
    }
  ASSERT_TRUE(found);

  FaultSpec spec;
  spec.site_id = site_id;
  spec.thread = 3;
  spec.occurrence = 1;
  spec.mask = 0x3f800000;  // exponent wreckage: fpos becomes astronomically large
  InjectingHooks hooks(fi_prog, nullptr);
  hooks.arm(spec);
  gpusim::LaunchOptions opts;
  opts.hooks = &hooks;
  const auto res = dev.launch(fi_prog, gpusim::LaunchConfig{1, 1, 8, 1}, args, opts);
  EXPECT_TRUE(hooks.activated());
  EXPECT_EQ(res.status, gpusim::LaunchStatus::CrashOutOfBounds)
      << "the corrupted FP value must propagate to the address and fault";
}
