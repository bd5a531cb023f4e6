// Cross-module integration and property tests:
//  * randomly generated kernels: lowering, execution and Hauberk FT
//    instrumentation must preserve semantics (translator fuzzing),
//  * campaign invariants over all workloads,
//  * determinism of launches regardless of worker parallelism,
//  * R-Naive behavior under injected faults.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hauberk/runtime.hpp"
#include "kir/builder.hpp"
#include "swifi/baselines.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::kir;

namespace {

// ---------------------------------------------------------------------------
// Random kernel generator: small but structurally varied kernels with safe
// arithmetic (no integer division, bounded addresses) so every generated
// kernel runs to completion and the only question is semantic equality.
// ---------------------------------------------------------------------------

class RandomKernelGen {
 public:
  explicit RandomKernelGen(std::uint64_t seed) : rng_(seed) {}

  Kernel generate() {
    KernelBuilder kb("fuzz");
    auto in = kb.param_ptr("in");
    auto out = kb.param_ptr("out");
    auto n = kb.param_i32("n");

    std::vector<ExprH> fvals{kb.let("f0", kb.load_f32(in + kb.thread_linear()))};
    std::vector<ExprH> ivals{kb.let("i0", kb.thread_linear() + i32c(1))};

    // A few non-loop definitions.
    const int pre = 1 + static_cast<int>(rng_.next_below(4));
    for (int i = 0; i < pre; ++i) emit_def(kb, fvals, ivals, i);

    // One or two loops, possibly with an If inside.
    const int loops = 1 + static_cast<int>(rng_.next_below(2));
    for (int l = 0; l < loops; ++l) {
      auto acc = kb.let("acc" + std::to_string(l), f32c(0.0f));
      kb.for_loop("it" + std::to_string(l), i32c(0), n, [&](ExprH it) {
        const int body = 1 + static_cast<int>(rng_.next_below(3));
        for (int i = 0; i < body; ++i) emit_def(kb, fvals, ivals, 100 * (l + 1) + i);
        if (rng_.next_below(2)) {
          kb.if_then((it & i32c(1)) == i32c(0),
                     [&] { kb.assign(acc, acc + fvals.back() * f32c(0.25f)); });
        } else {
          kb.assign(acc, acc + fvals.back());
        }
      });
      fvals.push_back(acc);
    }

    kb.store(out + kb.thread_linear(), fvals.back());
    kb.store(out + kb.thread_linear() + i32c(64), ivals.back());
    return kb.build();
  }

 private:
  void emit_def(KernelBuilder& kb, std::vector<ExprH>& fvals, std::vector<ExprH>& ivals,
                int tag) {
    auto pick_f = [&] { return fvals[rng_.next_below(fvals.size())]; };
    auto pick_i = [&] { return ivals[rng_.next_below(ivals.size())]; };
    switch (rng_.next_below(6)) {
      case 0: fvals.push_back(kb.let("f" + std::to_string(tag), pick_f() + pick_f())); break;
      case 1:
        fvals.push_back(kb.let("f" + std::to_string(tag), pick_f() * f32c(1.5f) - pick_f()));
        break;
      case 2:
        fvals.push_back(kb.let("f" + std::to_string(tag), sqrt_(abs_(pick_f()) + f32c(0.5f))));
        break;
      case 3:
        // Safe division: denominator bounded away from zero.
        fvals.push_back(
            kb.let("f" + std::to_string(tag), pick_f() / (abs_(pick_f()) + f32c(1.0f))));
        break;
      case 4: ivals.push_back(kb.let("i" + std::to_string(tag), pick_i() + i32c(3))); break;
      default:
        ivals.push_back(
            kb.let("i" + std::to_string(tag), (pick_i() * i32c(5)) ^ i32c(0x1234)));
        break;
    }
  }

  common::Rng rng_;
};

struct FuzzEnv {
  gpusim::Device dev;
  std::uint32_t in_addr = 0, out_addr = 0;
  std::vector<Value> args;

  void setup() {
    dev.reset_memory();
    in_addr = dev.mem().alloc(128, gpusim::AllocClass::F32Data);
    out_addr = dev.mem().alloc(128, gpusim::AllocClass::F32Data);
    std::vector<std::uint32_t> data(128);
    for (int i = 0; i < 128; ++i)
      data[static_cast<std::size_t>(i)] = Value::f32(0.25f * static_cast<float>(i) - 8.0f).bits;
    dev.mem().copy_in(in_addr, data);
    args = {Value::ptr(in_addr), Value::ptr(out_addr), Value::i32(9)};
  }

  std::vector<std::uint32_t> run(const BytecodeProgram& p, gpusim::LaunchHooks* hooks = nullptr) {
    setup();
    gpusim::LaunchOptions opts;
    opts.hooks = hooks;
    const auto res = dev.launch(p, gpusim::LaunchConfig{2, 1, 16, 1}, args, opts);
    EXPECT_EQ(res.status, gpusim::LaunchStatus::Ok);
    std::vector<std::uint32_t> out(128);
    dev.mem().copy_out(out_addr, out);
    return out;
  }
};

class TranslatorFuzz : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(TranslatorFuzz, FtInstrumentationPreservesRandomKernelSemantics) {
  RandomKernelGen gen(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const Kernel k = gen.generate();
  // Every lowered program must be structurally valid (the code-fault
  // validator is the ground truth the mutation campaign relies on).
  EXPECT_TRUE(swifi::validate_program(lower(k)));
  FuzzEnv env;
  const auto base = env.run(lower(k));

  core::TranslateOptions opt;
  opt.mode = core::LibMode::FT;
  const auto ft_prog = lower(core::translate(k, opt));
  core::ControlBlock cb(ft_prog);
  const auto ft = env.run(ft_prog, &cb);
  EXPECT_EQ(ft, base);
  EXPECT_FALSE(cb.sdc_detected()) << "fault-free instrumented run raised an alarm";
}

TEST_P(TranslatorFuzz, NaiveDuplicationAlsoPreservesSemantics) {
  RandomKernelGen gen(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const Kernel k = gen.generate();
  FuzzEnv env;
  const auto base = env.run(lower(k));

  core::TranslateOptions opt;
  opt.mode = core::LibMode::FT;
  opt.naive_duplication = true;
  const auto prog = lower(core::translate(k, opt));
  const auto out = env.run(prog);
  EXPECT_EQ(out, base);
}

TEST_P(TranslatorFuzz, ProfilerVariantPreservesSemantics) {
  RandomKernelGen gen(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const Kernel k = gen.generate();
  FuzzEnv env;
  const auto base = env.run(lower(k));

  core::TranslateOptions opt;
  opt.mode = core::LibMode::Profiler;
  const auto prog = lower(core::translate(k, opt));
  core::ControlBlock cb(prog);
  cb.prepare_profiling(32);
  const auto out = env.run(prog, &cb);
  EXPECT_EQ(out, base);
}

TEST_P(TranslatorFuzz, RScatterPreservesSemanticsOnRandomKernels) {
  RandomKernelGen gen(static_cast<std::uint64_t>(GetParam()) * 53 + 29);
  const Kernel k = gen.generate();
  FuzzEnv env;
  const auto base = env.run(lower(k));

  gpusim::DeviceProps props;
  const auto sk = swifi::make_r_scatter(k, props);
  ASSERT_TRUE(sk.compiles);
  const auto out = env.run(lower(sk.kernel));
  EXPECT_EQ(out, base);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslatorFuzz, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Determinism and campaign invariants
// ---------------------------------------------------------------------------

TEST(Determinism, LaunchIndependentOfWorkerCount) {
  auto w = workloads::make_tpacf();  // uses atomics + barriers
  const auto ds = w->make_dataset(3, workloads::Scale::Small);
  const auto prog = lower(w->build_kernel(workloads::Scale::Small));
  std::vector<std::uint32_t> first;
  std::uint64_t first_cycles = 0;
  for (int workers : {1, 2, 4}) {
    gpusim::Device dev;
    auto job = w->make_job(ds);
    const auto args = job->setup(dev);
    gpusim::LaunchOptions opts;
    opts.max_workers = workers;
    const auto res = dev.launch(prog, job->config(), args, opts);
    ASSERT_EQ(res.status, gpusim::LaunchStatus::Ok);
    const auto out = job->read_output(dev).words;
    if (first.empty()) {
      first = out;
      first_cycles = res.cycles;
    } else {
      EXPECT_EQ(out, first) << workers << " workers";
      EXPECT_EQ(res.cycles, first_cycles) << workers << " workers";
    }
  }
}

TEST(Determinism, ProfileSamplesStableAcrossRuns) {
  auto w = workloads::make_mri_q();
  const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
  const auto ds = w->make_dataset(4, workloads::Scale::Tiny);
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto p1 = core::profile(dev, v, {job.get()});
  const auto p2 = core::profile(dev, v, {job.get()});
  ASSERT_EQ(p1.samples.size(), p2.samples.size());
  for (std::size_t d = 0; d < p1.samples.size(); ++d) {
    std::vector<double> a = p1.samples[d], b = p2.samples[d];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "detector " << d;
  }
  EXPECT_EQ(p1.exec_counts, p2.exec_counts);
}

namespace {

std::vector<std::string> hpc_names() {
  std::vector<std::string> n;
  for (const auto& w : workloads::hpc_suite()) n.push_back(w->name());
  return n;
}

class CampaignInvariants : public ::testing::TestWithParam<std::string> {};

}  // namespace

TEST_P(CampaignInvariants, OutcomesPartitionAndCoverageBounded) {
  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == GetParam()) w = std::move(cand);
  gpusim::Device dev;
  const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
  const auto ds = w->make_dataset(6, workloads::Scale::Tiny);
  auto job = w->make_job(ds);
  const auto pd = core::profile(dev, v, {job.get()});
  const swifi::WorkerContextFactory factory = [&] {
    swifi::WorkerContext ctx;
    ctx.device = std::make_unique<gpusim::Device>();
    ctx.job = w->make_job(ds);
    ctx.cb = core::make_configured_control_block(v.fift, pd);
    return ctx;
  };

  swifi::PlanOptions opt;
  opt.max_vars = 10;
  opt.masks_per_var = 4;
  opt.error_bits = 3;
  const auto specs = swifi::plan_faults(v.fift, pd, opt);
  ASSERT_FALSE(specs.empty());
  swifi::CampaignExecutor ex(1);
  const auto res = ex.run(v.fift, factory, specs, w->requirement());

  // Outcomes partition the experiments.
  EXPECT_EQ(res.counts.activated() + res.counts.not_activated, specs.size());
  EXPECT_EQ(res.per_fault.size(), specs.size());
  // Coverage bounded and consistent with its definition.
  const double cov = res.counts.coverage();
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
  EXPECT_NEAR(cov, 1.0 - res.counts.ratio(res.counts.undetected), 1e-12);
  // The campaign must be reproducible.
  const auto res2 = ex.run(v.fift, factory, specs, w->requirement());
  EXPECT_EQ(res2.per_fault, res.per_fault);
}

TEST_P(CampaignInvariants, DeadWindowFaultsAreOverwhelminglyMasked) {
  // Late-window injections strike after the last use: they must be benign
  // far more often than live-window injections.
  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == GetParam()) w = std::move(cand);
  gpusim::Device dev;
  const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
  const auto ds = w->make_dataset(8, workloads::Scale::Tiny);
  auto job = w->make_job(ds);
  const auto pd = core::profile(dev, v, {job.get()});
  const auto gold = swifi::golden_run(dev, v.fi, *job);

  swifi::PlanOptions opt;
  opt.max_vars = 40;
  opt.masks_per_var = 3;
  opt.error_bits = 6;
  const auto specs = swifi::plan_faults(v.fi, pd, opt);

  swifi::OutcomeCounts live, dead;
  for (const auto& spec : specs) {
    bool is_dead = false;
    for (const auto& site : v.fi.fi_sites)
      if (site.site_id == spec.site_id) is_dead = site.dead_window;
    const auto o = swifi::run_one_fault(dev, v.fi, *job, nullptr, spec, gold.output,
                                        w->requirement(), 20'000'000);
    (is_dead ? dead : live).add(o);
  }
  if (dead.activated() >= 10 && live.activated() >= 10) {
    EXPECT_GE(dead.ratio(dead.masked) + 0.15, live.ratio(live.masked))
        << "dead-window faults should not be less benign than live ones";
  }
}

INSTANTIATE_TEST_SUITE_P(AllHpc, CampaignInvariants, ::testing::ValuesIn(hpc_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// R-Naive under injected faults
// ---------------------------------------------------------------------------

TEST(RNaiveIntegration, TransientDeviceFaultDetectedByOutputMismatch) {
  auto w = workloads::make_mri_q();
  const auto prog = lower(w->build_kernel(workloads::Scale::Tiny));
  const auto ds = w->make_dataset(9, workloads::Scale::Tiny);
  auto job = w->make_job(ds);
  gpusim::Device dev;
  gpusim::DeviceFaultModel fm;
  fm.kind = gpusim::DeviceFaultModel::Kind::Transient;
  fm.component = gpusim::DeviceFaultModel::Component::FPU;
  fm.mask = 0x00800000;
  fm.duration_ops = 5;  // strikes only the first execution
  dev.install_fault(fm);
  const auto rn = swifi::run_r_naive(dev, prog, *job);
  ASSERT_TRUE(rn.completed);
  EXPECT_TRUE(rn.mismatch) << "R-Naive must flag outputs that differ between runs";
}

TEST(RNaiveIntegration, CannotDetectHangs) {
  // Section IX.B: a corrupted-iterator hang defeats R-Naive — the first
  // execution never terminates, so there is nothing to compare.  (The
  // guardian handles this via its watchdog.)
  KernelBuilder kb("hang");
  auto out = kb.param_ptr("out");
  auto i = kb.let("i", i32c(0));
  kb.while_loop([&] { return i < i32c(10); }, [&] { kb.assign(i, i * i32c(1)); });
  kb.store(out, i);
  auto prog = lower(kb.build());

  struct Job final : core::KernelJob {
    std::uint32_t addr = 0;
    std::vector<Value> setup(gpusim::Device& dev) override {
      dev.reset_memory();
      addr = dev.mem().alloc(1);
      return {Value::ptr(addr)};
    }
    gpusim::LaunchConfig config() const override { return {}; }
    core::ProgramOutput read_output(const gpusim::Device&) const override { return {}; }
  } job;

  gpusim::Device dev;
  gpusim::LaunchOptions opts;
  opts.watchdog_instructions = 10000;
  const auto rn = swifi::run_r_naive(dev, prog, job, opts);
  EXPECT_FALSE(rn.completed);
  EXPECT_FALSE(rn.mismatch);
  EXPECT_EQ(rn.first.status, gpusim::LaunchStatus::Hang);
}
