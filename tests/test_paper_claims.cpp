// Reproduction-guard tests: assert the paper's qualitative claims (the
// "shapes" DESIGN.md promises) directly, so refactoring the cost model,
// translator or workloads cannot silently break the reproduction.
// Campaign sizes are kept small (Tiny scale); thresholds are deliberately
// loose — these are shape guards, not exact-number locks.
#include <gtest/gtest.h>

#include "hauberk/runtime.hpp"
#include "swifi/baselines.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::workloads;
using swifi::OutcomeCounts;

namespace {

struct Suite {
  std::vector<std::unique_ptr<Workload>> programs = hpc_suite();
};

/// Worker contexts over one workload + dataset; with `fift`/`pd`, each gets
/// its own identically configured control block.
swifi::WorkerContextFactory factory_for(const Workload& w, const Dataset& ds,
                                        const kir::BytecodeProgram* fift = nullptr,
                                        const core::ProfileData* pd = nullptr) {
  return [&w, &ds, fift, pd] {
    swifi::WorkerContext ctx;
    ctx.device = std::make_unique<gpusim::Device>();
    ctx.job = w.make_job(ds);
    if (fift && pd) ctx.cb = core::make_configured_control_block(*fift, *pd);
    return ctx;
  };
}

OutcomeCounts sensitivity(Workload& w, kir::DType type, int bits = 1,
                          Scale scale = Scale::Tiny) {
  gpusim::Device dev;
  const auto v = core::build_variants(w.build_kernel(scale));
  const auto ds = w.make_dataset(1, scale);
  auto job = w.make_job(ds);
  const auto pd = core::profile(dev, v, {job.get()});
  swifi::PlanOptions opt;
  opt.max_vars = 12;
  opt.masks_per_var = 6;
  opt.error_bits = bits;
  opt.type_filter = type;
  const auto specs = swifi::plan_faults(v.fi, pd, opt);
  return swifi::CampaignExecutor(1).run(v.fi, factory_for(w, ds), specs, w.requirement()).counts;
}

}  // namespace

// --- Observation 2: FP faults do not crash GPU kernels ---

TEST(PaperClaims, FpFaultsNeverCrash) {
  Suite s;
  std::uint64_t crashes = 0, total = 0;
  for (auto& w : s.programs) {
    const auto c = sensitivity(*w, kir::DType::F32);
    crashes += c.failure;
    total += c.activated();
  }
  ASSERT_GT(total, 100u);
  EXPECT_EQ(crashes, 0u) << "Observation 2: corrupted FP values must not trap";
}

TEST(PaperClaims, PointerAndIntegerFaultsDoCrash) {
  Suite s;
  std::uint64_t crashes = 0, total = 0;
  for (auto& w : s.programs) {
    for (auto t : {kir::DType::PTR, kir::DType::I32}) {
      const auto c = sensitivity(*w, t);
      crashes += c.failure;
      total += c.activated();
    }
  }
  ASSERT_GT(total, 100u);
  const double ratio = static_cast<double>(crashes) / static_cast<double>(total);
  EXPECT_GT(ratio, 0.05) << "control-data faults must produce failures (paper: 16-33%)";
  EXPECT_LT(ratio, 0.60);
}

TEST(PaperClaims, GraphicsProgramsShowNoSingleBitSdc) {
  // Needs a realistic frame size: "user-noticeable" is a fraction of the
  // frame, and at Tiny (8x8) a single corrupted pixel already exceeds it.
  for (auto& w : graphics_suite()) {
    for (auto t : {kir::DType::I32, kir::DType::F32}) {
      const auto c = sensitivity(*w, t, 1, Scale::Small);
      EXPECT_EQ(c.undetected, 0u) << w->name();
    }
  }
}

// --- Observation 4: loops dominate kernel time ---

TEST(PaperClaims, LoopsDominateKernelTime) {
  Suite s;
  int ge95 = 0;
  double rpes_pct = 100.0;
  for (auto& w : s.programs) {
    gpusim::Device dev;
    const auto prog = kir::lower(w->build_kernel(Scale::Small));
    const auto ds = w->make_dataset(1, Scale::Small);
    auto job = w->make_job(ds);
    const auto args = job->setup(dev);
    const auto res = dev.launch(prog, job->config(), args);
    ASSERT_EQ(res.status, gpusim::LaunchStatus::Ok);
    const double pct =
        100.0 * static_cast<double>(res.loop_cycles) / static_cast<double>(res.cycles);
    if (w->name() == "RPES") rpes_pct = pct;
    else ge95 += pct >= 95.0;
  }
  EXPECT_EQ(ge95, 6) << "all non-RPES programs must be loop-dominated";
  EXPECT_LT(rpes_pct, 50.0) << "RPES must be the sequential-heavy exception";
}

// --- Fig. 13 ordering: Hauberk << R-Scatter < R-Naive ---

TEST(PaperClaims, OverheadOrderingHoldsPerProgram) {
  // Small scale: at Tiny the fixed costs (control block, non-loop fraction)
  // distort the ratios the claim is about.
  Suite s;
  for (auto& w : s.programs) {
    gpusim::Device dev;
    const auto src = w->build_kernel(Scale::Small);
    const auto ds = w->make_dataset(1, Scale::Small);
    auto job = w->make_job(ds);
    const auto baseline = kir::lower(src);
    auto args = job->setup(dev);
    const auto base = dev.launch(baseline, job->config(), args);

    core::TranslateOptions opt;
    opt.mode = core::LibMode::FT;
    const auto ft = kir::lower(core::translate(src, opt));
    args = job->setup(dev);
    gpusim::LaunchOptions ft_opts;
    ft_opts.charge_control_block = true;
    const auto ftr = dev.launch(ft, job->config(), args, ft_opts);

    const auto rn = swifi::run_r_naive(dev, baseline, *job);

    EXPECT_LT(ftr.cycles, rn.total_cycles) << w->name() << ": Hauberk must beat R-Naive";

    const auto sk = swifi::make_r_scatter(src, dev.props());
    if (sk.compiles) {
      args = job->setup(dev);
      const auto scat = dev.launch(kir::lower(sk.kernel), job->config(), args);
      // RPES is exempt: a sequential program offers R-Scatter no data-level
      // parallelism to exploit, so optimized duplication can lose to naive
      // re-execution there (the core finding of the paper's reference [11]).
      if (w->name() != "RPES") {
        // 2% tolerance: an all-compute kernel (MRI-FHD) duplicates nearly
        // every instruction, so R-Scatter approaches R-Naive from below.
        EXPECT_LT(scat.cycles, rn.total_cycles * 102 / 100) << w->name();
        EXPECT_LT(ftr.cycles, scat.cycles) << w->name();
      }
    } else {
      EXPECT_EQ(w->name(), "TPACF") << "only TPACF may fail R-Scatter compilation";
    }
    EXPECT_GE(rn.total_cycles, 2 * base.cycles);
  }
}

// --- Fig. 14: detectors buy real coverage ---

TEST(PaperClaims, HauberkCoverageBeatsBaselineOnEveryProgram) {
  Suite s;
  for (auto& w : s.programs) {
    gpusim::Device dev;
    const auto v = core::build_variants(w->build_kernel(Scale::Tiny));
    const auto ds = w->make_dataset(2, Scale::Tiny);
    auto job = w->make_job(ds);
    const auto pd = core::profile(dev, v, {job.get()});
    swifi::PlanOptions opt;
    opt.max_vars = 14;
    opt.masks_per_var = 6;
    opt.error_bits = 6;
    swifi::CampaignExecutor ex(1);
    const auto fi = ex.run(v.fi, factory_for(*w, ds), swifi::plan_faults(v.fi, pd, opt),
                           w->requirement());
    const auto fift = ex.run(v.fift, factory_for(*w, ds, &v.fift, &pd),
                             swifi::plan_faults(v.fift, pd, opt), w->requirement());
    EXPECT_GE(fift.counts.coverage() + 0.02, fi.counts.coverage()) << w->name();
    // PNS's floor is inherently lower: corrupting its LCG state diverts the
    // whole stochastic trajectory while every detector-visible statistic
    // stays in range — an SDC class value-range checking cannot see.
    const double floor = w->name() == "PNS" ? 0.45 : 0.60;
    EXPECT_GE(fift.counts.coverage(), floor) << w->name() << ": coverage collapsed";
  }
}

// --- Fig. 16 shape: PNS converges instantly, alpha tames MRI-FHD ---

TEST(PaperClaims, PnsRangesConvergeFromOneTrainingSet) {
  auto w = make_pns();
  const auto v = core::build_variants(w->build_kernel(Scale::Tiny));
  gpusim::Device dev;
  // Train on one dataset, test on another: must not alarm.
  const auto train = w->make_dataset(100, Scale::Tiny);
  auto train_job = w->make_job(train);
  const auto pd = core::profile(dev, v, {train_job.get()});
  auto cb = core::make_configured_control_block(v.ft, pd);
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    const auto test = w->make_dataset(seed, Scale::Tiny);
    auto job = w->make_job(test);
    const auto args = job->setup(dev);
    cb->reset_results();
    gpusim::LaunchOptions opts;
    opts.hooks = cb.get();
    const auto res = dev.launch(v.ft, job->config(), args, opts);
    ASSERT_EQ(res.status, gpusim::LaunchStatus::Ok);
    EXPECT_FALSE(res.sdc_alarm || cb->sdc_detected()) << "seed " << seed;
  }
}

TEST(PaperClaims, AlphaSuppressesMriFhdFalsePositives) {
  auto w = make_mri_fhd();
  const auto v = core::build_variants(w->build_kernel(Scale::Tiny));
  gpusim::Device dev;
  const auto train = w->make_dataset(100, Scale::Tiny);
  auto train_job = w->make_job(train);
  const auto pd = core::profile(dev, v, {train_job.get()});

  auto count_fps = [&](double alpha) {
    auto cb = core::make_configured_control_block(v.ft, pd, alpha);
    int alarms = 0;
    for (std::uint64_t seed = 300; seed < 312; ++seed) {
      const auto test = w->make_dataset(seed, Scale::Tiny);
      auto job = w->make_job(test);
      const auto args = job->setup(dev);
      cb->reset_results();
      gpusim::LaunchOptions opts;
      opts.hooks = cb.get();
      (void)dev.launch(v.ft, job->config(), args, opts);
      alarms += cb->sdc_detected();
    }
    return alarms;
  };

  const int fp1 = count_fps(1.0);
  const int fp100 = count_fps(100.0);
  EXPECT_GT(fp1, 0) << "one training set cannot cover MRI-FHD's dataset variation";
  EXPECT_LT(fp100, fp1) << "alpha widening must reduce false positives";
}

// --- TPACF structural claims (Section IX.A/B) ---

TEST(PaperClaims, TpacfRScatterFailsWithSharedMemoryReason) {
  auto w = make_tpacf();
  const auto sk = swifi::make_r_scatter(w->build_kernel(Scale::Tiny), gpusim::DeviceProps{});
  EXPECT_FALSE(sk.compiles);
  EXPECT_NE(sk.reason.find("shared memory"), std::string::npos);
}
