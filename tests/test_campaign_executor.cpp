// Determinism tests for the in-memory campaign driver (swifi/executor.hpp):
// identical seeds and specs must produce bitwise-identical per-fault
// outcomes and counts for every worker count, and the executor must agree
// exactly with a plain single-device loop written out in this file.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "hauberk/runtime.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::swifi;
using namespace hauberk::workloads;

namespace {

struct Fixture {
  std::unique_ptr<Workload> w;
  core::KernelVariants v;
  Dataset ds;
  core::ProfileData pd;

  explicit Fixture(std::unique_ptr<Workload> wl, std::uint64_t seed = 21)
      : w(std::move(wl)),
        v(core::build_variants(w->build_kernel(Scale::Tiny))),
        ds(w->make_dataset(seed, Scale::Tiny)) {
    gpusim::Device dev;
    auto job = w->make_job(ds);
    pd = core::profile(dev, v, {job.get()});
  }

  /// Every invocation stages the same dataset and (optionally) an
  /// identically configured control block — the factory contract.
  [[nodiscard]] WorkerContextFactory factory(bool with_cb) const {
    return [this, with_cb] {
      WorkerContext ctx;
      ctx.device = std::make_unique<gpusim::Device>();
      ctx.job = w->make_job(ds);
      if (with_cb) ctx.cb = core::make_configured_control_block(v.fift, pd);
      return ctx;
    };
  }
};

/// The independent oracle: trials 0..n-1 in order on one device against one
/// golden run, written here rather than shared with the library's pump.
/// `trial(dev, job, gold, watchdog, i)` runs trial i.
template <typename Trial>
CampaignResult single_device_loop(const Fixture& f, const kir::BytecodeProgram& prog,
                                  std::size_t n, Trial&& trial) {
  const CampaignConfig cfg;
  gpusim::Device dev;
  dev.set_engine(cfg.engine);
  dev.set_sanitize(cfg.sanitize);
  auto job = f.w->make_job(f.ds);
  const GoldenRun gold = golden_run(dev, prog, *job, nullptr, cfg.launch_workers);
  const std::uint64_t watchdog = campaign_watchdog(gold, cfg);
  CampaignResult res;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome o = trial(dev, *job, gold, watchdog, i);
    res.per_fault.push_back(o);
    res.counts.add(o);
  }
  return res;
}

/// A job that throws from read_output() once `calls` read-outs have run in
/// total across every worker sharing `calls` — a trial failing mid-campaign.
/// (Read-out, not setup: a staged worker runs setup() only once.)
class ThrowingJob : public core::KernelJob {
 public:
  ThrowingJob(std::unique_ptr<core::KernelJob> inner, std::shared_ptr<std::atomic<int>> calls,
              int throw_at)
      : inner_(std::move(inner)), calls_(std::move(calls)), throw_at_(throw_at) {}
  std::vector<kir::Value> setup(gpusim::Device& dev) override { return inner_->setup(dev); }
  [[nodiscard]] gpusim::LaunchConfig config() const override { return inner_->config(); }
  [[nodiscard]] core::ProgramOutput read_output(const gpusim::Device& dev) const override {
    if (calls_->fetch_add(1) + 1 == throw_at_) throw std::runtime_error("trial read-out failed");
    return inner_->read_output(dev);
  }

 private:
  std::unique_ptr<core::KernelJob> inner_;
  std::shared_ptr<std::atomic<int>> calls_;
  int throw_at_;
};

void expect_same_result(const CampaignResult& a, const CampaignResult& b, const char* what) {
  ASSERT_EQ(a.per_fault.size(), b.per_fault.size()) << what;
  for (std::size_t i = 0; i < a.per_fault.size(); ++i)
    EXPECT_EQ(a.per_fault[i], b.per_fault[i]) << what << " trial " << i;
  EXPECT_EQ(a.counts.failure, b.counts.failure) << what;
  EXPECT_EQ(a.counts.masked, b.counts.masked) << what;
  EXPECT_EQ(a.counts.detected_masked, b.counts.detected_masked) << what;
  EXPECT_EQ(a.counts.detected, b.counts.detected) << what;
  EXPECT_EQ(a.counts.undetected, b.counts.undetected) << what;
  EXPECT_EQ(a.counts.not_activated, b.counts.not_activated) << what;
}

}  // namespace

TEST(CampaignExecutor, PlannedCampaignInvariantAcrossWorkerCounts) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 8;
  opt.masks_per_var = 4;
  opt.seed = 7;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);
  ASSERT_FALSE(specs.empty());

  CampaignExecutor one(1);
  const auto base = one.run(f.v.fi, f.factory(false), specs, f.w->requirement());
  EXPECT_EQ(base.per_fault.size(), specs.size());
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    EXPECT_EQ(ex.workers(), workers);
    const auto res = ex.run(f.v.fi, f.factory(false), specs, f.w->requirement());
    expect_same_result(base, res, "planned FI campaign");
  }
}

TEST(CampaignExecutor, MatchesPlainSingleDeviceLoop) {
  Fixture f(make_mri_q());
  const auto req = f.w->requirement();
  const CampaignConfig cfg;
  CampaignExecutor ex(4);

  PlanOptions opt;
  opt.max_vars = 6;
  opt.masks_per_var = 4;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);
  ASSERT_FALSE(specs.empty());
  std::unique_ptr<TrialStage> stage;
  const auto planned = single_device_loop(
      f, f.v.fi, specs.size(),
      [&](gpusim::Device& dev, core::KernelJob& job, const GoldenRun& gold,
          std::uint64_t watchdog, std::size_t i) {
        if (!stage) stage = std::make_unique<TrialStage>(dev, job);
        return run_one_fault(dev, f.v.fi, job, nullptr, specs[i], gold.output, req, watchdog,
                             cfg.launch_workers, cfg.sanitize_cap, stage.get());
      });
  expect_same_result(planned, ex.run(f.v.fi, f.factory(false), specs, req),
                     "planned faults: loop vs executor");

  const auto memory = single_device_loop(
      f, f.v.baseline, 30,
      [&](gpusim::Device& dev, core::KernelJob& job, const GoldenRun& gold,
          std::uint64_t watchdog, std::size_t i) {
        common::Rng rng = common::Rng::fork(11, i);
        const std::uint32_t mask = common::random_mask(rng, 3);
        return run_one_memory_fault(dev, f.v.baseline, job, rng, mask, gold.output, req,
                                    watchdog, cfg.launch_workers, cfg.sanitize_cap);
      });
  expect_same_result(memory, ex.run_memory_faults(f.v.baseline, f.factory(false), 11, 30, 3, req),
                     "memory faults: loop vs executor");

  const auto code = single_device_loop(
      f, f.v.baseline, 30,
      [&](gpusim::Device& dev, core::KernelJob& job, const GoldenRun& gold,
          std::uint64_t watchdog, std::size_t i) {
        common::Rng rng = common::Rng::fork(9, i);
        return run_one_code_fault(dev, f.v.baseline, job, rng, gold.output, req, watchdog,
                                  cfg.launch_workers, cfg.sanitize_cap);
      });
  expect_same_result(code, ex.run_code_faults(f.v.baseline, f.factory(false), 9, 30, req),
                     "code faults: loop vs executor");
}

TEST(CampaignExecutor, CountsAreWeightedByTrialWeights) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 4;
  opt.masks_per_var = 3;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);
  ASSERT_FALSE(specs.empty());
  CampaignConfig cfg;
  std::uint64_t population = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cfg.trial_weights.push_back(static_cast<std::uint32_t>(1 + i % 4));
    population += 1 + i % 4;
  }
  const auto res = CampaignExecutor(2).run(f.v.fi, f.factory(false), specs,
                                           f.w->requirement(), cfg);
  OutcomeCounts expected;
  for (std::size_t i = 0; i < specs.size(); ++i)
    expected.add(res.per_fault[i], cfg.trial_weight(i));
  EXPECT_EQ(res.counts.activated() + res.counts.not_activated, population);
  EXPECT_EQ(res.counts.masked, expected.masked);
  EXPECT_EQ(res.counts.undetected, expected.undetected);
  EXPECT_EQ(res.counts.failure, expected.failure);
  EXPECT_EQ(res.counts.not_activated, expected.not_activated);
}

TEST(CampaignExecutor, MoreTrialsThanTheReorderWindowInvariant) {
  // 4400 trials overrun the 4096-slot reorder window at 8 workers, so slots
  // are reused while later ordinals wait for the committer.
  Fixture f(make_pns());
  const auto base = CampaignExecutor(1).run_code_faults(f.v.baseline, f.factory(false), 13, 4400,
                                                        f.w->requirement());
  ASSERT_EQ(base.per_fault.size(), 4400u);
  const auto res = CampaignExecutor(8).run_code_faults(f.v.baseline, f.factory(false), 13, 4400,
                                                       f.w->requirement());
  expect_same_result(base, res, "window wrap at 8 workers");
}

TEST(CampaignExecutor, TrialThatThrowsRethrowsAndJoins) {
  Fixture f(make_sad());
  const auto calls = std::make_shared<std::atomic<int>>(0);
  const WorkerContextFactory throwing = [&f, calls] {
    WorkerContext ctx;
    ctx.device = std::make_unique<gpusim::Device>();
    ctx.job = std::make_unique<ThrowingJob>(f.w->make_job(f.ds), calls, 150);
    return ctx;
  };
  CampaignExecutor ex(8);
  EXPECT_THROW((void)ex.run_memory_faults(f.v.baseline, throwing, 11, 300, 1, f.w->requirement()),
               std::runtime_error);
  EXPECT_GE(calls->load(), 150);
}

TEST(CampaignExecutor, FiFtCampaignWithControlBlockInvariant) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 8;
  opt.masks_per_var = 4;
  opt.error_bits = 6;
  opt.seed = 5;
  const auto specs = plan_faults(f.v.fift, f.pd, opt);
  ASSERT_FALSE(specs.empty());

  CampaignExecutor one(1);
  const auto base = one.run(f.v.fift, f.factory(true), specs, f.w->requirement());
  EXPECT_GT(base.counts.detected + base.counts.detected_masked, 0u)
      << "detectors must fire so the invariance check covers detected outcomes";
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    const auto res = ex.run(f.v.fift, f.factory(true), specs, f.w->requirement());
    expect_same_result(base, res, "FI&FT campaign");
  }
}

TEST(CampaignExecutor, MemoryFaultCampaignInvariant) {
  Fixture f(make_sad());
  CampaignExecutor one(1);
  const auto base =
      one.run_memory_faults(f.v.baseline, f.factory(false), 11, 40, 3, f.w->requirement());
  EXPECT_EQ(base.per_fault.size(), 40u);
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    const auto res =
        ex.run_memory_faults(f.v.baseline, f.factory(false), 11, 40, 3, f.w->requirement());
    expect_same_result(base, res, "memory-fault campaign");
  }
}

// Memory faults on a Hsiao device, FT build with its control block: with
// single-bit strikes the golden run records only the net effect (every
// trial takes one step or runs in full), with double-bit strikes the full
// journal.  Either way each trial's outcome must be the journal-less
// run_one_memory_fault loop's, at 1 and 4 workers.
TEST(CampaignExecutor, ProtectedMemoryFaultsMatchJournalLessLoop) {
  using gpusim::ecc::Scheme;
  EXPECT_EQ(memory_fault_journal(Scheme::Hsiao, 1), GoldenJournal::NetEffect);
  EXPECT_EQ(memory_fault_journal(Scheme::Hamming, 1), GoldenJournal::NetEffect);
  EXPECT_EQ(memory_fault_journal(Scheme::Hsiao, 2), GoldenJournal::Full);
  EXPECT_EQ(memory_fault_journal(Scheme::None, 1), GoldenJournal::Full);

  Fixture f(make_cp());
  const auto req = f.w->requirement();
  gpusim::DeviceProps props;
  props.protection = Scheme::Hsiao;
  const WorkerContextFactory factory = [&] {
    WorkerContext ctx;
    ctx.device = std::make_unique<gpusim::Device>(props);
    ctx.job = f.w->make_job(f.ds);
    ctx.cb = core::make_configured_control_block(f.v.ft, f.pd);
    return ctx;
  };
  CampaignConfig cfg;
  cfg.protection = Scheme::Hsiao;
  for (const int bits : {1, 2}) {
    // The oracle: fresh set-up and a full launch per trial.
    WorkerContext ref = factory();
    ref.device->set_engine(cfg.engine);
    const GoldenRun gold = golden_run(*ref.device, f.v.ft, *ref.job, ref.cb.get(),
                                      cfg.launch_workers, GoldenJournal::None);
    EXPECT_FALSE(gold.journal);
    const std::uint64_t watchdog = campaign_watchdog(gold, cfg);
    CampaignResult loop;
    for (std::size_t i = 0; i < 60; ++i) {
      common::Rng rng = common::Rng::fork(17, i);
      const std::uint32_t mask = common::random_mask(rng, bits);
      const Outcome o = run_one_memory_fault(*ref.device, f.v.ft, *ref.job, rng, mask,
                                             gold.output, req, watchdog, cfg.launch_workers,
                                             cfg.sanitize_cap, ref.cb.get());
      loop.per_fault.push_back(o);
      loop.counts.add(o);
    }
    if (bits == 1)
      EXPECT_GT(loop.counts.ecc_corrected, 0u);
    else
      EXPECT_GT(loop.counts.ecc_uncorrectable, 0u);
    for (const int workers : {1, 4}) {
      const auto res = CampaignExecutor(workers).run_memory_faults(f.v.ft, factory, 17, 60, bits,
                                                                   req, cfg);
      expect_same_result(loop, res, bits == 1 ? "net-effect journal" : "full journal");
      EXPECT_EQ(res.counts.ecc_corrected, loop.counts.ecc_corrected);
      EXPECT_EQ(res.counts.ecc_uncorrectable, loop.counts.ecc_uncorrectable);
    }
  }
}

TEST(CampaignExecutor, CodeFaultCampaignInvariant) {
  Fixture f(make_pns());
  CampaignExecutor one(1);
  const auto base = one.run_code_faults(f.v.baseline, f.factory(false), 9, 50, f.w->requirement());
  EXPECT_EQ(base.per_fault.size(), 50u);
  EXPECT_GT(base.counts.failure, 0u);
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    const auto res =
        ex.run_code_faults(f.v.baseline, f.factory(false), 9, 50, f.w->requirement());
    expect_same_result(base, res, "code-fault campaign");
  }
}

TEST(CampaignExecutor, EmptySpecsYieldEmptyResult) {
  Fixture f(make_cp());
  CampaignExecutor ex(2);
  const auto res = ex.run(f.v.fi, f.factory(false), {}, f.w->requirement());
  EXPECT_TRUE(res.per_fault.empty());
  EXPECT_EQ(res.counts.activated() + res.counts.not_activated, 0u);
}

TEST(CampaignExecutor, ZeroWorkersSelectsHardwareConcurrency) {
  CampaignExecutor ex;
  EXPECT_GE(ex.workers(), 1);
}
