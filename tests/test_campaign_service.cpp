// Crash-recovery and determinism tests for the sharded, checkpointed
// campaign service (swifi/service.hpp).
//
// The contract under test: a campaign's final outcome counts, histograms,
// remark digest and result-log bytes are a pure function of (program, specs,
// requirement) — invariant across worker counts, shard splits, and any
// kill/resume history.  Kills are simulated with the on_checkpoint hook,
// which throws right after a periodic checkpoint lands on disk; that leaves
// exactly the on-disk state a SIGKILL at that instant would.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hauberk/checkpoint.hpp"
#include "hauberk/prune.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/prune.hpp"
#include "swifi/resultlog.hpp"
#include "swifi/service.hpp"
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
  std::vector<FaultSpec> specs;

  explicit Fixture(std::unique_ptr<Workload> wl, bool with_ft = false, std::uint64_t seed = 7)
      : w(std::move(wl)),
        v(core::build_variants(w->build_kernel(Scale::Tiny))),
        ds(w->make_dataset(21, Scale::Tiny)) {
    gpusim::Device dev;
    auto job = w->make_job(ds);
    pd = core::profile(dev, v, {job.get()});
    PlanOptions opt;
    opt.max_vars = 8;
    opt.masks_per_var = 4;
    opt.seed = seed;
    specs = plan_faults(with_ft ? v.fift : v.fi, pd, opt);
  }

  [[nodiscard]] const kir::BytecodeProgram& prog(bool with_ft = false) const {
    return with_ft ? v.fift : v.fi;
  }

  [[nodiscard]] WorkerContextFactory factory(bool with_cb = false) const {
    return [this, with_cb] {
      WorkerContext ctx;
      ctx.device = std::make_unique<gpusim::Device>();
      ctx.job = w->make_job(ds);
      if (with_cb) ctx.cb = core::make_configured_control_block(v.fift, pd);
      return ctx;
    };
  }

  /// Like factory(), but every worker device carries hardware ECC on global
  /// memory.  Every engine then routes loads through the EDC check path,
  /// so this exercises the protected datapath under the full service
  /// machinery (sharding, checkpoints, result logs).
  [[nodiscard]] WorkerContextFactory protected_factory(gpusim::ecc::Scheme scheme) const {
    return [this, scheme] {
      WorkerContext ctx;
      gpusim::DeviceProps props;
      props.protection = scheme;
      ctx.device = std::make_unique<gpusim::Device>(props);
      ctx.job = w->make_job(ds);
      return ctx;
    };
  }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "hauberk_service_" + name;
}

void expect_same_aggregates(const ServiceResult& a, const ServiceResult& b,
                            const char* what) {
  EXPECT_EQ(a.counts.failure, b.counts.failure) << what;
  EXPECT_EQ(a.counts.masked, b.counts.masked) << what;
  EXPECT_EQ(a.counts.detected_masked, b.counts.detected_masked) << what;
  EXPECT_EQ(a.counts.detected, b.counts.detected) << what;
  EXPECT_EQ(a.counts.undetected, b.counts.undetected) << what;
  EXPECT_EQ(a.counts.not_activated, b.counts.not_activated) << what;
  EXPECT_EQ(a.counts.ecc_corrected, b.counts.ecc_corrected) << what;
  EXPECT_EQ(a.counts.ecc_uncorrectable, b.counts.ecc_uncorrectable) << what;
  EXPECT_TRUE(a.site_hist == b.site_hist) << what;
  EXPECT_TRUE(a.sdc_site_hist == b.sdc_site_hist) << what;
  EXPECT_EQ(a.remark_digest, b.remark_digest) << what;
  EXPECT_EQ(a.config_digest, b.config_digest) << what;
}

/// The crash-recovery driver: run one shard to completion, simulating a kill
/// right after every k-th periodic checkpoint (the hook throws once per run
/// instance), resuming after each kill.  Returns the final completed result.
struct CrashInjected : std::runtime_error {
  CrashInjected() : std::runtime_error("injected crash") {}
};

ServiceResult run_with_crashes(const Fixture& f, ServiceConfig cfg, bool crash_every_ckpt,
                               int& crashes) {
  crashes = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    ServiceConfig attempt = cfg;
    attempt.resume = cycle > 0;
    if (crash_every_ckpt) {
      auto armed = std::make_shared<bool>(true);
      attempt.on_checkpoint = [armed](const CampaignCheckpoint&) {
        if (*armed) {
          *armed = false;  // one kill per process incarnation
          throw CrashInjected();
        }
      };
    }
    CampaignService service(attempt);
    try {
      return service.run(f.prog(), f.factory(), f.specs, f.w->requirement());
    } catch (const CrashInjected&) {
      ++crashes;
    }
  }
  ADD_FAILURE() << "kill/resume cycle did not converge in 100 attempts";
  return {};
}

}  // namespace

TEST(CampaignService, MatchesCampaignExecutor) {
  Fixture f(make_cp());
  ASSERT_FALSE(f.specs.empty());

  CampaignExecutor ex(2);
  const auto ref = ex.run(f.prog(), f.factory(), f.specs, f.w->requirement());

  ServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(cfg);
  const auto res = service.run(f.prog(), f.factory(), f.specs, f.w->requirement());

  EXPECT_EQ(res.counts.failure, ref.counts.failure);
  EXPECT_EQ(res.counts.masked, ref.counts.masked);
  EXPECT_EQ(res.counts.detected_masked, ref.counts.detected_masked);
  EXPECT_EQ(res.counts.detected, ref.counts.detected);
  EXPECT_EQ(res.counts.undetected, ref.counts.undetected);
  EXPECT_EQ(res.counts.not_activated, ref.counts.not_activated);
  EXPECT_EQ(res.shard_trials, f.specs.size());
  EXPECT_EQ(res.trials_run, f.specs.size());
  EXPECT_EQ(res.site_hist.total(), f.specs.size());
}

TEST(CampaignService, WorkerCountInvariantIncludingLogBytes) {
  Fixture f(make_cp());
  ServiceConfig base;
  base.workers = 1;
  base.resultlog_path = tmp_path("wc_ref.log");
  CampaignService one(base);
  const auto ref = one.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  const auto ref_bytes = read_bytes(base.resultlog_path);
  ASSERT_FALSE(ref_bytes.empty());

  for (const int workers : {2, 8}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.resultlog_path = tmp_path("wc_" + std::to_string(workers) + ".log");
    CampaignService service(cfg);
    const auto res = service.run(f.prog(), f.factory(), f.specs, f.w->requirement());
    expect_same_aggregates(ref, res, "worker invariance");
    EXPECT_EQ(read_bytes(cfg.resultlog_path), ref_bytes)
        << "result log must be byte-identical at " << workers << " workers";
  }
}

TEST(CampaignService, ShardMergeMatchesSingleShot) {
  Fixture f(make_cp());
  ServiceConfig ref_cfg;
  ref_cfg.workers = 2;
  ref_cfg.resultlog_path = tmp_path("merge_ref.log");
  CampaignService ref_service(ref_cfg);
  const auto ref = ref_service.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  const auto ref_log = read_result_log(ref_cfg.resultlog_path);

  for (const std::uint32_t K : {2u, 4u}) {
    std::vector<ResultLogData> shard_logs;
    ServiceResult merged;
    std::uint64_t shard_sum = 0;
    for (std::uint32_t i = 0; i < K; ++i) {
      ServiceConfig cfg;
      cfg.workers = 2;
      cfg.shards = K;
      cfg.shard_index = i;
      cfg.resultlog_path =
          tmp_path("merge_" + std::to_string(K) + "_" + std::to_string(i) + ".log");
      CampaignService service(cfg);
      const auto res = service.run(f.prog(), f.factory(), f.specs, f.w->requirement());
      shard_sum += res.shard_trials;
      shard_logs.push_back(read_result_log(cfg.resultlog_path));
      if (i == 0)
        merged = res;
      else
        merged.merge(res);
    }
    EXPECT_EQ(shard_sum, f.specs.size()) << "shards must partition the campaign";
    expect_same_aggregates(ref, merged, "shard merge invariance");

    const auto log = merge_result_logs(shard_logs);
    ASSERT_EQ(log.records.size(), ref_log.records.size());
    for (std::size_t i = 0; i < log.records.size(); ++i)
      EXPECT_EQ(log.records[i], ref_log.records[i]) << "K=" << K << " record " << i;
  }
}

TEST(CampaignService, KillAfterEveryCheckpointResumesByteIdentical) {
  Fixture f(make_cp());
  // Uninterrupted single-shot reference.
  ServiceConfig ref_cfg;
  ref_cfg.workers = 2;
  ref_cfg.resultlog_path = tmp_path("kill_ref.log");
  CampaignService ref_service(ref_cfg);
  const auto ref = ref_service.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  const auto ref_log = read_result_log(ref_cfg.resultlog_path);

  struct Config {
    std::uint32_t shards;
    int workers;
  };
  for (const Config c : {Config{1, 2}, Config{2, 2}, Config{4, 2}, Config{1, 1}, Config{1, 8}}) {
    std::vector<ResultLogData> shard_logs;
    ServiceResult merged;
    const std::string tag = std::to_string(c.shards) + "s" + std::to_string(c.workers) + "w";
    for (std::uint32_t i = 0; i < c.shards; ++i) {
      ServiceConfig cfg;
      cfg.workers = c.workers;
      cfg.shards = c.shards;
      cfg.shard_index = i;
      cfg.checkpoint_every = 5;
      cfg.checkpoint_path = tmp_path("kill_" + tag + "_" + std::to_string(i) + ".ckpt");
      cfg.resultlog_path = tmp_path("kill_" + tag + "_" + std::to_string(i) + ".log");
      int crashes = 0;
      const auto res = run_with_crashes(f, cfg, /*crash_every_ckpt=*/true, crashes);
      EXPECT_GT(crashes, 0) << tag << ": the crash harness must actually crash";
      EXPECT_EQ(res.trials_run + res.trials_resumed, res.shard_trials) << tag;
      EXPECT_GT(res.trials_resumed, 0u) << tag << ": final cycle must be a resume";
      shard_logs.push_back(read_result_log(cfg.resultlog_path));
      if (i == 0)
        merged = res;
      else
        merged.merge(res);
    }
    expect_same_aggregates(ref, merged, tag.c_str());
    const auto log = c.shards == 1 ? shard_logs[0] : merge_result_logs(shard_logs);
    ASSERT_EQ(log.records.size(), ref_log.records.size()) << tag;
    for (std::size_t i = 0; i < log.records.size(); ++i)
      EXPECT_EQ(log.records[i], ref_log.records[i]) << tag << " record " << i;
  }
}

TEST(CampaignService, ResumeOfCompletedShardIsNoOp) {
  Fixture f(make_cp());
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = tmp_path("noop.ckpt");
  cfg.resultlog_path = tmp_path("noop.log");
  CampaignService first(cfg);
  const auto full = first.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  const auto bytes = read_bytes(cfg.resultlog_path);

  cfg.resume = true;
  CampaignService again(cfg);
  const auto res = again.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  EXPECT_EQ(res.trials_run, 0u);
  EXPECT_EQ(res.trials_resumed, full.shard_trials);
  expect_same_aggregates(full, res, "no-op resume");
  EXPECT_EQ(read_bytes(cfg.resultlog_path), bytes) << "no-op resume must not disturb the log";
}

TEST(CampaignService, ResumeRejectsCheckpointFromDifferentCampaign) {
  Fixture f(make_cp());
  Fixture other(make_cp(), /*with_ft=*/false, /*seed=*/1234);  // different fault plan
  ASSERT_NE(campaign_digest(f.prog(), f.specs, f.w->requirement(), 0),
            campaign_digest(other.prog(), other.specs, other.w->requirement(), 0));

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.checkpoint_path = tmp_path("xcampaign.ckpt");
  CampaignService writer(cfg);
  (void)writer.run(f.prog(), f.factory(), f.specs, f.w->requirement());

  cfg.resume = true;
  CampaignService reader(cfg);
  EXPECT_THROW(
      (void)reader.run(other.prog(), other.factory(), other.specs, other.w->requirement()),
      core::CheckpointError);
}

TEST(CampaignService, ResumeRejectsWrongShard) {
  Fixture f(make_cp());
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.shards = 2;
  cfg.shard_index = 0;
  cfg.checkpoint_path = tmp_path("xshard.ckpt");
  CampaignService writer(cfg);
  (void)writer.run(f.prog(), f.factory(), f.specs, f.w->requirement());

  cfg.shard_index = 1;
  cfg.resume = true;
  CampaignService reader(cfg);
  EXPECT_THROW((void)reader.run(f.prog(), f.factory(), f.specs, f.w->requirement()),
               core::CheckpointError);
}

TEST(CampaignService, TornLogTailIsTruncatedOnResume) {
  Fixture f(make_cp());
  ServiceConfig ref_cfg;
  ref_cfg.workers = 2;
  ref_cfg.resultlog_path = tmp_path("torn_ref.log");
  CampaignService ref_service(ref_cfg);
  const auto ref = ref_service.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  const auto ref_bytes = read_bytes(ref_cfg.resultlog_path);

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = tmp_path("torn.ckpt");
  cfg.resultlog_path = tmp_path("torn.log");
  auto armed = std::make_shared<bool>(true);
  cfg.on_checkpoint = [armed](const CampaignCheckpoint&) {
    if (*armed) {
      *armed = false;
      throw CrashInjected();
    }
  };
  CampaignService first(cfg);
  EXPECT_THROW((void)first.run(f.prog(), f.factory(), f.specs, f.w->requirement()),
               CrashInjected);

  // A kill mid-append leaves a partial trailing record; fake one.
  {
    std::ofstream out(cfg.resultlog_path, std::ios::binary | std::ios::app);
    out.write("\x7f\x00\x01", 3);
  }
  EXPECT_GT(read_result_log(cfg.resultlog_path).torn_tail_bytes, 0u);

  cfg.on_checkpoint = nullptr;
  cfg.resume = true;
  CampaignService second(cfg);
  const auto res = second.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  expect_same_aggregates(ref, res, "torn-tail resume");
  EXPECT_EQ(read_bytes(cfg.resultlog_path), ref_bytes)
      << "resume must truncate the torn tail and converge to the reference bytes";
}

TEST(CampaignService, StaleTempCheckpointIsIgnoredAndReplaced) {
  Fixture f(make_cp());
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = tmp_path("staletmp.ckpt");
  cfg.resultlog_path = tmp_path("staletmp.log");
  // A kill mid-save leaves a garbage temp file; it must never be read, and
  // the next atomic save must clobber it.
  {
    std::ofstream out(cfg.checkpoint_path + ".tmp", std::ios::binary);
    out << "this is not a checkpoint";
  }
  auto armed = std::make_shared<bool>(true);
  cfg.on_checkpoint = [armed](const CampaignCheckpoint&) {
    if (*armed) {
      *armed = false;
      throw CrashInjected();
    }
  };
  CampaignService first(cfg);
  EXPECT_THROW((void)first.run(f.prog(), f.factory(), f.specs, f.w->requirement()),
               CrashInjected);

  // The checkpoint that landed must be loadable (the stale tmp never
  // contaminated it), and a resume completes normally.
  const auto ck = CampaignCheckpoint::load(cfg.checkpoint_path);
  EXPECT_GT(ck.watermark, 0u);
  cfg.on_checkpoint = nullptr;
  cfg.resume = true;
  CampaignService second(cfg);
  const auto res = second.run(f.prog(), f.factory(), f.specs, f.w->requirement());
  EXPECT_EQ(res.trials_run + res.trials_resumed, res.shard_trials);
}

TEST(CampaignService, FiFtCampaignWithControlBlockSurvivesKillResume) {
  Fixture f(make_cp(), /*with_ft=*/true);
  ASSERT_FALSE(f.specs.empty());
  ServiceConfig ref_cfg;
  ref_cfg.workers = 2;
  ref_cfg.campaign.pipeline = PipelineSpec::from_report(f.v.fift_report);
  CampaignService ref_service(ref_cfg);
  const auto ref =
      ref_service.run(f.prog(true), f.factory(true), f.specs, f.w->requirement());
  EXPECT_GT(ref.counts.detected + ref.counts.detected_masked, 0u)
      << "detectors must fire so the invariance check covers detected outcomes";
  EXPECT_NE(ref.remark_digest, 0u);

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.campaign.pipeline = PipelineSpec::from_report(f.v.fift_report);
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = tmp_path("fift.ckpt");
  int crashes = 0;
  ServiceResult res;
  for (int cycle = 0; cycle < 100; ++cycle) {
    ServiceConfig attempt = cfg;
    attempt.resume = cycle > 0;
    auto armed = std::make_shared<bool>(true);
    attempt.on_checkpoint = [armed](const CampaignCheckpoint&) {
      if (*armed) {
        *armed = false;
        throw CrashInjected();
      }
    };
    CampaignService service(attempt);
    try {
      res = service.run(f.prog(true), f.factory(true), f.specs, f.w->requirement());
      break;
    } catch (const CrashInjected&) {
      ++crashes;
    }
  }
  EXPECT_GT(crashes, 0);
  expect_same_aggregates(ref, res, "FI&FT kill/resume");
}

// The threaded engine runs each trial's unarmed threads with FIHooks
// compiled away (DESIGN §10); none of that may reach a persisted byte.  An
// FI&FT campaign's result log is byte-identical between the reference
// interpreter and the threaded engine at 1/2/8 workers and across
// kill/resume — and so is a pruned campaign's, whose representatives
// interleave sites and threads.
TEST(CampaignService, FiFtLogBytesMatchReferenceEngine) {
  Fixture f(make_cp(), /*with_ft=*/true);
  ASSERT_FALSE(f.specs.empty());
  prune::PruningPlan plan;
  plan.kernels.push_back(prune::build_kernel_prune_facts(f.v.fift_source, f.v.fift));
  const auto pruned = prune_specs(plan, plan.kernels[0].kernel, f.v.fift, f.specs);
  ASSERT_LT(pruned.specs.size(), f.specs.size());

  struct Campaign {
    const char* name;
    std::vector<FaultSpec> specs;
    std::vector<std::uint32_t> weights;
    std::uint64_t prune_digest;
  };
  for (const Campaign& c : {Campaign{"full", f.specs, {}, 0},
                            Campaign{"pruned", pruned.specs, pruned.weights,
                                     pruned.plan_digest}}) {
    auto config = [&](gpusim::ExecEngine engine, int workers, const std::string& tag) {
      ServiceConfig cfg;
      cfg.workers = workers;
      cfg.campaign.engine = engine;
      cfg.campaign.pipeline = PipelineSpec::from_report(f.v.fift_report);
      cfg.campaign.trial_weights = c.weights;
      cfg.campaign.prune_digest = c.prune_digest;
      cfg.resultlog_path = tmp_path(std::string("fispec_") + c.name + "_" + tag + ".log");
      std::remove(cfg.resultlog_path.c_str());
      return cfg;
    };
    const ServiceConfig ref_cfg = config(gpusim::ExecEngine::Reference, 1, "ref");
    const auto ref =
        CampaignService(ref_cfg).run(f.prog(true), f.factory(true), c.specs, f.w->requirement());
    const std::string ref_bytes = read_bytes(ref_cfg.resultlog_path);
    ASSERT_FALSE(ref_bytes.empty());

    for (const int workers : {1, 2, 8}) {
      const ServiceConfig cfg =
          config(gpusim::ExecEngine::Threaded, workers, std::to_string(workers) + "w");
      const auto res =
          CampaignService(cfg).run(f.prog(true), f.factory(true), c.specs, f.w->requirement());
      expect_same_aggregates(ref, res, c.name);
      EXPECT_EQ(read_bytes(cfg.resultlog_path), ref_bytes)
          << c.name << ": threaded log differs from the reference at " << workers
          << " workers";
    }

    ServiceConfig kill = config(gpusim::ExecEngine::Threaded, 2, "kill");
    kill.checkpoint_every = 5;
    kill.checkpoint_path = tmp_path(std::string("fispec_") + c.name + ".ckpt");
    std::remove(kill.checkpoint_path.c_str());
    int crashes = 0;
    ServiceResult res;
    for (int cycle = 0; cycle < 100; ++cycle) {
      ServiceConfig attempt = kill;
      attempt.resume = cycle > 0;
      auto armed = std::make_shared<bool>(true);
      attempt.on_checkpoint = [armed](const CampaignCheckpoint&) {
        if (*armed) {
          *armed = false;
          throw CrashInjected();
        }
      };
      try {
        res = CampaignService(attempt).run(f.prog(true), f.factory(true), c.specs,
                                           f.w->requirement());
        break;
      } catch (const CrashInjected&) {
        ++crashes;
      }
    }
    EXPECT_GT(crashes, 0) << c.name;
    expect_same_aggregates(ref, res, c.name);
    EXPECT_EQ(read_bytes(kill.resultlog_path), ref_bytes)
        << c.name << ": threaded kill/resume log differs from the reference";
  }
}

TEST(CampaignService, EmptyCampaignAndEmptyShard) {
  Fixture f(make_cp());
  ServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(cfg);
  const auto res = service.run(f.prog(), f.factory(), {}, f.w->requirement());
  EXPECT_EQ(res.shard_trials, 0u);
  EXPECT_EQ(res.trials_run, 0u);
  EXPECT_EQ(res.counts.activated() + res.counts.not_activated, 0u);

  // A shard index beyond the trial count owns nothing and must still finish.
  ServiceConfig tail;
  tail.workers = 2;
  tail.shards = 64;
  tail.shard_index = 63;
  std::vector<FaultSpec> three(f.specs.begin(), f.specs.begin() + 3);
  CampaignService tail_service(tail);
  const auto tail_res = tail_service.run(f.prog(), f.factory(), three, f.w->requirement());
  EXPECT_EQ(tail_res.shard_trials, 0u);
  EXPECT_EQ(tail_res.trials_run, 0u);
}

TEST(CampaignService, ConfigValidation) {
  ServiceConfig bad_shard;
  bad_shard.shards = 2;
  bad_shard.shard_index = 2;
  EXPECT_THROW(CampaignService{bad_shard}, std::invalid_argument);

  ServiceConfig no_path;
  no_path.checkpoint_every = 10;
  EXPECT_THROW(CampaignService{no_path}, std::invalid_argument);

  ServiceConfig resume_no_path;
  resume_no_path.resume = true;
  EXPECT_THROW(CampaignService{resume_no_path}, std::invalid_argument);

  ServiceConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(CampaignService{zero_shards}, std::invalid_argument);
}

TEST(CampaignService, MergeRejectsForeignResults) {
  ServiceResult a;
  a.config_digest = 1;
  ServiceResult b;
  b.config_digest = 2;
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(CampaignService, MoreTrialsThanTheReorderWindowLogBytesInvariant) {
  // 14 copies of a 320-trial plan overrun the 4096-slot reorder window at
  // 8 workers.
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 20;
  opt.masks_per_var = 16;
  const auto plan = plan_faults(f.prog(), f.pd, opt);
  std::vector<FaultSpec> specs;
  for (int copy = 0; copy < 14; ++copy) specs.insert(specs.end(), plan.begin(), plan.end());
  ASSERT_GT(specs.size(), 4096u);
  std::string ref_bytes;
  for (const int workers : {1, 8}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.resultlog_path = tmp_path("wrap_" + std::to_string(workers) + ".log");
    const auto res = CampaignService(cfg).run(f.prog(), f.factory(), specs, f.w->requirement());
    EXPECT_EQ(res.trials_run, specs.size());
    if (workers == 1)
      ref_bytes = read_bytes(cfg.resultlog_path);
    else
      EXPECT_EQ(read_bytes(cfg.resultlog_path), ref_bytes)
          << "result log must be byte-identical past the reorder window";
  }
}

TEST(CampaignService, TrialThatThrowsRethrowsAndJoins) {
  // A job whose output readout fails once the campaign is under way: the
  // worker's exception must surface from run() after every worker joined.
  struct FailingReadout : core::KernelJob {
    std::unique_ptr<core::KernelJob> inner;
    std::shared_ptr<std::atomic<int>> reads;
    std::vector<kir::Value> setup(gpusim::Device& dev) override { return inner->setup(dev); }
    [[nodiscard]] gpusim::LaunchConfig config() const override { return inner->config(); }
    [[nodiscard]] core::ProgramOutput read_output(const gpusim::Device& dev) const override {
      if (reads->fetch_add(1) + 1 == 12) throw std::runtime_error("readout failed");
      return inner->read_output(dev);
    }
  };
  Fixture f(make_cp());
  const auto reads = std::make_shared<std::atomic<int>>(0);
  const WorkerContextFactory failing = [&f, reads] {
    auto job = std::make_unique<FailingReadout>();
    job->inner = f.w->make_job(f.ds);
    job->reads = reads;
    WorkerContext ctx;
    ctx.device = std::make_unique<gpusim::Device>();
    ctx.job = std::move(job);
    return ctx;
  };
  ServiceConfig cfg;
  cfg.workers = 8;
  cfg.resultlog_path = tmp_path("throwing.log");
  EXPECT_THROW((void)CampaignService(cfg).run(f.prog(), failing, f.specs, f.w->requirement()),
               std::runtime_error);
  EXPECT_GE(reads->load(), 12);
}

// ---------------------------------------------------------------------------
// Sanitized campaigns.  Sanitizer trials may reclassify as RaceDetected /
// BarrierDivergence, so the sanitizer taxonomy is part of the campaign
// identity: checkpoints, result logs and shard merges never mix the two.

TEST(CampaignServiceSanitize, UnsanitizedDigestIsUnchanged) {
  Fixture f(make_cp());
  const auto plain = campaign_digest(f.prog(), f.specs, f.w->requirement(), 0);
  EXPECT_EQ(plain, campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                   gpusim::ecc::Scheme::None, 0, 0, false));
  // The value this campaign's digest had before the sanitizer was folded in.
  EXPECT_EQ(plain, 14115790252397422542ull);
  const auto sanitized = campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                         gpusim::ecc::Scheme::None, 0, 0, true);
  EXPECT_NE(plain, sanitized);
  EXPECT_NE(sanitized, campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                       gpusim::ecc::Scheme::Hsiao, 0, 0, true));

  ServiceConfig cfg;
  cfg.workers = 1;
  EXPECT_EQ(CampaignService(cfg).run(f.prog(), f.factory(), {}, f.w->requirement()).config_digest,
            campaign_digest(f.prog(), {}, f.w->requirement(), 0));
  cfg.campaign.engine = gpusim::ExecEngine::Reference;  // sanitizing on the oracle counts too
  cfg.campaign.sanitize = true;
  EXPECT_EQ(CampaignService(cfg).run(f.prog(), f.factory(), {}, f.w->requirement()).config_digest,
            campaign_digest(f.prog(), {}, f.w->requirement(), 0, gpusim::ecc::Scheme::None, 0,
                            0, true));
}

TEST(CampaignServiceSanitize, ResumeRejectsCheckpointAcrossTaxonomies) {
  Fixture f(make_cp());
  for (const bool writer_sanitizes : {false, true}) {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.campaign.sanitize = writer_sanitizes;
    cfg.checkpoint_path = tmp_path("xsan.ckpt");
    (void)CampaignService(cfg).run(f.prog(), f.factory(), f.specs, f.w->requirement());

    cfg.resume = true;
    cfg.campaign.sanitize = !writer_sanitizes;
    EXPECT_THROW((void)CampaignService(cfg).run(f.prog(), f.factory(), f.specs,
                                                f.w->requirement()),
                 core::CheckpointError)
        << (writer_sanitizes ? "sanitized checkpoint, plain resume"
                             : "plain checkpoint, sanitized resume");
  }
}

// The per-block report cap can change a sanitized trial's outcome (a race
// report that fills the cap drops the block's barrier-divergence report),
// so it is part of a sanitized campaign's identity: a checkpoint written at
// cap 1 refuses a resume at the default cap.  A cap of 0 clamps to 1 like
// the shadow's, and an unsanitized campaign ignores the cap.
TEST(CampaignServiceSanitize, ResumeRejectsCheckpointAcrossReportCaps) {
  Fixture f(make_cp());
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.campaign.sanitize = true;
  cfg.campaign.sanitize_cap = 1;
  cfg.checkpoint_path = tmp_path("xcap.ckpt");
  (void)CampaignService(cfg).run(f.prog(), f.factory(), f.specs, f.w->requirement());

  cfg.resume = true;
  cfg.campaign.sanitize_cap = gpusim::SharedShadow::kMaxReportsPerBlock;
  EXPECT_THROW((void)CampaignService(cfg).run(f.prog(), f.factory(), f.specs,
                                              f.w->requirement()),
               core::CheckpointError);

  const auto digest = [&](bool sanitize, std::size_t cap) {
    return campaign_digest(f.prog(), f.specs, f.w->requirement(), 0, gpusim::ecc::Scheme::None,
                           0, 0, sanitize, cap);
  };
  constexpr std::size_t kDefault = gpusim::SharedShadow::kMaxReportsPerBlock;
  EXPECT_NE(digest(true, 1), digest(true, kDefault));
  EXPECT_EQ(digest(true, 0), digest(true, 1));
  EXPECT_EQ(digest(true, kDefault), campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                                    gpusim::ecc::Scheme::None, 0, 0, true));
  EXPECT_EQ(digest(false, 1), digest(false, kDefault));
}

TEST(CampaignServiceSanitize, MergeRejectsMixedShards) {
  Fixture f(make_cp());
  std::vector<ServiceResult> shards;
  std::vector<ResultLogData> logs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.shard_index = i;
    cfg.campaign.sanitize = i == 1;
    cfg.resultlog_path = tmp_path("xsan_shard_" + std::to_string(i) + ".log");
    shards.push_back(CampaignService(cfg).run(f.prog(), f.factory(), f.specs, f.w->requirement()));
    logs.push_back(read_result_log(cfg.resultlog_path));
  }
  EXPECT_THROW(shards[0].merge(shards[1]), std::invalid_argument);
  EXPECT_THROW((void)merge_result_logs(logs), std::runtime_error);
}

// ---------------------------------------------------------------------------
// ECC-protected campaigns.  The same determinism contract must hold when the
// worker devices carry hardware SEC-DED: outcome counts, histograms and
// result-log bytes invariant across worker counts, shard splits and
// kill/resume — and the protection scheme is part of the campaign identity,
// so checkpoints cannot leak across schemes.

TEST(CampaignServiceEcc, ProtectionIsPartOfTheCampaignIdentity) {
  Fixture f(make_cp());
  const auto none = campaign_digest(f.prog(), f.specs, f.w->requirement(), 0);
  const auto hamming = campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                       gpusim::ecc::Scheme::Hamming);
  const auto hsiao = campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                     gpusim::ecc::Scheme::Hsiao);
  EXPECT_NE(none, hamming);
  EXPECT_NE(none, hsiao);
  EXPECT_NE(hamming, hsiao);
  // The explicit-None digest must equal the pre-ECC four-argument form, so
  // digests (and checkpoints) minted before protection existed stay valid.
  EXPECT_EQ(none, campaign_digest(f.prog(), f.specs, f.w->requirement(), 0,
                                  gpusim::ecc::Scheme::None));
}

TEST(CampaignServiceEcc, WorkerAndShardInvariantIncludingLogBytes) {
  Fixture f(make_cp());
  const auto scheme = gpusim::ecc::Scheme::Hsiao;

  ServiceConfig base;
  base.workers = 1;
  base.campaign.protection = scheme;
  base.resultlog_path = tmp_path("ecc_ref.log");
  CampaignService one(base);
  const auto ref = one.run(f.prog(), f.protected_factory(scheme), f.specs, f.w->requirement());
  const auto ref_bytes = read_bytes(base.resultlog_path);
  ASSERT_FALSE(ref_bytes.empty());

  for (const int workers : {2, 8}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.campaign.protection = scheme;
    cfg.resultlog_path = tmp_path("ecc_wc_" + std::to_string(workers) + ".log");
    CampaignService service(cfg);
    const auto res =
        service.run(f.prog(), f.protected_factory(scheme), f.specs, f.w->requirement());
    expect_same_aggregates(ref, res, "ECC worker invariance");
    EXPECT_EQ(read_bytes(cfg.resultlog_path), ref_bytes)
        << "ECC result log must be byte-identical at " << workers << " workers";
  }

  const auto ref_log = read_result_log(base.resultlog_path);
  for (const std::uint32_t K : {2u, 4u}) {
    std::vector<ResultLogData> shard_logs;
    ServiceResult merged;
    for (std::uint32_t i = 0; i < K; ++i) {
      ServiceConfig cfg;
      cfg.workers = 2;
      cfg.shards = K;
      cfg.shard_index = i;
      cfg.campaign.protection = scheme;
      cfg.resultlog_path =
          tmp_path("ecc_merge_" + std::to_string(K) + "_" + std::to_string(i) + ".log");
      CampaignService service(cfg);
      const auto res =
          service.run(f.prog(), f.protected_factory(scheme), f.specs, f.w->requirement());
      shard_logs.push_back(read_result_log(cfg.resultlog_path));
      if (i == 0)
        merged = res;
      else
        merged.merge(res);
    }
    expect_same_aggregates(ref, merged, "ECC shard merge invariance");
    const auto log = merge_result_logs(shard_logs);
    ASSERT_EQ(log.records.size(), ref_log.records.size());
    for (std::size_t i = 0; i < log.records.size(); ++i)
      EXPECT_EQ(log.records[i], ref_log.records[i]) << "ECC K=" << K << " record " << i;
  }
}

TEST(CampaignServiceEcc, KillResumeWithProtectionResumesByteIdentical) {
  Fixture f(make_cp());
  const auto scheme = gpusim::ecc::Scheme::Hsiao;

  ServiceConfig ref_cfg;
  ref_cfg.workers = 2;
  ref_cfg.campaign.protection = scheme;
  ref_cfg.resultlog_path = tmp_path("ecc_kill_ref.log");
  CampaignService ref_service(ref_cfg);
  const auto ref =
      ref_service.run(f.prog(), f.protected_factory(scheme), f.specs, f.w->requirement());
  const auto ref_bytes = read_bytes(ref_cfg.resultlog_path);

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.campaign.protection = scheme;
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = tmp_path("ecc_kill.ckpt");
  cfg.resultlog_path = tmp_path("ecc_kill.log");
  int crashes = 0;
  ServiceResult res;
  for (int cycle = 0; cycle < 100; ++cycle) {
    ServiceConfig attempt = cfg;
    attempt.resume = cycle > 0;
    auto armed = std::make_shared<bool>(true);
    attempt.on_checkpoint = [armed](const CampaignCheckpoint&) {
      if (*armed) {
        *armed = false;
        throw CrashInjected();
      }
    };
    CampaignService service(attempt);
    try {
      res = service.run(f.prog(), f.protected_factory(scheme), f.specs, f.w->requirement());
      break;
    } catch (const CrashInjected&) {
      ++crashes;
    }
  }
  EXPECT_GT(crashes, 0) << "the crash harness must actually crash";
  EXPECT_GT(res.trials_resumed, 0u) << "final cycle must be a resume";
  expect_same_aggregates(ref, res, "ECC kill/resume");
  EXPECT_EQ(read_bytes(cfg.resultlog_path), ref_bytes)
      << "ECC result log must survive kill/resume byte-identical";
}

TEST(CampaignServiceEcc, ResumeRejectsCheckpointAcrossProtectionSchemes) {
  Fixture f(make_cp());
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.checkpoint_path = tmp_path("ecc_xscheme.ckpt");
  CampaignService writer(cfg);
  (void)writer.run(f.prog(), f.factory(), f.specs, f.w->requirement());

  // Same program, same specs, same requirement — only the protection scheme
  // differs.  The digest folds it, so the unprotected checkpoint must not
  // seed a protected campaign (the logged outcomes mean different things).
  cfg.resume = true;
  cfg.campaign.protection = gpusim::ecc::Scheme::Hsiao;
  CampaignService reader(cfg);
  EXPECT_THROW(
      (void)reader.run(f.prog(), f.protected_factory(gpusim::ecc::Scheme::Hsiao), f.specs,
                       f.w->requirement()),
      core::CheckpointError);
}
