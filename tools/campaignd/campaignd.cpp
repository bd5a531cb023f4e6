// campaignd — the sharded, checkpointed campaign driver CLI.
//
// Runs one shard of a SWIFI campaign through swifi::CampaignService:
// lock-free trial distribution across worker threads, periodic CRC-guarded
// checkpoints, and a compact binary result log.  A campaign killed at any
// point resumes from its last checkpoint with byte-identical final results.
//
// Usage:
//   campaignd run --program=CP [--protected] [--bits=1] [--vars=20] [--masks=10]
//                 [--scale=tiny|small] [--seed=N]
//                 [--workers=N] [--engine=reference|threaded]
//                 [--sanitize] [--sanitize-cap=N]
//                 [--protection=none|hamming|hsiao]
//                                         hardware ECC on every campaign device
//                                         (--protected is Hauberk's software FT;
//                                         the two compose for the ECC-vs-Hauberk
//                                         study)
//                 [--shards=K/I]          run shard I of K (trial t -> shard t mod K)
//                 [--checkpoint=FILE]     checkpoint file to maintain
//                 [--checkpoint-every=N]  checkpoint every N committed trials
//                 [--resume=FILE]         resume from FILE (implies --checkpoint=FILE)
//                 [--resultlog=FILE]      binary per-trial result log
//                 [--plan=FILE]           selective-hardening plan (kirtune
//                                         --emit-plan output) applied to the
//                                         instrumented variants; its digest is
//                                         folded into the campaign digest, so
//                                         checkpoints/logs bind to the plan
//                 [--prune=FILE]          static pruning plan (kirprune
//                                         --emit-plan output): run one trial
//                                         per fault-site equivalence class,
//                                         weight aggregates and result-log
//                                         populations by class size; the
//                                         plan digest binds checkpoints/logs
//                 [--crash-after=N]       testing: simulate SIGKILL (exit 42,
//                                         no cleanup) right after the N-th
//                                         periodic checkpoint of this process
//                 [--quiet]               suppress the outcome table
//
// Exit codes: 0 success, 2 usage error, 42 simulated crash (--crash-after).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/cli.hpp"
#include "hauberk/checkpoint.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/prune.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/prune.hpp"
#include "swifi/service.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run --program=NAME [--protected] [--shards=K/I]\n"
               "       [--checkpoint=FILE --checkpoint-every=N | --resume=FILE]\n"
               "       [--resultlog=FILE] [--workers=N]\n"
               "       [--engine=reference|threaded]  (default threaded)\n"
               "       [--protection=none|hamming|hsiao] [--crash-after=N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string_view(argv[1]) != "run") return usage(argv[0]);
  common::CliArgs args(argc, argv);
  for (const auto& f : args.unknown_flags(
           {"program", "bits", "vars", "masks", "protected", "scale", "seed", "workers",
            "sanitize", "sanitize-cap", "engine", "protection", "shards", "checkpoint",
            "checkpoint-every", "resume", "resultlog", "plan", "prune", "crash-after",
            "quiet"})) {
    std::fprintf(stderr, "error: unknown flag --%s\n", f.c_str());
    return 2;
  }
  const std::string name = args.get("program", "CP");
  const int bits = static_cast<int>(args.get_int("bits", 1));
  const bool use_ft = args.has("protected");
  const bool quiet = args.has("quiet");
  const std::uint64_t crash_after = args.get_u64("crash-after", 0);
  const auto flags = common::parse_campaign_flags(args);
  const auto scale = args.get("scale", "small") == "tiny" ? workloads::Scale::Tiny
                                                          : workloads::Scale::Small;
  if (!args.ok()) {
    for (const auto& e : args.errors()) std::fprintf(stderr, "error: %s\n", e.c_str());
    return 2;
  }

  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == name) w = std::move(cand);
  for (auto& cand : workloads::graphics_suite())
    if (cand && cand->name() == name) w = std::move(cand);
  if (!w) {
    std::fprintf(stderr, "unknown program '%s'\n", name.c_str());
    return 2;
  }

  // ProtectionKind mirrors gpusim::ecc::Scheme value for value (pinned by
  // static_asserts in bench/bench_common.hpp, same arrangement as --engine).
  core::TranslateOptions topt;
  if (!flags.plan.empty()) {
    try {
      topt.plan = std::make_shared<core::HardeningPlan>(core::load_plan(flags.plan));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: --plan: %s\n", ex.what());
      return 2;
    }
  }

  gpusim::DeviceProps props;
  props.protection = static_cast<gpusim::ecc::Scheme>(flags.protection);
  gpusim::Device dev(props);
  const auto v = core::build_variants(w->build_kernel(scale), topt);
  const auto ds = w->make_dataset(args.get_u64("seed", 1), scale);
  auto job = w->make_job(ds);
  const auto profile = core::profile(dev, v, {job.get()});

  swifi::PlanOptions opt;
  opt.max_vars = static_cast<int>(args.get_int("vars", 20));
  opt.masks_per_var = static_cast<int>(args.get_int("masks", 10));
  opt.error_bits = bits;
  opt.seed = args.get_u64("seed", 1) + 99;

  const auto& prog = use_ft ? v.fift : v.fi;
  const auto& prog_report = use_ft ? v.fift_report : v.fi_report;
  auto specs = swifi::plan_faults(prog, profile, opt);

  swifi::PrunedCampaign pruned;
  bool use_prune = false;
  if (!flags.prune.empty()) {
    try {
      const auto pplan = prune::load_pruning_plan(flags.prune);
      pruned = swifi::prune_specs(pplan, w->name(), prog, specs);
      specs = pruned.specs;
      use_prune = true;
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: --prune: %s\n", ex.what());
      return 2;
    }
  }

  swifi::ServiceConfig scfg;
  scfg.campaign.engine = static_cast<gpusim::ExecEngine>(flags.engine);
  scfg.campaign.sanitize = flags.sanitize;
  scfg.campaign.sanitize_cap = static_cast<std::size_t>(flags.sanitize_cap);
  scfg.campaign.protection = props.protection;
  scfg.campaign.pipeline = swifi::PipelineSpec::from_report(prog_report);
  if (topt.plan) scfg.campaign.plan_digest = core::plan_digest(*topt.plan);
  if (use_prune) {
    scfg.campaign.prune_digest = pruned.plan_digest;
    scfg.campaign.trial_weights = pruned.weights;
  }
  scfg.workers = flags.workers;
  scfg.shards = static_cast<std::uint32_t>(flags.shards);
  scfg.shard_index = static_cast<std::uint32_t>(flags.shard_index);
  scfg.checkpoint_every = flags.checkpoint_every;
  scfg.checkpoint_path = flags.checkpoint;
  scfg.resultlog_path = flags.resultlog;
  scfg.resume = !flags.resume.empty();
  if (crash_after > 0) {
    scfg.on_checkpoint = [crash_after, n = std::uint64_t{0}](
                             const swifi::CampaignCheckpoint& ck) mutable {
      if (++n >= crash_after) {
        std::fprintf(stderr, "campaignd: simulated crash after checkpoint (watermark %llu)\n",
                     static_cast<unsigned long long>(ck.watermark));
        std::fflush(nullptr);
        std::_Exit(42);  // no destructors, no flushes: as close to SIGKILL as it gets
      }
    };
  }

  if (!quiet) {
    std::printf("campaignd: %s %s, %zu trials total, shard %d/%d, %llu per checkpoint\n",
                name.c_str(), use_ft ? "(FI&FT)" : "(FI)", specs.size(), flags.shard_index,
                flags.shards, static_cast<unsigned long long>(flags.checkpoint_every));
    if (use_prune)
      std::printf("campaignd: pruned %llu specs -> %llu representatives (%.1fx)\n",
                  static_cast<unsigned long long>(pruned.stats.total_specs),
                  static_cast<unsigned long long>(pruned.stats.kept_specs),
                  pruned.stats.reduction());
  }

  swifi::CampaignService service(scfg);
  swifi::ServiceResult res;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    res = service.run(
        prog,
        [&] {
          swifi::WorkerContext ctx;
          ctx.device = std::make_unique<gpusim::Device>(props);
          ctx.job = w->make_job(ds);
          if (use_ft) ctx.cb = core::make_configured_control_block(v.fift, profile);
          return ctx;
        },
        specs, w->requirement());
  } catch (const core::CheckpointError& e) {
    std::fprintf(stderr, "campaignd: %s\n", e.what());
    return 2;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!quiet) {
    const auto& c = res.counts;
    std::printf("pipeline %s (remark digest %016llx), config digest %016llx\n",
                res.pipeline.c_str(), static_cast<unsigned long long>(res.remark_digest),
                static_cast<unsigned long long>(res.config_digest));
    std::printf("shard trials %llu (ran %llu, resumed %llu), checkpoints %llu, %.1f "
                "trials/sec\n",
                static_cast<unsigned long long>(res.shard_trials),
                static_cast<unsigned long long>(res.trials_run),
                static_cast<unsigned long long>(res.trials_resumed),
                static_cast<unsigned long long>(res.checkpoints_written),
                secs > 0 ? static_cast<double>(res.trials_run) / secs : 0.0);
    std::printf("  failure %llu  masked %llu  detected&masked %llu  detected %llu  "
                "undetected %llu  not-activated %llu\n",
                static_cast<unsigned long long>(c.failure),
                static_cast<unsigned long long>(c.masked),
                static_cast<unsigned long long>(c.detected_masked),
                static_cast<unsigned long long>(c.detected),
                static_cast<unsigned long long>(c.undetected),
                static_cast<unsigned long long>(c.not_activated));
    if (props.protection != gpusim::ecc::Scheme::None)
      std::printf("  ecc-corrected %llu  ecc-uncorrectable %llu\n",
                  static_cast<unsigned long long>(c.ecc_corrected),
                  static_cast<unsigned long long>(c.ecc_uncorrectable));
    std::printf("  coverage %.4f, %llu trial sites histogrammed, %llu SDC sites\n",
                c.coverage(), static_cast<unsigned long long>(res.site_hist.total()),
                static_cast<unsigned long long>(res.sdc_site_hist.total()));
  }
  return 0;
}
