// Fault-injection campaign CLI: run a SWIFI campaign against any benchmark
// program, with or without Hauberk protection, and print the outcome
// breakdown (the building block behind Figs. 1 and 14).
//
// Usage:
//   fault_campaign --program=MRI-Q [--bits=1] [--vars=20] [--masks=10]
//                  [--protected] [--scale=tiny|small|medium] [--seed=N]
//                  [--workers=N]   (campaign workers; 0 = hardware concurrency)
//                  [--sanitize]    (sanitize every trial, on either engine:
//                                   races / barrier divergence become their
//                                   own outcome classes)
//                  [--sanitize-cap=N]  (per-block sanitizer report cap)
//                  [--engine=reference|threaded]
//                                  (trial interpreter; default threaded — engines
//                                   are bitwise identical, only speed differs)
//                  [--protection=none|hamming|hsiao]
//                                  (hardware ECC on every campaign device;
//                                   single-bit memory errors correct, double-bit
//                                   errors detect — composes with --protected
//                                   for the hardware-vs-Hauberk comparison)
//                  [--plan=FILE]   (selective-hardening plan — kirtune
//                                   --emit-plan output — applied to the
//                                   instrumented variants; its digest is
//                                   folded into the campaign digest)
//                  [--prune=FILE]  (static pruning plan — kirprune
//                                   --emit-plan output — run one trial per
//                                   fault-site equivalence class, weighting
//                                   aggregates by class size)
#include <cstdio>
#include <memory>

#include "common/cli.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/prune.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "swifi/prune.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  for (const auto& f : args.unknown_flags({"program", "bits", "vars", "masks", "protected",
                                           "scale", "seed", "workers", "sanitize",
                                           "sanitize-cap", "engine", "protection",
                                           "plan", "prune"})) {
    std::fprintf(stderr, "error: unknown flag --%s\n", f.c_str());
    return 2;
  }
  const std::string name = args.get("program", "CP");
  const int bits = static_cast<int>(args.get_int("bits", 1));
  const bool use_ft = args.has("protected");
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
    std::fprintf(stderr, "unknown program '%s' (try CP, MRI-FHD, MRI-Q, PNS, RPES, SAD, "
                         "TPACF, ocean-flow, ray-trace)\n", name.c_str());
    return 1;
  }

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
      std::printf("pruning: %llu specs -> %llu representatives (%.1fx, %llu benign classes)\n",
                  static_cast<unsigned long long>(pruned.stats.total_specs),
                  static_cast<unsigned long long>(pruned.stats.kept_specs),
                  pruned.stats.reduction(),
                  static_cast<unsigned long long>(pruned.stats.benign_classes));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: --prune: %s\n", ex.what());
      return 2;
    }
  }

  swifi::CampaignExecutor ex(flags.workers);
  std::printf("program %s (%s), %d-bit faults, %zu experiments, detectors %s, %d workers%s%s%s\n",
              w->name().c_str(), w->requirement().to_string().c_str(), bits, specs.size(),
              use_ft ? "ON (Hauberk FT)" : "off (baseline sensitivity)", ex.workers(),
              flags.sanitize ? ", sanitizer ON" : "",
              flags.protection != common::ProtectionKind::None ? ", ECC " : "",
              flags.protection != common::ProtectionKind::None
                  ? common::protection_kind_name(flags.protection)
                  : "");

  swifi::CampaignConfig cfg;
  cfg.engine = static_cast<gpusim::ExecEngine>(flags.engine);
  cfg.sanitize = flags.sanitize;
  cfg.sanitize_cap = static_cast<std::size_t>(flags.sanitize_cap);
  cfg.protection = props.protection;
  cfg.pipeline = swifi::PipelineSpec::from_report(prog_report);
  if (topt.plan) cfg.plan_digest = core::plan_digest(*topt.plan);
  if (use_prune) {
    cfg.prune_digest = pruned.plan_digest;
    cfg.trial_weights = pruned.weights;
  }
  const auto res = ex.run(
      prog,
      [&] {
        swifi::WorkerContext ctx;
        ctx.device = std::make_unique<gpusim::Device>(props);
        ctx.job = w->make_job(ds);
        if (use_ft) ctx.cb = core::make_configured_control_block(v.fift, profile);
        return ctx;
      },
      specs, w->requirement(), cfg);
  std::printf("instrumentation pipeline: %s (remark digest %016llx)\n",
              res.pipeline.c_str(), static_cast<unsigned long long>(res.remark_digest));
  const auto& c = res.counts;
  const auto pct = [&](std::uint64_t x) { return 100.0 * c.ratio(x); };
  std::printf("\n  failure (crash/hang) : %5.1f%%\n", pct(c.failure));
  std::printf("  masked               : %5.1f%%\n", pct(c.masked));
  std::printf("  detected & masked    : %5.1f%%\n", pct(c.detected_masked));
  std::printf("  detected             : %5.1f%%\n", pct(c.detected));
  std::printf("  undetected SDC       : %5.1f%%\n", pct(c.undetected));
  if (flags.sanitize) {
    std::printf("  race detected        : %5.1f%%\n", pct(c.race_detected));
    std::printf("  barrier divergence   : %5.1f%%\n", pct(c.barrier_divergence));
  }
  if (flags.protection != common::ProtectionKind::None) {
    std::printf("  ecc corrected        : %5.1f%%\n", pct(c.ecc_corrected));
    std::printf("  ecc uncorrectable    : %5.1f%%\n", pct(c.ecc_uncorrectable));
  }
  std::printf("  -------------------------------\n");
  std::printf("  detection coverage   : %5.1f%%\n", 100.0 * c.coverage());
  if (c.not_activated)
    std::printf("  (%llu planned faults never activated)\n",
                static_cast<unsigned long long>(c.not_activated));
  return 0;
}
