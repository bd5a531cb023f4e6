// Shared infrastructure for the figure/table reproduction harnesses.
//
// Every bench binary accepts:
//   --scale=tiny|small|medium   problem size (default small)
//   --seed=N                    master seed (default 1)
// plus harness-specific knobs (documented per binary).  Each binary prints
// the rows/series of one figure or table of the paper; absolute values
// depend on the simulated device's cost model, but the qualitative shape is
// what the reproduction claims.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

namespace hauberk::bench {

inline workloads::Scale scale_from(const common::CliArgs& args) {
  const std::string s = args.get("scale", "small");
  if (s == "tiny") return workloads::Scale::Tiny;
  if (s == "medium") return workloads::Scale::Medium;
  return workloads::Scale::Small;
}

/// Campaign workers from --workers (0 = hardware concurrency); outcomes are
/// identical for every value, only wall-clock changes.  Parsing and range
/// validation are shared with every SWIFI tool via common::parse_campaign_flags.
inline int workers_from(const common::CliArgs& args) {
  return common::parse_campaign_flags(args).workers;
}

/// All shared campaign flags (--workers / --sanitize / --datasets /
/// --engine / --plan / --prune) at once.
inline common::CampaignFlags campaign_flags_from(const common::CliArgs& args,
                                                 int default_datasets = 1) {
  return common::parse_campaign_flags(args, default_datasets);
}

/// Load the --plan=FILE selective-hardening plan referenced by the shared
/// campaign flags into translate options — the same handling fault_campaign
/// and campaignd use, so every campaign harness accepts kirtune --emit-plan
/// output.  Returns false (after printing the error) on a missing/garbage
/// plan file; callers exit 2 like any other flag error.
inline bool load_plan_flag(const common::CampaignFlags& flags, core::TranslateOptions& topt) {
  if (flags.plan.empty()) return true;
  try {
    topt.plan = std::make_shared<core::HardeningPlan>(core::load_plan(flags.plan));
    return true;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: --plan: %s\n", ex.what());
    return false;
  }
}

/// Campaign-config digest contribution of a loaded plan (0 when none).
inline std::uint64_t plan_digest_of(const core::TranslateOptions& topt) {
  return topt.plan ? core::plan_digest(*topt.plan) : 0;
}

// common::EngineKind mirrors gpusim::ExecEngine value for value so the CLI
// layer stays link-independent of the simulator; pin it here, where both
// headers are visible.
static_assert(static_cast<int>(common::EngineKind::Reference) ==
              static_cast<int>(gpusim::ExecEngine::Reference));
static_assert(static_cast<int>(common::EngineKind::Threaded) ==
              static_cast<int>(gpusim::ExecEngine::Threaded));

/// The gpusim engine selected by --engine (default threaded).
inline gpusim::ExecEngine engine_from(const common::CampaignFlags& f) {
  return static_cast<gpusim::ExecEngine>(f.engine);
}

// Same arrangement for common::ProtectionKind / gpusim::ecc::Scheme.
static_assert(static_cast<int>(common::ProtectionKind::None) ==
              static_cast<int>(gpusim::ecc::Scheme::None));
static_assert(static_cast<int>(common::ProtectionKind::Hamming) ==
              static_cast<int>(gpusim::ecc::Scheme::Hamming));
static_assert(static_cast<int>(common::ProtectionKind::Hsiao) ==
              static_cast<int>(gpusim::ecc::Scheme::Hsiao));

/// The memory-protection scheme selected by --protection (default none).
inline gpusim::ecc::Scheme protection_from(const common::CampaignFlags& f) {
  return static_cast<gpusim::ecc::Scheme>(f.protection);
}

/// Print accumulated flag diagnostics to stderr; returns true if any.
inline bool report_flag_errors(const common::CliArgs& args) {
  for (const auto& e : args.errors()) std::fprintf(stderr, "error: %s\n", e.c_str());
  return !args.ok();
}

/// WorkerContextFactory over a prepared workload + dataset: every campaign
/// worker gets a private device and staged job, and — when `fift` and
/// `profile` are given — its own identically configured control block.
inline swifi::WorkerContextFactory context_factory(const workloads::Workload& w,
                                                   const workloads::Dataset& ds,
                                                   gpusim::DeviceProps props = {},
                                                   const kir::BytecodeProgram* fift = nullptr,
                                                   const core::ProfileData* profile = nullptr,
                                                   double alpha = 1.0) {
  return [&w, &ds, props, fift, profile, alpha] {
    swifi::WorkerContext ctx;
    ctx.device = std::make_unique<gpusim::Device>(props);
    ctx.job = w.make_job(ds);
    if (fift && profile) ctx.cb = core::make_configured_control_block(*fift, *profile, alpha);
    return ctx;
  };
}

/// One workload prepared for experiments: variants compiled, dataset staged,
/// profiler run, control block configured (train == test unless changed).
struct ProgramContext {
  std::unique_ptr<workloads::Workload> workload;
  core::KernelVariants variants;
  workloads::Dataset dataset;
  std::unique_ptr<core::KernelJob> job;
  std::unique_ptr<gpusim::Device> device;
  core::ProfileData profile;
  std::unique_ptr<core::ControlBlock> cb;  ///< configured for the FI&FT build
};

inline ProgramContext make_context(std::unique_ptr<workloads::Workload> w, std::uint64_t seed,
                                   workloads::Scale scale, double alpha = 1.0,
                                   gpusim::DeviceProps props = {},
                                   const core::TranslateOptions& topt = {}) {
  ProgramContext ctx;
  ctx.workload = std::move(w);
  ctx.variants = core::build_variants(ctx.workload->build_kernel(scale), topt);
  ctx.dataset = ctx.workload->make_dataset(seed, scale);
  ctx.job = ctx.workload->make_job(ctx.dataset);
  ctx.device = std::make_unique<gpusim::Device>(props);
  ctx.profile = core::profile(*ctx.device, ctx.variants, {ctx.job.get()});
  ctx.cb = core::make_configured_control_block(ctx.variants.fift, ctx.profile, alpha);
  return ctx;
}

inline void print_header(const char* what) {
  std::printf("\n=== %s ===\n", what);
}

}  // namespace hauberk::bench
