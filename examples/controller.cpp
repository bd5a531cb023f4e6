// The evaluation controller (Fig. 7): the paper automates its five-binary
// flow with a GUI controller; this CLI drives the same flow for one program:
//
//   original binary      -> baseline performance
//   Hauberk profiler     -> fault-injection targets, golden output,
//                           value ranges (stored to a file)
//   Hauberk FT           -> protected performance
//   Hauberk FI           -> baseline error sensitivity
//   Hauberk FI&FT        -> Hauberk detection coverage
//
// Usage: controller [--program=CP] [--scale=small] [--ranges=/tmp/cp.ranges]
//        [--workers=N]   (campaign workers for steps 4/5; 0 = hw concurrency)
//        [--engine=reference|threaded]
//                        (campaign trial interpreter; default threaded)
//        [--protection=none|hamming|hsiao]
//                        (hardware ECC on every device, steps 1-5)
#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const std::string name = args.get("program", "CP");
  const auto scale = args.get("scale", "small") == "tiny" ? workloads::Scale::Tiny
                                                          : workloads::Scale::Small;
  const std::string ranges_path = args.get("ranges", "/tmp/hauberk_" + name + ".ranges");

  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == name) w = std::move(cand);
  if (!w) {
    std::fprintf(stderr, "unknown program '%s'\n", name.c_str());
    return 1;
  }

  std::printf("=== Hauberk evaluation controller: %s ===\n\n", name.c_str());
  const auto cflags = common::parse_campaign_flags(args);
  for (const auto& err : args.errors()) std::fprintf(stderr, "error: %s\n", err.c_str());
  if (!args.ok()) return 2;
  gpusim::DeviceProps props;
  props.protection = static_cast<gpusim::ecc::Scheme>(cflags.protection);
  gpusim::Device dev(props);
  const auto v = core::build_variants(w->build_kernel(scale));
  const auto ds = w->make_dataset(args.get_u64("seed", 1), scale);
  auto job = w->make_job(ds);

  // 1. Original binary: baseline performance.
  auto bargs = job->setup(dev);
  const auto base = dev.launch(v.baseline, job->config(), bargs);
  std::printf("[1] baseline:   %llu modeled cycles, %llu instructions\n",
              static_cast<unsigned long long>(base.cycles),
              static_cast<unsigned long long>(base.instructions));

  // 2. Profiler binary: FI targets, golden output, value ranges -> file.
  const auto profile = core::profile(dev, v, {job.get()});
  {
    auto cb = core::make_configured_control_block(v.ft, profile);
    std::vector<core::RangeSet> sets;
    for (const auto& d : cb->detectors()) sets.push_back(d.ranges);
    std::ofstream out(ranges_path);
    core::save_ranges(out, sets);
  }
  std::size_t live_sites = 0;
  for (const auto& s : v.fi.fi_sites) live_sites += !s.dead_window;
  std::printf("[2] profiler:   %zu FI sites (%zu live-window), %zu detectors, "
              "golden output %zu words,\n                value ranges stored to %s\n",
              v.fi.fi_sites.size(), live_sites, v.profiler.detectors.size(),
              profile.golden.empty() ? 0 : profile.golden[0].size(), ranges_path.c_str());

  // 3. FT binary: protected performance (ranges loaded back from the file).
  std::vector<core::RangeSet> loaded;
  {
    std::ifstream in(ranges_path);
    loaded = core::load_ranges(in);
  }
  const auto make_loaded_cb = [&] {
    auto c = std::make_unique<core::ControlBlock>(v.fift);
    for (std::size_t d = 0; d < loaded.size(); ++d)
      if (!loaded[d].empty()) c->set_ranges(static_cast<int>(d), loaded[d]);
    return c;
  };
  auto cb = make_loaded_cb();
  auto fargs = job->setup(dev);
  gpusim::LaunchOptions fopts;
  fopts.hooks = cb.get();
  fopts.charge_control_block = true;
  const auto ft = dev.launch(v.ft, job->config(), fargs, fopts);
  std::printf("[3] FT:         %llu cycles (overhead %.1f%%), fault-free alarm: %s\n",
              static_cast<unsigned long long>(ft.cycles),
              100.0 * (static_cast<double>(ft.cycles) - static_cast<double>(base.cycles)) /
                  static_cast<double>(base.cycles),
              ft.sdc_alarm || cb->sdc_detected() ? "YES (bad!)" : "no");

  // 4. FI binary: baseline error sensitivity (trials spread across workers).
  const auto engine = static_cast<gpusim::ExecEngine>(cflags.engine);
  swifi::CampaignExecutor ex(cflags.workers);
  swifi::PlanOptions popt;
  popt.max_vars = static_cast<int>(args.get_int("vars", 20));
  popt.masks_per_var = static_cast<int>(args.get_int("masks", 10));
  popt.seed = args.get_u64("seed", 1) + 5;
  const auto fi_specs = swifi::plan_faults(v.fi, profile, popt);
  swifi::CampaignConfig fi_cfg;
  fi_cfg.engine = engine;
  fi_cfg.protection = props.protection;
  fi_cfg.pipeline = swifi::PipelineSpec::from_report(v.fi_report);
  const auto fi = ex.run(
      v.fi,
      [&] {
        swifi::WorkerContext ctx;
        ctx.device = std::make_unique<gpusim::Device>(props);
        ctx.job = w->make_job(ds);
        return ctx;
      },
      fi_specs, w->requirement(), fi_cfg);
  std::printf("[4] FI:         %llu faults -> %.1f%% failure, %.1f%% SDC, %.1f%% masked\n",
              static_cast<unsigned long long>(fi.counts.activated()),
              100.0 * fi.counts.ratio(fi.counts.failure),
              100.0 * fi.counts.ratio(fi.counts.undetected),
              100.0 * fi.counts.ratio(fi.counts.masked));

  // 5. FI&FT binary: Hauberk detection coverage (each worker reloads the
  // stored ranges into its own control block).
  const auto fift_specs = swifi::plan_faults(v.fift, profile, popt);
  swifi::CampaignConfig fift_cfg;
  fift_cfg.engine = engine;
  fift_cfg.protection = props.protection;
  fift_cfg.pipeline = swifi::PipelineSpec::from_report(v.fift_report);
  const auto fift = ex.run(
      v.fift,
      [&] {
        swifi::WorkerContext ctx;
        ctx.device = std::make_unique<gpusim::Device>(props);
        ctx.job = w->make_job(ds);
        ctx.cb = make_loaded_cb();
        return ctx;
      },
      fift_specs, w->requirement(), fift_cfg);
  std::printf("[5] FI&FT:      %llu faults -> coverage %.1f%% "
              "(%.1f%% detected, %.1f%% detected&masked, %.1f%% undetected)\n",
              static_cast<unsigned long long>(fift.counts.activated()),
              100.0 * fift.counts.coverage(),
              100.0 * fift.counts.ratio(fift.counts.detected),
              100.0 * fift.counts.ratio(fift.counts.detected_masked),
              100.0 * fift.counts.ratio(fift.counts.undetected));
  return 0;
}
