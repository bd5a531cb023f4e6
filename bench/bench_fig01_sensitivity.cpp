// Fig. 1 — error sensitivity comparison: outcome breakdown of single-bit
// faults by corrupted-state class, for
//   GPU HPC programs      (pointer / integer / FP variables)
//   GPU graphics programs (pointer / integer / FP variables)
//   CPU programs          (stack / data / code), run with paged memory.
//
// Paper observations to reproduce:
//   Obs. 1: SDC with ~18% (ptr), ~45% (int), ~39% (FP) probability in HPC.
//   Obs. 2: FP faults essentially never crash; ptr/int faults often do.
//   Graphics: no single-bit SDC (per the frame-corruption requirement).
//   CPU: SDC < ~2.3%, crash-dominated.
//
// Knobs: --vars (per program, default 20), --masks (per var, default 10),
// --workers (campaign workers, 0 = hardware concurrency; default 0),
// --engine=reference|threaded (trial interpreter; default threaded
// — engines are bitwise identical, so this only changes wall-clock).
#include "bench_common.hpp"
#include "common/bitops.hpp"
#include "swifi/injector.hpp"

using namespace hauberk;
using namespace hauberk::bench;
using swifi::Outcome;
using swifi::OutcomeCounts;

namespace {

struct RowAccum {
  OutcomeCounts counts;
  void print_row(common::Table& t, const std::string& cls, const std::string& type) const {
    const auto n = counts.activated();
    t.add_row({cls, type, std::to_string(n),
               common::Table::pct_cell(100.0 * counts.ratio(counts.failure)),
               common::Table::pct_cell(100.0 * counts.ratio(counts.undetected)),
               common::Table::pct_cell(100.0 * counts.ratio(counts.masked))});
  }
};

OutcomeCounts gpu_campaign(swifi::CampaignExecutor& ex,
                           const std::vector<std::unique_ptr<workloads::Workload>>& suite,
                           kir::DType type, workloads::Scale scale, std::uint64_t seed,
                           int max_vars, int masks, const swifi::CampaignConfig& cfg) {
  OutcomeCounts total;
  for (const auto& w : suite) {
    gpusim::Device dev;
    auto v = core::build_variants(w->build_kernel(scale));
    const auto ds = w->make_dataset(seed, scale);
    auto job = w->make_job(ds);
    const auto pd = core::profile(dev, v, {job.get()});
    swifi::PlanOptions opt;
    opt.max_vars = max_vars;
    opt.masks_per_var = masks;
    opt.error_bits = 1;
    opt.seed = seed + 17;
    opt.type_filter = type;
    const auto specs = swifi::plan_faults(v.fi, pd, opt);
    // Sensitivity of the *baseline* program: FI build without detectors.
    const auto res = ex.run(v.fi, bench::context_factory(*w, ds), specs, w->requirement(), cfg);
    total.failure += res.counts.failure;
    total.masked += res.counts.masked;
    total.undetected += res.counts.undetected;
    total.not_activated += res.counts.not_activated;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const auto scale = scale_from(args);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const int max_vars = static_cast<int>(args.get_int("vars", 20));
  const int masks = static_cast<int>(args.get_int("masks", 10));
  const auto cflags = campaign_flags_from(args);
  if (report_flag_errors(args)) return 2;
  swifi::CampaignConfig gpu_cfg;
  gpu_cfg.engine = engine_from(cflags);
  swifi::CampaignExecutor ex(workers_from(args));

  print_header("Fig. 1: error sensitivity by program type and corrupted state (single-bit)");
  common::Table t({"Program class", "State", "Faults", "Crash/Hang", "SDC", "Not manifested"});

  const struct {
    kir::DType type;
    const char* name;
  } kTypes[] = {{kir::DType::PTR, "Pointer"}, {kir::DType::I32, "Integer"},
                {kir::DType::F32, "Floating-Point"}};

  double hpc_sdc[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    RowAccum r{gpu_campaign(ex, workloads::hpc_suite(), kTypes[i].type, scale, seed, max_vars,
                            masks, gpu_cfg)};
    hpc_sdc[i] = 100.0 * r.counts.ratio(r.counts.undetected);
    r.print_row(t, "GPU HPC", kTypes[i].name);
  }
  for (const auto& kt : kTypes) {
    RowAccum r{gpu_campaign(ex, workloads::graphics_suite(), kt.type, scale, seed, max_vars,
                            masks, gpu_cfg)};
    r.print_row(t, "GPU Graphics", kt.name);
  }

  // CPU programs with paged memory; attacked via stack / data / code.
  gpusim::DeviceProps cpu_props;
  cpu_props.memory_model = gpusim::MemoryModel::PagedCpu;
  cpu_props.num_sms = 1;
  // Generous watchdog matching the legacy sequential harness (paged CPU
  // programs have much higher per-thread counts than the derived floor).
  swifi::CampaignConfig cpu_cfg;
  cpu_cfg.hang_floor = 50'000'000;
  cpu_cfg.engine = gpu_cfg.engine;
  {
    // Stack: faults in local (virtual) variables via FI hooks.
    OutcomeCounts total;
    for (const auto& w : workloads::cpu_suite()) {
      gpusim::Device dev(cpu_props);
      auto v = core::build_variants(w->build_kernel(scale));
      const auto ds = w->make_dataset(seed, scale);
      auto job = w->make_job(ds);
      const auto pd = core::profile(dev, v, {job.get()});
      swifi::PlanOptions opt;
      opt.max_vars = max_vars;
      opt.masks_per_var = masks;
      opt.seed = seed + 29;
      const auto specs = swifi::plan_faults(v.fi, pd, opt);
      const auto res = ex.run(v.fi, bench::context_factory(*w, ds, cpu_props), specs,
                              w->requirement(), gpu_cfg);
      total.failure += res.counts.failure;
      total.masked += res.counts.masked;
      total.undetected += res.counts.undetected;
    }
    RowAccum{total}.print_row(t, "CPU", "Stack");
  }
  {
    // Data: random live memory-word flips (trial i draws from fork(seed, i)).
    OutcomeCounts total;
    for (const auto& w : workloads::cpu_suite()) {
      auto v = core::build_variants(w->build_kernel(scale));
      const auto ds = w->make_dataset(seed, scale);
      const auto res =
          ex.run_memory_faults(v.baseline, bench::context_factory(*w, ds, cpu_props),
                               seed + 31, max_vars * masks, 1, w->requirement(), cpu_cfg);
      total.failure += res.counts.failure;
      total.masked += res.counts.masked;
      total.undetected += res.counts.undetected;
    }
    RowAccum{total}.print_row(t, "CPU", "Data");
  }
  {
    // Code: instruction-encoding bit flips.
    OutcomeCounts total;
    for (const auto& w : workloads::cpu_suite()) {
      auto v = core::build_variants(w->build_kernel(scale));
      const auto ds = w->make_dataset(seed, scale);
      const auto res = ex.run_code_faults(v.baseline, bench::context_factory(*w, ds, cpu_props),
                                          seed + 41, max_vars * masks, w->requirement(),
                                          cpu_cfg);
      total.failure += res.counts.failure;
      total.masked += res.counts.masked;
      total.undetected += res.counts.undetected;
    }
    RowAccum{total}.print_row(t, "CPU", "Code");
  }

  t.print();
  std::printf(
      "\nObservation 1 (paper: SDC ~18%% ptr / ~45%% int / ~39%% FP in GPU HPC):\n"
      "  measured SDC: %.1f%% ptr / %.1f%% int / %.1f%% FP\n",
      hpc_sdc[0], hpc_sdc[1], hpc_sdc[2]);
  return 0;
}
