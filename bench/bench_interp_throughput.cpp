// Substrate micro-benchmark: simulated-GPU interpreter throughput
// (instructions per second) for every workload on every execution engine —
// the reference switch interpreter and the threaded-code engine
// (computed-goto dispatch + launch-plan-specialized superinstructions) —
// plus a sanitized threaded arm (Device::set_sanitize: shadow-observing
// shared accesses), reported under the "sanitizer" key.  Not a paper
// figure — used to size fault-injection campaigns and to gate the threaded
// engine's speedup over the reference.
//
// Each workload also runs its FI&FT build under a disarmed SWIFI injector —
// the launch every campaign trial pays, minus the one armed hook — and
// reports that launch's time over the FT build's.  Both builds launch
// serially, as campaign trials do (CampaignConfig::launch_workers), so the
// FT and FI&FT cells' rates are one-worker rates; their launches alternate
// in a fixed number of rounds, and the reported ratio is the median of the
// rounds' ratios, so host drift during the measurement does not land on
// one build only.  The instruction ratio is fixed by the
// instrumentation; the time ratio staying near 1 on the threaded engine
// shows the stream with FIHooks compiled away is in use, not the one that
// dispatches every hook.
//
// All arms are pinned bitwise-identical by test_differential_fuzz and
// test_golden_outputs; this harness only measures, but it still verifies
// status/instruction equality across arms before reporting.
//
// Knobs:
//   --scale=tiny|small|medium  problem size (default small)
//   --seed=N                   dataset seed (default 1)
//   --engine=K                 measure only one engine, unsanitized
//                              (reference|threaded)
//   --min-time=S               seconds of timed launches per cell (default 0.15)
//   --json=FILE                write rows + geomeans as JSON
//   --min-speedup=X            exit nonzero unless the threaded engine's
//                              geomean instr/sec >= X * the reference's
//
// JSON: per-arm geomeans of baseline instr/sec and of the workloads'
// median FI&FT/FT launch-time ratios (`geomean_fift_ft_time_ratio`).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "hauberk/control_block.hpp"
#include "swifi/injector.hpp"

using namespace hauberk;
using namespace hauberk::bench;
using workloads::Workload;

namespace {

struct Cell {
  std::string workload, engine, variant;
  double instr_per_sec = 0.0;
  double seconds = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t instructions_per_launch = 0;
};

/// One measured configuration: an engine, sanitizing or not.
struct Arm {
  const char* name;
  gpusim::ExecEngine engine;
  bool sanitize;
};

struct Entry {
  std::unique_ptr<Workload> workload;
  bool paged = false;  // cpu_suite programs run on a PagedCpu device (Fig. 1)
};

std::vector<Entry> all_workloads() {
  std::vector<Entry> all;
  for (auto& w : workloads::hpc_suite()) all.push_back({std::move(w), false});
  for (auto& w : workloads::graphics_suite()) all.push_back({std::move(w), false});
  for (auto& w : workloads::cpu_suite()) all.push_back({std::move(w), true});
  all.push_back({workloads::make_cpu_matmul(), false});
  return all;
}

gpusim::DeviceProps props_for(const Entry& e) {
  gpusim::DeviceProps p;
  if (e.paged) {
    // Same substrate the Fig. 1 CPU rows use: sparse paged allocations so
    // pointer-chasing code actually walks its list (a FlatGpu device would
    // place the list head at address 0 and the walk would never start).
    p.memory_model = gpusim::MemoryModel::PagedCpu;
    p.num_sms = 1;
  }
  return p;
}

/// A cell's launch over a prepared device+args: job setup (allocation and
/// host->device copies) stays outside, so the cell isolates *interpreter*
/// throughput; trip counts come from params, so relaunching over stale
/// buffers executes the same instruction stream every iteration.
struct Timed {
  const kir::BytecodeProgram& prog;
  gpusim::LaunchConfig cfg;
  const std::vector<kir::Value>& args;
  gpusim::Device& dev;
  gpusim::LaunchOptions opts;
  Cell cell;

  Timed(Workload& w, const Arm& arm, const kir::BytecodeProgram& p,
        const gpusim::LaunchConfig& c, const std::vector<kir::Value>& a, gpusim::Device& d,
        gpusim::LaunchHooks* hooks, const char* variant)
      : prog(p), cfg(c), args(a), dev(d) {
    opts.hooks = hooks;
    cell.workload = w.name();
    cell.engine = arm.name;
    cell.variant = variant;
    // Warmup launch: compiles and caches the launch plan (decode + threaded
    // stream) so plan-build time is not billed to the steady-state rate.
    const auto warm = dev.launch(prog, cfg, args, opts);
    if (warm.status != gpusim::LaunchStatus::Ok) {
      std::fprintf(stderr, "error: %s/%s launch failed (%s)\n", cell.workload.c_str(),
                   cell.engine.c_str(), gpusim::launch_status_name(warm.status));
      std::exit(1);
    }
    cell.instructions_per_launch = warm.instructions;
  }

  /// Launch for at least `min_time` seconds and `min_launches` launches,
  /// adding them to the cell; returns this batch's seconds per launch.
  double run(double min_time, std::uint64_t min_launches) {
    (void)dev.launch(prog, cfg, args, opts);  // untimed: re-warm the caches
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    std::uint64_t launches = 0;
    while (elapsed < min_time || launches < min_launches) {
      (void)dev.launch(prog, cfg, args, opts);
      ++launches;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    cell.seconds += elapsed;
    cell.launches += launches;
    cell.instr_per_sec = static_cast<double>(cell.instructions_per_launch * cell.launches) /
                         cell.seconds;
    return elapsed / static_cast<double>(launches);
  }
};

/// FT and FI&FT launches alternate in this many rounds of equal time, so
/// host drift during the measurement hits both alike; a workload's
/// FI&FT/FT time ratio is the median of its rounds' ratios.  Each round's
/// batch starts with an untimed launch (Timed::run), since the other
/// build's batch ran on another device.
constexpr int kRatioRounds = 9;

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double logsum = 0.0;
  for (double x : xs) logsum += std::log(x);
  return std::exp(logsum / static_cast<double>(xs.size()));
}

void write_json(const std::string& path, const std::string& scale,
                const std::vector<Cell>& cells,
                const std::vector<Arm>& arms,
                const std::map<std::string, double>& geo,
                const std::map<std::string, double>& fift_geo) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write --json file '%s'\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"interp_throughput\",\n  \"scale\": \"%s\",\n",
               scale.c_str());
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"engine\": \"%s\", \"variant\": \"%s\", "
                 "\"instr_per_sec\": %.6e, \"instructions_per_launch\": %llu, "
                 "\"launches\": %llu, \"seconds\": %.6f}%s\n",
                 c.workload.c_str(), c.engine.c_str(), c.variant.c_str(), c.instr_per_sec,
                 static_cast<unsigned long long>(c.instructions_per_launch),
                 static_cast<unsigned long long>(c.launches), c.seconds,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"geomean_instr_per_sec\": {");
  for (std::size_t i = 0; i < arms.size(); ++i)
    std::fprintf(f, "%s\"%s\": %.6e", i ? ", " : "", arms[i].name, geo.at(arms[i].name));
  std::fprintf(f, "},\n  \"geomean_fift_ft_time_ratio\": {");
  for (std::size_t i = 0; i < arms.size(); ++i)
    std::fprintf(f, "%s\"%s\": %.4f", i ? ", " : "", arms[i].name, fift_geo.at(arms[i].name));
  std::fprintf(f, "}");
  if (geo.count("threaded") && geo.count("reference"))
    std::fprintf(f, ",\n  \"speedup_threaded_vs_reference\": %.4f",
                 geo.at("threaded") / geo.at("reference"));
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const auto scale = scale_from(args);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const double min_time = args.get_double("min-time", 0.15);
  const std::string json_path = args.get("json");
  const double min_speedup = args.get_double("min-speedup", 0.0);
  const auto cflags = campaign_flags_from(args);
  if (report_flag_errors(args)) return 2;

  std::vector<Arm> arms = {{"reference", gpusim::ExecEngine::Reference, false},
                           {"sanitizer", gpusim::ExecEngine::Threaded, true},
                           {"threaded", gpusim::ExecEngine::Threaded, false}};
  if (args.has("engine")) {
    const gpusim::ExecEngine engine = engine_from(cflags);
    arms = {{gpusim::exec_engine_name(engine), engine, false}};
  }

  print_header("Interpreter throughput: instructions/second per engine");

  std::vector<Cell> cells;
  // Per-arm geomean inputs, one per workload: baseline-variant rates and
  // FI&FT/FT launch-time ratios.
  std::map<std::string, std::vector<double>> base_rates, fift_ratios;

  common::Table t({"Workload", "Engine", "Base Minstr/s", "FT serial Minstr/s",
                   "FI&FT serial Minstr/s", "FI&FT/FT time"});
  for (auto& e : all_workloads()) {
    auto& w = e.workload;
    const auto ds = w->make_dataset(seed, scale);
    const auto v = core::build_variants(w->build_kernel(scale));
    const auto props = props_for(e);

    // Arm-equality sanity: identical status + instruction totals across
    // the measured arms (the bitwise pinning lives in the test suite).
    std::uint64_t pinned_instr = 0;

    for (const Arm& arm : arms) {
      gpusim::Device dev(props);
      dev.set_engine(arm.engine);
      dev.set_sanitize(arm.sanitize);
      auto job = w->make_job(ds);
      const auto bargs = job->setup(dev);
      Timed base_run(*w, arm, v.baseline, job->config(), bargs, dev, nullptr, "base");
      // Serial, as campaign trials launch (and as the FT and FI&FT cells).
      base_run.opts.max_workers = 1;
      base_run.run(min_time, 3);
      const Cell& base = base_run.cell;
      if (pinned_instr == 0) pinned_instr = base.instructions_per_launch;
      if (base.instructions_per_launch != pinned_instr) {
        std::fprintf(stderr, "error: %s/%s instruction count diverged\n",
                     w->name().c_str(), base.engine.c_str());
        return 1;
      }

      gpusim::Device ftdev(props);
      ftdev.set_engine(arm.engine);
      ftdev.set_sanitize(arm.sanitize);
      auto ftjob = w->make_job(ds);
      const auto fargs = ftjob->setup(ftdev);
      core::ControlBlock cb(v.ft);
      Timed ft(*w, arm, v.ft, ftjob->config(), fargs, ftdev, &cb, "ft");

      gpusim::Device fiftdev(props);
      fiftdev.set_engine(arm.engine);
      fiftdev.set_sanitize(arm.sanitize);
      auto fiftjob = w->make_job(ds);
      const auto fiftargs = fiftjob->setup(fiftdev);
      core::ControlBlock fift_cb(v.fift);
      swifi::InjectingHooks disarmed(v.fift, &fift_cb);
      Timed fift(*w, arm, v.fift, fiftjob->config(), fiftargs, fiftdev, &disarmed, "fift");
      // Serial launches, as campaign trials run them: the block pool's
      // scheduling jitter would otherwise swamp the hook tax being measured.
      ft.opts.max_workers = fift.opts.max_workers = 1;
      std::vector<double> ratios;
      for (int r = 0; r < kRatioRounds; ++r) {
        const double ft_s = ft.run(min_time / kRatioRounds, 1);
        ratios.push_back(fift.run(min_time / kRatioRounds, 1) / ft_s);
      }
      std::sort(ratios.begin(), ratios.end());
      const double ratio = ratios[ratios.size() / 2];

      base_rates[base.engine].push_back(base.instr_per_sec);
      fift_ratios[base.engine].push_back(ratio);
      t.add_row({w->name(), base.engine, common::Table::num(base.instr_per_sec / 1e6, 2),
                 common::Table::num(ft.cell.instr_per_sec / 1e6, 2),
                 common::Table::num(fift.cell.instr_per_sec / 1e6, 2),
                 common::Table::num(ratio, 3)});
      cells.push_back(base);
      cells.push_back(ft.cell);
      cells.push_back(fift.cell);
    }
  }
  t.print();

  std::map<std::string, double> geo, fift_geo;
  std::printf("\ngeomean over %zu workloads: baseline instructions/sec, FI&FT/FT launch time:\n",
              base_rates.begin()->second.size());
  for (const Arm& arm : arms) {
    const char* en = arm.name;
    geo[en] = geomean(base_rates[en]);
    fift_geo[en] = geomean(fift_ratios[en]);
    std::printf("  %-10s %8.2f Minstr/s  %6.3fx\n", en, geo[en] / 1e6, fift_geo[en]);
  }
  if (geo.count("threaded") && geo.count("reference"))
    std::printf("threaded vs reference: %.2fx\n", geo["threaded"] / geo["reference"]);

  if (!json_path.empty())
    write_json(json_path, args.get("scale", "small"), cells, arms, geo, fift_geo);

  if (min_speedup > 0.0) {
    if (!geo.count("reference") || !geo.count("threaded")) {
      std::fprintf(stderr,
                   "error: --min-speedup needs both reference and threaded measured\n");
      return 2;
    }
    const double s = geo["threaded"] / geo["reference"];
    if (s < min_speedup) {
      std::fprintf(stderr, "error: threaded/reference speedup %.2fx below floor %.2fx\n", s,
                   min_speedup);
      return 1;
    }
    std::printf("speedup floor %.2fx: OK\n", min_speedup);
  }
  return 0;
}
