// Campaign-driver throughput: trials/second of a one-worker CampaignExecutor
// baseline versus the same executor at increasing worker counts, each
// interpreter engine, and protected memory.
//
// The worker sweep reports speedup relative to the one-worker baseline; on a
// single-core host the parallel rows match the baseline (within thread
// overhead) and the gains appear with the cores.  Outcomes are checked to be
// identical across all rows before anything is printed.  Every row is one
// timed run; perfbench (perfbench/README.md) measures campaign throughput,
// checkpointing included, as medians over repeated runs.
//
// Knobs: --program (default CP), --scale=tiny|small|medium (default small),
// --seed (default 1), --vars (default 16), --masks (default 8),
// --workers-list=1,2,4,0 (0 = hardware concurrency), --sanitize (sanitize
// the baseline and executor campaigns — measures the shadow's overhead; the
// engine-sweep and protection rows stay unsanitized), --sanitize-cap=N
// (sanitizer reports kept per block), --engine=reference|threaded (engine
// for the baseline and executor campaigns; default threaded),
// --protection=none|hamming|hsiao (hardware ECC on the baseline and
// executor devices; the protected-mode section below always measures
// none-vs-hsiao regardless), --json=FILE (write the engine sweep and
// protection rows, the device construction time and the determinism
// verdict as JSON).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "bench_common.hpp"
#include "common/worker_pool.hpp"

using namespace hauberk;
using namespace hauberk::bench;

namespace {

template <typename Fn>
double seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<int> parse_list(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::atoi(tok.c_str()));
  return out;
}

bool same_outcomes(const swifi::CampaignResult& a, const swifi::CampaignResult& b) {
  return a.per_fault == b.per_fault;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const auto scale = scale_from(args);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::string name = args.get("program", "CP");
  const int max_vars = static_cast<int>(args.get_int("vars", 16));
  const int masks = static_cast<int>(args.get_int("masks", 8));
  const auto worker_list = parse_list(args.get("workers-list", "1,2,4,0"));
  const std::string json_path = args.get("json");
  const auto cflags = campaign_flags_from(args);
  if (report_flag_errors(args)) return 2;
  const bool sanitize = cflags.sanitize;
  gpusim::DeviceProps props;
  props.protection = protection_from(cflags);
  swifi::CampaignConfig cfg;
  cfg.engine = engine_from(cflags);
  cfg.sanitize = sanitize;
  cfg.sanitize_cap = static_cast<std::size_t>(cflags.sanitize_cap);
  cfg.protection = props.protection;

  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == name) w = std::move(cand);
  if (!w) {
    std::fprintf(stderr, "unknown program '%s'\n", name.c_str());
    return 1;
  }

  auto ctx = make_context(std::move(w), seed, scale, 1.0, props);
  cfg.pipeline = swifi::PipelineSpec::from_report(ctx.variants.fift_report);
  swifi::PlanOptions opt;
  opt.max_vars = max_vars;
  opt.masks_per_var = masks;
  opt.error_bits = 3;
  opt.seed = seed + 7;
  const auto specs = swifi::plan_faults(ctx.variants.fift, ctx.profile, opt);
  const auto n = static_cast<double>(specs.size());
  const auto factory = context_factory(*ctx.workload, ctx.dataset, props, &ctx.variants.fift,
                                       &ctx.profile);

  print_header("Campaign throughput: one-worker baseline vs parallel executor");
  std::printf("program %s, %zu trials, host concurrency %u%s\n", ctx.workload->name().c_str(),
              specs.size(), common::WorkerPool::default_workers(),
              sanitize ? ", sanitizer ON" : "");
  const auto& req = ctx.workload->requirement();

  // Baseline: one campaign worker.
  swifi::CampaignResult base_res;
  const double base_s = seconds([&] {
    base_res = swifi::CampaignExecutor(1).run(ctx.variants.fift, factory, specs, req, cfg);
  });

  common::Table t({"Driver", "Workers", "Seconds", "Trials/sec", "Speedup"});
  t.add_row({"executor", "1", common::Table::num(base_s, 3),
             common::Table::num(n / base_s, 1), "1.00x"});

  bool deterministic = true;
  for (const int workers : worker_list) {
    swifi::CampaignExecutor ex(workers);
    swifi::CampaignResult res;
    const double s = seconds([&] { res = ex.run(ctx.variants.fift, factory, specs, req, cfg); });
    deterministic = deterministic && same_outcomes(base_res, res);
    t.add_row({"executor", std::to_string(ex.workers()), common::Table::num(s, 3),
               common::Table::num(n / s, 1),
               common::Table::num(base_s / s, 2) + "x"});
  }
  t.print();
  std::printf("\noutcome determinism across worker counts: %s\n",
              deterministic ? "OK (bitwise identical)" : "MISMATCH (bug!)");

  // Interpreter-engine sweep: the same unsanitized one-worker campaign on
  // each execution engine (the baseline above runs --engine, default
  // threaded).  Outcomes must be identical across the sweep.  The threaded
  // row's trials replay the golden journal (DESIGN §10) while reference
  // trials run full launches, so its ratio is replayed-vs-full, not
  // interpreter speed alone (bench_interp_throughput measures that).
  std::map<std::string, double> engine_s;
  {
    common::Table et({"Engine", "Seconds", "Trials/sec", "vs reference"});
    const gpusim::ExecEngine sweep[] = {gpusim::ExecEngine::Reference,
                                        gpusim::ExecEngine::Threaded};
    swifi::CampaignResult ref_res;
    const auto row_factory = context_factory(*ctx.workload, ctx.dataset, {},
                                             &ctx.variants.fift, &ctx.profile);
    for (const auto engine : sweep) {
      swifi::CampaignConfig rcfg;
      rcfg.engine = engine;
      swifi::CampaignResult res;
      const double s = seconds([&] {
        res = swifi::CampaignExecutor(1).run(ctx.variants.fift, row_factory, specs, req, rcfg);
      });
      const char* en = gpusim::exec_engine_name(engine);
      engine_s[en] = s;
      if (engine == sweep[0])
        ref_res = res;
      else
        deterministic = deterministic && same_outcomes(res, ref_res);
      et.add_row({en, common::Table::num(s, 3), common::Table::num(n / s, 1),
                  common::Table::num(engine_s["reference"] / s, 2) + "x"});
    }
    std::printf("\none-worker campaign per engine:\n");
    et.print();
    std::printf("threaded (segment replay) vs reference (full launches): %.2fx trials/sec\n",
                engine_s["reference"] / engine_s["threaded"]);
  }

  // Protected-memory (hardware ECC) overhead on the threaded engine: the
  // same one-worker campaign with a (72,64) SEC-DED code on device memory.
  // Protection closes the flat-arena shortcut — every global access takes
  // the EDC-checked load()/store() path — so this is the full cost of the
  // checked path, not just the modeled cycle surcharge.  Acceptance bar
  // (tracked in EXPERIMENTS.md): within 2x of unprotected throughput.
  // Outcomes must not move: a register-fault campaign never corrupts memory
  // cells, so ECC has nothing to correct and classification is invariant.
  double prot_none_s = 0, prot_hsiao_s = 0;
  {
    common::Table pt({"Protection", "Seconds", "Trials/sec", "vs none"});
    swifi::CampaignResult none_res;
    for (const auto scheme : {gpusim::ecc::Scheme::None, gpusim::ecc::Scheme::Hsiao}) {
      gpusim::DeviceProps pprops;
      pprops.protection = scheme;
      swifi::CampaignConfig pcfg;
      pcfg.engine = gpusim::ExecEngine::Threaded;
      pcfg.protection = scheme;
      pcfg.pipeline = cfg.pipeline;
      const auto row_factory = context_factory(*ctx.workload, ctx.dataset, pprops,
                                               &ctx.variants.fift, &ctx.profile);
      swifi::CampaignResult res;
      const double s = seconds([&] {
        res = swifi::CampaignExecutor(1).run(ctx.variants.fift, row_factory, specs, req, pcfg);
      });
      if (scheme == gpusim::ecc::Scheme::None) {
        prot_none_s = s;
        none_res = res;
      } else {
        prot_hsiao_s = s;
        deterministic = deterministic && same_outcomes(none_res, res);
      }
      pt.add_row({gpusim::ecc::scheme_name(scheme), common::Table::num(s, 3),
                  common::Table::num(n / s, 1),
                  common::Table::num(s / prot_none_s, 2) + "x"});
    }
    std::printf("\nprotected memory (threaded engine, one-worker campaign):\n");
    pt.print();
    std::printf("hsiao slowdown vs none: %.2fx (acceptance: <= 2x)\n",
                prot_hsiao_s / prot_none_s);
  }

  // Campaign-startup cost: the instrumentation (pass pipeline) time that
  // precedes any trial, with the analysis-cache behavior behind it.  The
  // full translation-throughput sweep lives in bench_translate_time.
  {
    const auto& rep = ctx.variants.fift_report;
    std::printf("\ncampaign startup: pipeline '%s' instrumented in %.3fms "
                "(analysis cache: %llu hits / %llu misses, %.0f%% hit rate)\n",
                rep.pipeline.c_str(), rep.transform_seconds * 1e3,
                static_cast<unsigned long long>(rep.analysis_cache.hits),
                static_cast<unsigned long long>(rep.analysis_cache.misses),
                100.0 * rep.analysis_cache.hit_rate());
  }

  // Device construction: every campaign worker builds one per start and
  // resume.  The arenas are zero-page mappings, so this should not scale
  // with the default capacity; median of 9 to shed one-off page faults.
  double device_init_us = 0;
  {
    std::vector<double> us;
    for (int i = 0; i < 9; ++i) {
      std::unique_ptr<gpusim::Device> dev;
      us.push_back(1e6 * seconds([&] { dev = std::make_unique<gpusim::Device>(); }));
    }
    std::sort(us.begin(), us.end());
    device_init_us = us[us.size() / 2];
    std::printf("\ndevice construction (%u words): %.1f us (median of %zu)\n",
                gpusim::DeviceProps{}.global_mem_words, device_init_us, us.size());
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write --json file '%s'\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"bench\": \"campaign_throughput\",\n  \"program\": \"%s\",\n",
                 ctx.workload->name().c_str());
    std::fprintf(f, "  \"trials\": %zu,\n  \"engines\": {\n", specs.size());
    std::size_t i = 0;
    for (const auto& [en, s] : engine_s)
      std::fprintf(f, "    \"%s\": {\"seconds\": %.6f, \"trials_per_sec\": %.2f}%s\n",
                   en.c_str(), s, n / s, ++i < engine_s.size() ? "," : "");
    std::fprintf(f, "  },\n  \"speedup_threaded_vs_reference\": %.4f,\n",
                 engine_s.at("reference") / engine_s.at("threaded"));
    std::fprintf(f, "  \"protection\": {\"threaded_none\": {\"seconds\": %.6f, "
                 "\"trials_per_sec\": %.2f},\n    \"threaded_hsiao\": {\"seconds\": %.6f, "
                 "\"trials_per_sec\": %.2f},\n    \"hsiao_slowdown_vs_none\": %.4f},\n",
                 prot_none_s, n / prot_none_s, prot_hsiao_s, n / prot_hsiao_s,
                 prot_hsiao_s / prot_none_s);
    std::fprintf(f, "  \"device_init_us\": %.2f,\n", device_init_us);
    std::fprintf(f, "  \"deterministic\": %s\n}\n", deterministic ? "true" : "false");
    std::fclose(f);
  }
  return deterministic ? 0 : 1;
}
