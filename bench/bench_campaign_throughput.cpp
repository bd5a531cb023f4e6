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
// protection rows, the golden-recording times, the interpreted-instruction
// shares of replayed trials, the threaded streams a replayed and a
// journal-less sanitized campaign compile, the
// hang fast-forward rows (TPACF's write-retry livelocks, CP's counter loops),
// the shared words TPACF replays write, the device construction time, the
// per-launch host overhead and the determinism verdict as JSON).  Exits
// nonzero when outcomes diverge across rows, or a hung TPACF or CP trial
// does not fast-forward.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/worker_pool.hpp"
#include "common/bitops.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "swifi/injector.hpp"

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

/// Instructions a set of replayed trials executed, and how many of them
/// replay took from the golden journal instead of interpreting.
struct Share {
  std::uint64_t instructions = 0, replayed = 0;
  void add(const gpusim::LaunchResult& r) {
    instructions += r.instructions;
    replayed += r.replayed_instructions;
  }
  [[nodiscard]] double interpreted() const {
    return instructions == 0 ? 0.0
                             : 1.0 - static_cast<double>(replayed) /
                                         static_cast<double>(instructions);
  }
};

/// A tiny single-bit register-fault campaign on a workload's FI build:
/// its planned faults (64 sites, `masks` per site), and one device with
/// the golden run's journal on which `launch` runs a trial, replayed
/// against `journal` (null: a full launch).
struct TinyCampaign {
  ProgramContext ctx;
  std::vector<swifi::FaultSpec> specs;
  gpusim::Device dev;
  std::unique_ptr<core::KernelJob> job;
  swifi::GoldenRun gold;
  std::uint64_t watchdog;
  swifi::TrialStage stage;
  swifi::InjectingHooks hooks;

  TinyCampaign(std::unique_ptr<workloads::Workload> w, std::uint64_t seed, int masks)
      : ctx(make_context(std::move(w), seed, workloads::Scale::Tiny)),
        specs(plan(ctx, seed, masks)),
        job(ctx.workload->make_job(ctx.dataset)),
        gold(swifi::golden_run(dev, ctx.variants.fi, *job, nullptr, 1)),
        watchdog(swifi::campaign_watchdog(gold, swifi::CampaignConfig{})),
        stage(dev, *job),
        hooks(ctx.variants.fi, nullptr) {}

  gpusim::LaunchResult launch(const swifi::FaultSpec& spec, const gpusim::LaunchJournal* journal) {
    hooks.arm(spec);
    const auto& a = stage.stage();
    gpusim::LaunchOptions lo;
    lo.hooks = &hooks;
    lo.watchdog_instructions = watchdog;
    lo.max_workers = 1;
    lo.journal = journal;
    return dev.launch(ctx.variants.fi, job->config(), a, lo);
  }

 private:
  static std::vector<swifi::FaultSpec> plan(const ProgramContext& ctx, std::uint64_t seed,
                                            int masks) {
    swifi::PlanOptions opt;
    opt.max_vars = 64;
    opt.masks_per_var = masks;
    opt.seed = seed + 7;
    return swifi::plan_faults(ctx.variants.fi, ctx.profile, opt);
  }
};

/// Hung trials of a tiny campaign (DESIGN §10, "Hung threads"): how many
/// hung, how many of them fast-forwarded, and the median milliseconds per
/// hung trial replayed and as a full launch (every hung trial runs both
/// ways, and must agree on status, totals, SDC bit, ECC corrections and
/// memory image).
struct HangRow {
  std::size_t hung = 0, fast_forwarded = 0;
  double replayed_ms = 0, full_ms = 0;
  bool deterministic = true;
};

HangRow hang_row(std::unique_ptr<workloads::Workload> w, std::uint64_t seed, int masks) {
  TinyCampaign c(std::move(w), seed, masks);
  HangRow row;
  std::vector<double> rep_ms, full_ms;
  for (const swifi::FaultSpec& spec : c.specs) {
    gpusim::LaunchResult res;
    const double s = seconds([&] { res = c.launch(spec, c.gold.journal.get()); });
    if (res.status != gpusim::LaunchStatus::Hang) continue;
    ++row.hung;
    row.fast_forwarded += res.fast_forwarded_instructions > 0;
    rep_ms.push_back(1e3 * s);
    const std::vector<std::uint32_t> image = c.dev.mem().image();
    gpusim::LaunchResult full;
    full_ms.push_back(1e3 * seconds([&] { full = c.launch(spec, nullptr); }));
    row.deterministic = row.deterministic && full.status == res.status &&
                        full.instructions == res.instructions && full.cycles == res.cycles &&
                        full.loop_cycles == res.loop_cycles && full.sdc_alarm == res.sdc_alarm &&
                        full.ecc_corrected == res.ecc_corrected && c.dev.mem().image() == image;
  }
  const auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  row.replayed_ms = median(rep_ms);
  row.full_ms = median(full_ms);
  std::printf("\nhang fast-forward (%s/tiny FI, %zu trials): %zu hung, %zu fast-forwarded; "
              "median ms per hung trial: replayed %.3f, full %.3f\n",
              c.ctx.workload->name().c_str(), c.specs.size(), row.hung, row.fast_forwarded,
              row.replayed_ms, row.full_ms);
  return row;
}

/// Shared words replayed trials wrote from the journal, per trial: with the
/// journal's net lists, and with its ordered lists.
struct SharedWrites {
  std::size_t trials = 0;
  double net = 0, ordered = 0;
};

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

  // Golden recording: each campaign opens with a golden run of the FI&FT
  // build under its control block, which records the segment journal its
  // trials replay.  Recording follows the device's engine, so each engine
  // gets a row: median, p25 and p75 of 11 golden runs on a warm device (the
  // first run, which builds the launch plan, is not counted).  Eleven runs
  // in one process cannot resolve a few-percent recording change: the
  // quartiles show how wide the row's own spread is.
  std::map<std::string, std::array<double, 3>> record_ms;  // engine -> {p25, median, p75}
  {
    std::printf("\ngolden recording (FI&FT build, control block, 11 runs):\n");
    for (const auto engine : {gpusim::ExecEngine::Reference, gpusim::ExecEngine::Threaded}) {
      gpusim::Device dev;
      dev.set_engine(engine);
      auto job = ctx.workload->make_job(ctx.dataset);
      std::vector<double> ms;
      for (int i = 0; i < 12; ++i) {
        const double s = seconds([&] {
          (void)swifi::golden_run(dev, ctx.variants.fift, *job, ctx.cb.get(), 1);
        });
        if (i > 0) ms.push_back(1e3 * s);
      }
      std::sort(ms.begin(), ms.end());
      const std::array<double, 3> q = {ms[ms.size() / 4], ms[ms.size() / 2],
                                       ms[3 * ms.size() / 4]};
      record_ms[gpusim::exec_engine_name(engine)] = q;
      std::printf("  %-10s %.3f ms (p25 %.3f, p75 %.3f)\n", gpusim::exec_engine_name(engine),
                  q[1], q[0], q[2]);
    }
    std::printf("  reference / threaded: %.2fx\n",
                record_ms["reference"][1] / record_ms["threaded"][1]);
  }
  // A single-bit memory-fault campaign's golden run — the FT build under its
  // control block on a Hsiao device — records only the net effect: its
  // median and quartiles next to the full journal's of the same launch (11 runs
  // each on a warm threaded device, the two kinds alternating).
  {
    gpusim::DeviceProps hsiao;
    hsiao.protection = gpusim::ecc::Scheme::Hsiao;
    auto ft_cb = core::make_configured_control_block(ctx.variants.ft, ctx.profile);
    gpusim::Device dev(hsiao);
    auto job = ctx.workload->make_job(ctx.dataset);
    std::array<std::vector<double>, 2> ms;  // full, net effect
    for (int i = 0; i < 12; ++i)
      for (const int k : {0, 1}) {
        const double s = seconds([&] {
          (void)swifi::golden_run(dev, ctx.variants.ft, *job, ft_cb.get(), 1,
                                  k ? swifi::GoldenJournal::NetEffect : swifi::GoldenJournal::Full);
        });
        if (i > 0) ms[k].push_back(1e3 * s);
      }
    std::printf("golden recording (FT build, control block, hsiao, threaded, 11 runs):\n");
    for (const int k : {0, 1}) {
      std::sort(ms[k].begin(), ms[k].end());
      const std::array<double, 3> q = {ms[k][ms[k].size() / 4], ms[k][ms[k].size() / 2],
                                       ms[k][3 * ms[k].size() / 4]};
      const char* name = k ? "net_effect" : "full_record";
      record_ms[name] = q;
      std::printf("  %-11s %.3f ms (p25 %.3f, p75 %.3f)\n", name, q[1], q[0], q[2]);
    }
    std::printf("  net effect / full journal: %.2f\n",
                record_ms["net_effect"][1] / record_ms["full_record"][1]);
  }

  // Interpreted-instruction share of replayed trials (DESIGN §10): the
  // campaign's register faults on the FI&FT build, and 400 single-bit
  // memory-cell faults on the FT build on a Hsiao device, each replayed
  // segment by segment against the golden journal and against the same
  // journal without its snapshot table (whole segments only).  Armed
  // register faults never take the net effect in one step; the memory
  // faults drop it for those two arms and are replayed a third time
  // against the whole journal, for the share of trials that take it.
  // Every replayed trial's outcome is the full launch's (test_replay), so
  // only the shares move.
  std::array<Share, 2> reg_share, mem_share;  // [0] whole segments, [1] windows
  std::size_t one_step_trials = 0;
  // The threaded streams the windows arm's device compiled: the golden
  // run's recording stream and the write-tracking streams every replayed
  // trial runs, however many FI sites the campaign arms.
  std::uint64_t stream_compiles = 0, stream_plans = 0;
  std::size_t fi_sites = 0;
  {
    for (const bool windows : {false, true}) {
      gpusim::Device dev;
      auto job = ctx.workload->make_job(ctx.dataset);
      const swifi::GoldenRun gold =
          swifi::golden_run(dev, ctx.variants.fift, *job, ctx.cb.get(), 1);
      gpusim::LaunchJournal j = *gold.journal;
      if (!windows) j.snapshots = {};
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
      swifi::TrialStage stage(dev, *job);
      swifi::InjectingHooks hooks(ctx.variants.fift, ctx.cb.get());
      for (const swifi::FaultSpec& spec : specs) {
        hooks.arm(spec);
        const auto& a = stage.stage();
        ctx.cb->reset_results();
        gpusim::LaunchOptions lo;
        lo.hooks = &hooks;
        lo.watchdog_instructions = watchdog;
        lo.max_workers = 1;
        lo.journal = &j;
        reg_share[windows].add(dev.launch(ctx.variants.fift, job->config(), a, lo));
      }
      stream_compiles = dev.stream_compiles();
      stream_plans = dev.plan_cache_misses();
    }
    std::vector<std::uint32_t> sites;
    for (const swifi::FaultSpec& spec : specs) sites.push_back(spec.site_id);
    std::sort(sites.begin(), sites.end());
    fi_sites = static_cast<std::size_t>(std::unique(sites.begin(), sites.end()) - sites.begin());
    gpusim::DeviceProps hsiao;
    hsiao.protection = gpusim::ecc::Scheme::Hsiao;
    auto ft_cb = core::make_configured_control_block(ctx.variants.ft, ctx.profile);
    for (const int arm : {0, 1, 2}) {  // whole segments, windows, whole journal
      gpusim::Device dev(hsiao);
      auto job = ctx.workload->make_job(ctx.dataset);
      const swifi::GoldenRun gold = swifi::golden_run(dev, ctx.variants.ft, *job, ft_cb.get(), 1);
      gpusim::LaunchJournal j = *gold.journal;
      if (arm < 2) j.net = {};
      if (arm == 0) j.snapshots = {};
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
      swifi::TrialStage stage(dev, *job);
      common::Rng rng = common::Rng::fork(seed, 0x3e3);
      for (int i = 0; i < 400; ++i) {
        const auto& a = stage.stage();
        dev.mem().corrupt_word(static_cast<std::uint32_t>(rng.next_below(dev.mem().used_words())),
                               common::random_mask(rng, 1));
        ft_cb->reset_results();
        gpusim::LaunchOptions lo;
        lo.hooks = ft_cb.get();
        lo.watchdog_instructions = watchdog;
        lo.max_workers = 1;
        lo.journal = &j;
        const gpusim::LaunchResult res = dev.launch(ctx.variants.ft, job->config(), a, lo);
        if (arm < 2)
          mem_share[arm].add(res);
        else
          one_step_trials += res.replayed_in_one_step;
      }
    }
    std::printf("\ninterpreted share of replayed trial instructions (whole segments -> "
                "windows):\n");
    std::printf("  register faults (FI&FT, %zu trials): %.4f -> %.4f\n", specs.size(),
                reg_share[0].interpreted(), reg_share[1].interpreted());
    std::printf("  memory faults (FT, hsiao, 400 trials): %.4f -> %.4f\n",
                mem_share[0].interpreted(), mem_share[1].interpreted());
    std::printf("  memory faults replayed in one step (net effect): %.4f\n",
                static_cast<double>(one_step_trials) / 400.0);
    std::printf("threaded streams compiled for %zu replayed register-fault trials over %zu FI "
                "sites: %llu (%llu plan)\n",
                specs.size(), fi_sites, static_cast<unsigned long long>(stream_compiles),
                static_cast<unsigned long long>(stream_plans));
  }

  // The threaded streams a journal-less campaign compiles: the same
  // register faults on a sanitized device (a sanitized golden run records
  // no journal), one full launch each.  Every thread but the armed one runs
  // the plan's sanitized stream with FIHooks compiled away, the armed
  // thread the one with them live: at most two streams per plan, however
  // many FI sites the campaign arms.
  std::uint64_t san_streams = 0, san_plans = 0;
  {
    gpusim::Device dev;
    dev.set_sanitize(true);
    auto job = ctx.workload->make_job(ctx.dataset);
    const swifi::GoldenRun gold =
        swifi::golden_run(dev, ctx.variants.fift, *job, ctx.cb.get(), 1);
    const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
    swifi::TrialStage stage(dev, *job);
    for (const swifi::FaultSpec& spec : specs)
      (void)swifi::run_one_fault(dev, ctx.variants.fift, *job, ctx.cb.get(), spec, gold.output,
                                 req, watchdog, 1, gpusim::SharedShadow::kMaxReportsPerBlock,
                                 &stage);
    san_streams = dev.stream_compiles();
    san_plans = dev.plan_cache_misses();
    std::printf("threaded streams compiled for %zu journal-less sanitized register-fault trials "
                "over %zu FI sites: %llu (%llu plan)\n",
                specs.size(), fi_sites, static_cast<unsigned long long>(san_streams),
                static_cast<unsigned long long>(san_plans));
  }

  // Hang fast-forward (DESIGN §10): TPACF's write-retry livelocks (paper
  // §IX.B) repeat their state; CP's loops with a sign-bit counter are
  // counter loops the affine proof skips.
  const HangRow tpacf_hangs = hang_row(workloads::make_tpacf(), seed, 8);
  const HangRow cp_hangs = hang_row(workloads::make_cp(), seed, 32);
  deterministic = deterministic && tpacf_hangs.deterministic && cp_hangs.deterministic;

  // Net shared writes (DESIGN §10): the shared words TPACF/tiny FI
  // register-fault replays write from the journal per trial, against the
  // same replays with every segment's net list replaced by its ordered
  // shared writes (what applying whole segments wrote before).
  SharedWrites shared_writes;
  {
    TinyCampaign c(workloads::make_tpacf(), seed, 8);
    gpusim::LaunchJournal ordered = *c.gold.journal;
    ordered.net_shared_writes = ordered.shared_writes;
    for (gpusim::LaunchJournal::Segment& s : ordered.segments) {
      s.first_net_shared_write = s.first_shared_write;
      s.net_shared_writes = s.net_shared_changes = s.shared_writes;
    }
    std::uint64_t net = 0, full = 0;
    for (const swifi::FaultSpec& spec : c.specs) {
      const gpusim::LaunchResult a = c.launch(spec, c.gold.journal.get());
      const std::vector<std::uint32_t> image = c.dev.mem().image();
      const gpusim::LaunchResult b = c.launch(spec, &ordered);
      net += a.replayed_shared_writes;
      full += b.replayed_shared_writes;
      deterministic = deterministic && a.status == b.status &&
                      a.instructions == b.instructions && a.cycles == b.cycles &&
                      image == c.dev.mem().image();
    }
    shared_writes.trials = c.specs.size();
    shared_writes.net = static_cast<double>(net) / static_cast<double>(c.specs.size());
    shared_writes.ordered = static_cast<double>(full) / static_cast<double>(c.specs.size());
    std::printf("replayed shared writes (TPACF/tiny FI, %zu trials): %.1f per trial "
                "(ordered lists: %.1f)\n",
                c.specs.size(), shared_writes.net, shared_writes.ordered);
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

  // Fixed host cost of a launch: an empty one-thread kernel on a warm
  // threaded device with one block worker, so nothing is interpreted and
  // what remains is plan lookup, the worker-count choice and result
  // assembly.  A replayed trial interprets only microseconds of kernel, so
  // this cost is paid at the same scale; median of 2000 launches.
  double launch_overhead_us = 0;
  {
    gpusim::Device dev;
    const auto empty = kir::lower(kir::KernelBuilder("empty").build());
    gpusim::LaunchOptions lo;
    lo.max_workers = 1;
    if (dev.launch(empty, {}, {}, lo).status != gpusim::LaunchStatus::Ok) {
      std::fprintf(stderr, "error: the empty kernel did not launch\n");
      return 1;
    }
    std::vector<double> us(2000);
    for (double& u : us) u = 1e6 * seconds([&] { (void)dev.launch(empty, {}, {}, lo); });
    std::sort(us.begin(), us.end());
    launch_overhead_us = us[us.size() / 2];
    std::printf("launch overhead (empty one-thread kernel, warm device): %.2f us "
                "(median of %zu)\n",
                launch_overhead_us, us.size());
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
    std::fprintf(f, "  \"golden_record_ms\": {\n");
    i = 0;
    for (const auto& [en, q] : record_ms)
      std::fprintf(f,
                   "    \"%s\": {\"median\": %.4f, \"p25\": %.4f, \"p75\": %.4f, "
                   "\"runs\": 11}%s\n",
                   en.c_str(), q[1], q[0], q[2], ++i < record_ms.size() ? "," : "");
    std::fprintf(f, "  },\n  \"record_speedup_threaded_vs_reference\": %.4f,\n",
                 record_ms.at("reference")[1] / record_ms.at("threaded")[1]);
    std::fprintf(f, "  \"net_effect_vs_full_record\": %.4f,\n",
                 record_ms.at("net_effect")[1] / record_ms.at("full_record")[1]);
    std::fprintf(f,
                 "  \"interpreted_share\": {\"register_faults\": {\"whole_segments\": %.4f, "
                 "\"windows\": %.4f, \"trials\": %zu},\n    \"memory_faults_hsiao\": "
                 "{\"whole_segments\": %.4f, \"windows\": %.4f, \"one_step_trials\": %.4f, "
                 "\"trials\": 400}},\n",
                 reg_share[0].interpreted(), reg_share[1].interpreted(), specs.size(),
                 mem_share[0].interpreted(), mem_share[1].interpreted(),
                 static_cast<double>(one_step_trials) / 400.0);
    std::fprintf(f,
                 "  \"replay_stream_compiles\": {\"streams\": %llu, \"plans\": %llu, "
                 "\"fi_sites\": %zu, \"trials\": %zu},\n",
                 static_cast<unsigned long long>(stream_compiles),
                 static_cast<unsigned long long>(stream_plans), fi_sites, specs.size());
    std::fprintf(f,
                 "  \"stream_compiles\": {\"streams\": %llu, \"plans\": %llu, "
                 "\"sites\": %zu, \"trials\": %zu},\n",
                 static_cast<unsigned long long>(san_streams),
                 static_cast<unsigned long long>(san_plans), fi_sites, specs.size());
    const auto hang_json = [&](const char* key, const char* program, const HangRow& h) {
      std::fprintf(f,
                   "  \"%s\": {\"program\": \"%s\", \"hung\": %zu, "
                   "\"fast_forwarded\": %zu, \"replayed_ms_per_hung_trial\": %.4f, "
                   "\"full_ms_per_hung_trial\": %.4f},\n",
                   key, program, h.hung, h.fast_forwarded, h.replayed_ms, h.full_ms);
    };
    hang_json("hang_fast_forward", "TPACF", tpacf_hangs);
    hang_json("counter_loop_fast_forward", "CP", cp_hangs);
    std::fprintf(f,
                 "  \"replay_shared_writes\": {\"program\": \"TPACF\", \"trials\": %zu, "
                 "\"per_trial\": %.2f, \"ordered_per_trial\": %.2f},\n",
                 shared_writes.trials, shared_writes.net, shared_writes.ordered);
    std::fprintf(f, "  \"device_init_us\": %.2f,\n", device_init_us);
    std::fprintf(f, "  \"launch_overhead_us\": %.3f,\n", launch_overhead_us);
    std::fprintf(f, "  \"deterministic\": %s\n}\n", deterministic ? "true" : "false");
    std::fclose(f);
  }
  bool hangs_fast_forward = true;
  for (const auto& [program, h] : {std::pair{"TPACF", tpacf_hangs}, std::pair{"CP", cp_hangs}})
    if (h.fast_forwarded < h.hung) {
      std::fprintf(stderr, "error: %zu of %zu hung %s trials did not fast-forward\n",
                   h.hung - h.fast_forwarded, h.hung, program);
      hangs_fast_forward = false;
    }
  return deterministic && hangs_fast_forward ? 0 : 1;
}
