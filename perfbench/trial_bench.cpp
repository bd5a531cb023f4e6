// SWIFI trial benchmark harness.  One process runs one workload:
//
//   perfbench_trials --workload=fift-small|fi-tiny-durable|memfault-ecc
//                    --seed=N --seconds=S --trace=0|1 --out=DIR
//                    [--tiny] [--tamper=1]
//
// and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//  * --trace=0 measures the end-to-end metrics: set-up time (median of the
//    set-ups repeated before every campaign round), campaign throughput
//    (median over repeated campaign rounds lasting --seconds in total), peak
//    RSS, and the two simulated figures, which repeat exactly for a seed.
//  * --trace=1 runs the workload once more with spans around every call into
//    the library's public layers and writes them to DIR/spans.txt; run.py
//    derives the per-layer metrics from that file.
//
// Correctness gate: every trial outcome the workload's campaign driver
// produces is compared against a single-thread run_one_fault /
// run_one_memory_fault pass over the same fault list; a disagreement or a
// throwing call counts the trial as failed.  --tamper flips one expected
// outcome to prove the gate trips; --tiny shrinks everything for self-checks.
//
// Datasets are fixed (the paper's train == test protocol, dataset seed 1);
// --seed selects the faults.  See README.md for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "gpusim/cost.hpp"
#include "gpusim/device.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "swifi/injector.hpp"
#include "swifi/resultlog.hpp"
#include "swifi/service.hpp"
#include "trace.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using perfbench::Scope;
using perfbench::Tracer;
using swifi::Outcome;
using swifi::OutcomeCounts;

namespace {

constexpr std::uint64_t kDatasetSeed = 1;  ///< train == test dataset (paper protocol)
constexpr int kSetupsPerRound = 10;        ///< set-ups before each campaign round
constexpr int kProbeRepeats = 5;           ///< repeats of each traced layer probe
/// Register-fault campaigns target every executed FI site of a program, so a
/// seed changes which thread, occurrence and bit each fault hits but never
/// which sites are in the mix (that mix sets the share of costly hangs).
constexpr int kAllSites = 1 << 20;

enum class Build { FIFT, FI, FT };

struct WorkloadDef {
  const char* name;
  workloads::Scale scale;
  Build build;                     ///< which compiled variant the trials inject into
  gpusim::ecc::Scheme protection;  ///< device memory protection
  int workers;                     ///< campaign workers (trial devices)
  bool durable;                    ///< checkpoint + result log + stop/resume
  bool memory_faults;              ///< memory-cell faults instead of register faults
  int max_vars;                    ///< register faults: sites per program
  int masks_per_var;               ///< register faults: masks per site
  int memory_trials;               ///< memory faults: trials per program
  std::uint64_t checkpoint_every;  ///< durable: committed trials per checkpoint
};

const WorkloadDef kWorkloads[] = {
    {"fift-small", workloads::Scale::Small, Build::FIFT, gpusim::ecc::Scheme::None, 1, false,
     false, kAllSites, 8, 0, 0},
    {"fi-tiny-durable", workloads::Scale::Tiny, Build::FI, gpusim::ecc::Scheme::None, 3, true,
     false, kAllSites, 96, 0, 16},
    {"memfault-ecc", workloads::Scale::Small, Build::FT, gpusim::ecc::Scheme::Hsiao, 1, false,
     true, 0, 0, 400, 0},
};

/// Self-check size: every workload at tiny scale with a handful of trials.
WorkloadDef shrink(WorkloadDef d) {
  d.scale = workloads::Scale::Tiny;
  d.max_vars = std::min(d.max_vars, 4);
  d.masks_per_var = std::min(d.masks_per_var, 4);
  d.memory_trials = std::min(d.memory_trials, 12);
  d.checkpoint_every = std::min<std::uint64_t>(d.checkpoint_every, 4);
  return d;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::unique_ptr<gpusim::Device> make_device(gpusim::ecc::Scheme protection) {
  gpusim::DeviceProps props;
  props.protection = protection;
  auto dev = std::make_unique<gpusim::Device>(props);
  dev->set_engine(gpusim::ExecEngine::Threaded);  // pinned: independent of the default
  return dev;
}

swifi::CampaignConfig campaign_config(const WorkloadDef& def) {
  swifi::CampaignConfig cfg;
  cfg.engine = gpusim::ExecEngine::Threaded;
  cfg.launch_workers = 1;
  cfg.protection = def.protection;
  return cfg;
}

/// Pre-drawn input of one memory-fault trial: the error mask and the RNG that
/// then picks the struck cell (the CampaignExecutor::run_memory_faults draw).
struct MemoryTrial {
  common::Rng rng;
  std::uint32_t mask = 0;
};

/// One HPC program prepared for the workload's campaign.
struct Program {
  std::unique_ptr<workloads::Workload> workload;
  workloads::Dataset dataset;
  workloads::Requirement req;
  core::KernelVariants variants;
  core::ProfileData profile;
  std::uint64_t fault_seed = 0;
  std::vector<swifi::FaultSpec> specs;       ///< register-fault workloads
  std::vector<MemoryTrial> memory_trials;    ///< memory-fault workloads

  [[nodiscard]] const kir::BytecodeProgram& build(Build b) const {
    switch (b) {
      case Build::FIFT: return variants.fift;
      case Build::FI: return variants.fi;
      case Build::FT: return variants.ft;
    }
    return variants.ft;
  }
  [[nodiscard]] std::size_t trials() const {
    return specs.empty() ? memory_trials.size() : specs.size();
  }
};

/// core::build_variants, call for call, with a span around each translate
/// and lower when tracing (the benchmark cannot see inside build_variants).
core::KernelVariants build_variants(const kir::Kernel& src, Tracer& tr) {
  if (!tr.enabled()) return core::build_variants(src);
  core::KernelVariants v;
  core::TranslateOptions opt;
  const auto lower = [&](const kir::Kernel& k) {
    const Scope s(tr, "kir.lower");
    return kir::lower(k);
  };
  const auto translate = [&](core::LibMode mode, core::TranslateReport& rep) {
    opt.mode = mode;
    kir::Kernel out;
    {
      const Scope s(tr, "hauberk.translate");
      out = core::translate(src, opt, &rep);
    }
    tr.count("hauberk.analysis_hits", static_cast<double>(rep.analysis_cache.hits));
    tr.count("hauberk.analysis_misses", static_cast<double>(rep.analysis_cache.misses));
    return out;
  };
  v.source = kir::clone_kernel(src);
  v.baseline = lower(src);
  v.profiler = lower(translate(core::LibMode::Profiler, v.profiler_report));
  v.ft_source = translate(core::LibMode::FT, v.ft_report);
  v.ft = lower(v.ft_source);
  v.fi_source = translate(core::LibMode::FI, v.fi_report);
  v.fi = lower(v.fi_source);
  v.fift_source = translate(core::LibMode::FIFT, v.fift_report);
  v.fift = lower(v.fift_source);
  return v;
}

/// Workload set-up: datasets, variants, profile, control block, fault plan.
/// Profiling launches on `dev`, which the caller builds once for a block of
/// set-ups (every job's setup resets device memory): constructing a Device
/// zero-fills its whole arena, a page-fault-bound cost that would otherwise
/// be most of set-up time.  gpusim.device_init_ms reports that cost, and
/// every campaign still builds its own worker devices.
std::vector<Program> prepare(const WorkloadDef& def, std::uint64_t seed, gpusim::Device& dev,
                             Tracer& tr) {
  std::vector<Program> progs;
  auto suite = workloads::hpc_suite();
  for (std::size_t p = 0; p < suite.size(); ++p) {
    tr.set_program(static_cast<int>(p));
    Program pr;
    pr.workload = std::move(suite[p]);
    pr.fault_seed = seed * 64 + p;
    kir::Kernel kernel;
    {
      const Scope s(tr, "workloads.dataset");
      kernel = pr.workload->build_kernel(def.scale);
      pr.dataset = pr.workload->make_dataset(kDatasetSeed, def.scale);
      pr.req = pr.workload->requirement();
    }
    pr.variants = build_variants(kernel, tr);
    {
      const Scope s(tr, "hauberk.profile");
      auto job = pr.workload->make_job(pr.dataset);
      pr.profile = core::profile(dev, pr.variants, {job.get()});
    }
    if (def.build != Build::FI) {
      // Set-up configures the program's control block once; each campaign
      // worker then configures its own (ControlBlock holds per-launch state).
      const Scope s(tr, "hauberk.control_block");
      (void)core::make_configured_control_block(pr.build(def.build), pr.profile);
    }
    {
      const Scope s(tr, "swifi.plan_faults");
      if (def.memory_faults) {
        for (int i = 0; i < def.memory_trials; ++i) {
          MemoryTrial t{common::Rng::fork(pr.fault_seed, static_cast<std::uint64_t>(i)), 0};
          t.mask = common::random_mask(t.rng, 1);
          pr.memory_trials.push_back(t);
        }
      } else {
        swifi::PlanOptions opt;
        opt.max_vars = def.max_vars;
        opt.masks_per_var = def.masks_per_var;
        opt.error_bits = 1;
        opt.seed = pr.fault_seed;
        pr.specs = swifi::plan_faults(pr.build(def.build), pr.profile, opt);
      }
    }
    progs.push_back(std::move(pr));
  }
  tr.set_program(-1);
  return progs;
}

/// Identity of a prepared campaign: every program's injected build, fault
/// list and memory-trial draws.  Equal set-ups of one seed must match.
std::uint64_t inputs_digest(const WorkloadDef& def, const std::vector<Program>& progs) {
  std::uint64_t h = 0;
  for (const Program& pr : progs) {
    h = h * 1099511628211ull ^
        swifi::campaign_digest(pr.build(def.build), pr.specs, pr.req, 0, def.protection);
    for (const MemoryTrial& t : pr.memory_trials) {
      common::Rng r = t.rng;
      h = h * 1099511628211ull ^ (r.next_u64() + t.mask);
    }
  }
  return h;
}

std::unique_ptr<core::ControlBlock> control_block(const WorkloadDef& def, const Program& pr) {
  if (def.build == Build::FI) return nullptr;
  return core::make_configured_control_block(pr.build(def.build), pr.profile);
}

/// Worker contexts as the campaign drivers build them; a traced campaign
/// times each call (the drivers build their contexts on the calling thread).
swifi::WorkerContextFactory context_factory(const WorkloadDef& def, const Program& pr,
                                            Tracer& tr) {
  return [&def, &pr, &tr] {
    const Scope s(tr, "swifi.worker_context");
    swifi::WorkerContext ctx;
    ctx.device = make_device(def.protection);
    ctx.job = pr.workload->make_job(pr.dataset);
    ctx.cb = control_block(def, pr);
    return ctx;
  };
}

gpusim::LaunchResult checked_launch(gpusim::Device& dev, const kir::BytecodeProgram& prog,
                                    core::KernelJob& job, gpusim::LaunchHooks* hooks,
                                    bool charge_cb) {
  const auto args = job.setup(dev);
  gpusim::LaunchOptions lo;
  lo.hooks = hooks;
  lo.max_workers = 1;
  lo.charge_control_block = charge_cb;
  const auto res = dev.launch(prog, job.config(), args, lo);
  if (res.status != gpusim::LaunchStatus::Ok)
    throw std::runtime_error("fault-free launch failed: " +
                             std::string(gpusim::launch_status_name(res.status)));
  return res;
}

/// Simulated FT overhead: fault-free FT cycles (control block charged) over
/// baseline-build cycles, both on `dev` (the workload's device), summed over
/// the programs, minus 1, in %.
double ft_overhead_pct(const std::vector<Program>& progs, gpusim::Device& dev) {
  std::uint64_t ft = 0, base = 0;
  for (const Program& pr : progs) {
    auto job = pr.workload->make_job(pr.dataset);
    auto cb = core::make_configured_control_block(pr.variants.ft, pr.profile);
    ft += checked_launch(dev, pr.variants.ft, *job, cb.get(), true).cycles;
    base += checked_launch(dev, pr.variants.baseline, *job, nullptr, false).cycles;
  }
  return 100.0 * (static_cast<double>(ft) / static_cast<double>(base) - 1.0);
}

// ---------------------------------------------------------------------------
// Single-thread trial loops (reference pass and traced replica)
// ---------------------------------------------------------------------------

/// One private context per campaign worker and the golden run, as the
/// campaign drivers build them; trial i runs on context i mod workers.
struct Rig {
  std::vector<swifi::WorkerContext> ctxs;
  swifi::GoldenRun gold;
  std::uint64_t watchdog = 0;
};

Rig make_rig(const WorkloadDef& def, const Program& pr, Tracer& tr) {
  Rig rig;
  Tracer off(false);
  const auto make = context_factory(def, pr, off);
  for (int w = 0; w < def.workers; ++w) {
    rig.ctxs.push_back(make());
    auto& c = rig.ctxs.back();
    c.stage = std::make_unique<swifi::TrialStage>(*c.device, *c.job);
  }
  {
    const Scope s(tr, "swifi.golden");
    rig.gold = swifi::golden_run(*rig.ctxs[0].device, pr.build(def.build), *rig.ctxs[0].job,
                                 rig.ctxs[0].cb.get(), 1);
  }
  rig.watchdog = swifi::campaign_watchdog(rig.gold, campaign_config(def));
  return rig;
}

Outcome run_trial(const WorkloadDef& def, const Program& pr, Rig& rig, std::size_t i) {
  auto& ctx = rig.ctxs[i % rig.ctxs.size()];
  const auto& prog = pr.build(def.build);
  if (def.memory_faults) {
    common::Rng rng = pr.memory_trials[i].rng;
    return swifi::run_one_memory_fault(*ctx.device, prog, *ctx.job, rng,
                                       pr.memory_trials[i].mask, rig.gold.output, pr.req,
                                       rig.watchdog, 1, gpusim::SharedShadow::kMaxReportsPerBlock,
                                       ctx.cb.get());
  }
  return swifi::run_one_fault(*ctx.device, prog, *ctx.job, ctx.cb.get(), pr.specs[i],
                              rig.gold.output, pr.req, rig.watchdog, 1,
                              gpusim::SharedShadow::kMaxReportsPerBlock, ctx.stage.get());
}

/// The outcome rule of swifi::run_one_fault / run_one_memory_fault once the
/// launch has finished cleanly and the output is read back.
Outcome classify(const gpusim::LaunchResult& res, bool alarm, const core::ProgramOutput& out,
                 const core::ProgramOutput& gold, const workloads::Requirement& req) {
  const bool correct = req.satisfied(out, gold);
  if (alarm) return correct ? Outcome::DetectedMasked : Outcome::Detected;
  if (correct && res.ecc_corrected > 0) return Outcome::EccCorrected;
  return correct ? Outcome::Masked : Outcome::Undetected;
}

/// One trial through the same public calls run_one_fault (register faults)
/// or run_one_memory_fault makes, with a span around each phase.
Outcome traced_trial(const WorkloadDef& def, const Program& pr, Rig& rig, std::size_t i,
                     Tracer& tr) {
  auto& ctx = rig.ctxs[i % rig.ctxs.size()];
  auto& dev = *ctx.device;
  const auto& prog = pr.build(def.build);
  core::ControlBlock* cb = ctx.cb.get();
  const Scope trial(tr, "swifi.trial", static_cast<std::int64_t>(i));

  swifi::InjectingHooks hooks(prog, cb);
  std::vector<kir::Value> args;
  {
    const Scope s(tr, "swifi.stage");
    if (def.memory_faults) {
      common::Rng rng = pr.memory_trials[i].rng;
      {
        const Scope j(tr, "workloads.job_setup");
        args = ctx.job->setup(dev);
      }
      if (dev.mem().used_words() == 0) return Outcome::NotActivated;
      auto img = dev.mem().image();
      const auto idx = static_cast<std::uint32_t>(rng.next_below(img.size()));
      if (dev.mem().protection() == gpusim::ecc::Scheme::None) {
        img[idx] ^= pr.memory_trials[i].mask;
        dev.mem().restore(img);
      } else {
        const auto r = static_cast<std::uint32_t>(rng.next_below(gpusim::ecc::kCodeBits));
        if (r >= gpusim::ecc::kDataBits)
          dev.mem().corrupt_check(idx,
                                  static_cast<std::uint8_t>(1u << (r - gpusim::ecc::kDataBits)));
        else
          dev.mem().corrupt_word(idx, pr.memory_trials[i].mask);
      }
    } else {
      hooks.arm(pr.specs[i]);
      args = ctx.stage->stage();
    }
    if (cb) cb->reset_results();
  }

  gpusim::LaunchResult res;
  {
    const Scope s(tr, "gpusim.launch");
    gpusim::LaunchOptions opts;
    opts.hooks = def.memory_faults ? static_cast<gpusim::LaunchHooks*>(cb) : &hooks;
    opts.watchdog_instructions = rig.watchdog;
    opts.max_workers = 1;
    res = dev.launch(prog, ctx.job->config(), args, opts);
  }
  tr.count("gpusim.instructions", static_cast<double>(res.instructions));
  tr.count("gpusim.ecc_corrected", static_cast<double>(res.ecc_corrected));
  tr.count("swifi.hang", res.status == gpusim::LaunchStatus::Hang ? 1.0 : 0.0);

  const Scope s(tr, "swifi.readout");
  if (!def.memory_faults && !hooks.activated() && res.status == gpusim::LaunchStatus::Ok)
    return Outcome::NotActivated;
  if (res.status != gpusim::LaunchStatus::Ok)
    return res.status == gpusim::LaunchStatus::EccUncorrectable
               ? Outcome::EccDetectedUncorrectable
               : Outcome::Failure;
  core::ProgramOutput out;
  try {
    out = ctx.job->read_output(dev);
  } catch (const std::out_of_range&) {
    if (!def.memory_faults) throw;
    return gpusim::DeviceMemory::last_fault_uncorrectable() ? Outcome::EccDetectedUncorrectable
                                                            : Outcome::Failure;
  }
  const bool alarm = res.sdc_alarm || (cb && cb->sdc_detected());
  return classify(res, alarm, out, rig.gold.output, pr.req);
}

// ---------------------------------------------------------------------------
// Campaign drivers (the measured phase)
// ---------------------------------------------------------------------------

/// What a campaign driver reports: aggregate counts always, per-trial
/// outcomes when the driver exposes them (result log, executor, plain loop).
struct CampaignRun {
  OutcomeCounts counts;
  std::vector<Outcome> per_trial;
};

/// Thrown from ServiceConfig::on_checkpoint to stop a campaign midway.
struct StopRequested {};

CampaignRun run_service(const WorkloadDef& def, const Program& pr, const std::string& dir,
                        Tracer& tr) {
  swifi::ServiceConfig sc;
  sc.campaign = campaign_config(def);
  sc.workers = def.workers;
  const std::string ckpt = dir + "/campaign.ckpt";
  const std::string log = dir + "/campaign.hbrl";
  const std::uint64_t n = pr.specs.size();
  if (def.durable) {
    sc.checkpoint_every = def.checkpoint_every;
    sc.checkpoint_path = ckpt;
    sc.resultlog_path = log;
    sc.on_checkpoint = [half = n / 2](const swifi::CampaignCheckpoint& ck) {
      if (ck.watermark >= half) throw StopRequested{};
    };
    bool stopped = false;
    try {
      (void)swifi::CampaignService(sc).run(pr.build(def.build), context_factory(def, pr, tr),
                                           pr.specs, pr.req);
    } catch (const StopRequested&) {
      stopped = true;
    }
    if (!stopped) throw std::runtime_error("durable campaign was never stopped");
    sc.resume = true;
    sc.on_checkpoint = nullptr;
  }
  const auto res = swifi::CampaignService(sc).run(pr.build(def.build), context_factory(def, pr, tr),
                                                  pr.specs, pr.req);
  CampaignRun run;
  run.counts = res.counts;
  if (def.durable) {
    if (res.trials_resumed == 0 || res.trials_resumed + res.trials_run != n)
      throw std::runtime_error("durable campaign did not resume from its checkpoint");
    const auto data = swifi::read_result_log(log);
    run.per_trial.assign(n, Outcome::NotActivated);
    if (data.records.size() != n) throw std::runtime_error("result log lost trials");
    for (const auto& rec : data.records) {
      if (rec.trial >= n) throw std::runtime_error("result log names an unknown trial");
      run.per_trial[rec.trial] = static_cast<Outcome>(rec.outcome);
    }
  }
  return run;
}

OutcomeCounts counts_of(const std::vector<Outcome>& v) {
  OutcomeCounts c;
  for (const Outcome o : v) c.add(o);
  return c;
}

/// A single-thread run_one_fault / run_one_memory_fault loop over one
/// program's trials on fresh contexts: the reference outcomes every campaign
/// driver is checked against.  `tr` times the loop (not the contexts).
std::vector<Outcome> single_thread_loop(const WorkloadDef& def, const Program& pr, Tracer& tr) {
  Tracer off(false);
  Rig rig = make_rig(def, pr, off);
  std::vector<Outcome> out;
  const Scope s(tr, "bench.reference_loop");
  for (std::size_t i = 0; i < pr.trials(); ++i) out.push_back(run_trial(def, pr, rig, i));
  return out;
}

/// Memory faults through CampaignExecutor::run_memory_faults, the library's
/// memory-fault campaign driver: trial i draws Rng::fork(fault_seed, i) and
/// its mask exactly as Program::memory_trials does.
CampaignRun run_memory_executor(const WorkloadDef& def, const Program& pr, Tracer& tr) {
  swifi::CampaignExecutor ex(def.workers);
  const auto res = ex.run_memory_faults(pr.build(def.build), context_factory(def, pr, tr),
                                        pr.fault_seed, static_cast<int>(pr.trials()), 1, pr.req,
                                        campaign_config(def));
  return {res.counts, res.per_fault};
}

/// One program's whole campaign through the workload's library driver.
CampaignRun run_campaign(const WorkloadDef& def, const Program& pr, const std::string& dir,
                         Tracer& tr) {
  return def.memory_faults ? run_memory_executor(def, pr, tr) : run_service(def, pr, dir, tr);
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Every outcome class's count, in OutcomeCounts field order.
std::array<std::uint64_t, 10> by_class(const OutcomeCounts& c) {
  return {c.failure,       c.masked,         c.detected_masked, c.detected,
          c.undetected,    c.not_activated,  c.race_detected,   c.barrier_divergence,
          c.ecc_corrected, c.ecc_uncorrectable};
}

/// Trials of `run` that disagree with the reference outcomes: per trial when
/// the driver reports outcomes per trial, otherwise the fewest trials that
/// could explain the difference between the two count vectors.
std::uint64_t disagreements(const CampaignRun& run, const std::vector<Outcome>& ref) {
  const auto a = by_class(run.counts), b = by_class(counts_of(ref));
  std::uint64_t l1 = 0;
  for (std::size_t k = 0; k < a.size(); ++k) l1 += a[k] > b[k] ? a[k] - b[k] : b[k] - a[k];
  std::uint64_t bad = (l1 + 1) / 2;
  if (!run.per_trial.empty()) {
    std::uint64_t per = run.per_trial.size() == ref.size() ? 0 : ref.size();
    for (std::size_t i = 0; i < std::min(ref.size(), run.per_trial.size()); ++i)
      per += run.per_trial[i] != ref[i] ? 1 : 0;
    bad = std::max(bad, per);
  }
  return std::min<std::uint64_t>(bad, ref.size());
}

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool invariants_ok = true;

  void check(const CampaignRun& run, const std::vector<Outcome>& ref) {
    attempted += ref.size();
    failed += disagreements(run, ref);
  }
  void threw(std::size_t trials, const std::exception& ex) {
    std::fprintf(stderr, "perfbench: campaign threw: %s\n", ex.what());
    attempted += trials;
    failed += trials;
  }
  void invariant(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "perfbench: invariant violated: %s\n", what);
      invariants_ok = false;
    }
  }
  [[nodiscard]] bool correct() const { return failed == 0 && invariants_ok && attempted > 0; }
};

/// --tamper: make one expected outcome wrong, so the gate must trip.
void tamper(std::vector<Outcome>& ref) {
  ref.front() = ref.front() == Outcome::Masked ? Outcome::Undetected : Outcome::Masked;
}

/// Outcome counts over every program's reference outcomes.
OutcomeCounts total(const std::vector<std::vector<Outcome>>& refs) {
  OutcomeCounts all;
  for (const auto& r : refs)
    for (const Outcome o : r) all.add(o);
  return all;
}

void check_reference(const WorkloadDef& def, const std::vector<std::vector<Outcome>>& refs,
                     Gate& gate) {
  if (!def.memory_faults) return;
  // bench_ecc_study's invariant: SEC-DED corrects every single-bit cell upset.
  const OutcomeCounts all = total(refs);
  gate.invariant(all.undetected == 0 && all.failure == 0,
                 "a single-bit memory fault on the Hsiao device was SDC or Failure");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              gate.correct() ? "true" : "false", static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));
  for (std::size_t k = 0; k < metrics.size(); ++k)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", k ? ", " : "",
                metrics[k].name, metrics[k].value, metrics[k].unit);
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace=0)
// ---------------------------------------------------------------------------

int run_end_to_end(const WorkloadDef& def, std::uint64_t seed, double seconds,
                   const std::string& dir, bool tamper_ref) {
  Gate gate;
  Tracer off(false);

  // A block of set-ups shares one device, released before the next campaign
  // round so it never adds to the campaign's peak RSS.  The first set-up's
  // programs run the campaign; every later one must reproduce them.
  std::vector<double> setup_s;
  std::vector<Program> progs;
  std::uint64_t digest = 0;
  double ft_ovh = 0.0;
  const auto setups = [&](int n) {
    const auto dev = make_device(def.protection);
    for (int k = 0; k < n; ++k) {
      const auto t0 = std::chrono::steady_clock::now();
      auto again = prepare(def, seed, *dev, off);
      setup_s.push_back(seconds_since(t0));
      const std::uint64_t d = inputs_digest(def, again);
      // One overhead measurement per block keeps the block short.
      const double ovh = k == 0 ? ft_overhead_pct(again, *dev) : ft_ovh;
      if (progs.empty()) {
        progs = std::move(again);
        digest = d;
        ft_ovh = ovh;
        continue;
      }
      gate.invariant(d == digest, "two set-ups of one seed generated different faults");
      gate.invariant(ovh == ft_ovh, "ft_overhead_pct differs between two set-ups");
    }
  };
  setups(1);

  std::fprintf(stderr, "perfbench: inputs digest %016llx\n",
               static_cast<unsigned long long>(digest));
  std::vector<std::vector<Outcome>> ref;
  for (const Program& pr : progs) ref.push_back(single_thread_loop(def, pr, off));
  check_reference(def, ref, gate);
  const double sdc_coverage = total(ref).coverage();
  if (tamper_ref) tamper(ref.front());

  // Campaign rounds: every program's whole campaign, repeated until the
  // measurement window is used up.  trials_per_s is the median round rate;
  // set-ups run between rounds so both medians sample the same window.
  std::vector<double> round_rates;
  const auto t_start = std::chrono::steady_clock::now();
  do {
    setups(kSetupsPerRound);
    std::uint64_t trials = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < progs.size(); ++p) {
      try {
        gate.check(run_campaign(def, progs[p], dir, off), ref[p]);
      } catch (const std::exception& ex) {
        gate.threw(ref[p].size(), ex);
      }
      trials += progs[p].trials();
    }
    round_rates.push_back(static_cast<double>(trials) / seconds_since(t0));
  } while (seconds_since(t_start) < seconds);

  print_result(gate, {{"trials_per_s", median(round_rates), "trials/s"},
                      {"setup_s", median(setup_s), "s"},
                      {"peak_rss_mb", peak_rss_mb(), "MiB"},
                      {"sdc_coverage", sdc_coverage, "fraction"},
                      {"ft_overhead_pct", ft_ovh, "%"}});
  std::fprintf(stderr, "perfbench: %s seed %llu: %llu trials checked, %llu failed; round rates",
               def.name, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(gate.attempted),
               static_cast<unsigned long long>(gate.failed));
  for (const double r : round_rates) std::fprintf(stderr, " %.1f", r);
  std::fprintf(stderr, "; %zu set-ups\n", setup_s.size());
  return gate.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run (--trace=1)
// ---------------------------------------------------------------------------

/// Time the launch-plan layers and the job/launch calls of one program.
void probe_layers(const WorkloadDef& def, const Program& pr, Tracer& tr) {
  const auto& prog = pr.build(def.build);
  const gpusim::DeviceProps props;
  const bool ecc = def.protection != gpusim::ecc::Scheme::None;
  const auto costs = gpusim::instruction_costs(prog, gpusim::CostModel{}, props.regs_per_thread, ecc);
  kir::DecodedProgram decoded;
  for (int k = 0; k < kProbeRepeats; ++k) {
    const Scope s(tr, "kir.decode");
    decoded = kir::decode_program(prog, costs);
  }
  for (int k = 0; k < kProbeRepeats; ++k) {
    const Scope s(tr, "kir.compile_threaded");
    (void)kir::compile_threaded(decoded, prog.num_slots,
                                props.memory_model == gpusim::MemoryModel::FlatGpu && !ecc);
  }

  // Every campaign worker constructs its own device (arena and, under
  // protection, its check bytes).
  std::unique_ptr<gpusim::Device> dev;
  for (int k = 0; k < kProbeRepeats; ++k) {
    dev.reset();
    const Scope s(tr, "gpusim.device_init");
    dev = make_device(def.protection);
  }
  auto job = pr.workload->make_job(pr.dataset);
  for (int k = 0; k < kProbeRepeats; ++k) {
    const Scope s(tr, "workloads.job_setup");
    (void)job->setup(*dev);
  }
  tr.count("workloads.used_words", dev->mem().used_words());

  // Cold launch: the first launch of the injected build on a fresh device
  // pays the launch-plan build (costs, decode, threaded compile).
  auto cb = control_block(def, pr);
  {
    swifi::InjectingHooks hooks(prog, cb.get());
    const auto args = job->setup(*dev);
    gpusim::LaunchOptions lo;
    lo.hooks = &hooks;
    lo.max_workers = 1;
    const Scope s(tr, "gpusim.cold_launch");
    (void)dev->launch(prog, job->config(), args, lo);
  }

  // FI-hook tax: the FI&FT build with a disarmed injector against the FT build.
  std::unique_ptr<core::ControlBlock> cb_fift, cb_ft;
  {
    const Scope s(tr, "hauberk.control_block");
    cb_fift = core::make_configured_control_block(pr.variants.fift, pr.profile);
  }
  {
    const Scope s(tr, "hauberk.control_block");
    cb_ft = core::make_configured_control_block(pr.variants.ft, pr.profile);
  }
  swifi::InjectingHooks disarmed(pr.variants.fift, cb_fift.get());
  for (int k = 0; k < kProbeRepeats + 1; ++k) {  // the first pair warms both plans
    const auto fift_args = job->setup(*dev);
    gpusim::LaunchOptions lo;
    lo.max_workers = 1;
    lo.hooks = &disarmed;
    gpusim::LaunchResult a, b;
    {
      const Scope s(tr, k == 0 ? "gpusim.warm_launch" : "gpusim.fift_launch");
      a = dev->launch(pr.variants.fift, job->config(), fift_args, lo);
    }
    const auto ft_args = job->setup(*dev);
    lo.hooks = cb_ft.get();
    {
      const Scope s(tr, k == 0 ? "gpusim.warm_launch" : "gpusim.ft_launch");
      b = dev->launch(pr.variants.ft, job->config(), ft_args, lo);
    }
    if (a.status != gpusim::LaunchStatus::Ok || b.status != gpusim::LaunchStatus::Ok)
      throw std::runtime_error("fault-free FI&FT or FT launch failed");
    if (k == 0) continue;
    tr.count("gpusim.fift_instructions", static_cast<double>(a.instructions));
    tr.count("gpusim.ft_instructions", static_cast<double>(b.instructions));
  }
}

/// Persist the program's campaign state through the checkpoint and result
/// log layers (on fi-tiny-durable the service also does this inside the
/// measured campaign; here every workload's state is timed the same way).
void probe_persistence(const WorkloadDef& def, const Program& pr, const std::vector<Outcome>& ref,
                       const std::string& dir, Tracer& tr) {
  swifi::CampaignCheckpoint ck;
  ck.config_digest =
      swifi::campaign_digest(pr.build(def.build), pr.specs, pr.req, 0, def.protection);
  ck.trials_total = ref.size();
  ck.watermark = ref.size();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ck.counts.add(ref[i]);
    if (!pr.specs.empty()) ck.site_hist.add(pr.specs[i].site_id);
  }
  const std::string path = dir + "/probe.ckpt";
  for (int k = 0; k < kProbeRepeats; ++k) {
    const Scope s(tr, "swifi.checkpoint_save");
    ck.save(path);
  }
  {
    const Scope s(tr, "swifi.checkpoint_load");
    (void)swifi::CampaignCheckpoint::load(path);
  }
  tr.count("swifi.checkpoint_bytes", static_cast<double>(std::filesystem::file_size(path)));

  const std::string log = dir + "/probe.hbrl";
  {
    const Scope s(tr, "swifi.resultlog_write");
    swifi::ResultLogWriter w;
    swifi::ResultLogHeader h;
    h.config_digest = ck.config_digest;
    h.total_trials = ref.size();
    w.create(log, h);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      swifi::ResultRecord rec;
      rec.trial = static_cast<std::uint32_t>(i);
      rec.outcome = static_cast<std::uint8_t>(ref[i]);
      w.append(rec);
    }
    w.close();
  }
  tr.count("swifi.resultlog_bytes_per_trial",
           static_cast<double>(std::filesystem::file_size(log)) / static_cast<double>(ref.size()));
}

int run_traced(const WorkloadDef& def, std::uint64_t seed, const std::string& dir,
               bool tamper_ref) {
  Gate gate;
  Tracer tr(true);
  std::vector<Program> progs;
  {
    const auto dev = make_device(def.protection);
    const Scope s(tr, "bench.setup");
    progs = prepare(def, seed, *dev, tr);
  }
  // The traced set-up replays core::build_variants call for call; prove it.
  for (const Program& pr : progs) {
    const auto v = core::build_variants(pr.workload->build_kernel(def.scale));
    bool same = true;
    for (const auto build : {&core::KernelVariants::baseline, &core::KernelVariants::profiler,
                             &core::KernelVariants::ft, &core::KernelVariants::fi,
                             &core::KernelVariants::fift})
      same = same && kir::program_digest(v.*build) == kir::program_digest(pr.variants.*build);
    gate.invariant(same, "traced set-up built different programs than core::build_variants");
  }

  tr.count("swifi.workers", def.workers);
  std::vector<std::vector<Outcome>> refs;
  for (std::size_t p = 0; p < progs.size(); ++p) {
    const Program& pr = progs[p];
    tr.set_program(static_cast<int>(p));
    probe_layers(def, pr, tr);

    // Untraced single-thread loop: the reference outcomes, and the baseline
    // both service efficiency and tracing overhead are measured against.
    std::vector<Outcome> ref = single_thread_loop(def, pr, tr);
    tr.count("swifi.reference_trials", static_cast<double>(ref.size()));
    if (tamper_ref && p == 0) tamper(ref);

    // The workload's campaign driver.
    try {
      CampaignRun run;
      {
        const Scope s(tr, "bench.service_run");
        run = run_campaign(def, pr, dir, tr);
      }
      tr.count("swifi.service_trials", static_cast<double>(pr.trials()));
      gate.check(run, ref);
    } catch (const std::exception& ex) {
      gate.threw(ref.size(), ex);
    }

    // Traced replica of the same loop.
    {
      Rig rig = make_rig(def, pr, tr);
      std::vector<Outcome> traced;
      {
        const Scope s(tr, "bench.traced_loop");
        for (std::size_t i = 0; i < pr.trials(); ++i) {
          traced.push_back(traced_trial(def, pr, rig, i, tr));
          tr.count("swifi.outcome", static_cast<double>(traced.back()),
                   static_cast<std::int64_t>(i));
        }
      }
      gate.check({counts_of(traced), traced}, ref);
      std::uint64_t hits = 0, misses = 0;
      for (const auto& c : rig.ctxs) {
        hits += c.device->plan_cache_hits();
        misses += c.device->plan_cache_misses();
      }
      tr.count("gpusim.plan_cache_hits", static_cast<double>(hits));
      tr.count("gpusim.plan_cache_misses", static_cast<double>(misses));
    }
    probe_persistence(def, pr, ref, dir, tr);
    refs.push_back(std::move(ref));
  }
  tr.set_program(-1);
  check_reference(def, refs, gate);
  tr.write(dir + "/spans.txt");
  print_result(gate, {{"trace.spans", static_cast<double>(tr.spans()), "count"}});
  return gate.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const std::string name = args.get("workload");
  const std::uint64_t seed = args.get_u64("seed", 1);
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string dir = args.get("out", ".");
  const bool tamper_ref = args.get_int("tamper", 0) != 0;
  const auto unknown =
      args.unknown_flags({"workload", "seed", "seconds", "trace", "out", "tiny", "tamper"});
  for (const auto& f : unknown) std::fprintf(stderr, "error: unknown flag --%s\n", f.c_str());
  for (const auto& e : args.errors()) std::fprintf(stderr, "error: %s\n", e.c_str());
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads)
    if (name == w.name) def = &w;
  if (!def) std::fprintf(stderr, "error: unknown --workload '%s'\n", name.c_str());
  if (!def || !unknown.empty() || !args.ok()) return 2;
  const WorkloadDef chosen = args.has("tiny") ? shrink(*def) : *def;
  try {
    return trace ? run_traced(chosen, seed, dir, tamper_ref)
                 : run_end_to_end(chosen, seed, seconds, dir, tamper_ref);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
