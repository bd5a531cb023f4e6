// Segment replay (gpusim/journal.hpp, DESIGN §10): a SWIFI trial that
// carries the golden run's journal applies every segment the fault cannot
// have reached and interprets the rest.  The oracle is the same trial
// without the journal (a full launch): for every executed FI site of the FI
// and FI&FT builds of all 12 workloads, replay must give the same outcome
// and the same LaunchResult and memory image.  Memory-cell faults get the
// same check on unprotected and Hsiao devices, check bytes and ECC counts
// included.  The remaining tests pin the eligibility predicate (ineligible
// launches apply nothing), the watchdog rule, and the fingerprint check.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/injector.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::workloads;

namespace {

constexpr std::uint64_t kDatasetSeed = 20260806;

std::vector<std::unique_ptr<Workload>> all_workloads() {
  std::vector<std::unique_ptr<Workload>> all;
  for (auto& w : hpc_suite()) all.push_back(std::move(w));
  for (auto& w : graphics_suite()) all.push_back(std::move(w));
  for (auto& w : cpu_suite()) all.push_back(std::move(w));
  all.push_back(make_cpu_matmul());
  return all;
}

/// An injector that reports the Generic filter (replay-ineligible).
class GenericInjector : public swifi::InjectingHooks {
 public:
  using InjectingHooks::InjectingHooks;
  [[nodiscard]] gpusim::FIFilter fi_filter() const override { return {}; }
};

/// Everything a trial launch exposes except the replay diagnostic.
struct Obs {
  gpusim::LaunchStatus status{};
  std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0;
  bool sdc = false, activated = false;
  std::int64_t deadlock_pc = -1, deadlock_site = -1;
  std::vector<std::uint32_t> mem;
  bool operator==(const Obs&) const = default;
};

struct Launched {
  Obs obs;
  std::uint64_t replayed = 0;
};

Launched launch(gpusim::Device& dev, swifi::TrialStage& stage, core::KernelJob& job,
                const kir::BytecodeProgram& prog, swifi::InjectingHooks& hooks,
                const swifi::FaultSpec* spec, std::uint64_t watchdog,
                const gpusim::LaunchJournal* journal, int workers = 1) {
  if (spec)
    hooks.arm(*spec);
  else
    hooks.disarm();
  const auto& args = stage.stage();
  gpusim::LaunchOptions opts;
  opts.hooks = &hooks;
  opts.watchdog_instructions = watchdog;
  opts.max_workers = workers;
  opts.journal = journal;
  const auto res = dev.launch(prog, job.config(), args, opts);
  Launched l;
  l.obs.status = res.status;
  l.obs.instructions = res.instructions;
  l.obs.cycles = res.cycles;
  l.obs.loop_cycles = res.loop_cycles;
  l.obs.sdc = res.sdc_alarm;
  l.obs.activated = hooks.activated();
  l.obs.deadlock_pc = res.deadlock_pc;
  l.obs.deadlock_site = res.deadlock_site;
  l.obs.mem = dev.mem().image();
  l.replayed = res.replayed_segments;
  return l;
}

/// One workload build with its profile, ready for trials.
struct Built {
  std::unique_ptr<Workload> w;
  Dataset ds;
  core::KernelVariants v;
  core::ProfileData pd;
};

Built build(std::unique_ptr<Workload> w) {
  Built b{std::move(w), {}, {}, {}};
  b.ds = b.w->make_dataset(kDatasetSeed, Scale::Tiny);
  b.v = core::build_variants(b.w->build_kernel(Scale::Tiny));
  gpusim::Device prof_dev;
  auto prof_job = b.w->make_job(b.ds);
  b.pd = core::profile(prof_dev, b.v, {prof_job.get()});
  return b;
}

/// A trial device with its own job, control block and stage.
struct Rig {
  gpusim::Device dev;
  std::unique_ptr<core::KernelJob> job;
  std::unique_ptr<core::ControlBlock> cb;
  std::unique_ptr<swifi::TrialStage> stage;

  Rig(const Built& b, const kir::BytecodeProgram& prog, bool with_cb,
      gpusim::DeviceProps props = {}, gpusim::ExecEngine engine = gpusim::ExecEngine::Threaded,
      bool sanitize = false)
      : dev(props), job(b.w->make_job(b.ds)) {
    dev.set_engine(engine);
    dev.set_sanitize(sanitize);
    if (with_cb) cb = core::make_configured_control_block(prog, b.pd);
    stage = std::make_unique<swifi::TrialStage>(dev, *job);
  }
};

/// The first executed FI site's fault on its first executing thread.
swifi::FaultSpec first_fault(const Built& b, const kir::BytecodeProgram& prog) {
  for (std::uint32_t si = 0; si < prog.fi_sites.size() && si < b.pd.exec_counts.size(); ++si)
    for (std::uint32_t t = 0; t < b.pd.exec_counts[si].size(); ++t)
      if (b.pd.exec_counts[si][t] > 0) {
        swifi::FaultSpec s;
        s.site_id = prog.fi_sites[si].site_id;
        s.thread = t;
        s.occurrence = 1;
        s.mask = 1u << 30;
        return s;
      }
  return {};
}

/// A planted memory-cell upset: `mask` XORed into word `idx`, or into the
/// check byte of its pair.
struct Strike {
  std::uint32_t idx = 0;
  std::uint32_t mask = 0;
  bool check = false;
};

/// What a memory-fault launch exposes, ECC state included.
struct MemObs {
  gpusim::LaunchStatus status{};
  std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0, ecc_corrected = 0;
  bool sdc = false, cb_sdc = false;
  std::vector<std::uint32_t> mem;
  std::vector<std::uint8_t> check;
  bool operator==(const MemObs&) const = default;
};

/// Stage `r`, plant `st`, launch with the rig's control block as the only
/// hooks (null for the FI build), and count applied segments.
MemObs strike_launch(Rig& r, const kir::BytecodeProgram& prog, const Strike& st,
                     std::uint64_t watchdog, const gpusim::LaunchJournal* journal,
                     std::uint64_t& replayed) {
  const auto& args = r.stage->stage();
  if (st.check)
    r.dev.mem().corrupt_check(st.idx, static_cast<std::uint8_t>(st.mask));
  else
    r.dev.mem().corrupt_word(st.idx, st.mask);
  if (r.cb) r.cb->reset_results();
  gpusim::LaunchOptions opts;
  opts.hooks = r.cb.get();
  opts.watchdog_instructions = watchdog;
  opts.max_workers = 1;
  opts.journal = journal;
  const auto res = r.dev.launch(prog, r.job->config(), args, opts);
  replayed += res.replayed_segments;
  MemObs o;
  o.status = res.status;
  o.instructions = res.instructions;
  o.cycles = res.cycles;
  o.loop_cycles = res.loop_cycles;
  o.ecc_corrected = res.ecc_corrected;
  o.sdc = res.sdc_alarm;
  o.cb_sdc = r.cb && r.cb->sdc_detected();
  o.mem = r.dev.mem().image();
  o.check = r.dev.mem().check_image();
  return o;
}

}  // namespace

// Memory-cell faults on the 9 GPU workloads: the FI build without hooks and
// the FT build with its configured control block, on unprotected and Hsiao
// devices, with 1- and 2-bit upsets in a uniformly drawn live word or (on
// Hsiao, every third trial) in its pair's check byte.  Replaying the golden
// journal must match the journal-less launch on status, totals, ECC
// corrections, both alarms and the word and check arenas.  The applied
// segment count is pinned, and the sweep must see corrections and
// uncorrectable pairs.
TEST(Replay, MemoryFaultsMatchFullLaunchOnAllWorkloads) {
  constexpr int kTrials = 60;
  std::size_t trials = 0, corrected = 0, uncorrectable = 0;
  std::uint64_t replayed = 0;
  std::vector<std::unique_ptr<Workload>> gpu = hpc_suite();
  for (auto& w : graphics_suite()) gpu.push_back(std::move(w));
  ASSERT_EQ(gpu.size(), 9u);
  for (auto& wl : gpu) {
    const Built b = build(std::move(wl));
    for (const bool ft : {false, true}) {
      const kir::BytecodeProgram& prog = ft ? b.v.ft : b.v.fi;
      for (const auto scheme : {gpusim::ecc::Scheme::None, gpusim::ecc::Scheme::Hsiao}) {
        gpusim::DeviceProps props;
        props.protection = scheme;
        Rig full(b, prog, ft, props), rep(b, prog, ft, props);
        const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, rep.cb.get(), 1);
        ASSERT_TRUE(gold.journal) << b.w->name();
        const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
        (void)rep.stage->stage();
        const std::uint32_t used = rep.dev.mem().used_words();

        for (const int bits : {1, 2}) {
          common::Rng rng = common::Rng::fork(kDatasetSeed, trials);
          std::uint64_t cell_replayed = 0, full_replayed = 0;
          for (int i = 0; i < kTrials; ++i) {
            Strike st;
            st.idx = static_cast<std::uint32_t>(rng.next_below(used));
            st.check = scheme != gpusim::ecc::Scheme::None && i % 3 == 2;
            if (st.check) {
              const auto b0 = static_cast<std::uint32_t>(rng.next_below(8));
              st.mask = 1u << b0;
              if (bits == 2) st.mask |= 1u << ((b0 + 1 + rng.next_below(7)) % 8);
            } else {
              st.mask = common::random_mask(rng, bits);
            }
            const std::string what = b.w->name() + (ft ? " ft" : " fi") +
                                     (scheme == gpusim::ecc::Scheme::None ? " none" : " hsiao") +
                                     " word " + std::to_string(st.idx) + " mask " +
                                     std::to_string(st.mask) + (st.check ? " check" : " data");
            const MemObs f = strike_launch(full, prog, st, watchdog, nullptr, full_replayed);
            const MemObs r = strike_launch(rep, prog, st, watchdog, gold.journal.get(),
                                           cell_replayed);
            EXPECT_EQ(f, r) << what;
            EXPECT_EQ(full_replayed, 0u) << what;
            ++trials;
            corrected += f.ecc_corrected > 0;
            uncorrectable += f.status == gpusim::LaunchStatus::EccUncorrectable;
            if (::testing::Test::HasFailure()) return;
          }
          EXPECT_GT(cell_replayed, 0u) << b.w->name() << (ft ? " ft" : " fi");
          replayed += cell_replayed;
        }
      }
    }
  }
  EXPECT_EQ(trials, 9u * 2 * 2 * 2 * kTrials);
  EXPECT_GT(corrected, trials / 10);
  EXPECT_GT(uncorrectable, trials / 10);
  // Golden count: applied segments over the whole sweep.
  EXPECT_EQ(replayed, 129807u) << "trials " << trials;
}

// For the FI and FI&FT builds of every workload: every executed FI site x 2
// masks x {first, last} occurrence, replayed against the golden journal
// and launched in full.  Same Outcome through run_one_fault; same status,
// activation, instruction/cycle/loop-cycle totals, SDC alarm, deadlock
// diagnostics and memory image through a direct launch.  The total number
// of applied segments is pinned, so a change that silently stops replaying
// (or replays more than it can justify) shows up here.
TEST(Replay, MatchesFullLaunchOnAllWorkloads) {
  std::size_t trials = 0, activated = 0, crashed = 0;
  std::uint64_t replayed = 0;
  for (auto& wl : all_workloads()) {
    const Built b = build(std::move(wl));
    const auto req = b.w->requirement();
    for (const bool fift : {false, true}) {
      const kir::BytecodeProgram& prog = fift ? b.v.fift : b.v.fi;
      Rig full(b, prog, fift), rep(b, prog, fift);
      const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, rep.cb.get(), 1);
      ASSERT_TRUE(gold.journal) << b.w->name();
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});

      for (std::uint32_t si = 0; si < prog.fi_sites.size() && si < b.pd.exec_counts.size();
           ++si) {
        std::vector<std::uint32_t> threads;
        for (std::uint32_t t = 0; t < b.pd.exec_counts[si].size(); ++t)
          if (b.pd.exec_counts[si][t] > 0) threads.push_back(t);
        if (threads.empty()) continue;
        for (int m = 0; m < 2; ++m) {
          for (const bool last : {false, true}) {
            swifi::FaultSpec spec;
            spec.site_id = prog.fi_sites[si].site_id;
            spec.thread = threads[(si * 7u + static_cast<std::uint32_t>(m)) % threads.size()];
            spec.occurrence = last ? b.pd.exec_counts[si][spec.thread] : 1;
            spec.mask = m == 0 ? 1u << (si % 32) : 0x80000000u | (0x3u << ((si * 5) % 30));
            const std::string what = b.w->name() + (fift ? " fi+ft" : " fi") + " site " +
                                     std::to_string(spec.site_id) + " thread " +
                                     std::to_string(spec.thread) + " occ " +
                                     std::to_string(spec.occurrence);

            const swifi::Outcome o_full =
                swifi::run_one_fault(full.dev, prog, *full.job, full.cb.get(), spec,
                                     gold.output, req, watchdog, 1,
                                     gpusim::SharedShadow::kMaxReportsPerBlock,
                                     full.stage.get());
            const swifi::Outcome o_rep =
                swifi::run_one_fault(rep.dev, prog, *rep.job, rep.cb.get(), spec, gold.output,
                                     req, watchdog, 1, gpusim::SharedShadow::kMaxReportsPerBlock,
                                     rep.stage.get(), gold.journal.get());
            EXPECT_EQ(o_full, o_rep) << what;

            swifi::InjectingHooks hf(prog, full.cb.get()), hr(prog, rep.cb.get());
            const Launched lf =
                launch(full.dev, *full.stage, *full.job, prog, hf, &spec, watchdog, nullptr);
            const Launched lr = launch(rep.dev, *rep.stage, *rep.job, prog, hr, &spec, watchdog,
                                       gold.journal.get());
            EXPECT_EQ(lf.obs, lr.obs) << what;
            EXPECT_EQ(lf.replayed, 0u) << what;
            replayed += lr.replayed;
            ++trials;
            activated += lf.obs.activated;
            crashed += gpusim::is_crash(lf.obs.status);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(trials, 500u);
  EXPECT_GT(activated, trials / 2);
  EXPECT_GT(crashed, 0u);
  // Golden count: applied segments over the whole sweep.
  EXPECT_EQ(replayed, 105788u) << "trials " << trials;
}

// A disarmed launch with the journal applies every segment (nothing can
// differ from the golden run) and reproduces the golden launch exactly; a
// watchdog below the golden per-thread budget makes the segments that
// would cross it run instead, reproducing the Hang.
TEST(Replay, WatchdogBelowGoldenBudgetForcesRerun) {
  for (auto& wl : hpc_suite()) {
    const Built b = build(std::move(wl));
    const kir::BytecodeProgram& prog = b.v.fi;
    Rig full(b, prog, false), rep(b, prog, false);
    const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, nullptr, 1);
    ASSERT_TRUE(gold.journal);
    const std::uint64_t segments = gold.journal->segments.size();
    swifi::InjectingHooks hf(prog, nullptr), hr(prog, nullptr);

    const Launched all = launch(rep.dev, *rep.stage, *rep.job, prog, hr, nullptr,
                                50'000'000, gold.journal.get());
    EXPECT_EQ(all.replayed, segments) << b.w->name();
    EXPECT_EQ(all.obs, launch(full.dev, *full.stage, *full.job, prog, hf, nullptr, 50'000'000,
                              nullptr)
                           .obs)
        << b.w->name();

    std::uint64_t max_budget = 0;
    for (const auto& s : gold.journal->segments) max_budget = std::max(max_budget, s.budget_after);
    // The longest segment's last instruction runs at count max_budget - 1:
    // one below that, the full launch hangs there.
    const std::uint64_t tight = max_budget - 2;
    const Launched lr =
        launch(rep.dev, *rep.stage, *rep.job, prog, hr, nullptr, tight, gold.journal.get());
    const Launched lf =
        launch(full.dev, *full.stage, *full.job, prog, hf, nullptr, tight, nullptr);
    EXPECT_EQ(lf.obs.status, gpusim::LaunchStatus::Hang) << b.w->name();
    EXPECT_EQ(lr.obs, lf.obs) << b.w->name();
    EXPECT_LT(lr.replayed, segments) << b.w->name();
  }
}

// Launches the journal cannot serve apply nothing and behave exactly like
// the same launch without it: a sanitizing Threaded device, the Reference
// engine, a paged device, two block workers, an injector reporting the
// Generic filter, and an installed hardware fault model.  On those devices
// golden_run records no journal either.  A Hsiao device is eligible: it
// replays its own golden journal.
TEST(Replay, IneligibleLaunchesApplyNothing) {
  Built b = [] {
    for (auto& w : hpc_suite()) {
      auto job = w->make_job(w->make_dataset(kDatasetSeed, Scale::Tiny));
      const auto cfg = job->config();
      if (cfg.grid_x * cfg.grid_y >= 2) return build(std::move(w));
    }
    throw std::logic_error("no multi-block workload");
  }();
  const kir::BytecodeProgram& prog = b.v.fi;
  const swifi::FaultSpec spec = first_fault(b, prog);
  Rig golden_rig(b, prog, false);
  const swifi::GoldenRun gold = swifi::golden_run(golden_rig.dev, prog, *golden_rig.job, nullptr, 1);
  ASSERT_TRUE(gold.journal);
  const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});

  {  // eligible control: the same trial replays
    Rig r(b, prog, false);
    swifi::InjectingHooks h(prog, nullptr);
    EXPECT_GT(launch(r.dev, *r.stage, *r.job, prog, h, &spec, watchdog, gold.journal.get())
                  .replayed,
              0u);
  }
  {  // eligible on a Hsiao device, with a journal recorded there
    gpusim::DeviceProps hsiao;
    hsiao.protection = gpusim::ecc::Scheme::Hsiao;
    Rig g(b, prog, false, hsiao), with(b, prog, false, hsiao), without(b, prog, false, hsiao);
    const swifi::GoldenRun hgold = swifi::golden_run(g.dev, prog, *g.job, nullptr, 1);
    ASSERT_TRUE(hgold.journal);
    swifi::InjectingHooks hw(prog, nullptr), hwo(prog, nullptr);
    const Launched lw =
        launch(with.dev, *with.stage, *with.job, prog, hw, &spec, watchdog, hgold.journal.get());
    const Launched lwo =
        launch(without.dev, *without.stage, *without.job, prog, hwo, &spec, watchdog, nullptr);
    EXPECT_GT(lw.replayed, 0u);
    EXPECT_EQ(lw.obs, lwo.obs);
  }

  struct Case {
    std::string name;
    gpusim::DeviceProps props;
    gpusim::ExecEngine engine = gpusim::ExecEngine::Threaded;
    bool sanitize = false;
    int workers = 1;
    bool generic = false;
    bool fault_model = false;
  };
  gpusim::DeviceProps paged;
  paged.memory_model = gpusim::MemoryModel::PagedCpu;
  const Case cases[] = {
      {"sanitizer", {}, gpusim::ExecEngine::Threaded, true},
      {"reference", {}, gpusim::ExecEngine::Reference},
      {"paged", paged},
      {"two workers", {}, gpusim::ExecEngine::Threaded, false, 2},
      {"generic filter", {}, gpusim::ExecEngine::Threaded, false, 1, true},
      {"fault model", {}, gpusim::ExecEngine::Threaded, false, 1, false, true},
  };
  gpusim::DeviceFaultModel fm;
  fm.kind = gpusim::DeviceFaultModel::Kind::Permanent;
  fm.component = gpusim::DeviceFaultModel::Component::ALU;
  fm.period = 97;
  for (const Case& c : cases) {
    Rig with(b, prog, false, c.props, c.engine, c.sanitize),
        without(b, prog, false, c.props, c.engine, c.sanitize);
    std::unique_ptr<swifi::InjectingHooks> hw, hwo;
    if (c.generic) {
      hw = std::make_unique<GenericInjector>(prog, nullptr);
      hwo = std::make_unique<GenericInjector>(prog, nullptr);
    } else {
      hw = std::make_unique<swifi::InjectingHooks>(prog, nullptr);
      hwo = std::make_unique<swifi::InjectingHooks>(prog, nullptr);
    }
    if (c.fault_model) {
      with.dev.install_fault(fm);
      without.dev.install_fault(fm);
    }
    const Launched lw = launch(with.dev, *with.stage, *with.job, prog, *hw, &spec, watchdog,
                               gold.journal.get(), c.workers);
    const Launched lwo = launch(without.dev, *without.stage, *without.job, prog, *hwo, &spec,
                                watchdog, nullptr, c.workers);
    EXPECT_EQ(lw.replayed, 0u) << c.name;
    EXPECT_EQ(lw.obs, lwo.obs) << c.name;

    if (c.workers == 1 && !c.generic && !c.fault_model) {
      Rig g(b, prog, false, c.props, c.engine, c.sanitize);
      EXPECT_FALSE(swifi::golden_run(g.dev, prog, *g.job, nullptr, 1).journal) << c.name;
    }
  }
  // A golden run with more than one block worker records nothing either.
  Rig multi(b, prog, false);
  EXPECT_FALSE(swifi::golden_run(multi.dev, prog, *multi.job, nullptr, 2).journal);
}

// The journal names the launch it was recorded from; replaying it against
// different arguments, another program or another protection scheme is a
// caller bug and throws.
TEST(Replay, JournalFromOtherLaunchThrows) {
  auto suite = hpc_suite();
  const Built b = build(std::move(suite.front()));
  const kir::BytecodeProgram& prog = b.v.fi;
  Rig r(b, prog, false);
  const swifi::GoldenRun gold = swifi::golden_run(r.dev, prog, *r.job, nullptr, 1);
  ASSERT_TRUE(gold.journal);
  swifi::InjectingHooks hooks(prog, nullptr);
  hooks.arm(first_fault(b, prog));
  std::vector<kir::Value> args = r.stage->stage();
  gpusim::LaunchOptions opts;
  opts.hooks = &hooks;
  opts.max_workers = 1;
  opts.journal = gold.journal.get();
  args.back().bits ^= 1u;
  EXPECT_THROW((void)r.dev.launch(prog, r.job->config(), args, opts), std::invalid_argument);
  args.back().bits ^= 1u;
  EXPECT_THROW((void)r.dev.launch(b.v.fift, r.job->config(), args, opts),
               std::invalid_argument);
  EXPECT_NO_THROW((void)r.dev.launch(prog, r.job->config(), args, opts));
  gpusim::DeviceProps hsiao;
  hsiao.protection = gpusim::ecc::Scheme::Hsiao;
  Rig h(b, prog, false, hsiao);
  const std::vector<kir::Value> hargs = h.stage->stage();
  EXPECT_THROW((void)h.dev.launch(prog, h.job->config(), hargs, opts), std::invalid_argument);
}
