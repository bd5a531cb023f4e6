// Segment replay (gpusim/journal.hpp, DESIGN §10): a SWIFI trial that
// carries the golden run's journal applies every segment the fault cannot
// have reached and interprets the rest.  The oracle is the same trial
// without the journal (a full launch): for every executed FI site of the FI
// and FI&FT builds of all 12 workloads, replay must give the same outcome
// and the same LaunchResult and memory image.  Memory-cell faults get the
// same check on unprotected and Hsiao devices, check bytes and ECC counts
// included.  Every replayed trial also runs against the journal stripped of
// its snapshot table, which replays whole segments only: windowed replay
// (DESIGN §10) must agree with both.  The remaining tests pin the eligibility predicate (ineligible
// launches apply nothing), the watchdog rule, the fingerprint check, the
// hang and counter-loop fast-forwards, the net shared writes and the
// write-tracking streams' compile count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "gpusim/cost.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "kir/builder.hpp"
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
  std::uint64_t replayed = 0, replayed_instructions = 0;
  bool one_step = false;
};

/// `j` without its net effect: replay then goes segment by segment, the
/// oracle the one-step path is checked against.
gpusim::LaunchJournal per_segment(const gpusim::LaunchJournal& j) {
  gpusim::LaunchJournal w = j;
  w.net = {};
  return w;
}

/// `j` without its net effect and its snapshot table: replay then applies
/// or interprets whole segments only, the oracle windowed replay is checked
/// against.
gpusim::LaunchJournal whole_segments(const gpusim::LaunchJournal& j) {
  gpusim::LaunchJournal w = per_segment(j);
  w.snapshots = {};
  return w;
}

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
  l.replayed_instructions = res.replayed_instructions;
  l.one_step = res.replayed_in_one_step;
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
/// check byte of its pair; or (`host`) XORed into the word by a host
/// copy_in, which stores and re-encodes like any write.
struct Strike {
  std::uint32_t idx = 0;
  std::uint32_t mask = 0;
  bool check = false;
  bool host = false;
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

/// Stage `r`, plant `strikes` in order, launch with the rig's control block
/// as the only hooks (null for the FI build), and count applied segments.
MemObs strike_launch(Rig& r, const kir::BytecodeProgram& prog, std::span<const Strike> strikes,
                     std::uint64_t watchdog, const gpusim::LaunchJournal* journal,
                     std::uint64_t& replayed, std::uint64_t* replayed_instructions = nullptr,
                     bool* one_step = nullptr) {
  const auto& args = r.stage->stage();
  for (const Strike& st : strikes) {
    if (st.host) {
      std::uint32_t v = 0;
      r.dev.mem().copy_out(st.idx, std::span<std::uint32_t>(&v, 1));
      v ^= st.mask;
      r.dev.mem().copy_in(st.idx, std::span<const std::uint32_t>(&v, 1));
    } else if (st.check) {
      r.dev.mem().corrupt_check(st.idx, static_cast<std::uint8_t>(st.mask));
    } else {
      r.dev.mem().corrupt_word(st.idx, st.mask);
    }
  }
  if (r.cb) r.cb->reset_results();
  gpusim::LaunchOptions opts;
  opts.hooks = r.cb.get();
  opts.watchdog_instructions = watchdog;
  opts.max_workers = 1;
  opts.journal = journal;
  const auto res = r.dev.launch(prog, r.job->config(), args, opts);
  replayed += res.replayed_segments;
  if (replayed_instructions) *replayed_instructions += res.replayed_instructions;
  if (one_step) *one_step = res.replayed_in_one_step;
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
// journal (one step where nothing can differ), the journal without its net
// effect (segment by segment, windows included) and without its snapshot
// table too (whole segments) must each match the journal-less launch on
// status, totals, ECC corrections, both alarms and the word and check
// arenas.  The applied segment counts, the replayed instructions and the
// one-step trials are pinned, and the sweep must see corrections and
// uncorrectable pairs.
TEST(Replay, MemoryFaultsMatchFullLaunchOnAllWorkloads) {
  constexpr int kTrials = 60;
  std::size_t trials = 0, corrected = 0, uncorrectable = 0, one_step = 0;
  std::uint64_t replayed = 0, whole_replayed = 0, instr = 0, whole_instr = 0;
  std::uint64_t step_replayed = 0, step_instr = 0;
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
        Rig seg(b, prog, ft, props), step(b, prog, ft, props);
        const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, rep.cb.get(), 1);
        ASSERT_TRUE(gold.journal) << b.w->name();
        ASSERT_FALSE(gold.journal->net.empty()) << b.w->name();
        const gpusim::LaunchJournal windows = per_segment(*gold.journal);
        const gpusim::LaunchJournal whole = whole_segments(*gold.journal);
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
            const std::span<const Strike> one(&st, 1);
            const MemObs f = strike_launch(full, prog, one, watchdog, nullptr, full_replayed);
            const MemObs r =
                strike_launch(rep, prog, one, watchdog, &windows, cell_replayed, &instr);
            const MemObs w =
                strike_launch(seg, prog, one, watchdog, &whole, whole_replayed, &whole_instr);
            bool stepped = false;
            const MemObs o = strike_launch(step, prog, one, watchdog, gold.journal.get(),
                                           step_replayed, &step_instr, &stepped);
            EXPECT_EQ(f, r) << what << " (per segment)";
            EXPECT_EQ(f, w) << what << " (whole segments)";
            EXPECT_EQ(f, o) << what << " (one step)";
            EXPECT_EQ(full_replayed, 0u) << what;
            one_step += stepped;
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
  // Golden counts over the whole sweep: applied segments with whole segments
  // only, and with windows (more: a slice that rejoins lets its thread's
  // later segments apply), and the instructions each took from the journal.
  EXPECT_EQ(whole_replayed, 129807u) << "trials " << trials;
  EXPECT_EQ(replayed, 129913u) << "trials " << trials;
  EXPECT_EQ(whole_instr, 97052320u) << "trials " << trials;
  EXPECT_EQ(instr, 107357153u) << "trials " << trials;
  // With the net effect, more again: a one-step trial counts every segment
  // as replayed, the one the per-segment path interprets to correct its
  // upset included.
  EXPECT_EQ(step_replayed, 131060u) << "trials " << trials;
  EXPECT_EQ(step_instr, 107536606u) << "trials " << trials;
  EXPECT_EQ(one_step, 1166u) << "trials " << trials;
}

// For the FI and FI&FT builds of every workload: every executed FI site x 2
// masks x {first, middle, last} occurrence, replayed against the golden
// journal, replayed against it without its snapshot table, and launched in
// full.  Same Outcome through run_one_fault; same status, activation,
// instruction/cycle/loop-cycle totals, SDC alarm, deadlock diagnostics and
// memory image through a direct launch.  The applied segments (over the
// first and last occurrences, and over the middle ones) and the replayed
// instructions are pinned, so a change that silently stops replaying (or
// replays more than it can justify) shows up here.
TEST(Replay, MatchesFullLaunchOnAllWorkloads) {
  std::size_t trials = 0, activated = 0, crashed = 0;
  // [0]: first and last occurrences, [1]: middle ones.
  std::uint64_t replayed[2] = {}, whole_replayed[2] = {}, instr = 0, whole_instr = 0;
  for (auto& wl : all_workloads()) {
    const Built b = build(std::move(wl));
    const auto req = b.w->requirement();
    for (const bool fift : {false, true}) {
      const kir::BytecodeProgram& prog = fift ? b.v.fift : b.v.fi;
      Rig full(b, prog, fift), rep(b, prog, fift), seg(b, prog, fift);
      const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, rep.cb.get(), 1);
      ASSERT_TRUE(gold.journal) << b.w->name();
      const gpusim::LaunchJournal whole = whole_segments(*gold.journal);
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});

      for (std::uint32_t si = 0; si < prog.fi_sites.size() && si < b.pd.exec_counts.size();
           ++si) {
        std::vector<std::uint32_t> threads;
        for (std::uint32_t t = 0; t < b.pd.exec_counts[si].size(); ++t)
          if (b.pd.exec_counts[si][t] > 0) threads.push_back(t);
        if (threads.empty()) continue;
        for (int m = 0; m < 2; ++m) {
          for (const int occ : {0, 1, 2}) {  // first, middle, last
            swifi::FaultSpec spec;
            spec.site_id = prog.fi_sites[si].site_id;
            spec.thread = threads[(si * 7u + static_cast<std::uint32_t>(m)) % threads.size()];
            const std::uint32_t n = b.pd.exec_counts[si][spec.thread];
            if (occ == 1 && n < 3) continue;  // no occurrence strictly between
            spec.occurrence = occ == 0 ? 1 : occ == 1 ? (n + 1) / 2 : n;
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
            const swifi::Outcome o_seg =
                swifi::run_one_fault(seg.dev, prog, *seg.job, seg.cb.get(), spec, gold.output,
                                     req, watchdog, 1, gpusim::SharedShadow::kMaxReportsPerBlock,
                                     seg.stage.get(), &whole);
            EXPECT_EQ(o_full, o_rep) << what;
            EXPECT_EQ(o_full, o_seg) << what << " (whole segments)";

            swifi::InjectingHooks hf(prog, full.cb.get()), hr(prog, rep.cb.get()),
                hs(prog, seg.cb.get());
            const Launched lf =
                launch(full.dev, *full.stage, *full.job, prog, hf, &spec, watchdog, nullptr);
            const Launched lr = launch(rep.dev, *rep.stage, *rep.job, prog, hr, &spec, watchdog,
                                       gold.journal.get());
            const Launched ls =
                launch(seg.dev, *seg.stage, *seg.job, prog, hs, &spec, watchdog, &whole);
            EXPECT_EQ(lf.obs, lr.obs) << what;
            EXPECT_EQ(lf.obs, ls.obs) << what << " (whole segments)";
            EXPECT_EQ(lf.replayed, 0u) << what;
            replayed[occ == 1] += lr.replayed;
            whole_replayed[occ == 1] += ls.replayed;
            instr += lr.replayed_instructions;
            whole_instr += ls.replayed_instructions;
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
  // Golden counts over the whole sweep: applied segments with whole segments
  // only, and with windows (more: the armed thread's segments before its
  // fault, and the later segments of threads that rejoin, apply), and the
  // instructions each took from the journal.
  EXPECT_EQ(whole_replayed[0], 105788u) << "trials " << trials;
  EXPECT_EQ(whole_replayed[1], 25698u) << "trials " << trials;
  EXPECT_EQ(replayed[0], 106118u) << "trials " << trials;
  EXPECT_EQ(replayed[1], 25800u) << "trials " << trials;
  EXPECT_EQ(whole_instr, 112095213u) << "trials " << trials;
  EXPECT_EQ(instr, 115373135u) << "trials " << trials;
}

// A disarmed launch with the journal applies every segment and reproduces
// the golden launch exactly, in one step (nothing can differ from the golden
// run) and segment by segment (the journal without its net effect); a
// watchdog below the golden per-thread budget makes the segments that would
// cross it run instead, reproducing the Hang.
TEST(Replay, WatchdogBelowGoldenBudgetForcesRerun) {
  for (auto& wl : hpc_suite()) {
    const Built b = build(std::move(wl));
    const kir::BytecodeProgram& prog = b.v.fi;
    Rig full(b, prog, false), rep(b, prog, false);
    const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, nullptr, 1);
    ASSERT_TRUE(gold.journal);
    const gpusim::LaunchJournal each = per_segment(*gold.journal);
    const std::uint64_t segments = gold.journal->segments.size();
    swifi::InjectingHooks hf(prog, nullptr), hr(prog, nullptr);

    const Obs golden =
        launch(full.dev, *full.stage, *full.job, prog, hf, nullptr, 50'000'000, nullptr).obs;
    const Launched all = launch(rep.dev, *rep.stage, *rep.job, prog, hr, nullptr,
                                50'000'000, gold.journal.get());
    EXPECT_EQ(all.replayed, segments) << b.w->name();
    EXPECT_TRUE(all.one_step) << b.w->name();
    EXPECT_EQ(all.obs, golden) << b.w->name();
    const Launched seg =
        launch(rep.dev, *rep.stage, *rep.job, prog, hr, nullptr, 50'000'000, &each);
    EXPECT_EQ(seg.replayed, segments) << b.w->name() << " (per segment)";
    EXPECT_FALSE(seg.one_step) << b.w->name() << " (per segment)";
    EXPECT_EQ(seg.obs, golden) << b.w->name() << " (per segment)";

    // The longest segment's last instruction runs at count max_budget - 1:
    // one below that, the full launch hangs there.
    const std::uint64_t tight = gold.journal->net.totals.max_budget - 2;
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
// golden_run records no journal either, except on the Reference engine:
// recording follows the device's engine, replay is Threaded-only.  A Hsiao
// device is eligible: it replays its own golden journal.
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
      EXPECT_EQ(swifi::golden_run(g.dev, prog, *g.job, nullptr, 1).journal != nullptr,
                c.engine == gpusim::ExecEngine::Reference)
          << c.name;
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

// Recording follows the device's engine, and both engines record the same
// journal: the threaded recording stream reports every access where the
// reference interpreter does.  Golden runs of the FI, FT and FI&FT builds of
// all 12 workloads, unprotected and on Hsiao, must give equal journals
// (segments, reads, writes, register snapshots, launch-start image and
// reader index).
TEST(Replay, ThreadedRecordingMatchesReference) {
  std::size_t journals = 0;
  for (auto& wl : all_workloads()) {
    const Built b = build(std::move(wl));
    struct Arm {
      const char* name;
      const kir::BytecodeProgram* prog;
      bool cb;
    };
    for (const Arm& a : {Arm{"fi", &b.v.fi, false}, Arm{"ft", &b.v.ft, true},
                         Arm{"fi+ft", &b.v.fift, true}}) {
      for (const auto scheme : {gpusim::ecc::Scheme::None, gpusim::ecc::Scheme::Hsiao}) {
        gpusim::DeviceProps props;
        props.protection = scheme;
        Rig thr(b, *a.prog, a.cb, props),
            ref(b, *a.prog, a.cb, props, gpusim::ExecEngine::Reference);
        const swifi::GoldenRun gt = swifi::golden_run(thr.dev, *a.prog, *thr.job, thr.cb.get(), 1);
        const swifi::GoldenRun gr = swifi::golden_run(ref.dev, *a.prog, *ref.job, ref.cb.get(), 1);
        const std::string what = b.w->name() + " " + a.name + " " +
                                 gpusim::ecc::scheme_name(scheme);
        ASSERT_TRUE(gt.journal) << what;
        ASSERT_TRUE(gr.journal) << what;
        EXPECT_TRUE(*gt.journal == *gr.journal) << what;
        EXPECT_FALSE(gt.journal->start_image.empty()) << what;
        ++journals;
      }
    }
  }
  EXPECT_EQ(journals, 12u * 3 * 2);
}

// The snapshot table of every golden journal (FI, FT and FI&FT builds of
// all 12 workloads): at most kSnapshotsPerSegment per segment, each at the
// target of a backward jump — never inside a run of the write-tracking
// stream a replayed slice resumes in — with budgets strictly rising and
// read/write positions, counts and the SDC bit never falling along a
// segment, all within the segment's totals.  The FI-site counts at each
// thread's last segment end equal the profiler's per-thread execution
// counts.  At small scale no GPU workload's table exceeds 512 KiB.
TEST(Replay, SnapshotsSitAtBackwardJumpTargets) {
  using J = gpusim::LaunchJournal;
  std::size_t snapshots = 0;
  for (auto& wl : all_workloads()) {
    const Built b = build(std::move(wl));
    for (const kir::BytecodeProgram* prog : {&b.v.fi, &b.v.ft, &b.v.fift}) {
      const bool cb = prog != &b.v.fi;
      Rig r(b, *prog, cb);
      const swifi::GoldenRun gold = swifi::golden_run(r.dev, *prog, *r.job, r.cb.get(), 1);
      ASSERT_TRUE(gold.journal) << b.w->name();
      const J& j = *gold.journal;
      const J::SnapshotTable& t = j.snapshots;
      ASSERT_EQ(t.begin.size(), j.segments.size()) << b.w->name();
      std::vector<bool> back_target(prog->code.size(), false);
      for (std::uint32_t pc = 0; pc < prog->code.size(); ++pc) {
        const kir::Instr& in = prog->code[pc];
        if ((in.op == kir::OpCode::Jmp || in.op == kir::OpCode::Jz) && in.aux <= pc)
          back_target[in.aux] = true;
      }
      const auto costs = gpusim::instruction_costs(*prog, gpusim::CostModel{},
                                                   gpusim::DeviceProps{}.regs_per_thread, false);
      const kir::ThreadedProgram writes = kir::compile_threaded(
          kir::decode_program(*prog, costs), prog->num_slots, true, kir::MemInstr::Writes);
      for (std::uint32_t g = 0; g < j.segments.size(); ++g) {
        const J::Segment& s = j.segments[g];
        const std::string what = b.w->name() + " segment " + std::to_string(g);
        EXPECT_LE(t.end[g] - t.begin[g], J::kSnapshotsPerSegment) << what;
        const J::Snapshot* prev = nullptr;
        for (std::uint32_t i = t.begin[g]; i < t.end[g]; ++i) {
          const J::Snapshot& at = t.list[i];
          ASSERT_LT(at.pc, prog->code.size()) << what;
          EXPECT_TRUE(back_target[at.pc]) << what << " pc " << at.pc;
          EXPECT_FALSE(std::string_view(kir::top_name(static_cast<kir::TOp>(
                                            writes.code[at.pc].op)))
                           .starts_with("Nk"))
              << what << " pc " << at.pc;
          EXPECT_LT(at.budget, s.budget_after) << what;
          EXPECT_LE(at.instructions, s.instructions) << what;
          EXPECT_LE(at.global_reads, s.global_reads) << what;
          EXPECT_LE(at.shared_reads, s.shared_reads) << what;
          EXPECT_LE(at.writes, s.writes) << what;
          EXPECT_LE(at.shared_writes, s.shared_writes) << what;
          EXPECT_TRUE(!at.sdc || s.sdc) << what;
          if (prev) {
            EXPECT_LT(prev->budget, at.budget) << what;
            EXPECT_LE(prev->global_reads, at.global_reads) << what;
            EXPECT_LE(prev->writes, at.writes) << what;
            EXPECT_TRUE(!prev->sdc || at.sdc) << what;
            for (std::uint32_t site = 0; site < t.site_column.size(); ++site)
              EXPECT_LE(t.count(i - 1, site), t.count(i, site)) << what;
          }
          for (std::uint32_t site = 0; site < t.site_column.size(); ++site)
            EXPECT_LE(t.count(i, site), t.count(t.segment_end(g), site)) << what;
          prev = &at;
          ++snapshots;
        }
      }
      if (prog != &b.v.ft) {
        for (std::uint32_t slot = 0; slot + 1 < j.thread_begin.size(); ++slot)
          for (std::uint32_t si = 0; si < prog->fi_sites.size() && si < b.pd.exec_counts.size();
               ++si)
            EXPECT_EQ(t.count(t.segment_end(j.thread_begin[slot + 1] - 1), si),
                      b.pd.exec_counts[si][slot])
                << b.w->name() << " thread " << slot << " site " << si;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(snapshots, 1000u);
  std::vector<std::unique_ptr<Workload>> gpu = hpc_suite();
  for (auto& w : graphics_suite()) gpu.push_back(std::move(w));
  for (auto& w : gpu) {
    const Dataset ds = w->make_dataset(kDatasetSeed, Scale::Small);
    const core::KernelVariants v = core::build_variants(w->build_kernel(Scale::Small));
    gpusim::Device dev;
    auto job = w->make_job(ds);
    const swifi::GoldenRun gold = swifi::golden_run(dev, v.fift, *job, nullptr, 1);
    ASSERT_TRUE(gold.journal) << w->name();
    EXPECT_LE(gold.journal->snapshots.bytes(), gpusim::LaunchJournal::kSnapshotTableBytes)
        << w->name();
    EXPECT_FALSE(gold.journal->snapshots.list.empty()) << w->name();
  }
}

// A recording launch whose watchdog runs out inside a fused region: the
// threaded thread hands its slice to the reference interpreter mid-segment,
// with the recorder attached.  A hand-off always ends its launch (the budget
// runs out, or the access it could not check faults), so such a recording
// keeps nothing; both engines must agree on the launch and leave the
// journal empty.  The first budget lands inside the stream's first region,
// which is a run; the sweep lands in many more.
TEST(Replay, RecordingHandOffMatchesReference) {
  auto suite = hpc_suite();
  const Built b = build(std::move(suite.front()));
  const kir::BytecodeProgram& prog = b.v.fi;
  {
    const auto costs = gpusim::instruction_costs(prog, gpusim::CostModel{},
                                                 gpusim::DeviceProps{}.regs_per_thread, false);
    const kir::ThreadedProgram tp = kir::compile_threaded(
        kir::decode_program(prog, costs), prog.num_slots, true, kir::MemInstr::Record);
    ASSERT_EQ(tp.code[0].op, static_cast<std::uint16_t>(kir::TOp::RunHead));
    ASSERT_GT(tp.code[0].len, 2);
  }
  Rig thr(b, prog, false), ref(b, prog, false, {}, gpusim::ExecEngine::Reference);
  const swifi::GoldenRun gold = swifi::golden_run(thr.dev, prog, *thr.job, nullptr, 1);
  ASSERT_TRUE(gold.journal);
  std::vector<std::uint64_t> budgets = {1};
  for (std::uint64_t k = 1; k <= 24; ++k)
    budgets.push_back(k * gold.per_thread_instructions / 25);
  for (const std::uint64_t budget : budgets) {
    gpusim::LaunchJournal jt, jr;
    const auto run = [&](Rig& r, gpusim::LaunchJournal& j) {
      gpusim::LaunchOptions opts;
      opts.max_workers = 1;
      opts.watchdog_instructions = budget;
      opts.record_journal = &j;
      const auto res = r.dev.launch(prog, r.job->config(), r.stage->stage(), opts);
      return std::tuple(res.status, res.instructions, res.cycles, r.dev.mem().image());
    };
    const auto t = run(thr, jt);
    EXPECT_EQ(t, run(ref, jr)) << "budget " << budget;
    EXPECT_EQ(std::get<0>(t), gpusim::LaunchStatus::Hang) << "budget " << budget;
    EXPECT_TRUE(jt.empty()) << "budget " << budget;
    EXPECT_TRUE(jt == jr) << "budget " << budget;
  }
}

// The reader index lists exactly every first read (global, and shared per
// block) and one writer entry per (word, segment) that writes it, and the
// launch-start image is global memory as the golden launch found it.
TEST(Replay, ReaderIndexListsEveryFirstReadAndWrite) {
  for (auto& wl : hpc_suite()) {
    const Built b = build(std::move(wl));
    for (const bool ft : {false, true}) {
      const kir::BytecodeProgram& prog = ft ? b.v.ft : b.v.fi;
      Rig r(b, prog, ft);
      const swifi::GoldenRun gold = swifi::golden_run(r.dev, prog, *r.job, r.cb.get(), 1);
      ASSERT_TRUE(gold.journal);
      const gpusim::LaunchJournal& j = *gold.journal;
      using A = gpusim::LaunchJournal::Access;
      std::vector<A> global, shared;
      const auto threads = r.job->config().block_x * r.job->config().block_y;
      const auto blocks = static_cast<std::uint32_t>(j.thread_begin.size() - 1) / threads;
      std::vector<std::uint32_t> shared_begin = {0};
      for (std::uint32_t blk = 0; blk < blocks; ++blk) {
        std::vector<A> block;
        for (std::uint32_t g = j.thread_begin[blk * threads];
             g < j.thread_begin[(blk + 1) * threads]; ++g) {
          const auto& s = j.segments[g];
          for (std::uint32_t k = 0; k < s.global_reads; ++k)
            global.push_back({j.reads[s.first_reads + k].addr, g, s.first_reads + k});
          for (std::uint32_t k = 0; k < s.writes; ++k)
            global.push_back({j.writes[s.first_write + k].addr, g, gpusim::LaunchJournal::kWrite});
          for (std::uint32_t k = s.global_reads; k < s.global_reads + s.shared_reads; ++k)
            block.push_back({j.reads[s.first_reads + k].addr, g, s.first_reads + k});
        }
        std::sort(block.begin(), block.end());
        shared.insert(shared.end(), block.begin(), block.end());
        shared_begin.push_back(static_cast<std::uint32_t>(shared.size()));
      }
      std::sort(global.begin(), global.end());
      global.erase(std::unique(global.begin(), global.end()), global.end());
      const std::string what = b.w->name() + (ft ? " ft" : " fi");
      EXPECT_TRUE(j.global_index == global) << what;
      EXPECT_TRUE(j.shared_index == shared) << what;
      EXPECT_EQ(j.shared_index_begin, shared_begin) << what;

      gpusim::Device fresh;
      auto job = b.w->make_job(b.ds);
      (void)job->setup(fresh);
      std::vector<std::uint32_t> start = fresh.mem().image();
      start.resize(j.start_image.size(), 0);
      EXPECT_EQ(j.start_image, start) << what;
    }
  }
}

// The launch-start diff: a host write between staging and a replayed
// launch, to a word some segment first-reads, must send that reader (and
// what it changes) down the interpreter, and the launch must equal the
// full launch of the same memory.  A write the golden run never reads is
// applied around: every segment replays, segment by segment (the journal
// without its net effect) and in one step (the whole journal).
TEST(Replay, LaunchStartDiffCatchesHostWrites) {
  for (auto& wl : hpc_suite()) {
    const Built b = build(std::move(wl));
    const kir::BytecodeProgram& prog = b.v.fi;
    Rig full(b, prog, false), rep(b, prog, false);
    const swifi::GoldenRun gold = swifi::golden_run(rep.dev, prog, *rep.job, nullptr, 1);
    ASSERT_TRUE(gold.journal);
    const gpusim::LaunchJournal& j = *gold.journal;
    const gpusim::LaunchJournal each = per_segment(j);
    std::vector<std::uint32_t> read_words;
    for (const auto& a : j.global_index)
      if (a.read != gpusim::LaunchJournal::kWrite) read_words.push_back(a.addr);
    ASSERT_FALSE(read_words.empty());
    // A word the launch first-reads (halfway through the index), and one
    // past everything it reads or writes.
    const std::uint32_t read_word = read_words[read_words.size() / 2];
    const std::uint32_t idle_word = j.global_index.back().addr + 1;
    for (const std::uint32_t word : {read_word, idle_word}) {
      // Arms: the full launch, the whole journal, the journal per segment.
      Obs obs[3];
      std::uint64_t replayed[3] = {};
      bool one_step[3] = {};
      for (int k = 0; k < 3; ++k) {
        Rig& r = k == 0 ? full : rep;
        const auto& args = r.stage->stage();
        std::uint32_t v = 0;
        r.dev.mem().copy_out(word, std::span<std::uint32_t>(&v, 1));
        v ^= 0x00400001u;
        r.dev.mem().copy_in(word, std::span<const std::uint32_t>(&v, 1));
        gpusim::LaunchOptions opts;
        opts.max_workers = 1;
        opts.journal = k == 0 ? nullptr : k == 1 ? &j : &each;
        const auto res = r.dev.launch(prog, r.job->config(), args, opts);
        obs[k].status = res.status;
        obs[k].instructions = res.instructions;
        obs[k].cycles = res.cycles;
        obs[k].loop_cycles = res.loop_cycles;
        obs[k].sdc = res.sdc_alarm;
        obs[k].mem = r.dev.mem().image();
        replayed[k] = res.replayed_segments;
        one_step[k] = res.replayed_in_one_step;
      }
      const std::string what = b.w->name() + " word " + std::to_string(word);
      EXPECT_EQ(obs[0], obs[1]) << what;
      EXPECT_EQ(obs[0], obs[2]) << what << " (per segment)";
      EXPECT_FALSE(one_step[2]) << what << " (per segment)";
      if (word == read_word) {
        EXPECT_FALSE(one_step[1]) << what;
        EXPECT_LT(replayed[1], j.segments.size()) << what;
        EXPECT_LT(replayed[2], j.segments.size()) << what << " (per segment)";
      } else {
        EXPECT_TRUE(one_step[1]) << what;
        EXPECT_EQ(replayed[1], j.segments.size()) << what;
        EXPECT_EQ(replayed[2], j.segments.size()) << what << " (per segment)";
      }
    }
  }
}

// The one-step path (DESIGN §10) is taken only when nothing can differ from
// the golden run.  On a Hsiao device, the FT build with its control block: a
// correctable upset in a pair the launch reads takes it (one correction, as
// the full launch makes), and so does an upset in a live pair the launch
// never touches, which stays latent.  These do not: a double-bit upset in a
// read pair (in its data, or in its check byte, where the data still equals
// the golden run's), a host write to a read word (alone, or under a
// correctable upset in its pair, which then corrects to the host's value),
// and a watchdog below the largest golden budget; nor, on the FI build, an
// Armed filter.  Every case equals the full launch, check arena included,
// and the cases that must not take one step are ones where taking it would
// be wrong.
TEST(Replay, OneStepOnlyWhenNothingCanDiffer) {
  gpusim::DeviceProps hsiao;
  hsiao.protection = gpusim::ecc::Scheme::Hsiao;
  const auto touched = [](const gpusim::LaunchJournal& j, std::uint32_t addr) {
    return std::any_of(j.global_index.begin(), j.global_index.end(),
                       [&](const auto& a) { return a.addr == addr; });
  };
  // The first HPC workload whose FT launch leaves a live pair untouched.
  std::unique_ptr<Built> found;
  std::unique_ptr<Rig> full, step;
  swifi::GoldenRun gold;
  std::uint32_t idle_pair = 0;
  for (auto& wl : hpc_suite()) {
    auto b = std::make_unique<Built>(build(std::move(wl)));
    auto s = std::make_unique<Rig>(*b, b->v.ft, true, hsiao);
    gold = swifi::golden_run(s->dev, b->v.ft, *s->job, s->cb.get(), 1);
    ASSERT_TRUE(gold.journal) << b->w->name();
    (void)s->stage->stage();
    const std::uint32_t used = s->dev.mem().used_words();
    for (idle_pair = 0; 2 * idle_pair + 1 < used; ++idle_pair)
      if (!touched(*gold.journal, 2 * idle_pair) && !touched(*gold.journal, 2 * idle_pair + 1))
        break;
    if (2 * idle_pair + 1 < used) {
      full = std::make_unique<Rig>(*b, b->v.ft, true, hsiao);
      step = std::move(s);
      found = std::move(b);
      break;
    }
  }
  ASSERT_TRUE(found) << "every FT launch touches every live pair";
  const Built& b = *found;
  const kir::BytecodeProgram& prog = b.v.ft;
  const gpusim::LaunchJournal& j = *gold.journal;
  ASSERT_FALSE(j.net.empty());
  const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
  // A word the launch first-reads.
  std::uint32_t read_word = 0;
  for (const auto& a : j.global_index)
    if (a.read != gpusim::LaunchJournal::kWrite) {
      read_word = a.addr;
      break;
    }
  ASSERT_TRUE(touched(j, read_word));

  struct Case {
    const char* name;
    std::vector<Strike> strikes;
    std::uint64_t watchdog;
    bool one_step;
  };
  const Case cases[] = {
      {"correctable upset in a read pair", {{read_word, 0x10u}}, watchdog, true},
      {"check-bit upset in a read pair", {{read_word, 0x4u, true}}, watchdog, true},
      {"upset in an untouched pair", {{2 * idle_pair + 1, 0x100u}}, watchdog, true},
      {"double-bit upset in a read pair", {{read_word, 0x3u}}, watchdog, false},
      {"double check-bit upset in a read pair", {{read_word, 0x5u, true}}, watchdog, false},
      {"host write to a read word", {{read_word, 0x00400001u, false, true}}, watchdog, false},
      {"host write under a correctable upset",
       {{read_word, 0x00400001u, false, true}, {read_word ^ 1u, 0x8u}},
       watchdog,
       false},
      {"watchdog below the largest budget", {{read_word, 0x10u}}, j.net.totals.max_budget - 2,
       false},
  };
  std::uint64_t replayed = 0;
  const MemObs clean = strike_launch(*full, prog, {}, watchdog, nullptr, replayed);
  for (const Case& c : cases) {
    const std::string what = b.w->name() + ": " + c.name;
    bool stepped = false;
    const MemObs f = strike_launch(*full, prog, c.strikes, c.watchdog, nullptr, replayed);
    const MemObs o =
        strike_launch(*step, prog, c.strikes, c.watchdog, &j, replayed, nullptr, &stepped);
    EXPECT_EQ(stepped, c.one_step) << what;
    EXPECT_EQ(f, o) << what;
    if (c.one_step) {
      // What the one step leaves: the golden run's results, each touched
      // upset corrected once, untouched ones still in place.
      EXPECT_EQ(f.status, gpusim::LaunchStatus::Ok) << what;
      EXPECT_EQ(f.instructions, clean.instructions) << what;
      EXPECT_EQ(f.ecc_corrected, c.strikes[0].idx == read_word ? 1u : 0u) << what;
    } else {
      // Taking it would have been wrong: the golden run's results differ.
      EXPECT_TRUE(f.status != clean.status || f.mem != clean.mem) << what;
    }
  }
  // The untouched pair is still latent after the one-step launch.
  (void)strike_launch(*step, prog, cases[2].strikes, watchdog, &j, replayed);
  const auto latent = step->dev.mem().latent_pairs();
  EXPECT_EQ(std::vector<std::uint32_t>(latent.begin(), latent.end()),
            std::vector<std::uint32_t>{idle_pair});

  // An Armed filter never takes one step, even on clean memory.
  const kir::BytecodeProgram& fi = b.v.fi;
  Rig fi_full(b, fi, false), fi_step(b, fi, false);
  const swifi::GoldenRun fi_gold = swifi::golden_run(fi_step.dev, fi, *fi_step.job, nullptr, 1);
  ASSERT_TRUE(fi_gold.journal);
  const std::uint64_t fi_watchdog = swifi::campaign_watchdog(fi_gold, swifi::CampaignConfig{});
  const swifi::FaultSpec spec = first_fault(b, fi);
  swifi::InjectingHooks hf(fi, nullptr), hs(fi, nullptr);
  const Launched lf =
      launch(fi_full.dev, *fi_full.stage, *fi_full.job, fi, hf, &spec, fi_watchdog, nullptr);
  const Launched ls = launch(fi_step.dev, *fi_step.stage, *fi_step.job, fi, hs, &spec,
                             fi_watchdog, fi_gold.journal.get());
  EXPECT_TRUE(lf.obs.activated);
  EXPECT_FALSE(ls.one_step);
  EXPECT_EQ(lf.obs, ls.obs);
  // Disarmed, the same launch takes it.
  const Launched ld = launch(fi_step.dev, *fi_step.stage, *fi_step.job, fi, hs, nullptr,
                             fi_watchdog, fi_gold.journal.get());
  EXPECT_TRUE(ld.one_step);
  EXPECT_EQ(ld.replayed, fi_gold.journal->segments.size());
}

// Net-effect journals (GoldenJournal::NetEffect, what a single-bit
// memory-fault campaign under SEC-DED records) on the FT build of the 9 GPU
// workloads, on Hsiao and Hamming devices.  The journal must hold exactly
// the full journal's fingerprint, launch-start image, touched words and net
// effect, and no segment; the full journal's stored totals must equal its
// segment sums.  Data-bit and check-bit single-bit strikes must take it in
// one step and match the full launch on every observable (ECC state
// included), with the replay diagnostics of a one-step replay of the full
// journal; through run_one_memory_fault the Outcome must be the
// journal-less one.  Both engines record equal net-effect journals.  Where
// one step would be wrong — a double-bit strike, a host write to a read
// word, a watchdog below the largest budget, an Armed filter — the launch
// must run in full (nothing replayed) and equal the reference.
TEST(Replay, NetEffectJournalMatchesFullLaunch) {
  constexpr int kTrials = 16;
  std::size_t stepped_trials = 0, fallbacks = 0, outcomes = 0;
  std::vector<std::unique_ptr<Workload>> gpu = hpc_suite();
  for (auto& w : graphics_suite()) gpu.push_back(std::move(w));
  ASSERT_EQ(gpu.size(), 9u);
  for (auto& wl : gpu) {
    const Built b = build(std::move(wl));
    const kir::BytecodeProgram& prog = b.v.ft;
    for (const auto scheme : {gpusim::ecc::Scheme::Hsiao, gpusim::ecc::Scheme::Hamming}) {
      gpusim::DeviceProps props;
      props.protection = scheme;
      const std::string name = b.w->name() + " " + gpusim::ecc::scheme_name(scheme);
      Rig full(b, prog, true, props), rec(b, prog, true, props), net(b, prog, true, props);
      const swifi::GoldenRun fgold = swifi::golden_run(rec.dev, prog, *rec.job, rec.cb.get(), 1);
      const swifi::GoldenRun ngold = swifi::golden_run(net.dev, prog, *net.job, net.cb.get(), 1,
                                                       swifi::GoldenJournal::NetEffect);
      ASSERT_TRUE(fgold.journal && ngold.journal) << name;
      const gpusim::LaunchJournal& fj = *fgold.journal;
      const gpusim::LaunchJournal& nj = *ngold.journal;
      {
        // Both engines record equal net-effect journals.
        Rig ref(b, prog, true, props, gpusim::ExecEngine::Reference);
        const swifi::GoldenRun rgold = swifi::golden_run(ref.dev, prog, *ref.job, ref.cb.get(), 1,
                                                         swifi::GoldenJournal::NetEffect);
        ASSERT_TRUE(rgold.journal) << name;
        EXPECT_EQ(*rgold.journal, nj) << name;
      }
      EXPECT_TRUE(nj.segments.empty() && !nj.net.empty()) << name;
      EXPECT_EQ(nj.fingerprint, fj.fingerprint) << name;
      EXPECT_EQ(nj.start_image, fj.start_image) << name;
      EXPECT_EQ(nj.touched, fj.touched) << name;
      EXPECT_EQ(nj.net, fj.net) << name;
      EXPECT_TRUE(nj.global_index.empty() && nj.reads.empty() && nj.snapshots.empty()) << name;
      EXPECT_EQ(fj.net.totals, fj.segment_totals()) << name;
      EXPECT_EQ(fj.net.segments, fj.segments.size()) << name;
      EXPECT_LT(nj.bytes(), fj.bytes()) << name;
      const std::uint64_t watchdog = swifi::campaign_watchdog(ngold, swifi::CampaignConfig{});
      ASSERT_EQ(watchdog, swifi::campaign_watchdog(fgold, swifi::CampaignConfig{})) << name;
      (void)net.stage->stage();
      const std::uint32_t used = net.dev.mem().used_words();

      // Single-bit strikes: one step, equal to the full launch and to the
      // one-step replay of the full journal.
      common::Rng rng = common::Rng::fork(kDatasetSeed, stepped_trials);
      for (const bool check : {false, true}) {
        for (int i = 0; i < kTrials; ++i) {
          Strike st;
          st.idx = static_cast<std::uint32_t>(rng.next_below(used));
          st.check = check;
          st.mask = check ? 1u << rng.next_below(8) : common::random_mask(rng, 1);
          const std::string what = name + " word " + std::to_string(st.idx) + " mask " +
                                   std::to_string(st.mask) + (check ? " check" : " data");
          const std::span<const Strike> one(&st, 1);
          std::uint64_t f_rep = 0, r_rep = 0, n_rep = 0, r_instr = 0, n_instr = 0;
          bool r_step = false, n_step = false;
          const MemObs f = strike_launch(full, prog, one, watchdog, nullptr, f_rep);
          const MemObs r = strike_launch(rec, prog, one, watchdog, &fj, r_rep, &r_instr, &r_step);
          const MemObs n = strike_launch(net, prog, one, watchdog, &nj, n_rep, &n_instr, &n_step);
          EXPECT_TRUE(n_step) << what;
          EXPECT_TRUE(r_step) << what;
          EXPECT_EQ(f, n) << what;
          EXPECT_EQ(r, n) << what;
          EXPECT_EQ(n_rep, r_rep) << what;
          EXPECT_EQ(n_instr, r_instr) << what;
          EXPECT_EQ(n_rep, fj.segments.size()) << what;
          ++stepped_trials;
          if (::testing::Test::HasFailure()) return;
        }
      }

      // The campaign's own trials: same Outcome with and without the
      // net-effect journal (run_one_memory_fault draws data or check bit).
      for (int i = 0; i < kTrials; ++i) {
        common::Rng ra = common::Rng::fork(kDatasetSeed + 1, i), rb = ra;
        const std::uint32_t mask = common::random_mask(ra, 1);
        (void)common::random_mask(rb, 1);
        const swifi::Outcome want = swifi::run_one_memory_fault(
            full.dev, prog, *full.job, ra, mask, ngold.output, b.w->requirement(), watchdog, 1,
            gpusim::SharedShadow::kMaxReportsPerBlock, full.cb.get(), nullptr, full.stage.get());
        const swifi::Outcome got = swifi::run_one_memory_fault(
            net.dev, prog, *net.job, rb, mask, ngold.output, b.w->requirement(), watchdog, 1,
            gpusim::SharedShadow::kMaxReportsPerBlock, net.cb.get(), &nj, net.stage.get());
        EXPECT_EQ(got, want) << name << " trial " << i;
        ++outcomes;
      }

      // Where one step would be wrong, a full launch.
      std::uint32_t read_word = 0;
      for (const auto& a : fj.global_index)
        if (a.read != gpusim::LaunchJournal::kWrite) {
          read_word = a.addr;
          break;
        }
      struct Case {
        const char* name;
        Strike strike;
        std::uint64_t watchdog;
      };
      const Case cases[] = {
          {"double-bit upset in a read pair", {read_word, 0x3u}, watchdog},
          {"host write to a read word", {read_word, 0x00400001u, false, true}, watchdog},
          {"watchdog below the largest budget", {read_word, 0x10u}, nj.net.totals.max_budget - 2},
      };
      for (const Case& c : cases) {
        const std::string what = name + ": " + c.name;
        const std::span<const Strike> one(&c.strike, 1);
        std::uint64_t f_rep = 0, n_rep = 0;
        bool n_step = true;
        const MemObs f = strike_launch(full, prog, one, c.watchdog, nullptr, f_rep);
        const MemObs n = strike_launch(net, prog, one, c.watchdog, &nj, n_rep, nullptr, &n_step);
        EXPECT_FALSE(n_step) << what;
        EXPECT_EQ(n_rep, 0u) << what;
        EXPECT_EQ(f, n) << what;
        ++fallbacks;
      }
    }

    // An Armed filter: the FI&FT build's register fault against its
    // net-effect journal runs in full.
    const kir::BytecodeProgram& fift = b.v.fift;
    gpusim::DeviceProps hsiao;
    hsiao.protection = gpusim::ecc::Scheme::Hsiao;
    Rig afull(b, fift, true, hsiao), anet(b, fift, true, hsiao);
    const swifi::GoldenRun agold = swifi::golden_run(anet.dev, fift, *anet.job, anet.cb.get(), 1,
                                                     swifi::GoldenJournal::NetEffect);
    ASSERT_TRUE(agold.journal) << b.w->name();
    const std::uint64_t awatchdog = swifi::campaign_watchdog(agold, swifi::CampaignConfig{});
    const swifi::FaultSpec spec = first_fault(b, fift);
    swifi::InjectingHooks hf(fift, afull.cb.get()), hn(fift, anet.cb.get());
    afull.cb->reset_results();
    anet.cb->reset_results();
    const Launched lf =
        launch(afull.dev, *afull.stage, *afull.job, fift, hf, &spec, awatchdog, nullptr);
    const Launched ln = launch(anet.dev, *anet.stage, *anet.job, fift, hn, &spec, awatchdog,
                               agold.journal.get());
    EXPECT_TRUE(lf.obs.activated) << b.w->name();
    EXPECT_FALSE(ln.one_step) << b.w->name();
    EXPECT_EQ(ln.replayed, 0u) << b.w->name();
    EXPECT_EQ(lf.obs, ln.obs) << b.w->name();
    ++fallbacks;
  }
  EXPECT_EQ(stepped_trials, 9u * 2 * 2 * kTrials);
  EXPECT_EQ(outcomes, 9u * 2 * kTrials);
  EXPECT_EQ(fallbacks, 9u * (2 * 3 + 1));
}

// A slice whose writes leave the golden addresses: thread 0 of block 0
// stores (to shared and global memory) through an index it loads, and other
// segments each read one word — the golden target or the trial's target.
// Changing the index word between staging and launch retargets the writer;
// every reader of either target must then be interpreted, because the
// interpreted writes and their golden counterparts both joined the delta
// set, so the replayed launch equals the full launch.
TEST(Replay, RetargetedWritesSendBothTargetsReadersToTheInterpreter) {
  kir::KernelBuilder kb("retarget", 8);
  auto idx = kb.param_ptr("idx");
  auto data = kb.param_ptr("data");
  auto out = kb.param_ptr("out");
  auto t = kb.let("t", kb.tid_x());
  auto b = kb.let("b", kb.bid_x());
  kb.if_then((t == kir::i32c(0)) && (b == kir::i32c(0)), [&] {
    auto i = kb.let("i", kb.load_i32(idx));
    kb.shstore(i, kir::i32c(77));
    kb.store(data + i, kir::i32c(1000));
  });
  kb.barrier();
  // Block b's threads 1 and 2 read the two shared candidates; block 1's
  // threads 0 and 2 read the two global ones (one word per segment).
  kb.if_then(t == kir::i32c(1),
             [&] { kb.store(out + b * kir::i32c(4), kb.shload_i32(kir::i32c(0))); });
  kb.if_then(t == kir::i32c(2), [&] {
    kb.store(out + b * kir::i32c(4) + kir::i32c(1), kb.shload_i32(kir::i32c(5)));
  });
  kb.if_then((b == kir::i32c(1)) && (t == kir::i32c(0)),
             [&] { kb.store(out + kir::i32c(6), kb.load_i32(data)); });
  kb.if_then((b == kir::i32c(1)) && (t == kir::i32c(2)),
             [&] { kb.store(out + kir::i32c(7), kb.load_i32(data + kir::i32c(5))); });
  const kir::BytecodeProgram prog = kir::lower(kb.build());
  gpusim::LaunchConfig cfg;
  cfg.grid_x = 2;
  cfg.block_x = 3;

  // Stage idx = {index}, data and out zeroed, and launch.
  const auto run = [&](gpusim::Device& dev, std::uint32_t index,
                       gpusim::LaunchJournal* record, const gpusim::LaunchJournal* journal) {
    dev.reset_memory();
    const std::uint32_t ia = dev.mem().alloc(1), da = dev.mem().alloc(8), oa = dev.mem().alloc(8);
    dev.mem().copy_in(ia, std::span<const std::uint32_t>(&index, 1));
    const kir::Value args[] = {kir::Value::ptr(ia), kir::Value::ptr(da), kir::Value::ptr(oa)};
    gpusim::LaunchOptions opts;
    opts.max_workers = 1;
    opts.record_journal = record;
    opts.journal = journal;
    const auto res = dev.launch(prog, cfg, args, opts);
    return std::tuple(res.status, res.instructions, res.cycles, res.replayed_segments,
                      dev.mem().image());
  };
  gpusim::Device gold_dev, full_dev, rep_dev;
  gpusim::LaunchJournal j;
  (void)run(gold_dev, 0, &j, nullptr);
  ASSERT_FALSE(j.empty());
  const auto full = run(full_dev, 5, nullptr, nullptr);
  const auto rep = run(rep_dev, 5, nullptr, &j);
  EXPECT_EQ(std::get<0>(full), gpusim::LaunchStatus::Ok);
  EXPECT_EQ(std::get<0>(rep), std::get<0>(full));
  EXPECT_EQ(std::get<1>(rep), std::get<1>(full));
  EXPECT_EQ(std::get<2>(rep), std::get<2>(full));
  EXPECT_EQ(std::get<4>(rep), std::get<4>(full));
  // The writer's two slices and the four readers ran; the rest applied.
  EXPECT_EQ(std::get<3>(rep), j.segments.size() - 6);
}

// A golden launch whose detector fires sets the SDC bit: here a duplicate
// check that disagrees in every thread.  The one-step replay charges the
// segments' SDC bit with their totals, and must report it as the full
// launch and the replay segment by segment do.
TEST(Replay, OneStepReportsTheGoldenSdcBit) {
  kir::KernelBuilder kb("sdc", 8);
  auto in = kb.param_ptr("in");
  auto out = kb.param_ptr("out");
  auto t = kb.let("t", kb.tid_x());
  auto x = kb.let("x", kb.load_i32(in + t));
  kb.store(out + t, x + kir::i32c(1));
  kir::Kernel kernel = kb.build();
  auto check = std::make_shared<kir::Stmt>();
  check->kind = kir::StmtKind::DupCheck;
  check->var = x.var_id();
  check->value = (x + kir::i32c(1)).node();
  kernel.body.push_back(std::move(check));
  const kir::BytecodeProgram prog = kir::lower(kernel);
  gpusim::LaunchConfig cfg;
  cfg.grid_x = 2;
  cfg.block_x = 4;

  const auto run = [&](gpusim::Device& dev, gpusim::LaunchJournal* record,
                       const gpusim::LaunchJournal* journal, bool* one_step = nullptr) {
    dev.reset_memory();
    const std::uint32_t ia = dev.mem().alloc(4), oa = dev.mem().alloc(4);
    const std::uint32_t vals[] = {3u, 5u, 7u, 9u};
    dev.mem().copy_in(ia, vals);
    const kir::Value args[] = {kir::Value::ptr(ia), kir::Value::ptr(oa)};
    gpusim::LaunchOptions opts;
    opts.max_workers = 1;
    opts.record_journal = record;
    opts.journal = journal;
    const auto res = dev.launch(prog, cfg, args, opts);
    if (one_step) *one_step = res.replayed_in_one_step;
    return std::tuple(res.status, res.instructions, res.cycles, res.loop_cycles, res.sdc_alarm,
                      dev.mem().image());
  };
  gpusim::Device gold_dev, full_dev, rep_dev;
  gpusim::LaunchJournal j;
  const auto gold = run(gold_dev, &j, nullptr);
  ASSERT_FALSE(j.empty());
  EXPECT_TRUE(std::get<4>(gold));
  EXPECT_TRUE(j.net.totals.sdc);
  const gpusim::LaunchJournal each = per_segment(j);
  bool step_one = false, seg_one = true;
  const auto full = run(full_dev, nullptr, nullptr);
  const auto step = run(rep_dev, nullptr, &j, &step_one);
  const auto seg = run(rep_dev, nullptr, &each, &seg_one);
  EXPECT_TRUE(std::get<4>(full));
  EXPECT_TRUE(step_one);
  EXPECT_FALSE(seg_one);
  EXPECT_EQ(step, full);
  EXPECT_EQ(seg, full);
}

namespace {

/// Everything a hung trial exposes: every LaunchResult field but the replay
/// diagnostics, the memory image, and the control block's SDC bit and
/// check and violation counts.
struct HangObs {
  gpusim::LaunchStatus status{};
  std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0, threads = 0, simt_cycles = 0,
                ecc_corrected = 0, reports = 0, reports_dropped = 0;
  bool sdc = false, cb_sdc = false, activated = false;
  std::int64_t deadlock_pc = -1, deadlock_site = -1;
  std::uint64_t checks = 0, violations = 0;
  std::vector<std::uint32_t> mem;
  bool operator==(const HangObs&) const = default;
};

struct HangRun {
  HangObs obs;
  std::uint64_t fast_forwarded = 0;
};

/// Launch `prog` on `dev` (job staged anew, then `plant` given the staged
/// arguments) with `hooks` (armed with `spec` when it is an injector and
/// `spec` is set) and, when `journal` is set, replay it.
HangRun hang_launch(
    gpusim::Device& dev, core::KernelJob& job, const kir::BytecodeProgram& prog,
    gpusim::LaunchHooks* hooks, core::ControlBlock* cb, swifi::InjectingHooks* injector,
    const swifi::FaultSpec* spec, std::uint64_t watchdog, const gpusim::LaunchJournal* journal,
    const std::function<void(gpusim::Device&, const std::vector<kir::Value>&)>& plant = {}) {
  const std::vector<kir::Value> args = job.setup(dev);
  if (plant) plant(dev, args);
  if (cb) cb->reset_results();
  if (injector) {
    if (spec)
      injector->arm(*spec);
    else
      injector->disarm();
  }
  gpusim::LaunchOptions opts;
  opts.hooks = hooks;
  opts.watchdog_instructions = watchdog;
  opts.max_workers = 1;
  opts.journal = journal;
  const gpusim::LaunchResult res = dev.launch(prog, job.config(), args, opts);
  HangRun r;
  r.obs.status = res.status;
  r.obs.instructions = res.instructions;
  r.obs.cycles = res.cycles;
  r.obs.loop_cycles = res.loop_cycles;
  r.obs.threads = res.threads;
  r.obs.simt_cycles = res.simt_cycles;
  r.obs.ecc_corrected = res.ecc_corrected;
  r.obs.reports = res.sanitizer_reports.size();
  r.obs.reports_dropped = res.sanitizer_reports_dropped;
  r.obs.sdc = res.sdc_alarm;
  r.obs.deadlock_pc = res.deadlock_pc;
  r.obs.deadlock_site = res.deadlock_site;
  r.obs.activated = injector && injector->activated();
  if (cb) {
    r.obs.cb_sdc = cb->sdc_detected();
    r.obs.checks = cb->total_checks();
    r.obs.violations = cb->total_violations();
  }
  r.obs.mem = dev.mem().image();
  r.fast_forwarded = res.fast_forwarded_instructions;
  return r;
}

/// One block of `threads` threads over a 64-word I32 buffer `buf` (zeroed)
/// and a one-word input `in` holding `input`; `buf` is the output.
std::unique_ptr<core::KernelJob> spin_job(std::uint32_t threads, std::uint32_t input = 0) {
  using B = workloads::BufferJob;
  std::vector<B::Buffer> bufs{{std::vector<std::uint32_t>(64, 0u), gpusim::AllocClass::I32Data},
                              {{input}, gpusim::AllocClass::I32Data}};
  gpusim::LaunchConfig cfg;
  cfg.block_x = threads;
  return std::make_unique<B>(std::move(bufs), std::vector<B::Arg>{B::Arg::buf(0), B::Arg::buf(1)},
                             cfg, 0, kir::DType::I32);
}

/// TPACF's write-retry loop (paper §IX.B) in four flavors: each thread
/// writes `want` through the address copy `waddr` and spins until it reads
/// `want` back, rewriting it (shared or global store) or adding 0 or 1 to
/// it (global atomic).  A fault in `waddr` points the writes elsewhere: the
/// thread then spins until the watchdog, and every rewrite but an atomic
/// add of 1 leaves memory as it was.
enum class Spin { SharedStore, GlobalStore, AtomicZero, AtomicOne };

kir::Kernel spin_kernel(Spin kind) {
  using kir::i32c;
  kir::KernelBuilder kb("spin", 64);
  auto buf = kb.param_ptr("buf");
  (void)kb.param_ptr("in");
  auto t = kb.let("t", kb.tid_x());
  auto want = kb.let("want", t + i32c(5));
  if (kind == Spin::SharedStore) {
    auto waddr = kb.let("waddr", t + i32c(0));
    kb.shstore(waddr, want);
    kb.while_loop([&] { return kb.shload_i32(t) != want; }, [&] { kb.shstore(waddr, want); });
    kb.store(buf + t, kb.shload_i32(t));
  } else {
    auto waddr = kb.let("waddr", buf + t);
    kb.store(waddr, want);
    kb.while_loop([&] { return kb.load_i32(buf + t) != want; }, [&] {
      if (kind == Spin::GlobalStore)
        kb.store(waddr, want);
      else
        kb.atomic_add(waddr, i32c(kind == Spin::AtomicZero ? 0 : 1));
    });
  }
  return kb.build();
}

/// A one-thread loop that runs while the input word is nonzero (never, in
/// the golden run with input 0) and steps `i = (i + 1) & mask` — or
/// `i = i + 1` when `mask` is 0xffffffff — and, with `check`, range-checks
/// `i` every iteration (detector 0).  Its state repeats every mask + 1
/// iterations.
kir::BytecodeProgram counter_program(std::uint32_t mask, bool check) {
  using kir::i32c;
  kir::KernelBuilder kb("counter", 0);
  auto buf = kb.param_ptr("buf");
  auto in = kb.param_ptr("in");
  auto x = kb.let("x", kb.load_i32(in));
  auto i = kb.let("i", i32c(0));
  kb.while_loop([&] { return x != i32c(0); }, [&] {
    if (mask == 0xffffffffu)
      kb.assign(i, i + i32c(1));
    else
      kb.assign(i, (i + i32c(1)) & i32c(static_cast<std::int32_t>(mask)));
  });
  kb.store(buf, i);
  kir::Kernel k = kb.build();
  if (check) {
    for (const kir::StmtPtr& s : k.body)
      if (s->kind == kir::StmtKind::While) {
        auto rc = std::make_shared<kir::Stmt>();
        rc->kind = kir::StmtKind::RangeCheck;
        rc->detector_id = 0;
        rc->value = i.node();
        s->body.push_back(std::move(rc));
      }
  }
  return kir::lower(k);
}

/// A one-loop program's shape: a jump-free prologue of `head` instructions,
/// then a loop of `period` instructions whose back-edge (the last Jmp)
/// returns to pc `head` — a straight-line body, so its i-th back-edge
/// leaves the thread's budget at head + i * period.
struct LoopShape {
  std::uint64_t head = 0, period = 0;
  bool ok = false;

  explicit LoopShape(const kir::BytecodeProgram& prog) {
    std::uint64_t jmp = 0;
    for (std::uint64_t pc = 0; pc < prog.code.size(); ++pc)
      if (prog.code[pc].op == kir::OpCode::Jmp && prog.code[pc].aux < pc) {
        head = prog.code[pc].aux;
        jmp = pc;
      }
    ok = jmp > 0;
    for (std::uint64_t pc = 0; pc < prog.code.size(); ++pc) {
      const kir::OpCode op = prog.code[pc].op;
      const bool jump = op == kir::OpCode::Jmp || op == kir::OpCode::Jz;
      if (jump && (pc < head || (pc > head && pc < jmp && prog.code[pc].aux <= jmp)))
        ok = false;  // a prologue jump, or a branch back inside the body
    }
    period = jmp - head + 1;
  }
  /// The budget at the first back-edge past a golden segment ending at
  /// budget `golden_end`: where a replayed hang probe first stops.
  [[nodiscard]] std::uint64_t first_stop_after(std::uint64_t golden_end) const {
    std::uint64_t i = 1;
    while (head + i * period <= golden_end) ++i;
    return head + i * period;
  }
  /// Instructions a fast-forward proven at that stop skips.
  [[nodiscard]] std::uint64_t skipped(std::uint64_t golden_end, std::uint64_t watchdog) const {
    const std::uint64_t b = first_stop_after(golden_end);
    const std::uint64_t whole = watchdog + 1 < b ? 0 : (watchdog + 1 - b) / period;
    return whole >= 2 ? (whole - 1) * period : 0;
  }
};

}  // namespace

// Hang fast-forward (DESIGN §10): a replayed slice past its golden segment
// whose loop is proven to run until the watchdog with no effect — its
// branches, addresses and divisors affine in the period number and proven
// up to the watchdog, every write leaving its word as it was, no hook call
// (CounterLoopHangsFastForward) — charges whole periods at once.  Every
// case compares the replay with the journal-less launch on every
// LaunchResult field, the memory image and the control block.
TEST(Replay, HungThreadsFastForwardOnlyWhenProvablyHung) {
  // (1) The spin loops on FI and FI&FT builds, a fault in `waddr`.
  for (const Spin kind : {Spin::SharedStore, Spin::GlobalStore, Spin::AtomicZero,
                          Spin::AtomicOne}) {
    const core::KernelVariants v = core::build_variants(spin_kernel(kind));
    gpusim::Device prof_dev;
    const auto prof_job = spin_job(4);
    const core::ProfileData pd = core::profile(prof_dev, v, {prof_job.get()});
    for (const bool fift : {false, true}) {
      const kir::BytecodeProgram& prog = fift ? v.fift : v.fi;
      const std::string what = std::string("spin ") + std::to_string(static_cast<int>(kind)) +
                               (fift ? " fi+ft" : " fi");
      std::uint32_t site = ~0u;
      for (const kir::FISite& s : prog.fi_sites)
        if (s.var_name == "waddr" && !s.dead_window) site = s.site_id;
      ASSERT_NE(site, ~0u) << what;
      gpusim::Device gdev, fdev, rdev;
      const auto gjob = spin_job(4), fjob = spin_job(4), rjob = spin_job(4);
      std::unique_ptr<core::ControlBlock> gcb, fcb, rcb;
      if (fift) {
        gcb = core::make_configured_control_block(prog, pd);
        fcb = core::make_configured_control_block(prog, pd);
        rcb = core::make_configured_control_block(prog, pd);
      }
      const swifi::GoldenRun gold = swifi::golden_run(gdev, prog, *gjob, gcb.get(), 1);
      ASSERT_TRUE(gold.journal) << what;
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
      swifi::InjectingHooks fh(prog, fcb.get()), rh(prog, rcb.get());
      for (std::uint32_t thread = 0; thread < 4; ++thread)
        for (const std::uint32_t mask : {1u << 4, 1u << 5}) {
          const swifi::FaultSpec spec{site, thread, 1, mask};
          const HangRun full = hang_launch(fdev, *fjob, prog, &fh, fcb.get(), &fh, &spec,
                                           watchdog, nullptr);
          const HangRun rep = hang_launch(rdev, *rjob, prog, &rh, rcb.get(), &rh, &spec,
                                          watchdog, gold.journal.get());
          const std::string at = what + " thread " + std::to_string(thread) + " mask " +
                                 std::to_string(mask);
          EXPECT_EQ(full.obs.status, gpusim::LaunchStatus::Hang) << at;
          EXPECT_EQ(rep.obs, full.obs) << at;
          EXPECT_EQ(full.fast_forwarded, 0u) << at;
          if (kind == Spin::AtomicOne)
            EXPECT_EQ(rep.fast_forwarded, 0u) << at;
          else
            EXPECT_GT(rep.fast_forwarded, watchdog / 2) << at;
        }
    }
  }

  // (2) One-thread counter loops the golden run never enters and a trial
  // input of 1 spins in, the control block as hooks.  Each loop's condition
  // is invariant and its counter feeds no branch, address or divisor: the
  // counter-loop proof skips it at the first stop, whether the state
  // repeats every 128 or 256 iterations or (a plain counter) never.  A range
  // check in the loop is a hook call: nothing skips it.
  const auto counter = [&](std::uint32_t mask, bool check, std::uint64_t watchdog,
                           const char* what) {
    const kir::BytecodeProgram prog = counter_program(mask, check);
    gpusim::Device gdev, fdev, rdev;
    const auto gjob = spin_job(1, 0), fjob = spin_job(1, 1), rjob = spin_job(1, 1);
    core::ControlBlock gcb(prog), fcb(prog), rcb(prog);
    const swifi::GoldenRun gold = swifi::golden_run(gdev, prog, *gjob, &gcb, 1);
    EXPECT_TRUE(gold.journal) << what;
    const HangRun full =
        hang_launch(fdev, *fjob, prog, &fcb, &fcb, nullptr, nullptr, watchdog, nullptr);
    const HangRun rep = hang_launch(rdev, *rjob, prog, &rcb, &rcb, nullptr, nullptr, watchdog,
                                    gold.journal.get());
    EXPECT_EQ(full.obs.status, gpusim::LaunchStatus::Hang) << what;
    EXPECT_EQ(rep.obs, full.obs) << what;
    EXPECT_EQ(full.fast_forwarded, 0u) << what;
    return std::pair(rep.fast_forwarded, gold.journal ? gold.journal->segments.at(0).budget_after
                                                      : 0);
  };
  constexpr std::uint64_t kWatchdog = 1'000'000;
  EXPECT_GT(counter(127, false, kWatchdog, "period 128").first, kWatchdog / 2);
  EXPECT_GT(counter(255, false, kWatchdog, "period 256").first, kWatchdog / 2);
  EXPECT_GT(counter(0xffffffffu, false, kWatchdog, "counter").first, kWatchdog / 2);
  EXPECT_EQ(counter(0, true, kWatchdog, "range check").first, 0u);

  // (3) How many periods a period-1 loop skips: the proof holds at the
  // first stop past the golden segment's end (LoopShape), budget b, and
  // floor((watchdog + 1 - b) / P) - 1 periods of P are skipped.
  const LoopShape shape(counter_program(0, false));
  ASSERT_TRUE(shape.ok);
  const std::uint64_t golden_end = counter(0, false, kWatchdog, "period 1").second;
  const std::uint64_t b = shape.first_stop_after(golden_end), period = shape.period;
  for (const std::uint64_t watchdog :
       {b - 1, b, b + 2 * period - 2, b + 2 * period - 1, b + 7 * period + 3, kWatchdog})
    EXPECT_EQ(counter(0, false, watchdog, "period 1").first,
              shape.skipped(golden_end, watchdog))
        << "watchdog " << watchdog << " b " << b << " period " << period;

  // (4) TPACF's write-retry livelock itself: faults in `waddr` (site 30),
  // FI and FI&FT builds, tiny and small scale.
  for (const Scale scale : {Scale::Tiny, Scale::Small}) {
    const auto w = make_tpacf();
    const Dataset ds = w->make_dataset(kDatasetSeed, scale);
    const core::KernelVariants v = core::build_variants(w->build_kernel(scale));
    gpusim::Device prof_dev;
    const auto prof_job = w->make_job(ds);
    const core::ProfileData pd = core::profile(prof_dev, v, {prof_job.get()});
    for (const bool fift : {false, true}) {
      const kir::BytecodeProgram& prog = fift ? v.fift : v.fi;
      std::uint32_t site = ~0u, index = 0;
      for (std::uint32_t i = 0; i < prog.fi_sites.size(); ++i)
        if (prog.fi_sites[i].var_name == "waddr" && !prog.fi_sites[i].dead_window) {
          site = prog.fi_sites[i].site_id;
          index = i;
        }
      ASSERT_EQ(site, 30u);
      gpusim::Device gdev, fdev, rdev;
      const auto gjob = w->make_job(ds), fjob = w->make_job(ds), rjob = w->make_job(ds);
      std::unique_ptr<core::ControlBlock> gcb, fcb, rcb;
      if (fift) {
        gcb = core::make_configured_control_block(prog, pd);
        fcb = core::make_configured_control_block(prog, pd);
        rcb = core::make_configured_control_block(prog, pd);
      }
      const swifi::GoldenRun gold = swifi::golden_run(gdev, prog, *gjob, gcb.get(), 1);
      ASSERT_TRUE(gold.journal);
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
      swifi::InjectingHooks fh(prog, fcb.get()), rh(prog, rcb.get());
      std::uint32_t hangs = 0, fast = 0, tried = 0;
      for (std::uint32_t t = 0; t < pd.exec_counts[index].size() && tried < 3; ++t) {
        const std::uint32_t n = pd.exec_counts[index][t];
        if (n == 0) continue;
        ++tried;
        for (const std::uint32_t occ : {1u, n}) {
          const swifi::FaultSpec spec{site, t, occ, 1u << (4 + tried)};
          const HangRun full = hang_launch(fdev, *fjob, prog, &fh, fcb.get(), &fh, &spec,
                                           watchdog, nullptr);
          const HangRun rep = hang_launch(rdev, *rjob, prog, &rh, rcb.get(), &rh, &spec,
                                          watchdog, gold.journal.get());
          // Applied segments make no detector calls (LaunchOptions::journal):
          // here only the SDC bits compare.
          HangObs expect = full.obs;
          expect.checks = rep.obs.checks;
          expect.violations = rep.obs.violations;
          EXPECT_EQ(rep.obs, expect) << "TPACF thread " << t << " occurrence " << occ;
          hangs += full.obs.status == gpusim::LaunchStatus::Hang;
          fast += rep.fast_forwarded > 0;
        }
      }
      EXPECT_GT(hangs, 0u) << (fift ? "fi+ft" : "fi");
      EXPECT_EQ(fast, hangs) << (fift ? "fi+ft" : "fi");
    }
  }
}

namespace {

/// Hand-built counter loops: one thread runs `for (i = in[0]; i < 4; ++i)
/// body` (Wraparound: `while (i > 0) i += 1 << 20`) over `buf`.  The golden
/// run (input 0) leaves the loop after four iterations; a trial input with
/// the sign bit set — a 0x80000000 mask on the counter — makes i negative,
/// so the loop runs until the watchdog while `buf + i * stride` (stride a
/// multiple of 2) wraps back in bounds.
enum class Loop {
  AffineLoads,    ///< CP: facc += buf[i * 4] * buf[i * 4 + 1]
  Nested,         ///< SAD: an inner loop of 4 over buf[i * 8 + x]
  NoMemory,       ///< RPES: float math on i alone
  GlobalStore,    ///< buf[i & 63] = i
  SharedStore,    ///< shared[i & 63] = i
  Rewrite,        ///< buf[5] = 6 (the value it holds)
  AtomicZero,     ///< atomic buf[5] += 0
  FlipTwice,      ///< buf[5] = 0; buf[5] = 6 (its golden value)
  Detector,       ///< a range check on acc (detector 0)
  Wraparound,     ///< exits once i wraps negative, long before the watchdog
  LeavesArena,    ///< loads buf[i * 4096]: leaves the arena before the watchdog
  LoadedDivisor,  ///< acc += 7 / buf[i * 4]
  DataBranch,     ///< if (buf[i * 4] > 3) ++acc
};

kir::BytecodeProgram loop_program(Loop kind) {
  using kir::f32c;
  using kir::i32c;
  kir::KernelBuilder kb("loop", kind == Loop::SharedStore ? 64 : 0);
  auto buf = kb.param_ptr("buf");
  auto in = kb.param_ptr("in");
  auto i = kb.let("i", kb.load_i32(in));
  auto acc = kb.let("acc", i32c(0));
  auto facc = kb.let("facc", f32c(0.0f));
  const bool wrap = kind == Loop::Wraparound;
  kb.while_loop([&] { return wrap ? i > i32c(0) : i < i32c(4); }, [&] {
    switch (kind) {
      case Loop::AffineLoads: {
        auto base = kb.let("base", buf + i * i32c(4));
        kb.assign(facc, facc + kb.load_f32(base) * kb.load_f32(base + i32c(1)));
        break;
      }
      case Loop::Nested:
        kb.for_loop("x", i32c(0), i32c(4), [&](kir::ExprH x) {
          auto at = kb.let("at", buf + i * i32c(8) + x);
          kb.assign(acc, acc + kir::abs_(kb.load_i32(at) - kb.load_i32(at + i32c(1))));
        });
        break;
      case Loop::NoMemory: {
        auto xr = kb.let("xr", kir::to_f32(i + i32c(1)) * f32c(0.5f));
        kb.assign(facc, facc + xr / (xr * xr + f32c(0.3f)));
        break;
      }
      case Loop::GlobalStore: kb.store(buf + (i & i32c(63)), i); break;
      case Loop::SharedStore: kb.shstore(i & i32c(63), i); break;
      case Loop::Rewrite: kb.store(buf + i32c(5), i32c(6)); break;
      case Loop::AtomicZero: kb.atomic_add(buf + i32c(5), i32c(0)); break;
      case Loop::FlipTwice:
        kb.store(buf + i32c(5), i32c(0));
        kb.store(buf + i32c(5), i32c(6));
        break;
      case Loop::Detector:
      case Loop::Wraparound: kb.assign(acc, acc ^ i); break;
      case Loop::LeavesArena: kb.assign(acc, acc + kb.load_i32(buf + i * i32c(4096))); break;
      case Loop::LoadedDivisor:
        kb.assign(acc, acc + i32c(7) / kb.load_i32(buf + i * i32c(4)));
        break;
      case Loop::DataBranch:
        kb.if_then(kb.load_i32(buf + i * i32c(4)) > i32c(3),
                   [&] { kb.assign(acc, acc + i32c(1)); });
        break;
    }
    kb.assign(i, i + i32c(wrap ? 1 << 20 : 1));
  });
  kb.store(buf, acc);
  kb.store(buf + i32c(1), facc);
  kb.store(buf + i32c(2), i);
  kir::Kernel k = kb.build();
  if (kind == Loop::Detector)
    for (const kir::StmtPtr& st : k.body)
      if (st->kind == kir::StmtKind::While) {
        auto rc = std::make_shared<kir::Stmt>();
        rc->kind = kir::StmtKind::RangeCheck;
        rc->detector_id = 0;
        rc->value = acc.node();
        st->body.push_back(std::move(rc));
      }
  return kir::lower(k);
}

/// One thread over a 64-word I32 buffer `buf` holding 1..7 repeating and a
/// one-word input `in` holding `input`; `buf` is the output.
std::unique_ptr<core::KernelJob> loop_job(std::uint32_t input) {
  using B = workloads::BufferJob;
  std::vector<std::uint32_t> data(64);
  for (std::uint32_t w = 0; w < data.size(); ++w) data[w] = w % 7 + 1;
  std::vector<B::Buffer> bufs{{std::move(data), gpusim::AllocClass::I32Data},
                              {{input}, gpusim::AllocClass::I32Data}};
  gpusim::LaunchConfig cfg;
  cfg.block_x = 1;
  return std::make_unique<B>(std::move(bufs), std::vector<B::Arg>{B::Arg::buf(0), B::Arg::buf(1)},
                             cfg, 0, kir::DType::I32);
}

}  // namespace

// Counter-loop fast-forward (DESIGN §10, "Hung threads"): a replayed loop
// whose branch conditions, load addresses and divisors are affine in the
// period number and keep their direction, stay in the arena clear of latent
// pairs, resp. stay nonzero up to the watchdog, and whose period has no
// effect — every write rewrites an invariant word, clear of latent pairs,
// with the value it holds — is skipped at its first stop past the golden
// segment.  Each case runs its hand-built loop with a sign-bit counter,
// replayed and as a full launch, and must match it on every LaunchResult
// field and the memory image; the loops with a straight-line body skip
// exactly whole - 1 periods.
TEST(Replay, CounterLoopHangsFastForward) {
  constexpr std::uint64_t kWatchdog = 200'000;
  struct Case {
    Loop kind;
    const char* what;
    gpusim::LaunchStatus status;
    bool fast;
    /// On a Hsiao device, `strikes` upsets of `mask` planted in word `word`
    /// of `buf`.  Two cancel but leave the pair listed as latent; one in a
    /// rewritten word is corrected by the loop's first rewrite.
    std::uint32_t word = 0, mask = 0, strikes = 0;
  };
  using S = gpusim::LaunchStatus;
  const Case cases[] = {
      {Loop::AffineLoads, "affine loads", S::Hang, true},
      {Loop::Nested, "nested", S::Hang, true},
      {Loop::NoMemory, "no memory", S::Hang, true},
      {Loop::GlobalStore, "global store", S::Hang, false},
      {Loop::SharedStore, "shared store", S::Hang, false},
      {Loop::Rewrite, "invariant rewrite", S::Hang, true},
      {Loop::AtomicZero, "atomic add of 0", S::Hang, true},
      {Loop::FlipTwice, "two stores flip a word", S::Hang, false},
      {Loop::Rewrite, "rewrite, latent pair", S::Hang, false, 5, 1u << 9, 2},
      {Loop::AtomicZero, "atomic add of 0, latent pair", S::Hang, false, 5, 1u << 9, 2},
      {Loop::Rewrite, "rewrite, upset corrected", S::Hang, true, 5, 1u << 9, 1},
      {Loop::Detector, "detector", S::Hang, false},
      {Loop::Wraparound, "wraparound", S::Ok, false},
      {Loop::LeavesArena, "leaves arena", S::CrashOutOfBounds, false},
      // Period 500 loads word 2000 of `buf`.
      {Loop::AffineLoads, "latent pair", S::Hang, false, 2000, 1u << 9, 1},
      {Loop::LoadedDivisor, "loaded divisor", S::CrashDivByZero, false},
      {Loop::DataBranch, "data branch", S::Hang, false},
  };
  for (const Case& c : cases) {
    const kir::BytecodeProgram prog = loop_program(c.kind);
    gpusim::DeviceProps props;
    if (c.strikes != 0) props.protection = gpusim::ecc::Scheme::Hsiao;
    gpusim::Device gdev(props), fdev(props), rdev(props);
    const auto gjob = loop_job(0);
    core::ControlBlock gcb(prog), fcb(prog), rcb(prog);
    const bool hooks = c.kind == Loop::Detector;
    const swifi::GoldenRun gold = swifi::golden_run(gdev, prog, *gjob, hooks ? &gcb : nullptr, 1);
    ASSERT_TRUE(gold.journal) << c.what;
    const std::uint32_t input = c.kind == Loop::Wraparound ? 1u : 0x80000000u;
    const auto fjob = loop_job(input), rjob = loop_job(input);
    const auto plant = [&](gpusim::Device& dev, const std::vector<kir::Value>& args) {
      for (std::uint32_t n = 0; n < c.strikes; ++n)
        dev.mem().corrupt_word(args[0].bits + c.word, c.mask);
    };
    const HangRun full = hang_launch(fdev, *fjob, prog, hooks ? &fcb : nullptr, &fcb, nullptr,
                                     nullptr, kWatchdog, nullptr, plant);
    const HangRun rep = hang_launch(rdev, *rjob, prog, hooks ? &rcb : nullptr, &rcb, nullptr,
                                    nullptr, kWatchdog, gold.journal.get(), plant);
    EXPECT_EQ(full.obs.status, c.status) << c.what;
    EXPECT_EQ(full.obs.ecc_corrected, c.strikes % 2) << c.what;
    EXPECT_EQ(rep.obs, full.obs) << c.what;
    EXPECT_EQ(full.fast_forwarded, 0u) << c.what;
    if (!c.fast) {
      EXPECT_EQ(rep.fast_forwarded, 0u) << c.what;
      continue;
    }
    EXPECT_GT(rep.fast_forwarded, kWatchdog / 2) << c.what;
    if (c.kind == Loop::Nested) continue;  // an inner loop: not a LoopShape
    const LoopShape shape(prog);
    ASSERT_TRUE(shape.ok) << c.what;
    EXPECT_EQ(rep.fast_forwarded, shape.skipped(gold.journal->segments.at(0).budget_after,
                                                kWatchdog))
        << c.what;
  }
}

namespace {

/// Journal segments in the serial order they ran: block by block, and in
/// each barrier epoch every thread of the block that has a segment there,
/// in index order.
std::vector<std::uint32_t> serial_order(const gpusim::LaunchJournal& j,
                                        std::uint32_t threads_per_block) {
  std::vector<std::uint32_t> order;
  const auto slots = static_cast<std::uint32_t>(j.thread_begin.size() - 1);
  for (std::uint32_t b = 0; b * threads_per_block < slots; ++b)
    for (std::uint32_t k = 0;; ++k) {
      bool any = false;
      for (std::uint32_t i = 0; i < threads_per_block; ++i) {
        const std::uint32_t slot = b * threads_per_block + i;
        if (j.thread_begin[slot] + k < j.thread_begin[slot + 1]) {
          order.push_back(j.thread_begin[slot] + k);
          any = true;
        }
      }
      if (!any) break;
    }
  return order;
}

/// A two-thread kernel over three shared words: thread 0 first stores the
/// input word to shared[0] (0 in the golden run: a store of the value the
/// word holds); after a barrier thread 1 clears shared[0] and bumps
/// shared[1] and shared[2] twice; after another, thread 0 copies all three
/// to `buf`.
kir::BytecodeProgram clear_then_update_program() {
  using kir::i32c;
  kir::KernelBuilder kb("clear_update", 3);
  auto buf = kb.param_ptr("buf");
  auto in = kb.param_ptr("in");
  auto t = kb.let("t", kb.tid_x());
  kb.if_then(t == i32c(0), [&] { kb.shstore(i32c(0), kb.load_i32(in)); });
  kb.barrier();
  kb.if_then(t == i32c(1), [&] {
    kb.shstore(i32c(0), i32c(0));
    for (int rep = 0; rep < 2; ++rep)
      for (int w = 1; w < 3; ++w) kb.shstore(i32c(w), kb.shload_i32(i32c(w)) + i32c(w));
  });
  kb.barrier();
  kb.if_then(t == i32c(0), [&] {
    for (int w = 0; w < 3; ++w) kb.store(buf + i32c(w), kb.shload_i32(i32c(w)));
  });
  return kir::lower(kb.build());
}

}  // namespace

// Net shared writes (DESIGN §10): an applied segment writes, per shared word
// it stores, only its last store, and of those only the ones that change
// the word's golden value unless the delta set holds shared words.  (1) On
// TPACF's tiny and small journals and the clear-then-update kernel's, each
// segment's net list equals a serial re-application of its ordered list,
// those that change the golden image first.  (2) A trial whose interpreted
// slice changes shared[0], which a later applied segment rewrites with its
// golden value, must still read that value back: the replay matches the
// full launch.
TEST(Replay, NetSharedWritesMatchTheOrderedWrites) {
  const auto check = [](const gpusim::LaunchJournal& j, std::uint32_t threads_per_block,
                        std::uint32_t shared_words, const std::string& what) {
    std::vector<std::uint32_t> image;
    std::uint32_t block = ~0u;
    std::size_t ordered = 0, net = 0, changes = 0;
    for (const std::uint32_t g : serial_order(j, threads_per_block)) {
      const auto slot = static_cast<std::uint32_t>(
          std::upper_bound(j.thread_begin.begin(), j.thread_begin.end(), g) -
          j.thread_begin.begin() - 1);
      if (slot / threads_per_block != block) {
        block = slot / threads_per_block;
        image.assign(shared_words, 0);
      }
      const gpusim::LaunchJournal::Segment& s = j.segments[g];
      std::vector<std::uint32_t> after = image, from_net = image;
      for (std::uint32_t w = 0; w < s.shared_writes; ++w) {
        const auto& x = j.shared_writes[s.first_shared_write + w];
        after[x.addr] = x.value;
      }
      std::vector<std::uint32_t> seen;
      for (std::uint32_t w = 0; w < s.net_shared_writes; ++w) {
        const auto& x = j.net_shared_writes[s.first_net_shared_write + w];
        EXPECT_EQ(x.value != image[x.addr], w < s.net_shared_changes) << what << " segment " << g;
        seen.push_back(x.addr);
        from_net[x.addr] = x.value;
      }
      std::sort(seen.begin(), seen.end());
      EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end()) << what;
      std::vector<std::uint32_t> stored;
      for (std::uint32_t w = 0; w < s.shared_writes; ++w)
        stored.push_back(j.shared_writes[s.first_shared_write + w].addr);
      std::sort(stored.begin(), stored.end());
      stored.erase(std::unique(stored.begin(), stored.end()), stored.end());
      EXPECT_EQ(seen, stored) << what << " segment " << g;
      EXPECT_EQ(from_net, after) << what << " segment " << g;
      image = after;
      ordered += s.shared_writes;
      net += s.net_shared_writes;
      changes += s.net_shared_changes;
    }
    EXPECT_EQ(ordered, j.shared_writes.size()) << what;
    EXPECT_EQ(net, j.net_shared_writes.size()) << what;
    EXPECT_LT(changes, net) << what;
  };

  // (1) TPACF, tiny and small, FI build.
  for (const Scale scale : {Scale::Tiny, Scale::Small}) {
    const auto w = make_tpacf();
    const Dataset ds = w->make_dataset(kDatasetSeed, scale);
    const kir::BytecodeProgram prog =
        core::build_variants(w->build_kernel(scale)).fi;
    gpusim::Device dev;
    const auto job = w->make_job(ds);
    const swifi::GoldenRun gold = swifi::golden_run(dev, prog, *job, nullptr, 1);
    ASSERT_TRUE(gold.journal);
    const gpusim::LaunchConfig cfg = job->config();
    check(*gold.journal, cfg.block_x * cfg.block_y, prog.shared_mem_words,
          scale == Scale::Tiny ? "TPACF tiny" : "TPACF small");
  }

  // (2) The clear-then-update kernel, input 0 golden and 7 in the trial.
  const kir::BytecodeProgram prog = clear_then_update_program();
  gpusim::Device gdev, fdev, rdev;
  const auto gjob = spin_job(2, 0);
  const swifi::GoldenRun gold = swifi::golden_run(gdev, prog, *gjob, nullptr, 1);
  ASSERT_TRUE(gold.journal);
  check(*gold.journal, 2, 3, "clear then update");
  const auto run = [&](gpusim::Device& dev, const gpusim::LaunchJournal* journal) {
    const auto job = spin_job(2, 7);
    const std::vector<kir::Value> args = job->setup(dev);
    gpusim::LaunchOptions opts;
    opts.max_workers = 1;
    opts.journal = journal;
    const gpusim::LaunchResult res = dev.launch(prog, job->config(), args, opts);
    return std::tuple(res.status, res.instructions, res.cycles, res.replayed_segments,
                      dev.mem().image());
  };
  const auto full = run(fdev, nullptr);
  const auto rep = run(rdev, gold.journal.get());
  EXPECT_EQ(std::get<0>(rep), std::get<0>(full));
  EXPECT_EQ(std::get<1>(rep), std::get<1>(full));
  EXPECT_EQ(std::get<2>(rep), std::get<2>(full));
  EXPECT_EQ(std::get<4>(rep), std::get<4>(full));
  EXPECT_GT(std::get<3>(rep), 0u);  // thread 1's clear was applied
}

namespace {

/// A register fault at every executed FI site of `prog`, on the site's
/// first executing thread, replayed against `journal` (null: full
/// launches).  Returns the number of sites.
std::size_t fault_every_site(const Built& b, const kir::BytecodeProgram& prog, Rig& r,
                             const swifi::GoldenRun& gold, const gpusim::LaunchJournal* journal) {
  const std::uint64_t watchdog = swifi::campaign_watchdog(gold, swifi::CampaignConfig{});
  std::size_t sites = 0;
  for (std::uint32_t si = 0; si < prog.fi_sites.size() && si < b.pd.exec_counts.size(); ++si)
    for (std::uint32_t t = 0; t < b.pd.exec_counts[si].size(); ++t) {
      if (b.pd.exec_counts[si][t] == 0) continue;
      const swifi::FaultSpec spec{prog.fi_sites[si].site_id, t, 1, 1u << 3};
      (void)swifi::run_one_fault(r.dev, prog, *r.job, r.cb.get(), spec, gold.output,
                                 b.w->requirement(), watchdog, 1,
                                 gpusim::SharedShadow::kMaxReportsPerBlock, r.stage.get(),
                                 journal);
      ++sites;
      break;
    }
  return sites;
}

}  // namespace

// A campaign compiles its write-tracking streams once per plan, however
// many FI sites it arms: one device runs CP's golden run (its recording
// stream) and a register fault at every executed FI site of the FI and
// FI&FT builds, replayed; the trials add the two write-tracking streams
// (FIHooks compiled away, FIHooks live) and nothing else.
TEST(Replay, WriteTrackingStreamsCompileOncePerPlan) {
  const Built b = build(make_cp());
  for (const bool fift : {false, true}) {
    const kir::BytecodeProgram& prog = fift ? b.v.fift : b.v.fi;
    Rig r(b, prog, fift);
    const swifi::GoldenRun gold = swifi::golden_run(r.dev, prog, *r.job, r.cb.get(), 1);
    ASSERT_TRUE(gold.journal);
    EXPECT_EQ(r.dev.stream_compiles(), 1u);
    EXPECT_GT(fault_every_site(b, prog, r, gold, gold.journal.get()), 10u)
        << (fift ? "fi+ft" : "fi");
    EXPECT_EQ(r.dev.stream_compiles(), 3u) << (fift ? "fi+ft" : "fi");
    EXPECT_EQ(r.dev.plan_cache_misses(), 1u) << (fift ? "fi+ft" : "fi");
  }
}

// So do journal-less trials, on a plain and on a sanitized device: every
// thread but the armed one runs the plan's stream with FIHooks compiled
// away, the armed thread the one with them live, so a register fault at
// every executed FI site of CP's FI and FI&FT builds compiles those two
// streams of the device's memory mode and nothing else.  The plain
// device's golden run records (its recording stream); the sanitized one's
// cannot, and runs the sanitized stream without FIHooks.
TEST(Replay, JournalLessTrialsCompileTwoStreamsPerPlan) {
  const Built b = build(make_cp());
  for (const bool fift : {false, true})
    for (const bool sanitize : {false, true}) {
      const std::string arm = std::string(fift ? "fi+ft" : "fi") + (sanitize ? " sanitized" : "");
      const kir::BytecodeProgram& prog = fift ? b.v.fift : b.v.fi;
      Rig r(b, prog, fift, {}, gpusim::ExecEngine::Threaded, sanitize);
      const swifi::GoldenRun gold = swifi::golden_run(r.dev, prog, *r.job, r.cb.get(), 1);
      EXPECT_EQ(gold.journal != nullptr, !sanitize) << arm;
      const std::uint64_t golden_streams = r.dev.stream_compiles();
      EXPECT_EQ(golden_streams, 1u) << arm;
      EXPECT_GT(fault_every_site(b, prog, r, gold, nullptr), 10u) << arm;
      EXPECT_EQ(r.dev.stream_compiles() - golden_streams, sanitize ? 1u : 2u) << arm;
      EXPECT_EQ(r.dev.plan_cache_misses(), 1u) << arm;
    }
}
