// Tests for the Hauberk translator (Table I): semantic transparency of the
// instrumentation, detector placement, Profiler/FT/FI variants, and the
// end-to-end profile -> configure -> detect pipeline.
#include <gtest/gtest.h>

#include <functional>
#include <span>

#include "gpusim/device.hpp"
#include "hauberk/runtime.hpp"
#include "hauberk/translator.hpp"
#include "kir/builder.hpp"
#include "kir/printer.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::core;
using namespace hauberk::workloads;

namespace {

std::vector<std::string> hpc_names() {
  std::vector<std::string> n;
  for (const auto& w : hpc_suite()) n.push_back(w->name());
  return n;
}

std::unique_ptr<Workload> by_name(const std::string& name) {
  for (auto& w : hpc_suite())
    if (w->name() == name) return std::move(w);
  for (auto& w : graphics_suite())
    if (w->name() == name) return std::move(w);
  return nullptr;
}

struct RunOut {
  gpusim::LaunchResult res;
  ProgramOutput out;
};

RunOut run(gpusim::Device& dev, const kir::BytecodeProgram& prog, KernelJob& job,
           gpusim::LaunchHooks* hooks = nullptr) {
  const auto args = job.setup(dev);
  gpusim::LaunchOptions opts;
  opts.hooks = hooks;
  RunOut r;
  r.res = dev.launch(prog, job.config(), args, opts);
  if (r.res.status == gpusim::LaunchStatus::Ok) r.out = job.read_output(dev);
  return r;
}

class TranslatorSuite : public ::testing::TestWithParam<std::string> {};

}  // namespace

TEST_P(TranslatorSuite, FtInstrumentationIsSemanticallyTransparent) {
  auto w = by_name(GetParam());
  const auto ds = w->make_dataset(11, Scale::Tiny);
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto base = run(dev, v.baseline, *job);
  ASSERT_EQ(base.res.status, gpusim::LaunchStatus::Ok);
  ControlBlock cb(v.ft);
  const auto ft = run(dev, v.ft, *job, &cb);
  ASSERT_EQ(ft.res.status, gpusim::LaunchStatus::Ok) << w->name();
  EXPECT_EQ(ft.out.words, base.out.words) << "FT instrumentation changed program semantics";
}

TEST_P(TranslatorSuite, FaultFreeFtRunRaisesNoAlarm) {
  auto w = by_name(GetParam());
  const auto ds = w->make_dataset(12, Scale::Tiny);
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  gpusim::Device dev;
  auto job = w->make_job(ds);
  ControlBlock cb(v.ft);
  const auto ft = run(dev, v.ft, *job, &cb);
  ASSERT_EQ(ft.res.status, gpusim::LaunchStatus::Ok);
  EXPECT_FALSE(ft.res.sdc_alarm) << w->name();
  EXPECT_FALSE(cb.sdc_detected());
}

TEST_P(TranslatorSuite, ProfileThenDetectRaisesNoAlarmOnTrainingData) {
  // Fig. 7 pipeline with train == test: the Fig. 14 configuration.
  auto w = by_name(GetParam());
  const auto ds = w->make_dataset(13, Scale::Tiny);
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto pd = profile(dev, v, {job.get()});
  auto cb = make_configured_control_block(v.ft, pd);
  const auto ft = run(dev, v.ft, *job, cb.get());
  ASSERT_EQ(ft.res.status, gpusim::LaunchStatus::Ok);
  EXPECT_FALSE(ft.res.sdc_alarm) << w->name();
  EXPECT_GT(cb->total_checks(), 0u) << "detectors must actually fire checks";
}

TEST_P(TranslatorSuite, ConfiguredDetectorCatchesGrossCorruption) {
  // If a protected accumulator is wildly off, the range check must fire.
  auto w = by_name(GetParam());
  const auto ds = w->make_dataset(14, Scale::Tiny);
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  if (v.ft_report.loop_detectors.empty()) GTEST_SKIP() << "no loop detectors";
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto pd = profile(dev, v, {job.get()});
  auto cb = make_configured_control_block(v.ft, pd);
  // Sanity-check the detector machinery directly: a value far outside the
  // profiled range must be flagged.
  bool fired = false;
  for (const auto& d : cb->detectors()) {
    if (d.meta.is_iteration_check || !d.configured) continue;
    fired |= cb->check_range(d.meta.id, kir::Value::f32(3.4e37f));
  }
  EXPECT_TRUE(fired) << w->name();
}

TEST_P(TranslatorSuite, VariantsHaveExpectedInstrumentation) {
  auto w = by_name(GetParam());
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  // FI build exposes injection sites; profiler counts match.
  EXPECT_GT(v.fi.fi_sites.size(), 0u);
  EXPECT_EQ(v.fi.fi_sites.size(), v.profiler.fi_sites.size());
  for (std::size_t i = 0; i < v.fi.fi_sites.size(); ++i) {
    EXPECT_EQ(v.fi.fi_sites[i].site_id, v.profiler.fi_sites[i].site_id);
    EXPECT_EQ(v.fi.fi_sites[i].var, v.profiler.fi_sites[i].var);
  }
  // Baseline carries no instrumentation.
  EXPECT_TRUE(v.baseline.fi_sites.empty());
  EXPECT_TRUE(v.baseline.detectors.empty());
  // FT and profiler agree on detector ids for value checks.
  EXPECT_EQ(v.ft_report.loop_detectors.size(), v.profiler_report.loop_detectors.size());
  for (std::size_t i = 0; i < v.ft_report.loop_detectors.size(); ++i) {
    EXPECT_EQ(v.ft_report.loop_detectors[i].value_detector,
              v.profiler_report.loop_detectors[i].value_detector);
    EXPECT_EQ(v.ft_report.loop_detectors[i].var, v.profiler_report.loop_detectors[i].var);
  }
}

TEST_P(TranslatorSuite, FiftOutputMatchesBaselineWithoutActiveFaults) {
  auto w = by_name(GetParam());
  const auto ds = w->make_dataset(15, Scale::Tiny);
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto base = run(dev, v.baseline, *job);
  ControlBlock cb(v.fift);
  const auto fift = run(dev, v.fift, *job, &cb);
  ASSERT_EQ(fift.res.status, gpusim::LaunchStatus::Ok);
  EXPECT_EQ(fift.out.words, base.out.words);
  EXPECT_FALSE(fift.res.sdc_alarm);
}

INSTANTIATE_TEST_SUITE_P(HpcPrograms, TranslatorSuite, ::testing::ValuesIn(hpc_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// --- finer-grained translator facts ---

TEST(Translator, CpSelectsSelfAccumulatingEnergyWithNoInLoopAccumulator) {
  auto w = by_name("CP");
  TranslateReport rep;
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  auto k = translate(w->build_kernel(Scale::Tiny), opt, &rep);
  ASSERT_EQ(rep.loop_detectors.size(), 1u);
  EXPECT_TRUE(rep.loop_detectors[0].self_accumulating)
      << "CP's loop has self-accumulating energies; Section V.B step (ii) "
         "must skip the extra accumulator";
  EXPECT_GE(rep.loop_detectors[0].iter_detector, 0) << "trip count is derivable for CP";
}

TEST(Translator, MaxvarControlsDetectorCount) {
  auto w = by_name("CP");
  for (int maxvar : {1, 2}) {
    TranslateReport rep;
    TranslateOptions opt;
    opt.mode = LibMode::FT;
    opt.maxvar = maxvar;
    (void)translate(w->build_kernel(Scale::Tiny), opt, &rep);
    EXPECT_EQ(static_cast<int>(rep.loop_detectors.size()), maxvar);
  }
}

TEST(Translator, NonLoopOnlyAndLoopOnlyModes) {
  auto w = by_name("MRI-Q");
  TranslateOptions nl;
  nl.mode = LibMode::FT;
  nl.protect_loop = false;
  TranslateReport nl_rep;
  (void)translate(w->build_kernel(Scale::Tiny), nl, &nl_rep);
  EXPECT_GT(nl_rep.nonloop_protected, 0);
  EXPECT_TRUE(nl_rep.loop_detectors.empty());

  TranslateOptions lo;
  lo.mode = LibMode::FT;
  lo.protect_nonloop = false;
  TranslateReport lo_rep;
  (void)translate(w->build_kernel(Scale::Tiny), lo, &lo_rep);
  EXPECT_EQ(lo_rep.nonloop_protected, 0);
  EXPECT_FALSE(lo_rep.loop_detectors.empty());
}

TEST(Translator, InstrumentedSourceShowsHauberkCalls) {
  auto w = by_name("CP");
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  auto k = translate(w->build_kernel(Scale::Tiny), opt);
  const std::string src = kir::print_kernel(k);
  EXPECT_NE(src.find("HauberkCheckRange"), std::string::npos);
  EXPECT_NE(src.find("HauberkCheckEqual"), std::string::npos);
  EXPECT_NE(src.find("chksum"), std::string::npos);
  EXPECT_NE(src.find("dup-check"), std::string::npos);
}

TEST(Translator, FiSourceShowsHooks) {
  auto w = by_name("CP");
  TranslateOptions opt;
  opt.mode = LibMode::FI;
  auto k = translate(w->build_kernel(Scale::Tiny), opt);
  EXPECT_NE(kir::print_kernel(k).find("HauberkFIHook"), std::string::npos);
}

TEST(Translator, SiteMetadataCarriesHwComponents) {
  auto w = by_name("MRI-Q");
  auto v = build_variants(w->build_kernel(Scale::Tiny));
  bool saw_fpu = false, saw_alu_or_mem = false, saw_sched = false;
  for (const auto& s : v.fi.fi_sites) {
    saw_fpu |= s.hw == kir::HwComponent::FPU;
    saw_alu_or_mem |= s.hw == kir::HwComponent::ALU || s.hw == kir::HwComponent::Memory;
    saw_sched |= s.hw == kir::HwComponent::Scheduler;
  }
  EXPECT_TRUE(saw_fpu);
  EXPECT_TRUE(saw_alu_or_mem);
  EXPECT_TRUE(saw_sched) << "loop iterators must be injectable (Section IX.B hang case)";
}

TEST(Translator, TransformTimeIsRecorded) {
  auto w = by_name("RPES");
  TranslateReport rep;
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  (void)translate(w->build_kernel(Scale::Small), opt, &rep);
  EXPECT_GT(rep.transform_seconds, 0.0);
  EXPECT_LT(rep.transform_seconds, 5.0);  // paper: <0.7s per kernel on 2009 hw
}

TEST(Translator, InputKernelIsNotMutated) {
  auto w = by_name("CP");
  const auto k = w->build_kernel(Scale::Tiny);
  const std::size_t body = k.body.size();
  const std::size_t vars = k.vars.size();
  TranslateOptions opt;
  opt.mode = LibMode::FIFT;
  (void)translate(k, opt);
  EXPECT_EQ(k.body.size(), body);
  EXPECT_EQ(k.vars.size(), vars);
}

// --- degenerate-kernel edge cases (each run on both interpreter engines) ---

namespace {

/// Kernels with no protectable structure must still translate, lower, and
/// execute cleanly in every library mode.
void expect_transparent_on_both_engines(const kir::Kernel& k, const gpusim::LaunchConfig& cfg) {
  auto v = build_variants(k);
  for (const auto engine : {gpusim::ExecEngine::Threaded, gpusim::ExecEngine::Reference}) {
    const char* en = gpusim::exec_engine_name(engine);
    gpusim::Device dev;
    dev.set_engine(engine);
    const auto base = dev.launch(v.baseline, cfg, {});
    ASSERT_EQ(base.status, gpusim::LaunchStatus::Ok) << k.name << " baseline (" << en << ")";
    ControlBlock cb(v.ft);
    gpusim::LaunchOptions opts;
    opts.hooks = &cb;
    const auto ft = dev.launch(v.ft, cfg, {}, opts);
    ASSERT_EQ(ft.status, gpusim::LaunchStatus::Ok) << k.name << " FT (" << en << ")";
    EXPECT_FALSE(ft.sdc_alarm) << k.name << " (" << en << ")";
    EXPECT_FALSE(cb.sdc_detected()) << k.name << " (" << en << ")";
  }
}

}  // namespace

TEST(TranslatorEdge, EmptyKernelTranslatesAndRuns) {
  kir::KernelBuilder kb("empty");
  const auto k = kb.build();
  TranslateReport rep;
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  const auto ft = translate(k, opt, &rep);
  EXPECT_TRUE(rep.loop_detectors.empty());
  EXPECT_EQ(rep.params_protected, 0);
  EXPECT_GE(ft.body.size(), k.body.size());  // checksum scaffolding may still appear
  expect_transparent_on_both_engines(k, gpusim::LaunchConfig{});
}

TEST(TranslatorEdge, SingleInstructionKernelKeepsItsOneEffect) {
  kir::KernelBuilder kb("one");
  auto out = kb.param_ptr("out");
  kb.store(out, kir::f32c(3.5f));
  const auto k = kb.build();
  auto v = build_variants(k);
  EXPECT_EQ(v.ft_report.params_protected, 1);
  for (const auto engine : {gpusim::ExecEngine::Threaded, gpusim::ExecEngine::Reference}) {
    gpusim::Device dev;
    dev.set_engine(engine);
    const auto oa = dev.mem().alloc(1, gpusim::AllocClass::F32Data);
    const kir::Value args[] = {kir::Value::ptr(oa)};
    ControlBlock cb(v.ft);
    gpusim::LaunchOptions opts;
    opts.hooks = &cb;
    ASSERT_EQ(dev.launch(v.ft, gpusim::LaunchConfig{}, args, opts).status,
              gpusim::LaunchStatus::Ok);
    std::uint32_t word = 0;
    dev.mem().copy_out(oa, std::span<std::uint32_t>(&word, 1));
    EXPECT_EQ(word, kir::Value::f32(3.5f).bits) << gpusim::exec_engine_name(engine);
    EXPECT_FALSE(cb.sdc_detected());
  }
}

TEST(TranslatorEdge, BarrierOnlyKernelSurvivesEveryMode) {
  kir::KernelBuilder kb("barriers");
  kb.barrier();
  kb.barrier();
  const auto k = kb.build();
  auto v = build_variants(k);
  // No data flow: nothing to duplicate or range-check, but the barriers must
  // survive translation in every variant so warp synchronization is intact.
  for (const kir::BytecodeProgram* p : {&v.baseline, &v.ft, &v.profiler, &v.fi, &v.fift}) {
    int barriers = 0;
    for (const auto& in : p->code)
      if (in.op == kir::OpCode::Barrier) ++barriers;
    EXPECT_EQ(barriers, 2) << p->name;
  }
  for (const auto engine : {gpusim::ExecEngine::Threaded, gpusim::ExecEngine::Reference}) {
    gpusim::Device dev;
    dev.set_engine(engine);
    const auto res = dev.launch(v.ft, gpusim::LaunchConfig{2, 1, 32, 1}, {});
    ASSERT_EQ(res.status, gpusim::LaunchStatus::Ok) << gpusim::exec_engine_name(engine);
    EXPECT_EQ(res.threads, 64u);
    EXPECT_FALSE(res.sdc_alarm);
  }
}

TEST(TranslatorEdge, MaxDepthNestedLoopsAreInstrumentedTransparently) {
  // Six levels of nesting: the translator protects the outermost loop only
  // (inner loops belong to its dataflow graph), and the duplicated +
  // checksummed FT build must still compute the exact same result.
  constexpr int kDepth = 6;
  kir::KernelBuilder kb("deep");
  auto out = kb.param_ptr("out");
  auto acc = kb.let("acc", kir::f32c(0.0f));
  std::function<void(int)> nest = [&](int d) {
    if (d == 0) {
      kb.assign(acc, acc + kir::f32c(1.0f));
      return;
    }
    kb.for_loop("i" + std::to_string(d), kir::i32c(0), kir::i32c(2),
                [&](kir::ExprH) { nest(d - 1); });
  };
  nest(kDepth);
  kb.store(out, acc);

  auto v = build_variants(kb.build());
  ASSERT_FALSE(v.ft_report.loop_detectors.empty());
  for (const auto engine : {gpusim::ExecEngine::Threaded, gpusim::ExecEngine::Reference}) {
    const char* en = gpusim::exec_engine_name(engine);
    gpusim::Device dev;
    dev.set_engine(engine);
    const auto oa = dev.mem().alloc(1, gpusim::AllocClass::F32Data);
    const kir::Value args[] = {kir::Value::ptr(oa)};
    ASSERT_EQ(dev.launch(v.baseline, gpusim::LaunchConfig{}, args).status,
              gpusim::LaunchStatus::Ok);
    std::uint32_t base_word = 0;
    dev.mem().copy_out(oa, std::span<std::uint32_t>(&base_word, 1));
    EXPECT_EQ(base_word, kir::Value::f32(64.0f).bits) << en;  // 2^6 inner trips

    ControlBlock cb(v.ft);
    gpusim::LaunchOptions opts;
    opts.hooks = &cb;
    const auto ft = dev.launch(v.ft, gpusim::LaunchConfig{}, args, opts);
    ASSERT_EQ(ft.status, gpusim::LaunchStatus::Ok) << en;
    std::uint32_t ft_word = 0;
    dev.mem().copy_out(oa, std::span<std::uint32_t>(&ft_word, 1));
    EXPECT_EQ(ft_word, base_word) << "nested-loop FT instrumentation changed semantics (" << en
                                  << ")";
    EXPECT_FALSE(ft.sdc_alarm) << en;
    EXPECT_GT(cb.total_checks(), 0u) << en;
  }
}

TEST(Translator, ParamsProtectedByChecksumOnly) {
  auto w = by_name("CP");
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  TranslateReport rep;
  auto k = translate(w->build_kernel(Scale::Tiny), opt, &rep);
  EXPECT_EQ(rep.params_protected, static_cast<int>(k.params.size()));
}
