// Tests for the Hauberk pass framework (src/hauberk/passes): each
// instrumentation pass exercised in isolation outside the full pipeline,
// PassPipeline composition and the per-kernel override hook, the
// kir::AnalysisManager cache (hits, misses, invalidation-on-mutation), the
// TranslateOptions combination sweep, the translator idempotence guard, and
// remark determinism — including worker-count invariance of the remark
// digest carried through SWIFI campaigns.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "hauberk/passes/instrument.hpp"
#include "hauberk/passes/pass_manager.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/runtime.hpp"
#include "hauberk/translator.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/printer.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::core;
using namespace hauberk::core::passes;
using namespace hauberk::workloads;

namespace {

/// One loop with two independent protectable variables: `sum` is
/// self-accumulating, `t` is stored per-iteration and needs an inserted
/// accumulator.  The constant bounds make the trip count derivable.
kir::Kernel loop_kernel() {
  kir::KernelBuilder kb("loopy");
  auto out = kb.param_ptr("out");
  auto sum = kb.let("sum", kir::i32c(0));
  kb.for_loop("i", kir::i32c(0), kir::i32c(8), [&](kir::ExprH i) {
    auto t = kb.let("t", i * kir::i32c(2) + kir::i32c(1));
    kb.store(out + i, t);
    kb.assign(sum, sum + i);
  });
  kb.store(out, sum);
  return kb.build();
}

/// Straight-line kernel: two independent definitions and one store.
kir::Kernel straightline_kernel() {
  kir::KernelBuilder kb("straight");
  auto out = kb.param_ptr("out");
  auto a = kb.let("a", kir::f32c(2.0f));
  auto b = kb.let("b", a * kir::f32c(3.0f));
  kb.store(out, b);
  return kb.build();
}

int count_kind(const kir::StmtList& body, kir::StmtKind kind) {
  int n = 0;
  for (const auto& s : body) {
    if (s->kind == kind) ++n;
    n += count_kind(s->body, kind) + count_kind(s->else_body, kind);
  }
  return n;
}

bool has_var(const kir::Kernel& k, const std::string& name) {
  for (const auto& v : k.vars)
    if (v.name == name) return true;
  return false;
}

/// Fresh context over a deep copy of `k` (the helper mirrors translate()'s
/// setup so a single pass can run outside the pipeline).
struct Isolated {
  TranslateOptions opt;
  TranslateReport rep;
  PassContext ctx;
  explicit Isolated(const kir::Kernel& k, TranslateOptions o = {})
      : opt(std::move(o)), ctx(kir::clone_kernel(k), opt, rep) {}
};

}  // namespace

// ---------------------------------------------------------------------------
// Individual passes in isolation
// ---------------------------------------------------------------------------

TEST(SiteEnumerationPass, EnumeratesTwoSitesPerDefinitionPlusIterators) {
  Isolated t(loop_kernel());
  SiteEnumerationPass pass;
  EXPECT_FALSE(pass.run(t.ctx)) << "analysis-only pass must not report mutation";
  // Definitions: sum, t, sum-assign -> 2 sites each; one For iterator site.
  EXPECT_EQ(t.ctx.sites.size(), 7u);
  int late = 0, iterators = 0;
  for (const auto& s : t.ctx.sites) {
    late += s.late;
    iterators += s.is_iterator;
    EXPECT_LT(s.id, t.ctx.next_site);
  }
  EXPECT_EQ(late, 3);
  EXPECT_EQ(iterators, 1);
  // The kernel itself is untouched.
  EXPECT_EQ(kir::print_kernel(t.ctx.kernel), kir::print_kernel(loop_kernel()));
}

TEST(SiteEnumerationPass, IteratorSitesRespectTheOption) {
  TranslateOptions opt;
  opt.fi_target_iterators = false;
  Isolated t(loop_kernel(), opt);
  SiteEnumerationPass().run(t.ctx);
  for (const auto& s : t.ctx.sites) EXPECT_FALSE(s.is_iterator);
  EXPECT_EQ(t.ctx.sites.size(), 6u);
}

TEST(LoopAccumulatorPass, InsertsCounterAndAccumulatorScaffolding) {
  TranslateOptions opt;
  opt.maxvar = 2;
  Isolated t(loop_kernel(), opt);
  LoopAccumulatorPass pass;
  EXPECT_TRUE(pass.run(t.ctx));
  // Scaffolding variables declared: the shared counter and t's accumulator;
  // self-accumulating `sum` gets none.
  EXPECT_TRUE(has_var(t.ctx.kernel, "__hbk_iter0"));
  EXPECT_TRUE(has_var(t.ctx.kernel, "__hbk_acc_t"));
  EXPECT_FALSE(has_var(t.ctx.kernel, "__hbk_acc_sum"));
  ASSERT_EQ(t.ctx.loop_products.size(), 1u);
  const auto& prod = t.ctx.loop_products[0];
  EXPECT_EQ(prod.loop_id, 0u);
  EXPECT_NE(prod.trip_count, nullptr) << "constant-bound loop has a derivable trip count";
  ASSERT_EQ(prod.vars.size(), 2u);
  EXPECT_TRUE(prod.vars[0].self_accumulating) << "self-accumulators are selected first";
  EXPECT_FALSE(prod.vars[1].self_accumulating);
  // No detectors yet: checks belong to LoopCheckPass.
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::RangeCheck), 0);
  EXPECT_TRUE(t.rep.loop_detectors.empty());
}

TEST(LoopAccumulatorPass, RemarksExplainSelectionAndMaxvarEviction) {
  TranslateOptions opt;
  opt.maxvar = 1;
  Isolated t(loop_kernel(), opt);
  LoopAccumulatorPass().run(t.ctx);
  bool saw_self = false, saw_evict = false;
  for (const auto& r : t.rep.remarks) {
    saw_self |= r.message.find("self-accumulating") != std::string::npos;
    saw_evict |= r.message.find("evicted by Maxvar") != std::string::npos;
  }
  EXPECT_TRUE(saw_self);
  EXPECT_TRUE(saw_evict) << "maxvar=1 must evict 't' and say so";
}

TEST(LoopCheckPass, PlacesGuardedRangeChecksAndIterationInvariant) {
  TranslateOptions opt;
  opt.maxvar = 2;
  Isolated t(loop_kernel(), opt);
  LoopAccumulatorPass().run(t.ctx);
  LoopCheckPass pass(/*profile_mode=*/false);
  EXPECT_TRUE(pass.run(t.ctx));
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::RangeCheck), 2);
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::EqualCheck), 1);
  ASSERT_EQ(t.rep.loop_detectors.size(), 2u);
  EXPECT_EQ(t.rep.loop_detectors[0].value_detector, 0);
  EXPECT_EQ(t.rep.loop_detectors[1].value_detector, 1);
  EXPECT_EQ(t.rep.loop_detectors[0].iter_detector, 2)
      << "iteration detector id allocated after the value detectors";
  EXPECT_EQ(t.ctx.next_detector, 3);
}

TEST(LoopCheckPass, ProfileModeEmitsProfileValuesAndReservesIterId) {
  TranslateOptions opt;
  opt.maxvar = 2;
  Isolated t(loop_kernel(), opt);
  LoopAccumulatorPass().run(t.ctx);
  LoopCheckPass pass(/*profile_mode=*/true);
  EXPECT_TRUE(pass.run(t.ctx));
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::ProfileValue), 2);
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::RangeCheck), 0);
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::EqualCheck), 0)
      << "profile mode never emits the invariant check";
  EXPECT_EQ(t.ctx.next_detector, 3)
      << "the iteration detector id is still reserved so FT/Profiler id spaces align";
}

TEST(NonLoopChecksumPass, ChecksumsParamsAndDuplicatesDefinitions) {
  Isolated t(straightline_kernel());
  NonLoopChecksumPass pass;
  EXPECT_TRUE(pass.run(t.ctx));
  const auto& body = t.ctx.kernel.body;
  // Entry checksum for the one param + two per-definition checksum windows
  // (open + close) + the exit param checksum.
  EXPECT_EQ(count_kind(body, kir::StmtKind::ChecksumXor), 6);
  EXPECT_EQ(count_kind(body, kir::StmtKind::DupCheck), 2);
  EXPECT_EQ(count_kind(body, kir::StmtKind::ChecksumValidate), 1);
  EXPECT_EQ(body.front()->kind, kir::StmtKind::ChecksumXor) << "entry checksum first";
  EXPECT_EQ(body.back()->kind, kir::StmtKind::ChecksumValidate) << "validate last";
  EXPECT_EQ(t.rep.params_protected, 1);
  EXPECT_EQ(t.rep.nonloop_protected, 2);
}

TEST(NaiveDuplicationPass, ShadowsDefinitionsWithoutChecksums) {
  Isolated t(straightline_kernel());
  NaiveDuplicationPass pass;
  EXPECT_TRUE(pass.run(t.ctx));
  EXPECT_TRUE(has_var(t.ctx.kernel, "a__shadow"));
  EXPECT_TRUE(has_var(t.ctx.kernel, "b__shadow"));
  const auto& body = t.ctx.kernel.body;
  EXPECT_EQ(count_kind(body, kir::StmtKind::ChecksumXor), 0) << "Fig. 8(b) has no checksum";
  EXPECT_EQ(count_kind(body, kir::StmtKind::ChecksumValidate), 0);
  EXPECT_EQ(count_kind(body, kir::StmtKind::DupCheck), 2);
  EXPECT_EQ(t.rep.params_protected, 0) << "naive scheme leaves parameters unprotected";
}

TEST(FIHookPass, InsertsOneHookPerEnumeratedSite) {
  Isolated t(loop_kernel());
  SiteEnumerationPass().run(t.ctx);
  FIHookPass pass;
  EXPECT_TRUE(pass.run(t.ctx));
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::FIHook),
            static_cast<int>(t.ctx.sites.size()));
}

TEST(CountExecPass, InsertsProfilerHooksAtTheSameSites) {
  Isolated t(loop_kernel());
  SiteEnumerationPass().run(t.ctx);
  CountExecPass pass;
  EXPECT_TRUE(pass.run(t.ctx));
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::CountExec),
            static_cast<int>(t.ctx.sites.size()));
  EXPECT_EQ(count_kind(t.ctx.kernel.body, kir::StmtKind::FIHook), 0);
}

TEST(ControlLayoutPass, PublishesSiteCountWithoutMutating) {
  Isolated t(loop_kernel());
  SiteEnumerationPass().run(t.ctx);
  ControlLayoutPass pass;
  EXPECT_FALSE(pass.run(t.ctx));
  EXPECT_EQ(t.rep.fi_sites, static_cast<int>(t.ctx.sites.size()));
}

// ---------------------------------------------------------------------------
// Pipeline composition
// ---------------------------------------------------------------------------

TEST(PassPipeline, AddRemoveInsertHas) {
  PassPipeline pipe("test");
  pipe.add(std::make_shared<SiteEnumerationPass>());
  pipe.add(std::make_shared<ControlLayoutPass>());
  EXPECT_TRUE(pipe.has("site-enum"));
  EXPECT_FALSE(pipe.has("fi-hooks"));
  EXPECT_TRUE(pipe.insert_before("control-layout", std::make_shared<FIHookPass>()));
  EXPECT_EQ(pipe.pass_names(),
            (std::vector<std::string>{"site-enum", "fi-hooks", "control-layout"}));
  EXPECT_TRUE(pipe.remove("fi-hooks"));
  EXPECT_FALSE(pipe.remove("fi-hooks")) << "second removal finds nothing";
  EXPECT_FALSE(pipe.insert_before("no-such-pass", std::make_shared<FIHookPass>()));
  EXPECT_EQ(pipe.size(), 2u);
}

TEST(PipelineFor, NamesEncodeModeAndAblations) {
  TranslateOptions opt;
  EXPECT_EQ(pipeline_for(LibMode::None, opt).name(), "baseline");
  EXPECT_EQ(pipeline_for(LibMode::Profiler, opt).name(), "profiler");
  EXPECT_EQ(pipeline_for(LibMode::FT, opt).name(), "ft");
  EXPECT_EQ(pipeline_for(LibMode::FI, opt).name(), "fi");
  EXPECT_EQ(pipeline_for(LibMode::FIFT, opt).name(), "fi+ft");
  opt.naive_duplication = true;
  EXPECT_EQ(pipeline_for(LibMode::FT, opt).name(), "ft.naive");
  opt.naive_duplication = false;
  opt.protect_nonloop = false;
  EXPECT_EQ(pipeline_for(LibMode::FT, opt).name(), "ft.hauberk-l");
  opt.protect_nonloop = true;
  opt.protect_loop = false;
  EXPECT_EQ(pipeline_for(LibMode::FT, opt).name(), "ft.hauberk-nl");
  opt.protect_nonloop = false;
  EXPECT_EQ(pipeline_for(LibMode::FT, opt).name(), "ft.noprotect");
}

TEST(PipelineFor, CompositionMatchesMode) {
  TranslateOptions opt;
  EXPECT_EQ(pipeline_for(LibMode::None, opt).pass_names(),
            (std::vector<std::string>{"site-enum", "control-layout"}));
  EXPECT_EQ(pipeline_for(LibMode::FT, opt).pass_names(),
            (std::vector<std::string>{"site-enum", "loop-accum", "loop-check",
                                      "nonloop-checksum", "control-layout"}));
  EXPECT_EQ(pipeline_for(LibMode::Profiler, opt).pass_names(),
            (std::vector<std::string>{"site-enum", "loop-accum", "loop-profile",
                                      "count-exec", "control-layout"}));
  EXPECT_EQ(pipeline_for(LibMode::FI, opt).pass_names(),
            (std::vector<std::string>{"site-enum", "fi-hooks", "control-layout"}));
  EXPECT_EQ(pipeline_for(LibMode::FIFT, opt).pass_names(),
            (std::vector<std::string>{"site-enum", "loop-accum", "loop-check",
                                      "nonloop-checksum", "fi-hooks", "control-layout"}));
  opt.naive_duplication = true;
  EXPECT_TRUE(pipeline_for(LibMode::FT, opt).has("nonloop-naive-dup"))
      << "the Fig. 8(b) variant is a swappable pass";
  EXPECT_FALSE(pipeline_for(LibMode::FT, opt).has("nonloop-checksum"));
}

TEST(HardeningPlanAPI, SelectiveHardeningDropsAPassForOneKernel) {
  // Selective hardening through a plan: an entry for "loopy" turning the
  // non-loop detectors off must equal the Hauberk-L reference build, while
  // other kernels are untouched.
  const auto k = loop_kernel();
  TranslateOptions plain;
  plain.mode = LibMode::FT;
  plain.protect_nonloop = false;  // Hauberk-L reference
  const auto reference = translate(k, plain);

  auto plan = std::make_shared<HardeningPlan>();
  plan->kernels.push_back({"loopy", -1, Tri::Default, Tri::Off, Tri::Default, {}, {}});
  TranslateOptions sel;
  sel.mode = LibMode::FT;
  sel.plan = plan;
  TranslateReport rep;
  const auto planned = translate(k, sel, &rep);
  EXPECT_EQ(kir::print_kernel(planned), kir::print_kernel(reference))
      << "plan (nonloop off) must equal the Hauberk-L build";
  EXPECT_EQ(rep.pipeline, "ft.hauberk-l.plan")
      << "a non-trivial matched plan entry tags the pipeline name";

  // A kernel with a different name has no matching entry: full pipeline.
  auto other = kir::clone_kernel(k);
  other.name = "other";
  TranslateReport full_rep;
  const auto full = translate(other, sel, &full_rep);
  EXPECT_GT(count_kind(full.body, kir::StmtKind::ChecksumValidate), 0);
  EXPECT_EQ(full_rep.pipeline, "ft");
}

// ---------------------------------------------------------------------------
// AnalysisManager cache
// ---------------------------------------------------------------------------

TEST(AnalysisManager, CachesAnalysisAndPlans) {
  const auto k = loop_kernel();
  kir::AnalysisManager am(k);
  (void)am.analysis();
  (void)am.analysis();
  EXPECT_EQ(am.stats().misses, 1u);
  EXPECT_EQ(am.stats().hits, 1u);

  (void)am.loop_plan(0, 1);  // computes dataflow + plan
  const auto before_hits = am.stats().hits;
  (void)am.loop_plan(0, 1);  // fully cached
  EXPECT_EQ(am.stats().hits, before_hits + 1);

  // A different Maxvar budget is a different plan, but reuses the cached
  // dataflow graph.
  const auto misses = am.stats().misses;
  (void)am.loop_plan(0, 2);
  EXPECT_EQ(am.stats().misses, misses + 1) << "only the plan itself is recomputed";
  EXPECT_EQ(am.loop_plan(0, 1).selected.size(), 1u);
  EXPECT_EQ(am.loop_plan(0, 2).selected.size(), 2u);
}

TEST(AnalysisManager, InvalidationDropsCachesAfterMutation) {
  auto k = loop_kernel();
  kir::AnalysisManager am(k);
  EXPECT_EQ(am.analysis().loops().size(), 1u);
  (void)am.loop_plan(0, 1);

  // Mutate the AST the way a pass would: empty the kernel body.
  k.body.clear();
  k.num_loops = 0;
  am.invalidate();
  EXPECT_EQ(am.stats().invalidations, 1u);
  EXPECT_TRUE(am.analysis().loops().empty()) << "post-invalidation analysis sees the mutation";
}

TEST(AnalysisManager, TranslateReportCarriesCacheStats) {
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  TranslateReport rep;
  (void)translate(loop_kernel(), opt, &rep);
  EXPECT_EQ(rep.pipeline, "ft");
  EXPECT_GT(rep.analysis_cache.misses, 0u);
  EXPECT_GT(rep.analysis_cache.invalidations, 0u) << "mutating passes must invalidate";
  EXPECT_GE(rep.analysis_cache.hit_rate(), 0.0);
  EXPECT_LE(rep.analysis_cache.hit_rate(), 1.0);
}

TEST(AnalysisManager, CachedPlanServesRepeatedConsumersWithinOnePassRun) {
  // Within one un-mutated kernel state, repeated queries are all hits: the
  // recompute-per-call pattern of the old monolith is gone.
  const auto k = loop_kernel();
  kir::AnalysisManager am(k);
  (void)am.loop_plan(0, 1);
  const auto baseline = am.stats();
  for (int i = 0; i < 10; ++i) {
    (void)am.analysis();
    (void)am.loop_dataflow(0);
    (void)am.loop_plan(0, 1);
  }
  EXPECT_EQ(am.stats().misses, baseline.misses);
  EXPECT_EQ(am.stats().hits, baseline.hits + 30);
}

// ---------------------------------------------------------------------------
// TranslateOptions combination sweep
// ---------------------------------------------------------------------------

TEST(TranslateSweep, EveryModeAndAblationTranslatesAndValidates) {
  const kir::Kernel kernels[] = {loop_kernel(), straightline_kernel()};
  for (const auto& k : kernels) {
    for (const LibMode mode : {LibMode::None, LibMode::Profiler, LibMode::FT, LibMode::FI,
                               LibMode::FIFT}) {
      for (const bool protect_loop : {false, true}) {
        for (const bool protect_nonloop : {false, true}) {
          for (const bool naive : {false, true}) {
            TranslateOptions opt;
            opt.mode = mode;
            opt.protect_loop = protect_loop;
            opt.protect_nonloop = protect_nonloop;
            opt.naive_duplication = naive;
            TranslateReport rep;
            const auto instrumented = translate(k, opt, &rep);
            const auto prog = kir::lower(instrumented);
            EXPECT_TRUE(swifi::validate_program(prog))
                << k.name << " mode=" << lib_mode_name(mode) << " loop=" << protect_loop
                << " nonloop=" << protect_nonloop << " naive=" << naive;
            EXPECT_EQ(rep.pipeline, pipeline_for(mode, opt).name());
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Idempotence guard
// ---------------------------------------------------------------------------

TEST(Idempotence, ReinstrumentingAnInstrumentedKernelIsRejected) {
  TranslateOptions opt;
  opt.mode = LibMode::FT;
  const auto once = translate(loop_kernel(), opt);
  EXPECT_TRUE(is_instrumented(once));
  EXPECT_THROW((void)translate(once, opt), std::invalid_argument);
  // The FI build is instrumented too (hooks are translator-inserted).
  TranslateOptions fi;
  fi.mode = LibMode::FI;
  EXPECT_THROW((void)translate(translate(loop_kernel(), fi), fi), std::invalid_argument);
}

TEST(Idempotence, BaselineTranslationStaysReinstrumentable) {
  // LibMode::None inserts nothing, so its output is still pristine.
  TranslateOptions none;
  none.mode = LibMode::None;
  const auto base = translate(loop_kernel(), none);
  EXPECT_FALSE(is_instrumented(base));
  TranslateOptions ft;
  ft.mode = LibMode::FT;
  EXPECT_NO_THROW((void)translate(base, ft));
}

// ---------------------------------------------------------------------------
// Remark determinism
// ---------------------------------------------------------------------------

TEST(Remarks, DeterministicAcrossRepeatedTranslations) {
  TranslateOptions opt;
  opt.mode = LibMode::FIFT;
  TranslateReport a, b;
  (void)translate(loop_kernel(), opt, &a);
  (void)translate(loop_kernel(), opt, &b);
  ASSERT_EQ(a.remarks.size(), b.remarks.size());
  for (std::size_t i = 0; i < a.remarks.size(); ++i) {
    EXPECT_EQ(a.remarks[i].pass, b.remarks[i].pass);
    EXPECT_EQ(a.remarks[i].message, b.remarks[i].message);
  }
  EXPECT_NE(remark_digest(a), 0u);
  EXPECT_EQ(remark_digest(a), remark_digest(b));
  EXPECT_FALSE(format_remarks(a).empty());
}

TEST(Remarks, DigestDistinguishesPipelines) {
  TranslateOptions ft;
  ft.mode = LibMode::FT;
  TranslateOptions fi;
  fi.mode = LibMode::FI;
  TranslateReport a, b;
  (void)translate(loop_kernel(), ft, &a);
  (void)translate(loop_kernel(), fi, &b);
  EXPECT_NE(remark_digest(a), remark_digest(b));
}

TEST(Remarks, WorkerCountInvariantUnderSwifiCampaigns) {
  // The remark digest rides through CampaignConfig::pipeline into every
  // CampaignResult; running the same campaign at different worker counts
  // must reproduce it bit-for-bit.
  auto w = make_cp();
  auto v = core::build_variants(w->build_kernel(Scale::Tiny));
  const auto ds = w->make_dataset(33, Scale::Tiny);
  gpusim::Device dev;
  auto job = w->make_job(ds);
  const auto pd = core::profile(dev, v, {job.get()});

  swifi::PlanOptions popt;
  popt.max_vars = 6;
  popt.masks_per_var = 2;
  const auto specs = swifi::plan_faults(v.fift, pd, popt);
  ASSERT_FALSE(specs.empty());

  swifi::CampaignConfig cfg;
  cfg.pipeline = swifi::PipelineSpec::from_report(v.fift_report);
  const std::uint64_t expect_digest = core::remark_digest(v.fift_report);
  ASSERT_NE(expect_digest, 0u);

  for (const int workers : {1, 2, 4}) {
    swifi::CampaignExecutor ex(workers);
    const auto res = ex.run(
        v.fift,
        [&] {
          swifi::WorkerContext ctx;
          ctx.device = std::make_unique<gpusim::Device>();
          ctx.job = w->make_job(ds);
          ctx.cb = core::make_configured_control_block(v.fift, pd);
          return ctx;
        },
        specs, w->requirement(), cfg);
    EXPECT_EQ(res.pipeline, "fi+ft") << workers << " workers";
    EXPECT_EQ(res.remark_digest, expect_digest) << workers << " workers";
  }
}
