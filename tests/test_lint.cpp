// hauberk::lint tests.
//
// Layout follows the analyzer list:
//  * interval-domain unit tests (join/meet/widen, loop refinement, widening
//    convergence);
//  * one positive (seeded-defect kernel) and one negative test per
//    diagnostic class — PossibleOob, NonUniformBarrier, SharedWriteOverlap,
//    StaticRangeUnsound, RangeTighterThanStatic, UncoveredVariable,
//    UncoveredEdge;
//  * dynamic cross-validation against the dynamic sanitizer: every
//    statically flagged concurrency/bounds defect is confirmed by a
//    sanitized run, and a lint-clean kernel is sanitizer-report-free;
//  * the stock-workload sweep (all 12 programs at Tiny): zero lint errors
//    and every profiled range contained in its sound static interval;
//  * determinism: byte-identical LintReport text/JSON across repeated runs
//    and across 1/2/8 worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "gpusim/device.hpp"
#include "hauberk/lint.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/runtime.hpp"
#include "hauberk/translator.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/interval.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using kir::i32c;
using kir::KernelBuilder;
using kir::ValInterval;
using lint::DiagKind;
using lint::Severity;

namespace {

/// Lint a kernel under a block of `block_x` threads (everything else
/// conservative), optionally with pc/site provenance from its own lowering.
lint::LintReport lint_block(const kir::Kernel& k, std::uint32_t block_x,
                            const kir::BytecodeProgram* program = nullptr) {
  lint::LintOptions lo;
  lo.env.block_x = block_x;
  lo.program = program;
  return lint::run_lint(k, lo);
}

const lint::Diagnostic* find_diag(const lint::LintReport& rep, DiagKind kind) {
  for (const auto& d : rep.diagnostics)
    if (d.kind == kind) return &d;
  return nullptr;
}

/// Two 4-thread warps per 8-thread block, so cross-warp hazards are visible
/// to the sanitizer (same device shape as test_sanitizer.cpp).
gpusim::DeviceProps cross_warp_props() {
  gpusim::DeviceProps p;
  p.warp_size = 4;
  p.global_mem_words = 1u << 16;
  return p;
}

gpusim::LaunchResult run_sanitized(const kir::BytecodeProgram& prog, std::uint32_t threads = 8) {
  gpusim::Device dev(cross_warp_props());
  dev.set_sanitize(true);
  const auto out = dev.mem().alloc(64, gpusim::AllocClass::I32Data);
  std::vector<std::uint32_t> zero(64, 0);
  dev.mem().copy_in(out, zero);
  const kir::Value args[] = {kir::Value::ptr(out)};
  return dev.launch(prog, gpusim::LaunchConfig{1, 1, threads, 1}, args);
}

}  // namespace

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

TEST(Interval, JoinMeetWiden) {
  const auto a = ValInterval::range(0, 4);
  const auto b = ValInterval::range(2, 9);
  EXPECT_EQ(kir::join(a, b), ValInterval::range(0, 9));
  EXPECT_EQ(kir::meet(a, b), ValInterval::range(2, 4));
  EXPECT_TRUE(kir::meet(ValInterval::range(0, 1), ValInterval::range(5, 6)).is_empty());
  EXPECT_EQ(kir::join(ValInterval::empty(), a), a);
  EXPECT_TRUE(a.contains(ValInterval::range(1, 3)));
  EXPECT_FALSE(a.contains(ValInterval::range(1, 5)));
  // A growing upper bound escapes to the i32 extreme; stable bounds stay.
  const auto w = kir::widen(ValInterval::range(0, 4), ValInterval::range(0, 5), kir::DType::I32);
  EXPECT_EQ(w.lo, 0.0);
  EXPECT_EQ(w.hi, 2147483647.0);
}

TEST(Interval, ForLoopIteratorRefinement) {
  // for (i = 0; i < 8; ++i) shared[i] = i  — the iterator refinement must
  // prove the shared index stays in [0, 7].
  KernelBuilder kb("refine", /*shared_mem_words=*/8);
  auto out = kb.param_ptr("out");
  kb.for_loop("i", i32c(0), i32c(8), [&](kir::ExprH i) { kb.shstore(i, i); });
  kb.store(out, kb.shload_i32(i32c(0)));
  const auto k = kb.build();

  kir::IntervalEnv env;
  kir::IntervalAnalysis ia(k, env);
  const auto* store = [&]() -> const kir::AccessFact* {
    for (const auto& a : ia.accesses())
      if (a.kind == kir::AccessKind::StoreShared) return &a;
    return nullptr;
  }();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->reached);
  EXPECT_TRUE(ValInterval::range(0, 7).contains(store->addr));
}

TEST(Interval, WhileLoopWideningConverges) {
  // An unbounded accumulator must converge (via widening) to the type top
  // instead of iterating forever.
  KernelBuilder kb("widen");
  auto out = kb.param_ptr("out");
  auto x = kb.let("x", i32c(0));
  kb.while_loop([&] { return x < i32c(1000000); }, [&] { kb.assign(x, x + i32c(3)); });
  kb.store(out, x);
  const auto k = kb.build();

  kir::IntervalAnalysis ia(k, kir::IntervalEnv{});
  const auto v = ia.var_value(x.var_id());
  EXPECT_FALSE(v.is_empty());
  EXPECT_EQ(v.lo, 0.0);
  EXPECT_GE(v.hi, 1000000.0);
}

TEST(Interval, TripleNestedLoopWideningConverges) {
  // Widening at 3-deep nested loop heads: an accumulator fed from all three
  // levels must escape to the type top in finitely many rounds (the
  // constructor returning at all is the termination claim), while the
  // constant-bound iterator refinements survive the widening unharmed.
  KernelBuilder kb("deep");
  auto out = kb.param_ptr("out");
  auto n = kb.param_i32("n");  // unbounded: forces widening on the accumulator
  auto acc = kb.let("acc", i32c(0));
  kir::VarId i_id = kir::kInvalidVar, j_id = kir::kInvalidVar, k_id = kir::kInvalidVar;
  kb.for_loop("i", i32c(0), i32c(4), [&](kir::ExprH i) {
    i_id = i.var_id();
    kb.for_loop("j", i32c(0), i32c(4), [&](kir::ExprH j) {
      j_id = j.var_id();
      kb.for_loop("k", i32c(0), n, [&](kir::ExprH kv) {
        k_id = kv.var_id();
        kb.assign(acc, acc + i + j + kv);
      });
    });
  });
  kb.store(out, acc);
  const auto k = kb.build();

  kir::IntervalAnalysis ia(k, kir::IntervalEnv{});
  // The growing accumulator widens to the i32 top at the deepest head.
  const auto a = ia.var_value(acc.var_id());
  ASSERT_FALSE(a.is_empty());
  EXPECT_LE(a.lo, 0.0);
  EXPECT_EQ(a.hi, 2147483647.0);
  // Constant-bound iterators keep sound (and still useful) bounds: every
  // summary must contain the concrete iteration space [0, 3].
  for (const kir::VarId v : {i_id, j_id}) {
    ASSERT_NE(v, kir::kInvalidVar);
    const auto it = ia.var_value(v);
    ASSERT_FALSE(it.is_empty());
    EXPECT_TRUE(it.contains(ValInterval::range(0, 3))) << it.to_string();
    EXPECT_EQ(it.lo, 0.0) << "widening must not lose the loop-init bound";
  }
  // The unbounded innermost iterator still knows its lower bound.
  const auto kit = ia.var_value(k_id);
  ASSERT_FALSE(kit.is_empty());
  EXPECT_EQ(kit.lo, 0.0);

  // Determinism at depth 3: a second run reproduces every summary.
  kir::IntervalAnalysis again(k, kir::IntervalEnv{});
  EXPECT_EQ(ia.var_values().size(), again.var_values().size());
  for (std::size_t v = 0; v < ia.var_values().size(); ++v)
    EXPECT_EQ(ia.var_values()[v], again.var_values()[v]) << "var " << v;
}

TEST(StaticRanges, SubstitutionComposesWithPartialPlan) {
  // TranslateOptions::substitute_static_ranges composed with a partial
  // HardeningPlan: static ranges are substituted only into the detectors the
  // plan actually placed.  Turning loop detectors off for the kernel removes
  // its RangeCheck detectors, so apply_static_ranges configures fewer (none);
  // a plan naming some other kernel changes nothing.
  // TPACF: both its detector values have *finite* static intervals under a
  // concrete launch env, which is what makes the ranges usable at all
  // (accumulator-style detectors such as CP's widen to +-inf and are skipped).
  std::unique_ptr<workloads::Workload> w;
  for (auto& cand : workloads::hpc_suite())
    if (cand->name() == "TPACF") w = std::move(cand);
  ASSERT_NE(w, nullptr);
  const auto kernel = w->build_kernel(workloads::Scale::Tiny);

  // Static ranges are only finite (usable) under a concrete launch env, so
  // derive one from a real Tiny dataset exactly as kirlint does.
  gpusim::Device dev{gpusim::DeviceProps{}};
  const auto ds = w->make_dataset(1, workloads::Scale::Tiny);
  auto job = w->make_job(ds);
  const auto argv = job->setup(dev);

  core::TranslateOptions base;
  base.lint = true;  // lands the LintReport (detector_ranges) in ft_report
  base.lint_env = lint::env_for(job->config(), argv, dev.props());
  const auto vfull = core::build_variants(kernel, base);
  core::ControlBlock cb_full(vfull.ft);
  const int nfull = core::apply_static_ranges(cb_full, vfull.ft_report.lint);
  ASSERT_GT(nfull, 0) << "TPACF's detectors publish finite static ranges";

  core::TranslateOptions planned = base;
  {
    auto plan = std::make_shared<core::HardeningPlan>();
    core::KernelPlan kp;
    kp.kernel = kernel.name;
    kp.loops = core::Tri::Off;  // partial: keep nonloop checksums only
    plan->kernels.push_back(kp);
    planned.plan = plan;
  }
  const auto vplan = core::build_variants(kernel, planned);
  core::ControlBlock cb_plan(vplan.ft);
  const int nplan = core::apply_static_ranges(cb_plan, vplan.ft_report.lint);
  EXPECT_LT(nplan, nfull) << "plan-excluded loop detectors must not be configured";

  core::TranslateOptions other = base;
  {
    auto plan = std::make_shared<core::HardeningPlan>();
    core::KernelPlan kp;
    kp.kernel = "not-this-kernel";
    kp.loops = core::Tri::Off;
    plan->kernels.push_back(kp);
    other.plan = plan;
  }
  const auto vother = core::build_variants(kernel, other);
  core::ControlBlock cb_other(vother.ft);
  EXPECT_EQ(core::apply_static_ranges(cb_other, vother.ft_report.lint), nfull)
      << "a plan for another kernel must not change the substitution";
}

// ---------------------------------------------------------------------------
// Diagnostic classes: seeded defect (positive) + clean kernel (negative)
// ---------------------------------------------------------------------------

TEST(LintDiag, PossibleOobPositive) {
  // shared[8] with a 4-word allocation: the address interval is entirely
  // outside bounds, so the lint must escalate to an error.
  KernelBuilder kb("oob", /*shared_mem_words=*/4);
  auto out = kb.param_ptr("out");
  kb.shstore(i32c(8), i32c(1));
  kb.store(out, i32c(0));
  const auto k = kb.build();
  const auto prog = kir::lower(k);
  const auto rep = lint_block(k, 8, &prog);
  ASSERT_TRUE(rep.has(DiagKind::PossibleOob));
  const auto* d = find_diag(rep, DiagKind::PossibleOob);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_GE(rep.errors, 1);
  EXPECT_GE(d->pc, 0);   // provenance from the lowered program
  EXPECT_GE(d->site, 0);  // shared accesses carry a sanitizer site id
}

TEST(LintDiag, PossibleOobNegative) {
  // shared[tid] with tid < block_x = shared words: provably in bounds.
  KernelBuilder kb("inbounds", /*shared_mem_words=*/8);
  auto out = kb.param_ptr("out");
  kb.shstore(kb.tid_x(), kb.tid_x());
  kb.barrier();
  kb.store(out + kb.tid_x(), kb.shload_i32(kb.tid_x()));
  const auto k = kb.build();
  lint::LintOptions lo;
  lo.env.block_x = 8;
  lo.env.params = {ValInterval::point(0)};  // out buffer at address 0
  const auto rep = lint::run_lint(k, lo);
  EXPECT_EQ(rep.count(DiagKind::PossibleOob), 0) << rep.to_string();
}

TEST(LintDiag, NonUniformBarrierPositive) {
  KernelBuilder kb("divbar");
  auto out = kb.param_ptr("out");
  kb.if_then(kb.tid_x() < i32c(4), [&] { kb.barrier(); });
  kb.store(out + kb.tid_x(), i32c(1));
  const auto k = kb.build();
  const auto rep = lint_block(k, 8);
  ASSERT_TRUE(rep.has(DiagKind::NonUniformBarrier));
  EXPECT_EQ(find_diag(rep, DiagKind::NonUniformBarrier)->severity, Severity::Warning);
}

TEST(LintDiag, NonUniformBarrierNegative) {
  // Uniform control flow (a parameter-dependent branch is block-uniform).
  KernelBuilder kb("unibar");
  auto out = kb.param_ptr("out");
  auto n = kb.param_i32("n");
  kb.if_then(n > i32c(0), [&] { kb.barrier(); });
  kb.store(out + kb.tid_x(), i32c(1));
  const auto rep = lint_block(kb.build(), 8);
  EXPECT_EQ(rep.count(DiagKind::NonUniformBarrier), 0) << rep.to_string();
}

TEST(LintDiag, SharedWriteOverlapPositive) {
  // Every thread stores shared[0] in the same epoch: a proven collision.
  KernelBuilder kb("overlap", /*shared_mem_words=*/4);
  auto out = kb.param_ptr("out");
  kb.shstore(i32c(0), kb.tid_x());
  kb.barrier();
  kb.store(out + kb.tid_x(), kb.shload_i32(i32c(0)));
  const auto k = kb.build();
  const auto prog = kir::lower(k);
  const auto rep = lint_block(k, 8, &prog);
  ASSERT_TRUE(rep.has(DiagKind::SharedWriteOverlap));
  const auto* d = find_diag(rep, DiagKind::SharedWriteOverlap);
  EXPECT_EQ(d->severity, Severity::Error) << "point address, uniform control: proven";
  EXPECT_GE(d->pc, 0);
}

TEST(LintDiag, SharedWriteOverlapNegative) {
  // shared[tid]: distinct per thread, no pair can collide.
  KernelBuilder kb("disjoint", /*shared_mem_words=*/8);
  auto out = kb.param_ptr("out");
  kb.shstore(kb.tid_x(), kb.tid_x());
  kb.barrier();
  kb.store(out + kb.tid_x(), kb.shload_i32(kb.tid_x()));
  const auto rep = lint_block(kb.build(), 8);
  EXPECT_EQ(rep.count(DiagKind::SharedWriteOverlap), 0) << rep.to_string();
}

namespace {

/// x = tid.x; HauberkCheckRange(det 0, x) — static interval [0, block_x-1].
kir::Kernel range_check_kernel() {
  KernelBuilder kb("ranges");
  auto out = kb.param_ptr("out");
  auto x = kb.let("x", kb.tid_x());
  kb.store(out + x, x);
  auto k = kb.build();
  auto chk = std::make_shared<kir::Stmt>();
  chk->kind = kir::StmtKind::RangeCheck;
  chk->detector_id = 0;
  chk->label = "x";
  chk->value = kir::Expr::make_var(x.var_id(), kir::DType::I32);
  k.body.push_back(std::move(chk));
  return k;
}

lint::LintReport lint_with_observed(double lo, double hi) {
  lint::LintOptions opt;
  opt.env.block_x = 8;  // static interval of x: [0, 7]
  opt.observed.push_back({/*detector=*/0, lo, hi, /*samples=*/16});
  return lint::run_lint(range_check_kernel(), opt);
}

}  // namespace

TEST(LintDiag, StaticRangeUnsoundPositive) {
  const auto rep = lint_with_observed(-1, 5);  // escapes [0, 7] below
  ASSERT_TRUE(rep.has(DiagKind::StaticRangeUnsound)) << rep.to_string();
  EXPECT_EQ(find_diag(rep, DiagKind::StaticRangeUnsound)->severity, Severity::Error);
  EXPECT_EQ(find_diag(rep, DiagKind::StaticRangeUnsound)->detector, 0);
}

TEST(LintDiag, RangeTighterThanStaticPositive) {
  const auto rep = lint_with_observed(2, 5);  // strictly inside [0, 7]
  ASSERT_TRUE(rep.has(DiagKind::RangeTighterThanStatic)) << rep.to_string();
  const auto* d = find_diag(rep, DiagKind::RangeTighterThanStatic);
  EXPECT_EQ(d->severity, Severity::Remark);
  // Fig. 16 exposure: 7 units of static width minus 3 observed = 4 flagged.
  EXPECT_NE(d->message.find("4 units"), std::string::npos) << d->message;
}

TEST(LintDiag, RangeCrossCheckNegative) {
  // Profiled range equal to the static interval: neither unsound nor tight.
  const auto rep = lint_with_observed(0, 7);
  EXPECT_EQ(rep.count(DiagKind::StaticRangeUnsound), 0);
  EXPECT_EQ(rep.count(DiagKind::RangeTighterThanStatic), 0);
  // The static interval itself is published for range substitution.
  ASSERT_EQ(rep.detector_ranges.size(), 1u);
  EXPECT_TRUE(rep.detector_ranges[0].usable());
  EXPECT_EQ(rep.detector_ranges[0].value, ValInterval::range(0, 7));
}

namespace {

/// Loop kernel with an accumulator `acc` and a dead-end chain `t -> u`
/// (u reads t, so the Fig. 9 graph has a var-to-var edge inside the loop);
/// a DupCheck detector on `acc` (and optionally on `u` too).
kir::Kernel coverage_kernel(bool also_cover_u) {
  KernelBuilder kb("coverage");
  auto out = kb.param_ptr("out");
  auto n = kb.param_i32("n");
  auto acc = kb.let("acc", i32c(0));
  kir::VarId u_id = kir::kInvalidVar;
  kb.for_loop("i", i32c(0), n, [&](kir::ExprH i) {
    auto t = kb.let("t", i * i32c(2));
    auto u = kb.let("u", t + i32c(1));
    u_id = u.var_id();
    kb.store(out + u, u);
    kb.assign(acc, acc + i);
  });
  kb.store(out, acc);
  auto k = kb.build();
  auto dup = std::make_shared<kir::Stmt>();
  dup->kind = kir::StmtKind::DupCheck;
  dup->var = acc.var_id();
  dup->value = kir::Expr::make_const(kir::Value::i32(0));
  k.body.push_back(std::move(dup));
  if (also_cover_u) {
    auto dup2 = std::make_shared<kir::Stmt>();
    dup2->kind = kir::StmtKind::DupCheck;
    dup2->var = u_id;
    dup2->value = kir::Expr::make_const(kir::Value::i32(0));
    k.body.push_back(std::move(dup2));
  }
  return k;
}

}  // namespace

TEST(LintDiag, UncoveredVariableAndEdgePositive) {
  const auto rep = lint_block(coverage_kernel(/*also_cover_u=*/false), 8);
  // `acc` and the iterator are backward-reachable from the DupCheck; `t` and
  // `u` are not, so the variables and the loop dataflow edge u -> t surface.
  ASSERT_TRUE(rep.has(DiagKind::UncoveredVariable)) << rep.to_string();
  ASSERT_TRUE(rep.has(DiagKind::UncoveredEdge)) << rep.to_string();
  EXPECT_LT(rep.coverage.covered_vars, rep.coverage.total_vars);
  EXPECT_LT(rep.coverage.covered_edges, rep.coverage.total_edges);
  const auto* e = find_diag(rep, DiagKind::UncoveredEdge);
  EXPECT_NE(e->var, kir::kInvalidVar);
  EXPECT_NE(e->var2, kir::kInvalidVar);
}

TEST(LintDiag, CoverageNegativeFullyCovered) {
  const auto rep = lint_block(coverage_kernel(/*also_cover_u=*/true), 8);
  EXPECT_EQ(rep.count(DiagKind::UncoveredVariable), 0) << rep.to_string();
  EXPECT_EQ(rep.count(DiagKind::UncoveredEdge), 0) << rep.to_string();
  EXPECT_EQ(rep.coverage.covered_vars, rep.coverage.total_vars);
  EXPECT_DOUBLE_EQ(rep.coverage.var_pct(), 100.0);
  EXPECT_DOUBLE_EQ(rep.coverage.edge_pct(), 100.0);
}

TEST(LintDiag, PlanExclusionsDowngradeToRemarks) {
  // A plan that deliberately leaves `t`/`u` and the loop unprotected turns
  // every Uncovered* warning into an ExcludedByPlan remark: the corruption
  // surface is unchanged (coverage percentages identical), only the blame
  // moves from "instrumentation gap" to "budget decision".
  core::HardeningPlan plan;
  core::KernelPlan kp;
  kp.kernel = "coverage";
  kp.var_actions = {{"t", false}, {"u", false}};
  kp.loop_actions = {{0u, false}};
  plan.kernels.push_back(kp);

  const auto k = coverage_kernel(/*also_cover_u=*/false);
  lint::LintOptions lo;
  lo.env.block_x = 8;
  lo.plan = &plan;
  const auto rep = lint::run_lint(k, lo);

  EXPECT_EQ(rep.count(DiagKind::UncoveredVariable), 0) << rep.to_string();
  EXPECT_EQ(rep.count(DiagKind::UncoveredEdge), 0) << rep.to_string();
  ASSERT_TRUE(rep.has(DiagKind::ExcludedByPlan)) << rep.to_string();
  EXPECT_EQ(find_diag(rep, DiagKind::ExcludedByPlan)->severity, lint::Severity::Remark);
  EXPECT_GT(rep.coverage.excluded_vars, 0);
  EXPECT_GT(rep.coverage.excluded_edges, 0);
  // Excluded still counts as uncovered: the percentages match the plan-free
  // report exactly.
  const auto bare = lint_block(k, 8);
  EXPECT_EQ(rep.coverage.covered_vars, bare.coverage.covered_vars);
  EXPECT_EQ(rep.coverage.covered_edges, bare.coverage.covered_edges);
  EXPECT_EQ(rep.coverage.total_vars, bare.coverage.total_vars);
  EXPECT_EQ(rep.coverage.total_edges, bare.coverage.total_edges);
}

TEST(LintDiag, PlanForOtherKernelOrTrivialPlanKeepsWarnings) {
  const auto k = coverage_kernel(/*also_cover_u=*/false);

  // A plan that matches a different kernel leaves the grading untouched.
  core::HardeningPlan other;
  core::KernelPlan okp;
  okp.kernel = "somebody-else";
  okp.var_actions = {{"t", false}};
  other.kernels.push_back(okp);
  lint::LintOptions lo;
  lo.env.block_x = 8;
  lo.plan = &other;
  auto rep = lint::run_lint(k, lo);
  EXPECT_TRUE(rep.has(DiagKind::UncoveredVariable)) << rep.to_string();
  EXPECT_TRUE(rep.has(DiagKind::UncoveredEdge)) << rep.to_string();
  EXPECT_EQ(rep.count(DiagKind::ExcludedByPlan), 0) << rep.to_string();

  // A trivial matching entry (no decisions) excludes nothing either: every
  // variable/loop is allowed by an empty denylist.
  core::HardeningPlan trivial;
  core::KernelPlan tkp;
  tkp.kernel = "coverage";
  trivial.kernels.push_back(tkp);
  lo.plan = &trivial;
  rep = lint::run_lint(k, lo);
  EXPECT_TRUE(rep.has(DiagKind::UncoveredVariable)) << rep.to_string();
  EXPECT_TRUE(rep.has(DiagKind::UncoveredEdge)) << rep.to_string();
  EXPECT_EQ(rep.count(DiagKind::ExcludedByPlan), 0) << rep.to_string();
}

TEST(LintDiag, CoverageSkippedWithoutDetectors) {
  // An uninstrumented kernel is not "0% covered" — the analyzer only judges
  // kernels that carry detectors.
  KernelBuilder kb("plain");
  auto out = kb.param_ptr("out");
  auto v = kb.let("v", kb.tid_x());
  kb.store(out + v, v);
  const auto rep = lint_block(kb.build(), 8);
  EXPECT_EQ(rep.count(DiagKind::UncoveredVariable), 0);
  EXPECT_EQ(rep.coverage.total_vars, 0);
  EXPECT_DOUBLE_EQ(rep.coverage.var_pct(), 100.0);
}

// ---------------------------------------------------------------------------
// Dynamic cross-validation against the dynamic sanitizer
// ---------------------------------------------------------------------------

TEST(LintSanitizer, SharedWriteOverlapConfirmedDynamically) {
  KernelBuilder kb("overlap_dyn", /*shared_mem_words=*/4);
  auto out = kb.param_ptr("out");
  kb.shstore(i32c(0), kb.tid_x());
  kb.barrier();
  kb.store(out + kb.tid_x(), kb.shload_i32(i32c(0)));
  const auto k = kb.build();
  const auto prog = kir::lower(k);

  const auto rep = lint_block(k, 8, &prog);
  ASSERT_TRUE(rep.has(DiagKind::SharedWriteOverlap));

  const auto res = run_sanitized(prog);
  bool ww = false;
  for (const auto& r : res.sanitizer_reports) ww |= r.kind == gpusim::HazardKind::WriteWrite;
  EXPECT_TRUE(ww) << "sanitizer must confirm the statically flagged overlap";
  // The static pc provenance names the same store the dynamic report blames.
  const auto* d = find_diag(rep, DiagKind::SharedWriteOverlap);
  bool pc_matches = false;
  for (const auto& r : res.sanitizer_reports)
    pc_matches |= static_cast<std::int64_t>(r.pc) == d->pc ||
                  static_cast<std::int64_t>(r.other_pc) == d->pc;
  EXPECT_TRUE(pc_matches);
}

TEST(LintSanitizer, NonUniformBarrierConfirmedDynamically) {
  KernelBuilder kb("divbar_dyn");
  auto out = kb.param_ptr("out");
  kb.if_then(kb.tid_x() < i32c(4), [&] { kb.barrier(); });
  kb.store(out + kb.tid_x(), i32c(1));
  const auto k = kb.build();
  const auto prog = kir::lower(k);

  ASSERT_TRUE(lint_block(k, 8, &prog).has(DiagKind::NonUniformBarrier));

  const auto res = run_sanitized(prog);
  bool diverged = res.status == gpusim::LaunchStatus::CrashBarrierDeadlock;
  for (const auto& r : res.sanitizer_reports)
    diverged |= r.kind == gpusim::HazardKind::BarrierDivergence;
  EXPECT_TRUE(diverged) << "sanitizer must confirm the non-uniform barrier";
}

TEST(LintSanitizer, SharedOobConfirmedDynamically) {
  KernelBuilder kb("oob_dyn", /*shared_mem_words=*/4);
  auto out = kb.param_ptr("out");
  kb.shstore(i32c(8), i32c(1));
  kb.store(out, i32c(0));
  const auto k = kb.build();
  const auto prog = kir::lower(k);

  ASSERT_TRUE(lint_block(k, 8, &prog).has(DiagKind::PossibleOob));

  const auto res = run_sanitized(prog);
  bool oob = res.status != gpusim::LaunchStatus::Ok;
  for (const auto& r : res.sanitizer_reports)
    oob |= r.kind == gpusim::HazardKind::SharedOutOfBounds;
  EXPECT_TRUE(oob) << "sanitizer must confirm the out-of-bounds shared store";
}

TEST(LintSanitizer, CleanKernelIsReportFree) {
  // Disjoint shared stores, uniform barrier, in-bounds global stores: the
  // lint finds nothing beyond remarks, and neither does the sanitizer.
  KernelBuilder kb("clean", /*shared_mem_words=*/8);
  auto out = kb.param_ptr("out");
  kb.shstore(kb.tid_x(), kb.tid_x() * i32c(3));
  kb.barrier();
  kb.store(out + kb.tid_x(), kb.shload_i32(kb.tid_x()));
  const auto k = kb.build();
  const auto prog = kir::lower(k);

  lint::LintOptions lo;
  lo.env.block_x = 8;
  lo.env.params = {ValInterval::point(0)};
  lo.program = &prog;
  const auto rep = lint::run_lint(k, lo);
  EXPECT_EQ(rep.errors, 0) << rep.to_string();
  EXPECT_EQ(rep.warnings, 0) << rep.to_string();

  const auto res = run_sanitized(prog);
  EXPECT_EQ(res.status, gpusim::LaunchStatus::Ok);
  EXPECT_TRUE(res.sanitizer_reports.empty());
  EXPECT_EQ(res.sanitizer_reports_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Stock workloads: zero errors, static contains profiled
// ---------------------------------------------------------------------------

namespace {

struct WorkloadEntry {
  std::unique_ptr<workloads::Workload> w;
  bool cpu = false;
};

std::vector<WorkloadEntry> all_workloads() {
  std::vector<WorkloadEntry> out;
  for (auto& w : workloads::hpc_suite()) out.push_back({std::move(w), false});
  for (auto& w : workloads::graphics_suite()) out.push_back({std::move(w), false});
  for (auto& w : workloads::cpu_suite()) out.push_back({std::move(w), true});
  out.push_back({workloads::make_cpu_matmul(), true});  // not in cpu_suite
  return out;
}

/// The kirlint flow: instrument at FT, derive the env from one Tiny dataset,
/// profile for observed ranges, lint with provenance.
lint::LintReport lint_workload(const workloads::Workload& w, bool cpu) {
  core::TranslateOptions opt;
  opt.mode = core::LibMode::FT;
  const auto kernel = w.build_kernel(workloads::Scale::Tiny);
  const auto instrumented = core::translate(kernel, opt);
  const auto program = kir::lower(instrumented);

  gpusim::DeviceProps props;
  if (cpu) props.memory_model = gpusim::MemoryModel::PagedCpu;
  gpusim::Device dev(props);
  const auto ds = w.make_dataset(1, workloads::Scale::Tiny);
  auto job = w.make_job(ds);
  const auto argv = job->setup(dev);

  lint::LintOptions lo;
  lo.env = lint::env_for(job->config(), argv, dev.props());
  lo.program = &program;

  const auto variants = core::build_variants(kernel, opt);
  const auto pd = core::profile(dev, variants, {job.get()});
  for (std::size_t det = 0; det < pd.samples.size(); ++det) {
    const auto& s = pd.samples[det];
    if (s.empty()) continue;
    lint::ObservedRange o;
    o.detector = static_cast<int>(det);
    o.lo = *std::min_element(s.begin(), s.end());
    o.hi = *std::max_element(s.begin(), s.end());
    o.samples = s.size();
    lo.observed.push_back(o);
  }
  return lint::run_lint(instrumented, lo);
}

}  // namespace

TEST(LintWorkloads, AllTinyZeroErrorsAndSoundRanges) {
  for (const auto& e : all_workloads()) {
    const auto rep = lint_workload(*e.w, e.cpu);
    EXPECT_EQ(rep.errors, 0) << e.w->name() << "\n" << rep.to_string();
    EXPECT_EQ(rep.count(DiagKind::StaticRangeUnsound), 0) << e.w->name();
    EXPECT_FALSE(rep.kernel.empty());
  }
}

// ---------------------------------------------------------------------------
// Determinism: repeated runs and worker counts
// ---------------------------------------------------------------------------

TEST(LintDeterminism, ByteIdenticalAcrossRunsAndWorkers) {
  const char* names[] = {"CP", "SAD", "TPACF"};

  // Sequential baseline, computed twice: repeated runs must match bytes.
  std::vector<std::string> base_json(3), base_text(3);
  for (int i = 0; i < 3; ++i) {
    for (auto& e : all_workloads()) {
      if (e.w->name() != names[i]) continue;
      const auto rep = lint_workload(*e.w, e.cpu);
      base_json[i] = rep.to_json();
      base_text[i] = rep.to_string();
      const auto again = lint_workload(*e.w, e.cpu);
      EXPECT_EQ(again.to_json(), base_json[i]) << names[i];
      EXPECT_EQ(again.to_string(), base_text[i]) << names[i];
    }
  }

  // The same three reports computed concurrently on 2- and 8-thread pools
  // (every slot owns its device/jobs): still byte-identical.
  for (const unsigned workers : {2u, 8u}) {
    std::vector<std::string> json(3);
    common::WorkerPool pool(workers);
    std::atomic<int> next{0};
    pool.run(workers, [&](unsigned) {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= 3) return;
        for (auto& e : all_workloads()) {
          if (e.w->name() != names[i]) continue;
          json[i] = lint_workload(*e.w, e.cpu).to_json();
        }
      }
    });
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(json[i], base_json[i]) << names[i] << " with " << workers << " workers";
  }
}
