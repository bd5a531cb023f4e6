// Unit tests for the static fault-site pruning stack: kir::DefUseAnalysis
// (bit-liveness, divergence, dominance facts, cone signatures), the
// hauberk::prune PruningPlan s-expression round trip + digest, the
// swifi::prune_specs equivalence partitioner, and the weighted-aggregation
// plumbing (OutcomeCounts::add, trial_weights, result-log populations,
// campaign-digest binding).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hauberk/prune.hpp"
#include "hauberk/runtime.hpp"
#include "kir/analysis_manager.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/defuse.hpp"
#include "swifi/campaign.hpp"
#include "swifi/prune.hpp"
#include "swifi/resultlog.hpp"
#include "swifi/service.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::kir;

namespace {

/// Variable id by source name; fails the test when absent.
VarId vid(const Kernel& k, const std::string& name) {
  for (VarId v = 0; v < k.vars.size(); ++v)
    if (k.vars[v].name == name) return v;
  ADD_FAILURE() << "no variable named " << name;
  return kInvalidVar;
}

}  // namespace

// --- DefUseAnalysis: bit-liveness ("observed bits") ---

TEST(DefUse, BitAndConstKillsMaskedOutBits) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto x = kb.let("x", kb.load_i32(p));
  auto y = kb.let("y", x & i32c(0xff));
  kb.store(p, y);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  EXPECT_EQ(du.live_mask(vid(k, "x")), 0xffu);
  EXPECT_EQ(du.live_mask(vid(k, "y")), 0xffffffffu);
  EXPECT_FALSE(du.dead_destination(vid(k, "x")));
}

TEST(DefUse, ShlConstKillsHighBits) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto x = kb.let("x", kb.load_i32(p));
  auto y = kb.let("y", x << i32c(16));
  kb.store(p, y);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  // Bits 16..31 of x are shifted out before the store observes them.
  EXPECT_EQ(du.live_mask(vid(k, "x")), 0x0000ffffu);
}

TEST(DefUse, ShrConstKeepsSignAndHighBits) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto x = kb.let("x", kb.load_i32(p));
  auto y = kb.let("y", x >> i32c(16));
  kb.store(p, y);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  // Arithmetic shift: the low 16 bits never reach the store; the sign bit
  // (already in the high half) smears into every result bit.
  EXPECT_EQ(du.live_mask(vid(k, "x")), 0xffff0000u);
}

TEST(DefUse, BitOrConstKillsForcedOneBits) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto x = kb.let("x", kb.load_i32(p));
  auto y = kb.let("y", x | i32c(0x0f));
  kb.store(p, y);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  EXPECT_EQ(du.live_mask(vid(k, "x")), 0xfffffff0u);
}

TEST(DefUse, MaskingComposesTransitively) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto x = kb.let("x", kb.load_i32(p));
  auto y = kb.let("y", x & i32c(0x00ffff00));
  auto z = kb.let("z", y >> i32c(8));
  kb.store(p, z & i32c(0xff));
  const auto k = kb.build();
  DefUseAnalysis du(k);
  // Store observes only (z & 0xff); z = y >> 8, so y contributes bits
  // 8..15 (plus the sign smear, masked away by y's own & 0x00ffff00).
  EXPECT_EQ(du.live_mask(vid(k, "z")), 0xffu);
  EXPECT_EQ(du.live_mask(vid(k, "y")), 0x0000ff00u);
  EXPECT_EQ(du.live_mask(vid(k, "x")), 0x0000ff00u);
}

TEST(DefUse, DeadDestinationHasZeroLiveMask) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto x = kb.let("x", kb.load_i32(p));
  auto dead = kb.let("dead", x + i32c(1));
  (void)dead;
  kb.store(p, x);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  EXPECT_TRUE(du.dead_destination(vid(k, "dead")));
  EXPECT_EQ(du.live_mask(vid(k, "dead")), 0u);
  EXPECT_FALSE(du.dead_destination(vid(k, "x")));
}

TEST(DefUse, AddressAndConditionRootsObserveAllBits) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto idx = kb.let("idx", kb.load_i32(p) & i32c(0xf));
  auto addr_in = kb.let("addr_in", kb.load_i32(p + i32c(1)));
  kb.store(p + idx, kb.load_f32(p + addr_in));
  const auto k = kb.build();
  DefUseAnalysis du(k);
  EXPECT_EQ(du.live_mask(vid(k, "addr_in")), 0xffffffffu);
  EXPECT_TRUE(du.var(vid(k, "addr_in")).feeds_address);
  EXPECT_TRUE(du.var(vid(k, "idx")).feeds_address);
}

// --- DefUseAnalysis: divergence, control, dominance facts ---

TEST(DefUse, ThreadBuiltinsAndLoadsSeedDivergence) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto u = kb.let("u", kb.bdim_x() * i32c(2));
  auto t = kb.let("t", kb.tid_x() + i32c(1));
  auto m = kb.let("m", kb.load_i32(p));
  kb.store(p + t, u + m);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  EXPECT_TRUE(du.thread_uniform(vid(k, "u")));
  EXPECT_FALSE(du.thread_uniform(vid(k, "t")));
  EXPECT_FALSE(du.thread_uniform(vid(k, "m")));
}

TEST(DefUse, DivergentControlTaintsBodyDefs) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto n = kb.param_i32("n");
  ExprH inner = i32c(0);
  kb.if_then(kb.tid_x() < n, [&] { inner = kb.let("inner", n + i32c(3)); });
  kb.store(p, inner);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  // `inner` computes from uniform operands, but whether it executes depends
  // on tid: its observed value is thread-dependent.
  EXPECT_FALSE(du.thread_uniform(vid(k, "inner")));
}

TEST(DefUse, AccumulatorIsLoopCarriedAndNotOccurrenceSymmetric) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto n = kb.param_i32("n");
  auto acc = kb.let("acc", f32c(0.0f));
  kb.for_loop("i", i32c(0), n, [&](ExprH i) {
    auto elem = kb.let("elem", kb.load_f32(p + i));
    kb.assign(acc, acc + elem);
  });
  kb.store(p, acc);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  EXPECT_TRUE(du.var(vid(k, "acc")).loop_carried);
  EXPECT_FALSE(du.occurrence_symmetric(vid(k, "acc")));
  // A straight-line per-iteration temporary is occurrence-symmetric.
  EXPECT_FALSE(du.var(vid(k, "elem")).loop_carried);
  EXPECT_TRUE(du.occurrence_symmetric(vid(k, "elem")));
  // The loop iterator steers control.
  EXPECT_TRUE(du.var(vid(k, "i")).feeds_control);
  EXPECT_FALSE(du.occurrence_symmetric(vid(k, "i")));
}

TEST(DefUse, SymmetricLanesShareConeSignature) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  auto n = kb.param_i32("n");
  auto a = kb.let("a", kb.load_f32(p + i32c(0)) * f32c(2.0f));
  auto b = kb.let("b", kb.load_f32(p + i32c(1)) * f32c(3.0f));
  auto odd = kb.let("odd", sqrt_(kb.load_f32(p + i32c(2))));
  kb.store(p + n, a);
  kb.store(p + n + i32c(1), b);
  kb.store(p + n + i32c(2), odd);
  const auto k = kb.build();
  DefUseAnalysis du(k);
  // a and b are structurally identical lanes (identities and constants
  // erased); odd has a different local shape.
  EXPECT_EQ(du.var(vid(k, "a")).cone_sig, du.var(vid(k, "b")).cone_sig);
  EXPECT_NE(du.var(vid(k, "a")).cone_sig, du.var(vid(k, "odd")).cone_sig);
}

TEST(DefUse, AnalysisManagerCachesDefUse) {
  KernelBuilder kb("k");
  auto p = kb.param_ptr("p");
  kb.store(p, kb.load_i32(p) & i32c(1));
  const auto k = kb.build();
  AnalysisManager am(k);
  const auto* first = &am.def_use();
  const auto* second = &am.def_use();
  EXPECT_EQ(first, second);
  am.invalidate();
  EXPECT_EQ(am.def_use().vars().size(), k.vars.size());
}

// --- PruningPlan: serialization round trip, digest, parser strictness ---

namespace {

prune::PruningPlan sample_plan() {
  prune::PruningPlan plan;
  prune::KernelPruneFacts k1;
  k1.kernel = "CP";
  k1.program_digest = 0x1f2e3d4c5b6a7988ull;
  k1.sites = {{0, 0xffffffffu, 0xa1b2c3d4e5f60718ull, false, true},
              {3, 0x0000ff00u, 0x1111111111111111ull, true, false},
              {7, 0u, 0x2222222222222222ull, true, true}};
  prune::KernelPruneFacts k2;
  k2.kernel = "MRI-Q";
  k2.program_digest = 42;
  k2.sites = {{1, 1u, 2u, false, false}};
  plan.kernels = {k1, k2};
  return plan;
}

}  // namespace

TEST(PruningPlan, SerializeParseRoundTrip) {
  const auto plan = sample_plan();
  const auto text = prune::serialize_pruning_plan(plan);
  const auto back = prune::parse_pruning_plan(text);
  ASSERT_EQ(back.kernels.size(), 2u);
  EXPECT_EQ(back.kernels[0].kernel, "CP");
  EXPECT_EQ(back.kernels[0].program_digest, 0x1f2e3d4c5b6a7988ull);
  ASSERT_EQ(back.kernels[0].sites.size(), 3u);
  EXPECT_EQ(back.kernels[0].sites[1].site_id, 3u);
  EXPECT_EQ(back.kernels[0].sites[1].live_mask, 0x0000ff00u);
  EXPECT_EQ(back.kernels[0].sites[1].cone_sig, 0x1111111111111111ull);
  EXPECT_TRUE(back.kernels[0].sites[1].uniform);
  EXPECT_FALSE(back.kernels[0].sites[1].occ_symmetric);
  EXPECT_EQ(back.kernels[1].kernel, "MRI-Q");
  // Canonical: re-serialization is byte-identical.
  EXPECT_EQ(prune::serialize_pruning_plan(back), text);
}

TEST(PruningPlan, DigestIsStableAndBindsContent) {
  const auto plan = sample_plan();
  const auto d = prune::pruning_plan_digest(plan);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, prune::pruning_plan_digest(prune::parse_pruning_plan(
                   prune::serialize_pruning_plan(plan))));
  auto other = plan;
  other.kernels[0].sites[0].live_mask ^= 1u;
  EXPECT_NE(prune::pruning_plan_digest(other), d);
  EXPECT_EQ(prune::pruning_plan_digest(prune::PruningPlan{}), 0u);
}

TEST(PruningPlan, FindByKernelAndSite) {
  const auto plan = sample_plan();
  ASSERT_NE(plan.find("CP"), nullptr);
  EXPECT_EQ(plan.find("nope"), nullptr);
  const auto* k = plan.find("CP");
  ASSERT_NE(k->find(7), nullptr);
  EXPECT_EQ(k->find(7)->live_mask, 0u);
  EXPECT_EQ(k->find(99), nullptr);
  EXPECT_TRUE(prune::statically_benign(*k->find(3), 0x000000ffu));
  EXPECT_FALSE(prune::statically_benign(*k->find(3), 0x00000100u));
}

TEST(PruningPlan, ParserRejectsMalformedInput) {
  const auto text = prune::serialize_pruning_plan(sample_plan());
  EXPECT_THROW((void)prune::parse_pruning_plan(""), std::runtime_error);
  EXPECT_THROW((void)prune::parse_pruning_plan("(hauberk-plan 1)"), std::runtime_error);
  EXPECT_THROW((void)prune::parse_pruning_plan("(hauberk-prune 2)"), std::runtime_error);
  EXPECT_THROW((void)prune::parse_pruning_plan(text + " junk"), std::runtime_error);
  EXPECT_THROW((void)prune::parse_pruning_plan(
                   "(hauberk-prune 1 (kernel \"a\" (program 1) "
                   "(site 0 (live zz) (cone 1) (uniform 0) (occsym 0))))"),
               std::runtime_error);
  // Duplicate kernel / duplicate site entries are rejected.
  EXPECT_THROW((void)prune::parse_pruning_plan(
                   "(hauberk-prune 1 (kernel \"a\" (program 1)) (kernel \"a\" (program 1)))"),
               std::runtime_error);
  EXPECT_THROW((void)prune::parse_pruning_plan(
                   "(hauberk-prune 1 (kernel \"a\" (program 1) "
                   "(site 0 (live 1) (cone 1) (uniform 0) (occsym 0)) "
                   "(site 0 (live 1) (cone 1) (uniform 0) (occsym 0))))"),
               std::runtime_error);
}

// Every plan kirprune emits reads back as itself, with the same digest: all
// 12 workloads, FI and --protected (FI&FT) builds.  Site ids are decimal in
// the text, so ids of 10 and up are the ones a misread would renumber.
TEST(PruningPlan, KirprunePlansRoundTripOnEveryWorkload) {
  std::vector<std::unique_ptr<workloads::Workload>> all;
  for (auto& w : workloads::hpc_suite()) all.push_back(std::move(w));
  for (auto& w : workloads::graphics_suite()) all.push_back(std::move(w));
  for (auto& w : workloads::cpu_suite()) all.push_back(std::move(w));
  all.push_back(workloads::make_cpu_matmul());
  ASSERT_EQ(all.size(), 12u);
  prune::PruningPlan fi, fift;
  std::size_t max_site = 0;
  for (auto& w : all) {
    const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
    fi.kernels.push_back(prune::build_kernel_prune_facts(v.fi_source, v.fi));
    fift.kernels.push_back(prune::build_kernel_prune_facts(v.fift_source, v.fift));
    fi.kernels.back().kernel = fift.kernels.back().kernel = w->name();
    for (const auto& s : fi.kernels.back().sites)
      max_site = std::max<std::size_t>(max_site, s.site_id);
  }
  EXPECT_GE(max_site, 10u);  // ids a hex misread would renumber
  for (const auto* plan : {&fi, &fift}) {
    const auto back = prune::parse_pruning_plan(prune::serialize_pruning_plan(*plan));
    EXPECT_EQ(back, *plan);
    EXPECT_EQ(prune::pruning_plan_digest(back), prune::pruning_plan_digest(*plan));
  }
}

// --- build_kernel_prune_facts over a real instrumented workload ---

TEST(PruneFacts, FactsCoverEveryFISiteOfCP) {
  auto w = std::move(workloads::hpc_suite().front());  // CP
  const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
  const auto facts = prune::build_kernel_prune_facts(v.fi_source, v.fi);
  EXPECT_EQ(facts.program_digest, kir::program_digest(v.fi));
  ASSERT_FALSE(facts.sites.empty());
  // Site list is sorted and unique; every FISite of the program is present.
  for (std::size_t i = 1; i < facts.sites.size(); ++i)
    EXPECT_LT(facts.sites[i - 1].site_id, facts.sites[i].site_id);
  for (const auto& site : v.fi.fi_sites)
    EXPECT_NE(facts.find(site.site_id), nullptr) << "missing site " << site.site_id;
  // Dead-window sites are exactly the live_mask == 0 ones the planner
  // counts on (the paper's "inject after last use" arm).
  std::size_t dead = 0;
  for (const auto& s : facts.sites) dead += s.live_mask == 0 ? 1 : 0;
  EXPECT_GT(dead, 0u);
  EXPECT_LT(dead, facts.sites.size());
  // Determinism: a second computation yields identical facts.
  const auto again = prune::build_kernel_prune_facts(v.fi_source, v.fi);
  EXPECT_EQ(prune::serialize_pruning_plan(prune::PruningPlan{{facts}}),
            prune::serialize_pruning_plan(prune::PruningPlan{{again}}));
}

TEST(PruneFacts, DeadWindowLivenessRespectsDetectorsAndLoopCarry) {
  auto w = std::move(workloads::hpc_suite().front());  // CP
  const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
  const auto fi = prune::build_kernel_prune_facts(v.fi_source, v.fi);
  const auto fift = prune::build_kernel_prune_facts(v.fift_source, v.fift);
  const DefUseAnalysis fi_du(v.fi_source);

  // FI build: no detectors anywhere, so a closed dead window is fully Benign
  // — but a loop-carried variable's window never closes (the next iteration
  // re-reads the value after the hook fires).
  std::size_t closed = 0, carried = 0;
  for (const auto& site : v.fi.fi_sites) {
    if (!site.dead_window || site.var >= v.fi_source.vars.size()) continue;
    const auto& du = fi_du.var(site.var);
    const auto* f = fi.find(site.site_id);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(du.detector_observed_mask, 0u) << "FI build has no detectors";
    if (du.loop_carried || du.use_before_def) {
      EXPECT_EQ(f->live_mask, du.observed_mask) << "site " << site.site_id;
      ++carried;
    } else {
      EXPECT_EQ(f->live_mask, 0u) << "site " << site.site_id;
      ++closed;
    }
  }
  EXPECT_GT(closed, 0u);

  // FI&FT build: checksum/dup detectors re-read protected values at check
  // time, so at least one dead-window site must stay detector-live.
  const DefUseAnalysis fift_du(v.fift_source);
  std::size_t detector_live = 0;
  for (const auto& site : v.fift.fi_sites) {
    if (!site.dead_window || site.var >= v.fift_source.vars.size()) continue;
    const auto& du = fift_du.var(site.var);
    const auto* f = fift.find(site.site_id);
    ASSERT_NE(f, nullptr);
    // The detector mask is a subset of the full observed mask, and a closed
    // window's liveness is exactly that subset.
    EXPECT_EQ(du.detector_observed_mask & ~du.observed_mask, 0u);
    if (!du.loop_carried && !du.use_before_def) {
      EXPECT_EQ(f->live_mask, du.detector_observed_mask);
      if (f->live_mask != 0) ++detector_live;
    }
  }
  EXPECT_GT(detector_live, 0u);
}

// --- swifi::prune_specs partitioning ---

namespace {

struct SpecFixture {
  kir::BytecodeProgram prog;
  prune::PruningPlan plan;

  static SpecFixture make() {
    SpecFixture f;
    KernelBuilder kb("fixture");
    auto p = kb.param_ptr("p");
    kb.store(p, kb.load_i32(p) + i32c(1));
    f.prog = kir::lower(kb.build());

    prune::KernelPruneFacts facts;
    facts.kernel = "fixture";
    facts.program_digest = kir::program_digest(f.prog);
    facts.sites = {
        {0, 0xffffffffu, 0xaaaaull, false, true},   // fully live, occ-symmetric
        {1, 0xffffffffu, 0xaaaaull, false, true},   // isomorphic twin of site 0
        {2, 0x0000ff00u, 0xbbbbull, false, false},  // partially live, occ matters
        {3, 0u, 0xccccull, true, true},             // dead site
    };
    f.plan.kernels.push_back(std::move(facts));
    return f;
  }

  static swifi::FaultSpec spec(std::uint32_t site, std::uint32_t thread,
                               std::uint32_t occ, std::uint32_t mask) {
    swifi::FaultSpec s;
    s.site_id = site;
    s.thread = thread;
    s.occurrence = occ;
    s.mask = mask;
    return s;
  }
};

}  // namespace

TEST(PruneSpecs, CollapsesThreadsTwinsAndBenignSpecs) {
  const auto f = SpecFixture::make();
  const std::vector<swifi::FaultSpec> specs = {
      SpecFixture::spec(0, 0, 1, 0x1),     // [0] class A rep (site 0, lo bit)
      SpecFixture::spec(0, 17, 1, 0x2),    // [1] class A (thread collapsed)
      SpecFixture::spec(0, 5, 9, 0x4),     // [2] class A (occurrence symmetric)
      SpecFixture::spec(1, 3, 1, 0x8),     // [3] class A (isomorphic twin site)
      SpecFixture::spec(2, 0, 1, 0x00000001),  // [4] benign at site 2
      SpecFixture::spec(2, 4, 2, 0x00000002),  // [5] benign at site 2
      SpecFixture::spec(2, 1, 1, 0x00000100),  // [6] live flip, occurrence 1
      SpecFixture::spec(2, 1, 2, 0x00000200),  // [7] live flip, occurrence 2
      SpecFixture::spec(3, 2, 1, 0x80000000),  // [8] benign at dead site 3
  };
  const auto pruned = swifi::prune_specs(f.plan, "fixture", f.prog, specs);

  // Classes: A {0,1,2,3}, benign@2 {4,5}, live@2 occ1 {6}, live@2 occ2 {7},
  // benign@3 {8} -> 5 representatives.
  ASSERT_EQ(pruned.specs.size(), 5u);
  EXPECT_EQ(pruned.stats.total_specs, 9u);
  EXPECT_EQ(pruned.stats.kept_specs, 5u);
  EXPECT_EQ(pruned.stats.benign_specs, 3u);
  EXPECT_EQ(pruned.stats.benign_classes, 2u);
  EXPECT_EQ(pruned.stats.dead_site_specs, 1u);
  EXPECT_EQ(pruned.stats.unknown_site_specs, 0u);

  // Representatives keep original relative order and carry class sizes.
  EXPECT_EQ(pruned.rep_index, (std::vector<std::uint32_t>{0, 4, 6, 7, 8}));
  EXPECT_EQ(pruned.weights, (std::vector<std::uint32_t>{4, 2, 1, 1, 1}));
  std::uint64_t weight_sum = 0;
  for (const auto w : pruned.weights) weight_sum += w;
  EXPECT_EQ(weight_sum, specs.size());

  // class_of maps every full spec onto its representative slot.
  ASSERT_EQ(pruned.class_of.size(), specs.size());
  EXPECT_EQ(pruned.class_of[1], pruned.class_of[0]);
  EXPECT_EQ(pruned.class_of[2], pruned.class_of[0]);
  EXPECT_EQ(pruned.class_of[3], pruned.class_of[0]);
  EXPECT_EQ(pruned.class_of[5], pruned.class_of[4]);
  EXPECT_NE(pruned.class_of[6], pruned.class_of[7]);

  // Benign flags mark the two all-Benign classes.
  ASSERT_EQ(pruned.benign.size(), 5u);
  EXPECT_FALSE(pruned.benign[0]);
  EXPECT_TRUE(pruned.benign[1]);
  EXPECT_TRUE(pruned.benign[4]);

  EXPECT_EQ(pruned.plan_digest, prune::pruning_plan_digest(f.plan));

  // Pure function: identical inputs partition identically.
  const auto again = swifi::prune_specs(f.plan, "fixture", f.prog, specs);
  EXPECT_EQ(again.rep_index, pruned.rep_index);
  EXPECT_EQ(again.weights, pruned.weights);
  EXPECT_EQ(again.class_of, pruned.class_of);
}

TEST(PruneSpecs, UnknownSitesAreKeptUnpruned) {
  const auto f = SpecFixture::make();
  const std::vector<swifi::FaultSpec> specs = {
      SpecFixture::spec(99, 0, 1, 0x1),
      SpecFixture::spec(99, 0, 1, 0x1),  // identical spec, still kept
  };
  const auto pruned = swifi::prune_specs(f.plan, "fixture", f.prog, specs);
  EXPECT_EQ(pruned.specs.size(), 2u);
  EXPECT_EQ(pruned.stats.unknown_site_specs, 2u);
  EXPECT_EQ(pruned.weights, (std::vector<std::uint32_t>{1, 1}));
}

TEST(PruneSpecs, RejectsMissingKernelAndDigestMismatch) {
  const auto f = SpecFixture::make();
  const std::vector<swifi::FaultSpec> specs = {SpecFixture::spec(0, 0, 1, 1)};
  EXPECT_THROW((void)swifi::prune_specs(f.plan, "other-kernel", f.prog, specs),
               std::runtime_error);
  auto stale = f.plan;
  stale.kernels[0].program_digest ^= 0xdeadbeefull;
  EXPECT_THROW((void)swifi::prune_specs(stale, "fixture", f.prog, specs),
               std::runtime_error);
}

// --- cross_check_benign ---

TEST(PruneCrossCheck, FlagsOnlyUnsoundBenignProofs) {
  const auto f = SpecFixture::make();
  const auto& facts = f.plan.kernels[0];
  const std::vector<swifi::FaultSpec> specs = {
      SpecFixture::spec(3, 0, 1, 0x1),         // benign (dead site)
      SpecFixture::spec(2, 0, 1, 0x00000001),  // benign (masked bits)
      SpecFixture::spec(2, 0, 1, 0x00000100),  // live
      SpecFixture::spec(3, 1, 1, 0x2),         // benign (dead site)
  };
  using swifi::Outcome;
  // Benign specs resolving Masked / NotActivated are fine; a live spec may
  // do anything.
  EXPECT_TRUE(swifi::cross_check_benign(
                  facts, specs,
                  {Outcome::Masked, Outcome::NotActivated, Outcome::Undetected,
                   Outcome::Masked})
                  .empty());
  // A benign spec with an SDC ground truth is an analysis soundness bug.
  const auto bad = swifi::cross_check_benign(
      facts, specs,
      {Outcome::Masked, Outcome::Undetected, Outcome::Masked, Outcome::Failure});
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_EQ(bad[0].spec_index, 1u);
  EXPECT_EQ(bad[0].outcome, Outcome::Undetected);
  EXPECT_EQ(bad[1].spec_index, 3u);
  EXPECT_EQ(bad[1].outcome, Outcome::Failure);
}

// --- weighted aggregation plumbing ---

TEST(PruneWeights, OutcomeCountsWeightedAdd) {
  swifi::OutcomeCounts c;
  c.add(swifi::Outcome::Masked, 3);
  c.add(swifi::Outcome::Undetected, 2);
  c.add(swifi::Outcome::Masked, 1);
  EXPECT_EQ(c.masked, 4u);
  EXPECT_EQ(c.undetected, 2u);
  EXPECT_EQ(c.activated(), 6u);
}

TEST(PruneWeights, CampaignConfigTrialWeightDefaultsToOne) {
  swifi::CampaignConfig cfg;
  EXPECT_EQ(cfg.trial_weight(0), 1u);
  cfg.trial_weights = {3, 0, 7};
  EXPECT_EQ(cfg.trial_weight(0), 3u);
  EXPECT_EQ(cfg.trial_weight(1), 1u);  // 0 encodes "unweighted"
  EXPECT_EQ(cfg.trial_weight(2), 7u);
  EXPECT_EQ(cfg.trial_weight(3), 1u);  // out of range -> unweighted
}

TEST(PruneWeights, ResultRecordWeightRoundTrip) {
  swifi::ResultRecord rec{};
  EXPECT_EQ(rec.weight(), 1u);  // legacy zero reserved bytes decode as 1
  rec.set_weight(5);
  EXPECT_EQ(rec.weight(), 5u);
  rec.set_weight(0x00fedcbau);
  EXPECT_EQ(rec.weight(), 0x00fedcbau);
  rec.set_weight(0x12345678u);  // saturates at the u24 ceiling
  EXPECT_EQ(rec.weight(), 0x00ffffffu);
  rec.set_weight(0);
  EXPECT_EQ(rec.weight(), 1u);
}

TEST(PruneDigest, CampaignDigestBindsPruneDigest) {
  auto w = std::move(workloads::hpc_suite().front());
  const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
  const std::vector<swifi::FaultSpec> specs = {SpecFixture::spec(0, 0, 1, 1)};
  const auto req = w->requirement();
  const auto base = swifi::campaign_digest(v.fi, specs, req, 7);
  // prune_digest 0 is the historic digest (stored checkpoints stay valid).
  EXPECT_EQ(swifi::campaign_digest(v.fi, specs, req, 7, gpusim::ecc::Scheme::None, 0, 0),
            base);
  const auto pruned =
      swifi::campaign_digest(v.fi, specs, req, 7, gpusim::ecc::Scheme::None, 0, 0x1234);
  EXPECT_NE(pruned, base);
  EXPECT_NE(swifi::campaign_digest(v.fi, specs, req, 7, gpusim::ecc::Scheme::None, 0,
                                   0x1235),
            pruned);
}
