// Digest pins: the exact values of every persisted or cache-keying hash
// outside program_digest (which the 216 translator digests already pin).
//
// Campaign digests bind checkpoints, shards and result logs; plan and
// pruning-plan digests fold into them; remark digests key the translator's
// report; IntervalEnv digests key the analysis cache; PosixGuardian digests
// compare child outputs; cone signatures partition pruned campaigns.  A
// refactor of any hashing or text-format code must leave all of them
// bit-identical, so each value below is a literal captured from the code
// and never recomputed by the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hauberk/plan.hpp"
#include "hauberk/posix_guardian.hpp"
#include "hauberk/prune.hpp"
#include "hauberk/runtime.hpp"
#include "kir/interval.hpp"
#include "swifi/service.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;

namespace {

/// CP at tiny scale: the FI build, its profile-driven fault specs, and the
/// pruning facts kirprune emits for it (default, unprotected form).
struct CpFixture {
  std::unique_ptr<workloads::Workload> w;
  core::KernelVariants v;
  std::vector<swifi::FaultSpec> specs;
  prune::PruningPlan prune_plan;

  CpFixture() {
    for (auto& cand : workloads::hpc_suite())
      if (cand->name() == "CP") w = std::move(cand);
    v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
    const auto ds = w->make_dataset(21, workloads::Scale::Tiny);
    gpusim::Device dev;
    auto job = w->make_job(ds);
    const auto pd = core::profile(dev, v, {job.get()});
    swifi::PlanOptions opt;
    opt.max_vars = 8;
    opt.masks_per_var = 4;
    opt.seed = 7;
    specs = swifi::plan_faults(v.fi, pd, opt);
    auto facts = prune::build_kernel_prune_facts(v.fi_source, v.fi);
    facts.kernel = w->name();
    prune_plan.kernels.push_back(std::move(facts));
  }
};

const CpFixture& cp() {
  static const CpFixture f;
  return f;
}

std::uint64_t campaign(gpusim::ecc::Scheme protection, std::uint64_t plan_digest,
                       std::uint64_t prune_digest, bool sanitize) {
  const CpFixture& f = cp();
  return swifi::campaign_digest(f.v.fi, f.specs, f.w->requirement(),
                                core::remark_digest(f.v.fi_report), protection, plan_digest,
                                prune_digest, sanitize);
}

}  // namespace

TEST(DigestPins, FixtureIsTheOneThePinsWereTakenFrom) {
  EXPECT_EQ(cp().specs.size(), 32u);
  EXPECT_EQ(kir::program_digest(cp().v.fi), 0x4e1e88d9f70dbca3ull);
}

TEST(DigestPins, GoldenPlanAndPruningPlan) {
  const auto plan = core::load_plan(HAUBERK_SOURCE_DIR "/tests/golden/kirtune_plan_b10.plan");
  EXPECT_EQ(core::plan_digest(plan), 0xcd3ede8b6d1d58c7ull);
  EXPECT_EQ(prune::pruning_plan_digest(cp().prune_plan), 0x9169c180cb91e492ull);
  // The same plan read back from its text, as campaignd --prune=FILE sees
  // it.  Site ids are read as hex (hauberk/prune.cpp), so ids of 10 and up
  // come back renumbered and the digest differs from the in-memory plan's.
  const auto read_back =
      prune::parse_pruning_plan(prune::serialize_pruning_plan(cp().prune_plan));
  EXPECT_EQ(prune::pruning_plan_digest(read_back), 0xcf7f97236030537eull);
}

TEST(DigestPins, CampaignDigestUnderEveryFold) {
  const auto golden =
      core::plan_digest(core::load_plan(HAUBERK_SOURCE_DIR "/tests/golden/kirtune_plan_b10.plan"));
  const auto pruned = prune::pruning_plan_digest(cp().prune_plan);
  using gpusim::ecc::Scheme;
  EXPECT_EQ(campaign(Scheme::None, 0, 0, false), 0x67fb6efd54679d9full);
  EXPECT_EQ(campaign(Scheme::Hsiao, 0, 0, false), 0xaeaa5cf8ec4f55dfull);
  EXPECT_EQ(campaign(Scheme::None, golden, 0, false), 0x9c833252b772fd62ull);
  EXPECT_EQ(campaign(Scheme::None, 0, pruned, false), 0x6128c0f6100f3a22ull);
  EXPECT_EQ(campaign(Scheme::None, 0, 0, true), 0x5a6db80ee5d5d16dull);
}

TEST(DigestPins, RemarkDigests) {
  EXPECT_EQ(core::remark_digest(cp().v.fi_report), 0x0c50f2bd0c3445b5ull);
  EXPECT_EQ(core::remark_digest(cp().v.fift_report), 0x1e3f4c917ecb4e78ull);
}

TEST(DigestPins, ConeSignatures) {
  const auto& sites = cp().prune_plan.kernels.front().sites;
  ASSERT_FALSE(sites.empty());
  EXPECT_EQ(sites.front().cone_sig, 0x7fb2d48622089c82ull);
  EXPECT_EQ(sites.back().cone_sig, 0x83b0bdf6ee9c7c20ull);
}

TEST(DigestPins, IntervalEnvDigest) {
  EXPECT_EQ(kir::IntervalEnv{}.digest(), 0x4d570754b5f69320ull);
  kir::IntervalEnv env;
  env.block_x = 16;
  env.block_y = 2;
  env.grid_x = 8;
  env.shared_words = 256;
  env.params = {kir::ValInterval::point(3.0), kir::ValInterval::range(-1.5, 1024.0),
                kir::ValInterval::empty()};
  EXPECT_EQ(env.digest(), 0xae8f1de8643458c2ull);
}

TEST(DigestPins, PosixGuardianDigest) {
  EXPECT_EQ(core::PosixGuardian::digest(nullptr, 0), 0x14650fb0739d0383ull);
  const std::uint32_t words[] = {0u, 1u, 0xdeadbeefu, 0x3f800000u};
  EXPECT_EQ(core::PosixGuardian::digest(words, sizeof words), 0x21187c3b17b7de19ull);
}
