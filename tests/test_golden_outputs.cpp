// Golden-output regression tests: every workload in src/workloads/ runs at a
// fixed tiny size and seed, and the FNV-1a hash of its output words plus its
// modeled cycle total are pinned here.  Any change to interpreter semantics,
// cost accounting, lowering, or instrumentation that moves an observable
// shows up as a hash/cycle mismatch — and because each workload is executed
// on both engines (reference, threaded), sanitized and not, the table also
// pins the four settings to each other on real programs (complementing the
// random programs of test_differential_fuzz.cpp).
//
// Regenerating after an *intentional* behavior change:
//   HAUBERK_GOLDEN_PRINT=1 ./test_golden_outputs
// prints the updated table entries to paste below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/runtime.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::workloads;

namespace {

constexpr std::uint64_t kDatasetSeed = 20260806;

struct Golden {
  std::uint64_t base_hash, base_cycles;
  std::uint64_t ft_hash, ft_cycles;
};

/// FNV-1a over the output words, seeded with the word count so different
/// shapes with equal content still differ.
std::uint64_t fnv1a(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ words.size();
  for (std::uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct RunHash {
  std::uint64_t hash = 0;
  std::uint64_t cycles = 0;
};

RunHash run_hashed(Workload& w, const Dataset& ds, const kir::BytecodeProgram& prog,
                   gpusim::ExecEngine engine, bool sanitize, gpusim::LaunchHooks* hooks) {
  gpusim::Device dev;
  dev.set_engine(engine);
  dev.set_sanitize(sanitize);
  auto job = w.make_job(ds);
  const auto args = job->setup(dev);
  gpusim::LaunchOptions opts;
  opts.hooks = hooks;
  const auto res = dev.launch(prog, job->config(), args, opts);
  EXPECT_EQ(res.status, gpusim::LaunchStatus::Ok) << w.name();
  RunHash r;
  r.cycles = res.cycles;
  if (res.status == gpusim::LaunchStatus::Ok)
    r.hash = fnv1a(job->read_output(dev).words);
  return r;
}

/// Pinned goldens.  Keys are workload names; values were captured on the
/// reference engine and must hold on every engine.
const std::map<std::string, Golden>& goldens() {
  static const std::map<std::string, Golden> g = {
      {"CP", {0x8c30eec42cc1148bULL, 53760ULL, 0x8c30eec42cc1148bULL, 56736ULL}},
      {"MRI-FHD", {0xbb702e53f53decceULL, 89040ULL, 0xbb702e53f53decceULL, 92768ULL}},
      {"MRI-Q", {0xb97a49d5cd0cd7cfULL, 72528ULL, 0xb97a49d5cd0cd7cfULL, 76224ULL}},
      {"PNS", {0x413b03984206459fULL, 21231ULL, 0x413b03984206459fULL, 24703ULL}},
      {"RPES", {0xc2783afcc958c0c6ULL, 27376ULL, 0xc2783afcc958c0c6ULL, 54880ULL}},
      {"SAD", {0x597c39884d63a761ULL, 175092ULL, 0x597c39884d63a761ULL, 177902ULL}},
      {"TPACF", {0x6f4e5d6f909b3980ULL, 252920ULL, 0x6f4e5d6f909b3980ULL, 288302ULL}},
      {"ocean-flow", {0x783efbda61bc8efaULL, 84096ULL, 0x783efbda61bc8efaULL, 94272ULL}},
      {"ray-trace", {0x441b7bde26214c76ULL, 141952ULL, 0x441b7bde26214c76ULL, 180928ULL}},
      {"cpu-histogram", {0xa50265c6161fcf55ULL, 21763ULL, 0xa50265c6161fcf55ULL, 22620ULL}},
      {"cpu-linkedlist", {0xe6bd86443df8ce07ULL, 58ULL, 0xe6bd86443df8ce07ULL, 94ULL}},
      {"cpu-matmul", {0x26a9d1c4ba86dbb9ULL, 36640ULL, 0x26a9d1c4ba86dbb9ULL, 39848ULL}},
  };
  return g;
}

std::vector<std::unique_ptr<Workload>> all_workloads() {
  std::vector<std::unique_ptr<Workload>> all;
  for (auto& w : hpc_suite()) all.push_back(std::move(w));
  for (auto& w : graphics_suite()) all.push_back(std::move(w));
  for (auto& w : cpu_suite()) all.push_back(std::move(w));
  all.push_back(make_cpu_matmul());  // not part of cpu_suite's Fig. 1 rows
  return all;
}

}  // namespace

TEST(GoldenOutputs, AllWorkloadsMatchPinnedHashesOnBothEngines) {
  const bool print = std::getenv("HAUBERK_GOLDEN_PRINT") != nullptr;
  std::size_t checked = 0;
  for (auto& w : all_workloads()) {
    const Dataset ds = w->make_dataset(kDatasetSeed, Scale::Tiny);
    auto v = core::build_variants(w->build_kernel(Scale::Tiny));

    // Every (engine, sanitize) setting.
    const std::pair<gpusim::ExecEngine, bool> settings[] = {
        {gpusim::ExecEngine::Reference, false},
        {gpusim::ExecEngine::Threaded, false},
        {gpusim::ExecEngine::Reference, true},
        {gpusim::ExecEngine::Threaded, true}};
    for (const auto& [engine, sanitize] : settings) {
      const RunHash base = run_hashed(*w, ds, v.baseline, engine, sanitize, nullptr);
      core::ControlBlock cb(v.ft);
      const RunHash ft = run_hashed(*w, ds, v.ft, engine, sanitize, &cb);

      if (print) {
        if (engine == gpusim::ExecEngine::Reference && !sanitize)
          std::printf("      {\"%s\", {0x%016llxULL, %lluULL, 0x%016llxULL, %lluULL}},\n",
                      w->name().c_str(),
                      static_cast<unsigned long long>(base.hash),
                      static_cast<unsigned long long>(base.cycles),
                      static_cast<unsigned long long>(ft.hash),
                      static_cast<unsigned long long>(ft.cycles));
        continue;
      }

      const auto it = goldens().find(w->name());
      ASSERT_NE(it, goldens().end()) << "no golden pinned for " << w->name()
                                     << " — run with HAUBERK_GOLDEN_PRINT=1";
      const std::string en =
          std::string(gpusim::exec_engine_name(engine)) + (sanitize ? "+sanitize" : "");
      EXPECT_EQ(base.hash, it->second.base_hash) << w->name() << " baseline output (" << en << ")";
      EXPECT_EQ(base.cycles, it->second.base_cycles) << w->name() << " baseline cycles (" << en << ")";
      EXPECT_EQ(ft.hash, it->second.ft_hash) << w->name() << " FT output (" << en << ")";
      EXPECT_EQ(ft.cycles, it->second.ft_cycles) << w->name() << " FT cycles (" << en << ")";
      // FT instrumentation must also be semantically transparent here, by
      // construction of the table: base and FT hashes are pinned equal.
      EXPECT_EQ(base.hash, ft.hash) << w->name() << " (" << en << ")";
      ++checked;
    }
  }
  if (!print) {
    EXPECT_EQ(checked, 4 * goldens().size());
  }
}
