#include "hauberk/prune.hpp"

#include <algorithm>
#include <cstdint>

#include "common/fnv.hpp"
#include "common/sexpr.hpp"
#include "kir/analysis.hpp"
#include "kir/analysis_manager.hpp"
#include "kir/defuse.hpp"

namespace hauberk::prune {

namespace sexpr = common::sexpr;

const SiteFacts* KernelPruneFacts::find(std::uint32_t site_id) const noexcept {
  const auto it = std::lower_bound(
      sites.begin(), sites.end(), site_id,
      [](const SiteFacts& f, std::uint32_t id) { return f.site_id < id; });
  return it != sites.end() && it->site_id == site_id ? &*it : nullptr;
}

const KernelPruneFacts* PruningPlan::find(const std::string& kernel) const noexcept {
  for (const KernelPruneFacts& k : kernels)
    if (k.kernel == kernel) return &k;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Facts builder
// ---------------------------------------------------------------------------

KernelPruneFacts build_kernel_prune_facts(const kir::Kernel& instrumented,
                                          const kir::BytecodeProgram& program,
                                          kir::AnalysisManager* am) {
  kir::AnalysisManager local(instrumented);
  kir::AnalysisManager& mgr = am ? *am : local;
  const kir::DefUseAnalysis& du = mgr.def_use();
  const kir::Analysis& an = mgr.analysis();

  KernelPruneFacts out;
  out.kernel = instrumented.name;
  out.program_digest = kir::program_digest(program);
  out.sites.reserve(program.fi_sites.size());
  for (const kir::FISite& site : program.fi_sites) {
    SiteFacts f;
    f.site_id = site.site_id;
    if (site.var < instrumented.vars.size()) {
      const kir::VarDefUse& v = du.var(site.var);
      // A dead-window hook fires after the variable's last semantic use in
      // the statement list of its definition: stores/branches can no longer
      // see the flip, but detectors that re-read the value at check time
      // (checksum validate, dup compare) still can — only the
      // detector-reachable bits stay live.  The window claim does not hold
      // for values that outlive that list: a loop-carried variable is read
      // again by the next iteration, and a use-before-def variable has reads
      // the placement scan cannot order against the hook.
      const bool window_closed = !v.loop_carried && !v.use_before_def;
      f.live_mask = site.dead_window && window_closed ? v.detector_observed_mask
                                                     : v.observed_mask;
      f.uniform = !v.divergent;
      const bool iterator_site = site.hw == kir::HwComponent::Scheduler ||
                                 an.facts(site.var).is_loop_iterator;
      f.occ_symmetric = du.occurrence_symmetric(site.var) && !iterator_site;
      // Fold the site-level attributes the cone hash cannot see from the
      // variable alone: hw component, dtype, loop membership, dead window.
      f.cone_sig = common::fnv_mix(v.cone_sig, static_cast<std::uint64_t>(site.hw));
      f.cone_sig = common::fnv_mix(f.cone_sig, static_cast<std::uint64_t>(site.type));
      f.cone_sig = common::fnv_mix(f.cone_sig,
                                   (site.in_loop ? 2u : 0u) | (site.dead_window ? 1u : 0u));
    } else {
      f.live_mask = 0xffffffffu;  // unknown var: never prune
      f.cone_sig = common::fnv_mix(0x6261Dull, site.site_id);
    }
    out.sites.push_back(f);
  }
  std::sort(out.sites.begin(), out.sites.end(),
            [](const SiteFacts& a, const SiteFacts& b) { return a.site_id < b.site_id; });
  return out;
}

// ---------------------------------------------------------------------------
// Serializer (canonical: fixed field order, sites sorted by id)
// ---------------------------------------------------------------------------

namespace {

constexpr int kPruneVersion = 1;

}  // namespace

std::string serialize_pruning_plan(const PruningPlan& plan) {
  std::string out = "(hauberk-prune " + std::to_string(kPruneVersion);
  for (const KernelPruneFacts& k : plan.kernels) {
    out += "\n (kernel ";
    sexpr::write_string(out, k.kernel);
    out += " (program " + sexpr::hex(k.program_digest) + ")";
    for (const SiteFacts& f : k.sites) {
      out += "\n  (site " + std::to_string(f.site_id);
      out += " (live " + sexpr::hex(f.live_mask) + ")";
      out += " (cone " + sexpr::hex(f.cone_sig) + ")";
      out += std::string(" (uniform ") + (f.uniform ? "1)" : "0)");
      out += std::string(" (occsym ") + (f.occ_symmetric ? "1)" : "0)");
      out += ")";
    }
    out += ")";
  }
  out += ")\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parser (the field grammar over the shared strict reader)
// ---------------------------------------------------------------------------

namespace {

using sexpr::Tok;

bool read_bit(sexpr::Reader& r, const std::string& what) {
  if (r.accept_atom("1")) return true;
  if (r.accept_atom("0")) return false;
  r.fail(what + " must be 0 or 1");
}

void read_site(sexpr::Reader& r, KernelPruneFacts& k) {
  r.expect_atom("site");
  SiteFacts f;
  f.site_id = static_cast<std::uint32_t>(r.integer(0, 0xffffffffll, "site id"));
  if (std::any_of(k.sites.begin(), k.sites.end(),
                  [&](const SiteFacts& s) { return s.site_id == f.site_id; }))
    r.fail("duplicate site entry " + std::to_string(f.site_id));
  while (r.accept(Tok::LParen)) {
    const std::string field = r.atom("site field name");
    if (field == "live") {
      f.live_mask = static_cast<std::uint32_t>(r.hex(0xffffffffull, "live mask"));
    } else if (field == "cone") {
      f.cone_sig = r.hex(UINT64_MAX, "cone signature");
    } else if (field == "uniform") {
      f.uniform = read_bit(r, "uniform");
    } else if (field == "occsym") {
      f.occ_symmetric = read_bit(r, "occsym");
    } else {
      r.fail("unknown site field '" + field + "'");
    }
    r.expect(Tok::RParen, "expected ')' closing site field");
  }
  r.expect(Tok::RParen, "expected ')' closing site entry");
  k.sites.push_back(f);
}

KernelPruneFacts read_kernel(sexpr::Reader& r, const PruningPlan& so_far) {
  r.expect(Tok::LParen, "expected '(kernel ...)'");
  r.expect_atom("kernel");
  KernelPruneFacts k;
  k.kernel = r.string("kernel name");
  for (const KernelPruneFacts& prev : so_far.kernels)
    if (prev.kernel == k.kernel) r.fail("duplicate kernel entry \"" + k.kernel + "\"");
  r.expect(Tok::LParen, "expected '(program ...)'");
  r.expect_atom("program");
  k.program_digest = r.hex(UINT64_MAX, "program digest");
  r.expect(Tok::RParen, "expected ')' closing program");
  while (r.accept(Tok::LParen)) read_site(r, k);
  r.expect(Tok::RParen, "expected ')' closing kernel entry");
  return k;
}

}  // namespace

PruningPlan parse_pruning_plan(const std::string& text) {
  sexpr::Reader r(text, "hauberk-prune parse error: ");
  r.expect(Tok::LParen, "plan must start with '('");
  r.expect_atom("hauberk-prune");
  const std::int64_t ver = r.integer(INT64_MIN, INT64_MAX, "version");
  if (ver != kPruneVersion)
    r.fail("unsupported version " + std::to_string(ver));
  PruningPlan plan;
  while (r.at(Tok::LParen)) plan.kernels.push_back(read_kernel(r, plan));
  r.expect(Tok::RParen, "expected ')' closing hauberk-prune");
  r.expect_end("trailing garbage after plan");
  return plan;
}

PruningPlan load_pruning_plan(const std::string& path) {
  return parse_pruning_plan(sexpr::read_file(path, "hauberk-prune"));
}

std::uint64_t pruning_plan_digest(const PruningPlan& plan) noexcept {
  if (plan.trivial()) return 0;  // prune-free campaign digests must not move
  const std::uint64_t h =
      common::fnv1a(common::kFnvTruncatedBasis, serialize_pruning_plan(plan));
  return h ? h : 1;
}

}  // namespace hauberk::prune
