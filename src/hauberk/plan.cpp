#include "hauberk/plan.hpp"

#include <cstdint>

#include "common/fnv.hpp"
#include "common/sexpr.hpp"
#include "hauberk/passes/pass_manager.hpp"

namespace hauberk::core {

namespace sexpr = common::sexpr;

const char* tri_name(Tri t) noexcept {
  switch (t) {
    case Tri::Default: return "default";
    case Tri::Off: return "off";
    case Tri::On: return "on";
  }
  return "?";
}

bool KernelPlan::trivial() const noexcept {
  return maxvar < 0 && loops == Tri::Default && nonloop == Tri::Default &&
         naive == Tri::Default && loop_actions.empty() && var_actions.empty();
}

bool plan_allows_loop(const KernelPlan& kp, std::uint32_t loop_id) noexcept {
  auto it = kp.loop_actions.find(loop_id);
  if (it != kp.loop_actions.end()) return it->second;
  for (const auto& [id, on] : kp.loop_actions)
    if (on) return false;  // allowlist mode: unlisted loops are skipped
  return true;
}

bool plan_allows_var(const KernelPlan& kp, const std::string& name) noexcept {
  auto it = kp.var_actions.find(name);
  if (it != kp.var_actions.end()) return it->second;
  for (const auto& [n, on] : kp.var_actions)
    if (on) return false;
  return true;
}

const KernelPlan* HardeningPlan::find(const std::string& kernel_name) const noexcept {
  const KernelPlan* wildcard = nullptr;
  for (const KernelPlan& kp : kernels) {
    if (kp.kernel == kernel_name) return &kp;
    if (kp.kernel.empty() && !wildcard) wildcard = &kp;
  }
  return wildcard;
}

bool HardeningPlan::trivial() const noexcept {
  for (const KernelPlan& kp : kernels)
    if (!kp.trivial()) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Serializer (canonical: fixed field order, sorted maps via std::map)
// ---------------------------------------------------------------------------

namespace {

constexpr int kPlanVersion = 1;

}  // namespace

std::string serialize_plan(const HardeningPlan& plan) {
  std::string out = "(hauberk-plan " + std::to_string(kPlanVersion);
  for (const KernelPlan& kp : plan.kernels) {
    out += "\n (kernel ";
    sexpr::write_string(out, kp.kernel);
    out += " (maxvar " + std::to_string(kp.maxvar) + ")";
    out += " (loops " + std::string(tri_name(kp.loops)) + ")";
    out += " (nonloop " + std::string(tri_name(kp.nonloop)) + ")";
    out += " (naive " + std::string(tri_name(kp.naive)) + ")";
    for (const auto& [id, on] : kp.loop_actions)
      out += " (loop " + std::to_string(id) + (on ? " on)" : " off)");
    for (const auto& [name, on] : kp.var_actions) {
      out += " (var ";
      sexpr::write_string(out, name);
      out += on ? " on)" : " off)";
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

Tri read_tri(sexpr::Reader& r, const std::string& what) {
  if (r.accept_atom("on")) return Tri::On;
  if (r.accept_atom("off")) return Tri::Off;
  if (r.accept_atom("default")) return Tri::Default;
  r.fail(what + " must be on/off/default");
}

bool read_on_off(sexpr::Reader& r, const std::string& what) {
  if (r.accept_atom("on")) return true;
  if (r.accept_atom("off")) return false;
  r.fail(what + " must be on or off");
}

void read_field(sexpr::Reader& r, KernelPlan& kp) {
  const std::string field = r.atom("field name");
  if (field == "maxvar") {
    kp.maxvar = static_cast<int>(r.integer(-1, 1 << 20, "maxvar"));
  } else if (field == "loops") {
    kp.loops = read_tri(r, "loops");
  } else if (field == "nonloop") {
    kp.nonloop = read_tri(r, "nonloop");
  } else if (field == "naive") {
    kp.naive = read_tri(r, "naive");
  } else if (field == "loop") {
    const auto id = static_cast<std::uint32_t>(r.integer(0, 0xfffffffeLL, "loop id"));
    if (!kp.loop_actions.emplace(id, read_on_off(r, "loop action")).second)
      r.fail("duplicate loop entry " + std::to_string(id));
  } else if (field == "var") {
    const std::string name = r.string("var name");
    if (!kp.var_actions.emplace(name, read_on_off(r, "var action")).second)
      r.fail("duplicate var entry \"" + name + "\"");
  } else {
    r.fail("unknown field '" + field + "'");
  }
}

KernelPlan read_kernel(sexpr::Reader& r, const HardeningPlan& so_far) {
  r.expect(Tok::LParen, "expected '(kernel ...)'");
  r.expect_atom("kernel");
  KernelPlan kp;
  kp.kernel = r.string("kernel name");
  for (const KernelPlan& prev : so_far.kernels)
    if (prev.kernel == kp.kernel) r.fail("duplicate kernel entry \"" + kp.kernel + "\"");
  while (r.accept(Tok::LParen)) {
    read_field(r, kp);
    r.expect(Tok::RParen, "expected ')' closing field");
  }
  r.expect(Tok::RParen, "expected ')' closing kernel entry");
  return kp;
}

}  // namespace

HardeningPlan parse_plan(const std::string& text) {
  sexpr::Reader r(text, "hauberk-plan parse error: ");
  r.expect(Tok::LParen, "plan must start with '('");
  r.expect_atom("hauberk-plan");
  const std::int64_t ver = r.integer(INT64_MIN, INT64_MAX, "version");
  if (ver != kPlanVersion) r.fail("unsupported version " + std::to_string(ver));
  HardeningPlan plan;
  while (r.at(Tok::LParen)) plan.kernels.push_back(read_kernel(r, plan));
  r.expect(Tok::RParen, "expected ')' closing hauberk-plan");
  r.expect_end("trailing garbage after plan");
  return plan;
}

HardeningPlan load_plan(const std::string& path) {
  return parse_plan(sexpr::read_file(path, "hauberk-plan"));
}

std::uint64_t plan_digest(const HardeningPlan& plan) noexcept {
  if (plan.trivial()) return 0;  // plan-free campaign digests must not move
  const std::uint64_t h = common::fnv1a(common::kFnvTruncatedBasis, serialize_plan(plan));
  return h ? h : 1;
}

TranslateOptions apply_plan(const TranslateOptions& opt, const HardeningPlan& plan,
                            const std::string& kernel_name) {
  TranslateOptions eff = opt;
  const KernelPlan* kp = plan.find(kernel_name);
  eff.kernel_plan = kp;
  if (!kp) return eff;
  if (kp->maxvar >= 0) eff.maxvar = kp->maxvar;
  if (kp->loops != Tri::Default) eff.protect_loop = kp->loops == Tri::On;
  if (kp->nonloop != Tri::Default) eff.protect_nonloop = kp->nonloop == Tri::On;
  if (kp->naive != Tri::Default) eff.naive_duplication = kp->naive == Tri::On;
  return eff;
}

PassPipeline plan_to_pipeline(const HardeningPlan& plan, const TranslateOptions& base,
                              const std::string& kernel_name, TranslateOptions* resolved) {
  const TranslateOptions eff = apply_plan(base, plan, kernel_name);
  PassPipeline pipe = pipeline_for(eff.mode, eff);
  if (eff.kernel_plan && !eff.kernel_plan->trivial())
    pipe.set_name(pipe.name() + ".plan");
  if (resolved) *resolved = eff;
  return pipe;
}

}  // namespace hauberk::core
