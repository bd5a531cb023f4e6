// Structured selective-hardening plans.
//
// A HardeningPlan carries per-kernel, per-loop, and per-variable decisions
// about which Hauberk detectors to place — Hauberk-L loop checks
// (accumulator + range + iteration invariants), non-loop
// checksum+duplication, the naive Fig. 8(b) shadow-duplication ablation —
// or nothing at all.  Plans
//
//   * serialize to / parse from a small s-expression (mirroring
//     kir::serialize_kernel's flat, strict format),
//   * carry a digest that campaign results fold into campaign_digest so a
//     stored run is bound to the exact plan that produced it, and
//   * adapt onto the existing pass framework via apply_plan() /
//     plan_to_pipeline(), so PassPipeline composition, the idempotence
//     guard, and structured PassRemarks keep working unchanged.
//
// A *trivial* plan (no kernel entry expresses a decision) is guaranteed to
// be indistinguishable from no plan: same pipeline name, same program and
// remark digests, digest 0.  That invariant is what keeps the 216 golden
// translator digests and existing campaign digests bitwise stable.
//
// The budgeted optimizer (hauberk/opt.hpp) and the kirtune CLI produce
// plans; fault_campaign/campaignd consume them via --plan=FILE.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hauberk/translator.hpp"

namespace hauberk::core {

class PassPipeline;  // src/hauberk/passes/pass_manager.hpp

/// Three-state switch: Default defers to the TranslateOptions the plan is
/// applied over, so a plan only overrides what it explicitly decides.
enum class Tri : std::uint8_t { Default, Off, On };

[[nodiscard]] const char* tri_name(Tri t) noexcept;

/// Decisions for one kernel (or the wildcard entry, kernel == "").
struct KernelPlan {
  std::string kernel;          ///< exact kernel name; "" matches any kernel
  int maxvar = -1;             ///< Maxvar override; -1 inherits the options
  Tri loops = Tri::Default;    ///< Hauberk-L loop detectors master switch
  Tri nonloop = Tri::Default;  ///< non-loop checksum+dup master switch
  Tri naive = Tri::Default;    ///< Fig. 8(b) naive duplication ablation
  /// Per-top-level-loop override, keyed by kir loop id.  If any entry is
  /// On, the map is an allowlist (unlisted loops are skipped); otherwise it
  /// is a denylist (Off entries are skipped, the rest instrumented).
  std::map<std::uint32_t, bool> loop_actions;
  /// Per-variable override for non-loop protection, keyed by source
  /// variable name; same allowlist/denylist rule as loop_actions.
  std::map<std::string, bool> var_actions;

  [[nodiscard]] bool trivial() const noexcept;
};

/// Is top-level loop `loop_id` / variable `name` selected for protection
/// under this kernel's plan?  (Only consulted while the corresponding pass
/// is in the pipeline at all — master Off switches remove the pass.)
[[nodiscard]] bool plan_allows_loop(const KernelPlan& kp, std::uint32_t loop_id) noexcept;
[[nodiscard]] bool plan_allows_var(const KernelPlan& kp, const std::string& name) noexcept;

struct HardeningPlan {
  std::vector<KernelPlan> kernels;

  /// Exact-name match first, then the wildcard entry, else nullptr.
  [[nodiscard]] const KernelPlan* find(const std::string& kernel_name) const noexcept;
  [[nodiscard]] bool trivial() const noexcept;
};

/// Canonical s-expression form, e.g.
///   (hauberk-plan 1
///     (kernel "mm"
///       (maxvar 2) (loops on) (nonloop off) (naive default)
///       (loop 3 on) (var "acc" off)))
/// Serialization is canonical: parse(serialize(p)) reproduces p exactly and
/// two plans serialize equal iff they decide equally.
[[nodiscard]] std::string serialize_plan(const HardeningPlan& plan);

/// Strict parser for the serialize_plan format; throws std::runtime_error
/// with a diagnostic on any malformed input (unknown atom, bad arity,
/// duplicate kernel entry, trailing garbage, out-of-range numbers).
[[nodiscard]] HardeningPlan parse_plan(const std::string& text);

/// Read and parse a plan file (the --plan=FILE form every campaign tool
/// accepts); throws std::runtime_error naming the path on I/O failure and
/// propagates parse_plan's diagnostics otherwise.
[[nodiscard]] HardeningPlan load_plan(const std::string& path);

/// Stable identity for campaign binding: 0 for a trivial plan (so digests
/// of plan-free campaigns never move), otherwise a nonzero FNV-1a over the
/// canonical serialization.
[[nodiscard]] std::uint64_t plan_digest(const HardeningPlan& plan) noexcept;

/// Resolve `plan` for one kernel: returns `opt` with the kernel's master
/// switches and Maxvar folded in and TranslateOptions::kernel_plan pointing
/// at the matched entry (which the instrumentation passes consult for
/// per-loop / per-variable decisions).  The pointer aliases `plan`, which
/// must outlive the returned options — translate() guarantees this by
/// holding the plan through TranslateOptions::plan.
[[nodiscard]] TranslateOptions apply_plan(const TranslateOptions& opt,
                                          const HardeningPlan& plan,
                                          const std::string& kernel_name);

/// Adapter onto the pass framework: the pipeline pipeline_for() composes
/// for the plan-resolved options, with a ".plan" name suffix when the
/// kernel's entry is non-trivial.  `resolved`, when given, receives the
/// apply_plan() result the pipeline was composed for (what a PassContext
/// should run with).
[[nodiscard]] PassPipeline plan_to_pipeline(const HardeningPlan& plan,
                                            const TranslateOptions& base,
                                            const std::string& kernel_name,
                                            TranslateOptions* resolved = nullptr);

}  // namespace hauberk::core
