// hauberk::lint — the static analysis suite over KIR.
//
// Four analyzers, all driven by the kir::IntervalAnalysis fixpoint (cached in
// the kir::AnalysisManager) plus the Fig. 9 dataflow graphs:
//
//  1. Range cross-check: the sound static interval of every RangeCheck /
//     ProfileValue detector value must contain the *profiled* range observed
//     on any dataset.  A contained-but-tighter profile yields a
//     `RangeTighterThanStatic` remark quantifying Fig. 16 false-positive
//     exposure (how much legal value space the trained detector would flag);
//     an escaping profile is a `StaticRangeUnsound` error (analysis or
//     profiler bug).
//  2. Bounds: every global/shared load/store address interval is checked
//     against the address space.  Disjoint-from-bounds is a `PossibleOob`
//     error (the access always faults when reached), partial or unbounded
//     overlap a warning.
//  3. Concurrency: `NonUniformBarrier` for barriers under thread-dependent
//     control flow, and `SharedWriteOverlap` for shared-store pairs in the
//     same barrier epoch whose affine-in-tid footprints can collide between
//     distinct threads of a block (exact divisibility test for affine
//     addresses, conservative interval overlap otherwise).  The dynamic
//     sanitizer (gpusim::Device::set_sanitize) confirms these classes at
//     run time.
//  4. Detector coverage: which virtual variables / dataflow edges of an
//     *instrumented* kernel are backward-reachable from no detector
//     (ChkXor / DupCmp / RangeCheck / accumulator), as `UncoveredVariable` /
//     `UncoveredEdge` warnings plus kernel-level percentages.
//
// Diagnostics are deterministic (stable severity-ranked sort, byte-identical
// output across runs and campaign worker counts) and carry pc/site
// provenance when the lowered program is supplied: the k-th syntactic access
// maps positionally onto the k-th memory/barrier instruction, and shared
// accesses additionally get the dense sanitizer site id.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "kir/analysis_manager.hpp"
#include "kir/ast.hpp"
#include "kir/bytecode.hpp"
#include "kir/interval.hpp"

namespace hauberk::core {
struct HardeningPlan;
}

namespace hauberk::lint {

enum class Severity : std::uint8_t { Error = 0, Warning = 1, Remark = 2 };

enum class DiagKind : std::uint8_t {
  PossibleOob,
  NonUniformBarrier,
  SharedWriteOverlap,
  StaticRangeUnsound,
  RangeTighterThanStatic,
  UncoveredVariable,
  UncoveredEdge,
  /// The variable/edge is reached by no detector *because the active
  /// HardeningPlan deliberately excludes it* — a budget decision, not an
  /// instrumentation gap, so it is a remark rather than a warning.
  ExcludedByPlan,
};

[[nodiscard]] const char* severity_name(Severity s) noexcept;
[[nodiscard]] const char* diag_kind_name(DiagKind k) noexcept;

struct Diagnostic {
  DiagKind kind{};
  Severity severity = Severity::Warning;
  std::string message;        ///< human-readable, deterministic
  std::int64_t pc = -1;       ///< bytecode pc of the subject instruction
  std::int64_t other_pc = -1; ///< second instruction (overlap pairs)
  std::int64_t site = -1;     ///< dense sanitizer site id (shared/barrier)
  kir::VarId var = kir::kInvalidVar;
  kir::VarId var2 = kir::kInvalidVar;  ///< UncoveredEdge: the used (source) variable
  int detector = -1;
  std::uint32_t loop_id = kir::kNoLoop;
};

/// Fig. 9 coverage of an instrumented kernel.  An excluded variable/edge is
/// one the active HardeningPlan deliberately left unprotected; it still
/// counts as uncovered in the percentages (the corruption surface is real)
/// but is reported as a remark, not a warning.
struct Coverage {
  int total_vars = 0, covered_vars = 0, excluded_vars = 0;
  int total_edges = 0, covered_edges = 0, excluded_edges = 0;
  [[nodiscard]] double var_pct() const noexcept {
    return total_vars == 0 ? 100.0 : 100.0 * covered_vars / total_vars;
  }
  [[nodiscard]] double edge_pct() const noexcept {
    return total_edges == 0 ? 100.0 : 100.0 * covered_edges / total_edges;
  }
};

/// Static interval of one RangeCheck/ProfileValue detector value, published
/// for the TranslateOptions::substitute_static_ranges knob.
struct StaticDetectorRange {
  int detector = -1;
  std::string label;  ///< protected variable name
  kir::DType type = kir::DType::F32;
  kir::ValInterval value{};
  /// Only finite intervals are usable as detector ranges.
  [[nodiscard]] bool usable() const noexcept { return value.finite(); }
};

/// Profiled range of one detector, as observed by hauberk::core profiling;
/// the cross-check compares it against the static interval.
struct ObservedRange {
  int detector = -1;
  double lo = 0, hi = 0;
  std::size_t samples = 0;
};

struct LintReport {
  std::string kernel;
  Coverage coverage;
  std::vector<Diagnostic> diagnostics;  ///< severity-ranked, stable order
  std::vector<StaticDetectorRange> detector_ranges;
  int errors = 0, warnings = 0, remarks = 0;

  [[nodiscard]] std::string to_string() const;  ///< human printer
  [[nodiscard]] std::string to_json() const;    ///< machine printer

  [[nodiscard]] bool has(DiagKind k) const noexcept;
  [[nodiscard]] int count(DiagKind k) const noexcept;
};

struct LintOptions {
  kir::IntervalEnv env;
  bool check_bounds = true;
  bool check_barriers = true;
  bool check_overlap = true;
  bool check_coverage = true;
  /// Profiled ranges for the cross-check; empty disables analyzer (1).
  std::vector<ObservedRange> observed;
  /// The program lowered from the analyzed kernel; enables pc/site
  /// provenance on diagnostics.  May be null.
  const kir::BytecodeProgram* program = nullptr;
  /// The HardeningPlan the kernel was instrumented under.  When set, the
  /// coverage analyzer downgrades UncoveredVariable/UncoveredEdge to
  /// ExcludedByPlan remarks for variables/loops the plan deliberately
  /// excludes.  May be null (grade against full Hauberk instrumentation).
  const core::HardeningPlan* plan = nullptr;
};

/// Run every enabled analyzer over `kernel`.  Supplying an AnalysisManager
/// reuses its cached interval/dataflow analyses; pass nullptr for a
/// standalone run.  Deterministic: identical inputs yield byte-identical
/// reports.
[[nodiscard]] LintReport run_lint(const kir::Kernel& kernel, const LintOptions& opt,
                                  kir::AnalysisManager* am = nullptr);

/// Build an IntervalEnv from a concrete launch: block/grid dimensions from
/// `cfg`, parameter point-intervals from `args`, memory sizes from `props`.
[[nodiscard]] kir::IntervalEnv env_for(const gpusim::LaunchConfig& cfg,
                                       std::span<const kir::Value> args,
                                       const gpusim::DeviceProps& props);

}  // namespace hauberk::lint
