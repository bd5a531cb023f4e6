// The Hauberk source-to-source translator (Fig. 7, Table I).
//
// Given a kernel AST, produces an instrumented kernel for one of the four
// library modes:
//
//  * Profiler — inserts loop accumulators/counters that feed ProfileValue
//    statements (value-range profiling, Section V.B) and CountExec hooks
//    after every virtual-variable definition (FI target derivation).
//  * FT — fault tolerance: non-loop duplication + shared-checksum detectors
//    (Section V.A, Fig. 8(c)) and loop accumulation-based range checking +
//    iteration-count invariants (Section V.B).
//  * FI — inserts a fault-injection hook after every definition (Fig. 12).
//  * FIFT — FT instrumentation plus FI hooks, used to measure the detection
//    coverage of the placed detectors (Fig. 14).
//
// Since the pass-manager refactor each mode is a *named pass pipeline*
// (src/hauberk/passes): discrete transformation passes composed by
// pipeline_for(), sharing cached analyses through a kir::AnalysisManager and
// emitting structured PassRemarks into the TranslateReport.  translate()
// remains the convenience entry point; selective per-kernel hardening goes
// through TranslateOptions::plan (hauberk/plan.hpp), and callers needing
// pass-level control (pass tracing, custom pipelines) use the passes API
// directly.
//
// Baseline detectors from the related-work comparison (R-Naive, R-Scatter)
// live in src/swifi/baselines.*.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/cost.hpp"
#include "hauberk/lint.hpp"
#include "kir/analysis.hpp"
#include "kir/analysis_manager.hpp"
#include "kir/ast.hpp"

namespace hauberk::core {

enum class LibMode : std::uint8_t { None, Profiler, FT, FI, FIFT };

[[nodiscard]] const char* lib_mode_name(LibMode m) noexcept;

struct HardeningPlan;  // src/hauberk/plan.hpp
struct KernelPlan;

struct TranslateOptions {
  LibMode mode = LibMode::FT;
  /// Maximum protected variables per loop (Maxvar, Section V.B); counts
  /// self-accumulating variables.
  int maxvar = 1;
  /// Enable the non-loop detectors (disable to build Hauberk-L only).
  bool protect_nonloop = true;
  /// Enable the loop detectors (disable to build Hauberk-NL only).
  bool protect_loop = true;
  /// Give FI hooks to loop iterators (emulates SM-scheduler/control faults;
  /// source of the loop-hang failures of Section IX.B).
  bool fi_target_iterators = true;
  /// Ablation: use the naive variable-granularity duplication of Fig. 8(b)
  /// (shadow variable alive until the last use, compared there) instead of
  /// Hauberk's checksum-based scheme of Fig. 8(c).
  bool naive_duplication = false;
  /// Append the static lint stage (hauberk::lint) to the pipeline.  The
  /// stage never mutates the kernel; its LintReport lands in
  /// TranslateReport::lint and the pipeline name gains a ".lint" suffix.
  bool lint = false;
  /// Launch facts the lint stage's abstract interpretation may assume
  /// (block/grid dimensions, parameter intervals).  Defaults are fully
  /// conservative.
  kir::IntervalEnv lint_env;
  /// Configure RangeCheck detectors from the lint stage's proven-sound
  /// static intervals instead of profiled ranges (apply_static_ranges in
  /// runtime.hpp consumes TranslateReport::lint).  Eliminates the Fig. 16
  /// unlucky-training false positives at the cost of wider accepted ranges.
  bool substitute_static_ranges = false;
  /// Structured selective hardening (hauberk/plan.hpp): per-kernel,
  /// per-loop, per-variable decisions resolved by translate() before the
  /// pipeline is composed.  A trivial (decision-free) plan is guaranteed to
  /// behave exactly like no plan.
  std::shared_ptr<const HardeningPlan> plan;
  /// Resolved by apply_plan() for the kernel being translated; passes
  /// consult it for per-loop/per-variable selections.  Aliases `plan` —
  /// never set it by hand.
  const KernelPlan* kernel_plan = nullptr;
};

/// One structured remark emitted by an instrumentation pass: what was placed
/// or skipped, and why.  Remarks are deterministic — same kernel + options
/// produce the same remark sequence — and are surfaced through inspect
/// --print-passes and the SWIFI campaign results.
struct PassRemark {
  std::string pass;     ///< emitting pass name (e.g. "loop-check")
  std::string message;  ///< human-readable, deterministic
  std::uint32_t loop_id = 0xffffffffu;      ///< kir::kNoLoop when not loop-scoped
  kir::VarId var = kir::kInvalidVar;        ///< subject variable, if any
  int detector = -1;                        ///< placed detector id, if any
};

/// One placed loop detector, for reporting and tests.
struct LoopDetectorInfo {
  std::uint32_t loop_id = 0;
  kir::VarId var = kir::kInvalidVar;
  int value_detector = -1;
  int iter_detector = -1;  ///< -1 when the trip count was not derivable
  bool self_accumulating = false;
};

struct TranslateReport {
  int nonloop_protected = 0;   ///< virtual variables covered by dup+checksum
  int params_protected = 0;
  std::vector<LoopDetectorInfo> loop_detectors;
  int fi_sites = 0;
  double transform_seconds = 0.0;  ///< Section IX.D instrumentation time
  std::string pipeline;            ///< name of the pass pipeline that ran
  std::vector<PassRemark> remarks;
  /// Analysis-cache behavior of the run (hits/misses/invalidations).
  kir::AnalysisManager::Stats analysis_cache;
  /// Static per-class cost anatomy of the instrumented kernel under the
  /// default device pricing (shared gpusim cost layer; cached through the
  /// analysis manager's external slot).
  gpusim::CostBreakdown cost;
  /// Static analysis result; populated when TranslateOptions::lint is set.
  hauberk::lint::LintReport lint;
};

/// Stable digest over a report's remark stream (order-sensitive).  Campaign
/// results carry it so tests can pin that instrumentation remarks are
/// deterministic and worker-count-invariant.
[[nodiscard]] std::uint64_t remark_digest(const TranslateReport& report) noexcept;

/// Render remarks as one line each ("[pass] message"), for CLIs and logs.
[[nodiscard]] std::string format_remarks(const TranslateReport& report);

/// Instrument `input` according to `opt`.  The input kernel is not modified.
/// Rejects kernels that already carry Hauberk instrumentation (re-running
/// the translator would double-place detectors) with std::invalid_argument.
[[nodiscard]] kir::Kernel translate(const kir::Kernel& input, const TranslateOptions& opt,
                                    TranslateReport* report = nullptr);

/// True if `k` contains any translator-inserted statement (the idempotence
/// guard translate() enforces).
[[nodiscard]] bool is_instrumented(const kir::Kernel& k);

}  // namespace hauberk::core
