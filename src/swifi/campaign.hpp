// Fault-injection campaign harness (Sections VII/VIII): plans fault targets
// from profiler execution counts, runs one experiment per fault, and
// classifies outcomes against the golden run and the program's correctness
// requirement.  Also provides the memory-word and code-segment fault modes
// used for the Fig. 1 CPU-program rows.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/program.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/fault.hpp"
#include "workloads/workload.hpp"

namespace hauberk::swifi {

struct PlanOptions {
  int max_vars = 20;       ///< virtual variables targeted (paper: 20-50)
  int masks_per_var = 10;  ///< error masks per variable (paper: 50)
  int error_bits = 1;      ///< popcount of each mask (Fig. 14: 1/3/6/10/15)
  std::uint64_t seed = 1;
  /// Restrict targets to one data class (Fig. 1's pointer/integer/FP rows).
  std::optional<kir::DType> type_filter;
  /// Restrict targets to a hardware component.
  std::optional<kir::HwComponent> hw_filter;
};

/// Derive fault specs from the FI program's site table and the profiler's
/// per-site per-thread execution counts.
[[nodiscard]] std::vector<FaultSpec> plan_faults(const kir::BytecodeProgram& fi_program,
                                                 const core::ProfileData& profile,
                                                 const PlanOptions& opt);

/// Which instrumentation pipeline produced the program(s) a campaign runs.
/// Campaigns carry this through to their results so experiment logs record
/// the exact detector configuration (pipeline name + deterministic remark
/// digest) alongside the outcome counts — and so tests can pin that the
/// digest is invariant under the campaign worker count.
struct PipelineSpec {
  std::string name;  ///< e.g. "fi+ft" or "ft.hauberk-nl" (TranslateReport::pipeline)
  /// Translator report of the injected program; optional.  Not owned — the
  /// caller keeps it alive for the duration of the campaign.
  const core::TranslateReport* report = nullptr;

  /// Construct from a translator report (name + digest source).
  [[nodiscard]] static PipelineSpec from_report(const core::TranslateReport& rep) {
    return {rep.pipeline, &rep};
  }
};

struct CampaignConfig {
  /// Watchdog budget as a multiple of the fault-free per-thread instruction
  /// count (the guardian's hang rule applied to injection runs).
  double hang_factor = 10.0;
  std::uint64_t hang_floor = 1'000'000;
  /// Block-level workers per trial launch.  Campaigns parallelize across
  /// trials (see swifi/executor.hpp), so each individual launch defaults to
  /// a single worker: no per-launch pool churn, and no core oversubscription
  /// when campaign workers saturate the host.  0 = hardware concurrency.
  int launch_workers = 1;
  /// Interpreter engine for every campaign device (golden run and trials
  /// alike).  Engines are bitwise identical, so this only changes campaign
  /// wall-clock; Reference is the oracle, sanitized or not.
  gpusim::ExecEngine engine = gpusim::ExecEngine::Threaded;
  /// Sanitize every campaign device (Device::set_sanitize) on `engine`:
  /// identical observables, but trials whose fault induced a shared-memory
  /// race or barrier divergence reclassify as Outcome::RaceDetected /
  /// Outcome::BarrierDivergence instead of Failure/other classes.  Since
  /// that changes outcomes, CampaignService folds it into the campaign
  /// digest.
  bool sanitize = false;
  /// Per-block sanitizer report cap forwarded to every trial launch (and the
  /// golden run) as LaunchOptions::sanitize_report_cap.  Only consulted when
  /// `sanitize` is set; 0 clamps to 1 so the first hazard per block always
  /// survives.
  std::size_t sanitize_cap = gpusim::SharedShadow::kMaxReportsPerBlock;
  /// Hardware memory protection every campaign device must be built with
  /// (DeviceProps::protection).  The campaign drivers construct their own
  /// devices from this; CampaignService additionally folds a non-None scheme
  /// into the campaign digest, so an ECC checkpoint can never resume an
  /// unprotected campaign or vice versa (None keeps existing digests — and
  /// therefore existing checkpoints and logs — bitwise valid).
  gpusim::ecc::Scheme protection = gpusim::ecc::Scheme::None;
  /// Instrumentation pipeline that produced the injected program; copied
  /// into CampaignResult for experiment logs.
  PipelineSpec pipeline;
  /// Digest of the selective-hardening plan the injected program was built
  /// under (core::plan_digest); 0 — the trivial plan — when hardening was
  /// not plan-driven.  CampaignService folds a nonzero digest into the
  /// campaign digest so a checkpoint or result log can never silently pair
  /// with a differently-hardened build.
  std::uint64_t plan_digest = 0;
  /// Digest of the PruningPlan the trial list was pruned under
  /// (hauberk::prune::pruning_plan_digest); 0 when the campaign is unpruned.
  /// Folded into the campaign digest like plan_digest so pruned and full
  /// campaigns can never silently share checkpoints or result logs.
  std::uint64_t prune_digest = 0;
  /// Per-trial population weights from campaign pruning: trial i of the
  /// (pruned) spec list stands for trial_weights[i] specs of the full
  /// campaign, and aggregates (OutcomeCounts, site histograms, result-log
  /// populations) count it that many times.  Empty = every trial weighs 1.
  std::vector<std::uint32_t> trial_weights;

  /// Weight of trial `i` under trial_weights (1 when unpruned).
  [[nodiscard]] std::uint64_t trial_weight(std::size_t i) const noexcept {
    return i < trial_weights.size() && trial_weights[i] != 0 ? trial_weights[i] : 1;
  }
};

struct CampaignResult {
  OutcomeCounts counts;
  std::vector<Outcome> per_fault;
  std::string pipeline;               ///< from CampaignConfig::pipeline
  std::uint64_t remark_digest = 0;    ///< core::remark_digest of the spec's report
};

/// Caches the staged device image for repeated trials of one (device, job)
/// pair.  KernelJob::setup rebuilds the same allocation layout and contents
/// on every call for a fixed dataset (the campaign drivers' worker-count
/// determinism already depends on this), so the stage runs setup once and
/// resets every later trial with a flat image restore — no per-trial
/// allocation, no host->device re-upload, bitwise-identical device state.
class TrialStage {
 public:
  TrialStage(gpusim::Device& dev, core::KernelJob& job) : dev_(&dev), job_(&job) {}

  /// Stage device memory for the next trial and return the launch args.
  const std::vector<kir::Value>& stage();

 private:
  gpusim::Device* dev_;
  core::KernelJob* job_;
  std::vector<kir::Value> args_;
  std::vector<std::uint32_t> image_;
  /// Shadow check bytes staged next to image_ (empty when the device is
  /// unprotected) so a re-staged trial starts with bitwise-identical ECC
  /// state to a fresh setup, not merely re-encoded-equivalent state.
  std::vector<std::uint8_t> check_image_;
  bool primed_ = false;
};

/// Run one injection experiment.  `cb` may be null (FI without FT).
/// `launch_workers` caps block-level workers of the trial launch (0 = hw;
/// the default 1, as in CampaignConfig, keeps the launch serial and so
/// deterministic).
/// `stage`, when given, re-stages memory via its cached image instead of a
/// fresh job.setup() — the campaign drivers keep one stage per worker device.
/// `journal`, when given (GoldenRun::journal), lets an eligible launch replay
/// the segments the fault cannot have reached (LaunchOptions::journal); the
/// outcome is the same as without it, which is what makes a journal-less
/// call the oracle for replay.
[[nodiscard]] Outcome run_one_fault(gpusim::Device& dev, const kir::BytecodeProgram& program,
                                    core::KernelJob& job, core::ControlBlock* cb,
                                    const FaultSpec& spec,
                                    const core::ProgramOutput& golden,
                                    const workloads::Requirement& req,
                                    std::uint64_t watchdog_instructions,
                                    int launch_workers = 1,
                                    std::size_t sanitize_cap =
                                        gpusim::SharedShadow::kMaxReportsPerBlock,
                                    TrialStage* stage = nullptr,
                                    const gpusim::LaunchJournal* journal = nullptr);

// ---------------------------------------------------------------------------
// Memory-data and code-segment faults (Fig. 1 CPU rows)
// ---------------------------------------------------------------------------

/// Flip `mask` into a uniformly chosen live memory word after staging, then
/// run and classify.  The flip is planted raw (corrupt_word / corrupt_check),
/// so on a protected device hardware ECC actually sees a cell upset; `cb`,
/// when given, arms Hauberk's range detectors for the run (the
/// hardware-vs-Hauberk study runs all four combinations).  `journal` and
/// `stage` work as in run_one_fault: the golden journal lets an eligible
/// launch replay every segment before the struck word's first reader, and
/// the stage replaces a fresh job.setup().  Without them the call is a full
/// launch on freshly set-up memory, the oracle for both.
[[nodiscard]] Outcome run_one_memory_fault(gpusim::Device& dev,
                                           const kir::BytecodeProgram& program,
                                           core::KernelJob& job, common::Rng& rng,
                                           std::uint32_t mask,
                                           const core::ProgramOutput& golden,
                                           const workloads::Requirement& req,
                                           std::uint64_t watchdog_instructions,
                                           int launch_workers = 1,
                                           std::size_t sanitize_cap =
                                               gpusim::SharedShadow::kMaxReportsPerBlock,
                                           core::ControlBlock* cb = nullptr,
                                           const gpusim::LaunchJournal* journal = nullptr,
                                           TrialStage* stage = nullptr);

/// Flip one random bit in one random instruction encoding ("code segment"
/// fault).  Structurally invalid mutants are classified as Failure without
/// execution (illegal-instruction trap).
[[nodiscard]] Outcome run_one_code_fault(gpusim::Device& dev,
                                         const kir::BytecodeProgram& program,
                                         core::KernelJob& job, common::Rng& rng,
                                         const core::ProgramOutput& golden,
                                         const workloads::Requirement& req,
                                         std::uint64_t watchdog_instructions,
                                         int launch_workers = 1,
                                         std::size_t sanitize_cap =
                                             gpusim::SharedShadow::kMaxReportsPerBlock);

/// Structural validity check used by code-fault experiments: register
/// indices in range, opcodes decodable, jump targets inside the program,
/// and no fall-through past the final instruction.
[[nodiscard]] bool validate_program(const kir::BytecodeProgram& p);

/// What a golden run records for its campaign's trials to replay
/// (gpusim/journal.hpp).
enum class GoldenJournal : std::uint8_t {
  None,       ///< nothing: the trials launch other programs (code-fault mutants)
  NetEffect,  ///< the net-effect journal: every trial takes one step or runs in full
  Full,       ///< the full segment journal
};

/// The journal a memory-fault campaign needs from a golden run on a device
/// with memory protection `protection` when every strike flips
/// `error_bits` bits.  Under SEC-DED a single-bit strike, data bit or check
/// bit, corrects to its launch-start words, so a replayed trial misses the
/// one step only under a watchdog below the golden run's largest budget,
/// and then runs in full: NetEffect.  Otherwise Full.
[[nodiscard]] GoldenJournal memory_fault_journal(gpusim::ecc::Scheme protection,
                                                 int error_bits) noexcept;

/// Fault-free run to obtain the golden output and the watchdog baseline.
struct GoldenRun {
  core::ProgramOutput output;
  std::uint64_t per_thread_instructions = 0;
  /// The run's journal (LaunchOptions::record_journal), of the kind asked
  /// for: recorded when the device and `launch_workers` make the launch
  /// serial and flat, else null (always null for GoldenJournal::None).
  /// Read-only, shared by every trial of the campaign.
  std::shared_ptr<const gpusim::LaunchJournal> journal;
};
[[nodiscard]] GoldenRun golden_run(gpusim::Device& dev, const kir::BytecodeProgram& program,
                                   core::KernelJob& job, core::ControlBlock* cb = nullptr,
                                   int launch_workers = 1,
                                   GoldenJournal record = GoldenJournal::Full);

/// Watchdog budget for injection runs derived from the golden run.
[[nodiscard]] std::uint64_t campaign_watchdog(const GoldenRun& gold,
                                              const CampaignConfig& cfg) noexcept;

}  // namespace hauberk::swifi
