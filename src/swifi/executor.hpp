// In-process SWIFI campaign driver.
//
// A campaign is thousands of independent fault-injection trials: each trial
// re-stages device memory (a TrialStage restore, or a code-fault trial's
// job setup()), launches once, and
// classifies the outcome against a shared golden run.  Trials never share
// mutable state, so they run concurrently on campaign workers, each owning
// a private simulated Device (plus its own KernelJob staging and
// ControlBlock clone).  The parallelism is inverted relative to a single
// launch: trial launches run with one block-worker
// (CampaignConfig::launch_workers = 1 — no nested pool churn, no core
// oversubscription) while campaign workers scale to hardware concurrency.
//
// CampaignExecutor and CampaignService (swifi/service.hpp) share one trial
// pump: workers claim trial indices from an atomic counter and the calling
// thread commits outcomes strictly in index order.  The executor's commit
// writes per_fault[i] and adds the trial's weight to OutcomeCounts; it keeps
// no checkpoint and no log.
//
// Determinism guarantee: results are bitwise identical for every worker
// count.  Outcomes are committed in trial order, and any per-trial
// randomness is forked from (seed, trial_index) rather than drawn from a
// shared stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/program.hpp"
#include "swifi/campaign.hpp"
#include "workloads/workload.hpp"

namespace hauberk::swifi {

/// Private per-worker resources for one campaign: a device plus the job
/// staged onto it and (optionally) a control block for the FI&FT build.
struct WorkerContext {
  std::unique_ptr<gpusim::Device> device;
  std::unique_ptr<core::KernelJob> job;
  std::unique_ptr<core::ControlBlock> cb;  ///< may be null (FI without FT)
  std::unique_ptr<TrialStage> stage;       ///< lazily primed per-trial reset cache
};

/// Builds one worker's context.  Must be deterministic and
/// worker-independent: every invocation has to stage the same dataset and
/// configure identical detector ranges, or worker counts would change
/// outcomes (the executor never tells the factory which worker it serves).
using WorkerContextFactory = std::function<WorkerContext()>;

/// In-memory campaign driver: the shared trial pump with a per-trial
/// outcome vector as its only sink.  Holds nothing but its worker count;
/// every run() builds and drops its own worker contexts and threads.
class CampaignExecutor {
 public:
  /// `workers` == 0 selects hardware concurrency.
  explicit CampaignExecutor(int workers = 0);

  [[nodiscard]] int workers() const noexcept { return workers_; }

  /// Run a planned-fault campaign: trial i is run_one_fault(specs[i]) against
  /// one golden run.  Same per_fault vector and counts for any worker count.
  [[nodiscard]] CampaignResult run(const kir::BytecodeProgram& program,
                                   const WorkerContextFactory& make_context,
                                   const std::vector<FaultSpec>& specs,
                                   const workloads::Requirement& req,
                                   const CampaignConfig& cfg = {});

  /// Memory-word fault campaign (Fig. 1 CPU "Data" rows): `trials`
  /// experiments against the baseline program; trial i draws its mask and
  /// word position from an RNG forked from (seed, i).
  [[nodiscard]] CampaignResult run_memory_faults(const kir::BytecodeProgram& program,
                                                 const WorkerContextFactory& make_context,
                                                 std::uint64_t seed, int trials,
                                                 int error_bits,
                                                 const workloads::Requirement& req,
                                                 const CampaignConfig& cfg = {});

  /// Code-segment fault campaign (Fig. 1 CPU "Code" rows): trial i flips an
  /// encoding bit chosen by an RNG forked from (seed, i).
  [[nodiscard]] CampaignResult run_code_faults(const kir::BytecodeProgram& program,
                                               const WorkerContextFactory& make_context,
                                               std::uint64_t seed, int trials,
                                               const workloads::Requirement& req,
                                               const CampaignConfig& cfg = {});

 private:
  int workers_;
};

}  // namespace hauberk::swifi
