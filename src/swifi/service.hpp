// Sharded, checkpointed SWIFI campaign service.
//
// CampaignExecutor (swifi/executor.hpp) answers "run these trials now, in
// this process, and give me the outcome vector".  The campaign sizes the
// paper's methodology actually needs — millions of trials per configuration
// for tight SDC-coverage confidence intervals — outlive single processes
// and single machines, so CampaignService adds what such runs need on top
// of the same trial pump:
//
//  * Sharding.  Trial i belongs to shard (i mod K); a service instance runs
//    one shard I of K.  The assignment is a pure function of the trial
//    index, so K processes on K machines partition a campaign with no
//    coordination, and the merged results are bitwise identical to one
//    process running everything.
//
//  * One trial pump.  Within a shard, worker threads claim trial ordinals
//    from one atomic counter and publish outcomes into a fixed reorder
//    window; the calling thread commits outcomes strictly in trial order.
//    The executor runs on the same pump with a different commit function,
//    so results never depend on scheduling, worker count, shard split or
//    process restarts.
//
//  * Checkpoint / resume.  Every checkpoint_every committed trials the
//    service writes a versioned, CRC-guarded campaign checkpoint
//    (hauberk/checkpoint.hpp) — config digest, shard watermark, streaming
//    outcome counts and histograms, result-log length + CRC — atomically
//    (temp file + rename).  A killed run resumes from its last checkpoint
//    and finishes with outcomes byte-identical to an uninterrupted run;
//    trials completed after the last checkpoint are simply re-run (they are
//    deterministic per index, so re-running cannot change anything).
//
//  * Streaming aggregation.  Outcome counts and constant-memory
//    Log2Histograms replace the executor's per-trial outcome vector, and a
//    compact binary result log (swifi/resultlog.hpp) replaces per-trial
//    JSON: resident memory is constant in the trial count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "swifi/fault.hpp"

namespace hauberk::swifi {

/// Identity of a campaign for checkpoint/result-log validation: digests the
/// program, every fault spec, the correctness requirement and the pipeline
/// remark digest.  Deliberately excludes the shard split, worker count and
/// which plain interpreter runs the trials — those are execution details
/// that cannot change outcomes, so a campaign may legitimately resume with
/// a different worker count or switch between the reference and threaded
/// engines, and per-shard artifacts of one campaign share one digest (which
/// is how the merge tool pairs them up).  Everything that *can* change an
/// outcome is folded in, each only when it departs from the default, so
/// digests (and checkpoints, and result logs) minted before the option
/// existed stay valid:
///  * `protection` — an ECC campaign has different outcomes; Scheme::None
///    contributes nothing.
///  * `plan_digest` — core::plan_digest of the selective-hardening plan the
///    injected program was built under; the trivial plan's 0 contributes
///    nothing.
///  * `prune_digest` — hauberk::prune::pruning_plan_digest of the plan the
///    spec list was pruned under.  The pruned spec list already differs from
///    the full campaign's, but the digest additionally separates "these
///    specs happen to coincide" from "these specs were chosen as class
///    representatives with population weights".
///  * `sanitize` — CampaignConfig::sanitize: sanitized trials (on either
///    engine) may reclassify as RaceDetected / BarrierDivergence; a plain
///    checkpoint must never resume as a sanitized campaign, or vice versa.
///  * `sanitize_cap` — CampaignConfig::sanitize_cap, clamped to >= 1 like
///    the shadow's: a sanitized trial's outcome can depend on it (a block
///    whose race report fills the cap drops its barrier-divergence report,
///    so the trial classifies as RaceDetected).  Folded only for sanitized
///    campaigns with a cap other than SharedShadow::kMaxReportsPerBlock.
[[nodiscard]] std::uint64_t campaign_digest(const kir::BytecodeProgram& program,
                                            const std::vector<FaultSpec>& specs,
                                            const workloads::Requirement& req,
                                            std::uint64_t remark_digest,
                                            gpusim::ecc::Scheme protection =
                                                gpusim::ecc::Scheme::None,
                                            std::uint64_t plan_digest = 0,
                                            std::uint64_t prune_digest = 0,
                                            bool sanitize = false,
                                            std::size_t sanitize_cap =
                                                gpusim::SharedShadow::kMaxReportsPerBlock);

/// The on-disk campaign checkpoint (magic "HBKC", version
/// kCampaignCheckpointVersion).  Everything needed to resume shard I of K
/// exactly: how many trials are committed (the watermark), the streaming
/// aggregates over exactly those trials, and the result-log byte count +
/// CRC those trials produced.
struct CampaignCheckpoint {
  std::uint64_t config_digest = 0;
  std::uint32_t shards = 1;
  std::uint32_t shard_index = 0;
  std::uint64_t trials_total = 0;  ///< whole campaign, all shards
  std::uint64_t watermark = 0;     ///< shard-local committed trial count
  OutcomeCounts counts;
  common::Log2Histogram site_hist;      ///< trials per FI site id
  common::Log2Histogram sdc_site_hist;  ///< undetected (SDC) trials per site id
  std::uint64_t remark_digest = 0;
  std::uint64_t log_payload_bytes = 0;
  std::uint32_t log_payload_crc = 0;
  std::uint64_t checkpoints_written = 0;

  /// Atomic write (temp + rename).  Throws core::CheckpointError on I/O failure.
  void save(const std::string& path) const;
  /// Load + validate magic/version/CRC.  Throws core::CheckpointError.
  [[nodiscard]] static CampaignCheckpoint load(const std::string& path);
};

constexpr std::uint32_t kCampaignCheckpointMagic = 0x434b4248u;  // "HBKC"
/// v2 appends the hardware-ECC outcome counters (OutcomeCounts::ecc_corrected
/// / ecc_uncorrectable) after barrier_divergence.  v1 checkpoints are
/// rejected by load() with a version error — resuming them as v2 would
/// silently zero counters the campaign may have accumulated.
constexpr std::uint32_t kCampaignCheckpointVersion = 2;

struct ServiceConfig {
  CampaignConfig campaign;     ///< engine, sanitize, watchdog, pipeline
  int workers = 0;             ///< trial workers (0 = hardware concurrency)
  std::uint32_t shards = 1;    ///< K: total shards in the campaign
  std::uint32_t shard_index = 0;  ///< I: which shard this instance runs
  /// Write a checkpoint every N committed trials (0 = only the final one,
  /// and only when checkpoint_path is set).
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;  ///< required when checkpoint_every > 0 or resume
  std::string resultlog_path;   ///< binary per-trial log ("" = no log)
  bool resume = false;          ///< load checkpoint_path and continue from it
  /// Test/ops hook invoked after every periodic checkpoint lands on disk
  /// (not after the final completion checkpoint).  Throwing from it aborts
  /// the run exactly as a kill right after the checkpoint write would —
  /// the crash-recovery tests drive kill/resume cycles through this.
  std::function<void(const CampaignCheckpoint&)> on_checkpoint;
};

struct ServiceResult {
  OutcomeCounts counts;
  common::Log2Histogram site_hist;
  common::Log2Histogram sdc_site_hist;
  std::string pipeline;
  std::uint64_t remark_digest = 0;
  std::uint64_t config_digest = 0;
  std::uint64_t shard_trials = 0;      ///< trials this shard owns
  std::uint64_t trials_run = 0;        ///< executed by this invocation
  std::uint64_t trials_resumed = 0;    ///< skipped: already checkpointed
  std::uint64_t checkpoints_written = 0;  ///< by this invocation

  /// Merge another shard's result into this one (counts and histograms add;
  /// digests must match).  Throws std::invalid_argument on digest mismatch.
  void merge(const ServiceResult& other);
};

class CampaignService {
 public:
  explicit CampaignService(ServiceConfig cfg);

  /// Run (or resume) this shard of a planned-fault campaign.  Semantics per
  /// trial are exactly run_one_fault / CampaignExecutor::run (the same pump);
  /// aggregation is streaming.  Throws core::CheckpointError when a resume checkpoint
  /// or result log is missing, corrupt, or from a different campaign.
  [[nodiscard]] ServiceResult run(const kir::BytecodeProgram& program,
                                  const WorkerContextFactory& make_context,
                                  const std::vector<FaultSpec>& specs,
                                  const workloads::Requirement& req);

  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  ServiceConfig cfg_;
};

}  // namespace hauberk::swifi
