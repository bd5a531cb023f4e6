#include "swifi/service.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bitops.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "hauberk/checkpoint.hpp"
#include "swifi/resultlog.hpp"

namespace hauberk::swifi {

namespace {

void fnv(std::uint64_t& h, std::uint64_t v) noexcept { h = common::fnv1a_u64(h, v); }

void fnv_f64(std::uint64_t& h, double v) noexcept {
  fnv(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t campaign_digest(const kir::BytecodeProgram& program,
                              const std::vector<FaultSpec>& specs,
                              const workloads::Requirement& req,
                              std::uint64_t remark_digest,
                              gpusim::ecc::Scheme protection,
                              std::uint64_t plan_digest,
                              std::uint64_t prune_digest, bool sanitize) {
  std::uint64_t h = common::kFnvTruncatedBasis;
  fnv(h, kir::program_digest(program));
  fnv(h, specs.size());
  for (const FaultSpec& s : specs) {
    fnv(h, s.site_id);
    fnv(h, s.thread);
    fnv(h, s.occurrence);
    fnv(h, s.mask);
    fnv(h, static_cast<std::uint64_t>(s.var));
    fnv(h, static_cast<std::uint64_t>(s.type));
    fnv(h, static_cast<std::uint64_t>(s.hw));
  }
  fnv(h, static_cast<std::uint64_t>(req.kind));
  fnv_f64(h, req.abs_floor);
  fnv_f64(h, req.rel);
  fnv_f64(h, req.eps);
  fnv_f64(h, req.global_rel);
  fnv_f64(h, req.pixel_delta);
  fnv_f64(h, req.frac);
  fnv(h, remark_digest);
  // Folded only when protection is on: the None digest must stay what it was
  // before protected mode existed, so pre-ECC checkpoints keep validating.
  if (protection != gpusim::ecc::Scheme::None) {
    fnv(h, 0xECCull);
    fnv(h, static_cast<std::uint64_t>(protection));
  }
  // Same arrangement for hardening plans: the trivial plan's digest is 0 and
  // contributes nothing, so plan-free campaigns keep their historic digests.
  if (plan_digest != 0) {
    fnv(h, 0x504Cull);
    fnv(h, plan_digest);
  }
  // And for pruning plans: unpruned campaigns keep their historic digests.
  if (prune_digest != 0) {
    fnv(h, 0x5052ull);
    fnv(h, prune_digest);
  }
  // And for the sanitizer taxonomy: unsanitized campaigns keep their
  // historic digests.
  if (sanitize) fnv(h, 0x53414Eull);
  return h;
}

void CampaignCheckpoint::save(const std::string& path) const {
  core::CheckpointWriter w;
  w.u64(config_digest);
  w.u32(shards);
  w.u32(shard_index);
  w.u64(trials_total);
  w.u64(watermark);
  w.u64(counts.failure);
  w.u64(counts.masked);
  w.u64(counts.detected_masked);
  w.u64(counts.detected);
  w.u64(counts.undetected);
  w.u64(counts.not_activated);
  w.u64(counts.race_detected);
  w.u64(counts.barrier_divergence);
  w.u64(counts.ecc_corrected);
  w.u64(counts.ecc_uncorrectable);
  for (const auto c : site_hist.raw_counts()) w.u64(c);
  for (const auto c : sdc_site_hist.raw_counts()) w.u64(c);
  w.u64(remark_digest);
  w.u64(log_payload_bytes);
  w.u32(log_payload_crc);
  w.u64(checkpoints_written);
  w.save_atomic(path, kCampaignCheckpointMagic, kCampaignCheckpointVersion);
}

CampaignCheckpoint CampaignCheckpoint::load(const std::string& path) {
  auto r = core::CheckpointReader::load(path, kCampaignCheckpointMagic,
                                        kCampaignCheckpointVersion);
  CampaignCheckpoint ck;
  ck.config_digest = r.u64();
  ck.shards = r.u32();
  ck.shard_index = r.u32();
  ck.trials_total = r.u64();
  ck.watermark = r.u64();
  ck.counts.failure = r.u64();
  ck.counts.masked = r.u64();
  ck.counts.detected_masked = r.u64();
  ck.counts.detected = r.u64();
  ck.counts.undetected = r.u64();
  ck.counts.not_activated = r.u64();
  ck.counts.race_detected = r.u64();
  ck.counts.barrier_divergence = r.u64();
  ck.counts.ecc_corrected = r.u64();
  ck.counts.ecc_uncorrectable = r.u64();
  std::array<std::uint64_t, common::Log2Histogram::kBuckets> buckets;
  for (auto& c : buckets) c = r.u64();
  ck.site_hist.restore(buckets);
  for (auto& c : buckets) c = r.u64();
  ck.sdc_site_hist.restore(buckets);
  ck.remark_digest = r.u64();
  ck.log_payload_bytes = r.u64();
  ck.log_payload_crc = r.u32();
  ck.checkpoints_written = r.u64();
  if (r.remaining() != 0)
    throw core::CheckpointError("checkpoint: '" + path + "' has trailing payload bytes");
  return ck;
}

void ServiceResult::merge(const ServiceResult& other) {
  if (other.config_digest != config_digest)
    throw std::invalid_argument("ServiceResult::merge: shards from different campaigns");
  if (other.remark_digest != remark_digest)
    throw std::invalid_argument("ServiceResult::merge: remark digests differ");
  counts.failure += other.counts.failure;
  counts.masked += other.counts.masked;
  counts.detected_masked += other.counts.detected_masked;
  counts.detected += other.counts.detected;
  counts.undetected += other.counts.undetected;
  counts.not_activated += other.counts.not_activated;
  counts.race_detected += other.counts.race_detected;
  counts.barrier_divergence += other.counts.barrier_divergence;
  counts.ecc_corrected += other.counts.ecc_corrected;
  counts.ecc_uncorrectable += other.counts.ecc_uncorrectable;
  site_hist.merge(other.site_hist);
  sdc_site_hist.merge(other.sdc_site_hist);
  shard_trials += other.shard_trials;
  trials_run += other.trials_run;
  trials_resumed += other.trials_resumed;
  checkpoints_written += other.checkpoints_written;
}

CampaignService::CampaignService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shards < 1) throw std::invalid_argument("CampaignService: shards must be >= 1");
  if (cfg_.shard_index >= cfg_.shards)
    throw std::invalid_argument("CampaignService: shard_index must be < shards");
  if ((cfg_.checkpoint_every > 0 || cfg_.resume) && cfg_.checkpoint_path.empty())
    throw std::invalid_argument(
        "CampaignService: checkpointing/resume requires a checkpoint path");
}

// ---------------------------------------------------------------------------
// The trial pump: the one place trials reach workers and outcomes commit.
// ---------------------------------------------------------------------------

namespace {

/// Runs ordinal `k` on a worker's context; must be a pure function of `k`.
using TrialFn =
    std::function<Outcome(WorkerContext&, const GoldenRun&, std::uint64_t watchdog,
                          std::uint64_t k)>;
/// Receives every ordinal's outcome on the calling thread, strictly in
/// ordinal order.  May throw; the pump then stops its workers and rethrows.
using CommitFn = std::function<void(std::uint64_t k, Outcome)>;

/// Runs ordinals [begin, end): builds min(workers, end - begin) contexts,
/// runs the golden run on the first, lets workers claim ordinals from one
/// atomic counter, and commits outcomes in ordinal order through a bounded
/// reorder window.  An empty range builds nothing and runs nothing.
void pump_trials(const kir::BytecodeProgram& program, const WorkerContextFactory& make_context,
                 const CampaignConfig& cfg, int workers, std::uint64_t begin,
                 std::uint64_t end, const TrialFn& trial, const CommitFn& commit) {
  if (begin >= end) return;
  const std::uint64_t hw = workers > 0 ? static_cast<std::uint64_t>(workers)
                                       : common::WorkerPool::default_workers();
  const auto nw = static_cast<std::size_t>(std::min(hw, end - begin));
  std::vector<WorkerContext> ctxs;
  ctxs.reserve(nw);
  for (std::size_t i = 0; i < nw; ++i) {
    ctxs.push_back(make_context());
    if (!ctxs.back().device || !ctxs.back().job)
      throw std::invalid_argument(
          "swifi: WorkerContextFactory must provide a device and a job");
    ctxs.back().device->set_engine(cfg.engine);
    ctxs.back().device->set_sanitize(cfg.sanitize);
  }
  // One golden run serves every trial; planned- and memory-fault trials
  // re-stage memory through their context's TrialStage, code-fault trials
  // through job setup.
  const GoldenRun gold = golden_run(*ctxs[0].device, program, *ctxs[0].job, ctxs[0].cb.get(),
                                    cfg.launch_workers);
  const std::uint64_t watchdog = campaign_watchdog(gold, cfg);

  // The reorder window bounds how far execution may run ahead of the
  // committer: it is the entire per-trial memory footprint, independent of
  // campaign size.  Ordinal k publishes into slot k % window once
  // k < committed + window; the committer's release store of `committed`
  // hands the slot it just drained back to the next ordinal that maps there.
  // A slot is 8 bytes, so the window is sized for run-ahead, not memory: it
  // must cover what the other workers finish while one is in a slow trial
  // (a watchdog-terminated hang takes milliseconds, a replayed trial a few
  // microseconds).  A smaller window stalls them behind every hang, and the
  // stall then depends on where the hangs fall in time.
  const std::size_t window = std::max<std::size_t>(4096, nw * 512);
  struct Slot {
    std::atomic<std::uint32_t> ready{0};
    std::uint8_t outcome = 0;
  };
  std::vector<Slot> slots(window);
  std::atomic<std::uint64_t> next{begin};
  std::atomic<std::uint64_t> committed{begin};
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::exception_ptr first_error;

  const auto worker_main = [&](WorkerContext& ctx) {
    try {
      for (;;) {
        const std::uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= end) return;
        // Cannot deadlock: ordinals are claimed in increasing order, so the
        // lowest uncommitted one is held by a worker that never waits here.
        while (k >= committed.load(std::memory_order_acquire) + window) {
          if (abort.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
        if (abort.load(std::memory_order_acquire)) return;
        const Outcome o = trial(ctx, gold, watchdog, k);
        Slot& slot = slots[k % window];
        slot.outcome = static_cast<std::uint8_t>(o);
        slot.ready.store(1, std::memory_order_release);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(nw);
  const auto shutdown = [&] {
    abort.store(true, std::memory_order_release);
    for (auto& t : threads)
      if (t.joinable()) t.join();
  };
  try {
    for (std::size_t i = 0; i < nw; ++i) threads.emplace_back(worker_main, std::ref(ctxs[i]));
    for (std::uint64_t k = begin; k < end;) {
      if (abort.load(std::memory_order_acquire)) break;
      Slot& slot = slots[k % window];
      if (slot.ready.load(std::memory_order_acquire) != 1) {
        std::this_thread::yield();
        continue;
      }
      const auto o = static_cast<Outcome>(slot.outcome);
      slot.ready.store(0, std::memory_order_relaxed);
      committed.store(++k, std::memory_order_release);
      commit(k - 1, o);
    }
  } catch (...) {
    shutdown();
    throw;
  }
  shutdown();
  if (first_error) std::rethrow_exception(first_error);
}

/// The worker context's TrialStage, created on first use.
TrialStage& stage_of(WorkerContext& ctx) {
  if (!ctx.stage) ctx.stage = std::make_unique<TrialStage>(*ctx.device, *ctx.job);
  return *ctx.stage;
}

/// A planned-fault trial on a worker context, staged through its TrialStage.
Outcome planned_trial(WorkerContext& ctx, const kir::BytecodeProgram& program,
                      const FaultSpec& spec, const GoldenRun& gold,
                      const workloads::Requirement& req, std::uint64_t watchdog,
                      const CampaignConfig& cfg) {
  return run_one_fault(*ctx.device, program, *ctx.job, ctx.cb.get(), spec, gold.output, req,
                       watchdog, cfg.launch_workers, cfg.sanitize_cap, &stage_of(ctx),
                       gold.journal.get());
}

/// The executor's whole campaign: `trial_count` ordinals into per_fault,
/// counts weighted by CampaignConfig::trial_weight.
CampaignResult run_in_memory(const kir::BytecodeProgram& program,
                             const WorkerContextFactory& make_context, int workers,
                             std::size_t trial_count, const CampaignConfig& cfg,
                             const TrialFn& trial) {
  CampaignResult result;
  result.pipeline = cfg.pipeline.name;
  if (cfg.pipeline.report) result.remark_digest = core::remark_digest(*cfg.pipeline.report);
  result.per_fault.resize(trial_count);
  pump_trials(program, make_context, cfg, workers, 0, trial_count, trial,
              [&](std::uint64_t i, Outcome o) {
                result.per_fault[i] = o;
                result.counts.add(o, cfg.trial_weight(i));
              });
  return result;
}

}  // namespace

CampaignExecutor::CampaignExecutor(int workers)
    : workers_(workers > 0 ? workers
                           : static_cast<int>(common::WorkerPool::default_workers())) {}

CampaignResult CampaignExecutor::run(const kir::BytecodeProgram& program,
                                     const WorkerContextFactory& make_context,
                                     const std::vector<FaultSpec>& specs,
                                     const workloads::Requirement& req,
                                     const CampaignConfig& cfg) {
  return run_in_memory(program, make_context, workers_, specs.size(), cfg,
                       [&](WorkerContext& ctx, const GoldenRun& gold, std::uint64_t watchdog,
                           std::uint64_t i) {
                         return planned_trial(ctx, program, specs[i], gold, req, watchdog, cfg);
                       });
}

CampaignResult CampaignExecutor::run_memory_faults(const kir::BytecodeProgram& program,
                                                   const WorkerContextFactory& make_context,
                                                   std::uint64_t seed, int trials,
                                                   int error_bits,
                                                   const workloads::Requirement& req,
                                                   const CampaignConfig& cfg) {
  const std::size_t n = trials > 0 ? static_cast<std::size_t>(trials) : 0;
  return run_in_memory(program, make_context, workers_, n, cfg,
                       [&](WorkerContext& ctx, const GoldenRun& gold, std::uint64_t watchdog,
                           std::uint64_t i) {
                         common::Rng rng = common::Rng::fork(seed, i);
                         const std::uint32_t mask = common::random_mask(rng, error_bits);
                         return run_one_memory_fault(*ctx.device, program, *ctx.job, rng, mask,
                                                     gold.output, req, watchdog,
                                                     cfg.launch_workers, cfg.sanitize_cap,
                                                     ctx.cb.get(), gold.journal.get(),
                                                     &stage_of(ctx));
                       });
}

CampaignResult CampaignExecutor::run_code_faults(const kir::BytecodeProgram& program,
                                                 const WorkerContextFactory& make_context,
                                                 std::uint64_t seed, int trials,
                                                 const workloads::Requirement& req,
                                                 const CampaignConfig& cfg) {
  const std::size_t n = trials > 0 ? static_cast<std::size_t>(trials) : 0;
  return run_in_memory(program, make_context, workers_, n, cfg,
                       [&](WorkerContext& ctx, const GoldenRun& gold, std::uint64_t watchdog,
                           std::uint64_t i) {
                         common::Rng rng = common::Rng::fork(seed, i);
                         return run_one_code_fault(*ctx.device, program, *ctx.job, rng,
                                                   gold.output, req, watchdog,
                                                   cfg.launch_workers, cfg.sanitize_cap);
                       });
}

ServiceResult CampaignService::run(const kir::BytecodeProgram& program,
                                   const WorkerContextFactory& make_context,
                                   const std::vector<FaultSpec>& specs,
                                   const workloads::Requirement& req) {
  const std::uint64_t K = cfg_.shards;
  const std::uint64_t I = cfg_.shard_index;
  const std::uint64_t total = specs.size();
  // Shard I owns trials I, I+K, I+2K, ...: `mine` ordinals k map to trial
  // index I + k*K.  Pure arithmetic — every process computes the same split.
  const std::uint64_t mine = total > I ? (total - I + K - 1) / K : 0;

  std::uint64_t remark_digest = 0;
  if (cfg_.campaign.pipeline.report)
    remark_digest = core::remark_digest(*cfg_.campaign.pipeline.report);
  const std::uint64_t digest = campaign_digest(
      program, specs, req, remark_digest, cfg_.campaign.protection, cfg_.campaign.plan_digest,
      cfg_.campaign.prune_digest, cfg_.campaign.sanitize);

  ServiceResult result;
  result.pipeline = cfg_.campaign.pipeline.name;
  result.remark_digest = remark_digest;
  result.config_digest = digest;
  result.shard_trials = mine;

  // --- resume state ---------------------------------------------------------
  std::uint64_t watermark = 0;
  std::uint64_t prior_checkpoints = 0;
  CampaignCheckpoint resumed;
  if (cfg_.resume) {
    resumed = CampaignCheckpoint::load(cfg_.checkpoint_path);
    if (resumed.config_digest != digest)
      throw core::CheckpointError("checkpoint: '" + cfg_.checkpoint_path +
                                  "' belongs to a different campaign (config digest "
                                  "mismatch)");
    if (resumed.shards != K || resumed.shard_index != I)
      throw core::CheckpointError("checkpoint: '" + cfg_.checkpoint_path +
                                  "' was written for shard " +
                                  std::to_string(resumed.shard_index) + "/" +
                                  std::to_string(resumed.shards) +
                                  ", not this instance's shard");
    if (resumed.trials_total != total || resumed.watermark > mine)
      throw core::CheckpointError("checkpoint: '" + cfg_.checkpoint_path +
                                  "' trial accounting does not fit this campaign");
    if (resumed.remark_digest != remark_digest)
      throw core::CheckpointError("checkpoint: '" + cfg_.checkpoint_path +
                                  "' pipeline remark digest mismatch");
    watermark = resumed.watermark;
    result.counts = resumed.counts;
    result.site_hist = resumed.site_hist;
    result.sdc_site_hist = resumed.sdc_site_hist;
    result.trials_resumed = watermark;
    prior_checkpoints = resumed.checkpoints_written;
  }

  // --- result log -----------------------------------------------------------
  ResultLogWriter log;
  ResultLogHeader log_header;
  log_header.shards = static_cast<std::uint32_t>(K);
  log_header.shard_index = static_cast<std::uint32_t>(I);
  log_header.config_digest = digest;
  log_header.total_trials = total;
  if (!cfg_.resultlog_path.empty()) {
    if (cfg_.resume)
      log.reopen(cfg_.resultlog_path, log_header, resumed.log_payload_bytes,
                 resumed.log_payload_crc);
    else
      log.create(cfg_.resultlog_path, log_header);
  }

  std::uint64_t written = 0;
  const auto write_checkpoint = [&](std::uint64_t committed, bool invoke_hook) {
    log.flush();
    CampaignCheckpoint ck;
    ck.config_digest = digest;
    ck.shards = static_cast<std::uint32_t>(K);
    ck.shard_index = static_cast<std::uint32_t>(I);
    ck.trials_total = total;
    ck.watermark = committed;
    ck.counts = result.counts;
    ck.site_hist = result.site_hist;
    ck.sdc_site_hist = result.sdc_site_hist;
    ck.remark_digest = remark_digest;
    ck.log_payload_bytes = log.is_open() ? log.payload_bytes() : 0;
    ck.log_payload_crc = log.is_open() ? log.payload_crc() : 0;
    ck.checkpoints_written = prior_checkpoints + written;
    ck.save(cfg_.checkpoint_path);
    if (invoke_hook && cfg_.on_checkpoint) cfg_.on_checkpoint(ck);
  };

  // Aggregation, the result log and periodic checkpoints all live in the
  // commit function, so they see trials in shard-ordinal order only.
  std::uint64_t last_ckpt = watermark;
  const auto commit = [&](std::uint64_t k, Outcome o) {
    const std::uint64_t trial = I + k * K;
    const std::uint64_t weight = cfg_.campaign.trial_weight(trial);
    result.counts.add(o, weight);
    result.site_hist.add(specs[trial].site_id, weight);
    if (o == Outcome::Undetected) result.sdc_site_hist.add(specs[trial].site_id, weight);
    if (log.is_open()) {
      ResultRecord rec;
      rec.trial = static_cast<std::uint32_t>(trial);
      rec.outcome = static_cast<std::uint8_t>(o);
      rec.set_weight(weight);
      log.append(rec);
    }
    ++result.trials_run;
    const std::uint64_t committed = k + 1;
    if (cfg_.checkpoint_every > 0 && committed < mine &&
        committed - last_ckpt >= cfg_.checkpoint_every) {
      result.checkpoints_written = ++written;
      write_checkpoint(committed, true);
      last_ckpt = committed;
    }
  };

  try {
    pump_trials(program, make_context, cfg_.campaign, cfg_.workers, watermark, mine,
                [&](WorkerContext& ctx, const GoldenRun& gold, std::uint64_t watchdog,
                    std::uint64_t k) {
                  return planned_trial(ctx, program, specs[I + k * K], gold, req, watchdog,
                                       cfg_.campaign);
                },
                commit);
    // Completion checkpoint: records watermark == mine so a redundant
    // resume is a no-op.  No hook — the campaign is done, there is nothing
    // a kill here could lose.
    if (!cfg_.checkpoint_path.empty()) write_checkpoint(mine, false);
  } catch (...) {
    log.close();
    throw;
  }
  log.flush();
  log.close();
  return result;
}

}  // namespace hauberk::swifi
