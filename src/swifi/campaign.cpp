#include "swifi/campaign.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/bitops.hpp"
#include "swifi/injector.hpp"

namespace hauberk::swifi {

using gpusim::Device;
using gpusim::LaunchOptions;
using gpusim::LaunchStatus;

const char* outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::Failure: return "failure";
    case Outcome::Masked: return "masked";
    case Outcome::DetectedMasked: return "detected&masked";
    case Outcome::Detected: return "detected";
    case Outcome::Undetected: return "undetected";
    case Outcome::NotActivated: return "not-activated";
    case Outcome::RaceDetected: return "race-detected";
    case Outcome::BarrierDivergence: return "barrier-divergence";
    case Outcome::EccCorrected: return "ecc-corrected";
    case Outcome::EccDetectedUncorrectable: return "ecc-uncorrectable";
  }
  return "?";
}

void OutcomeCounts::add(Outcome o, std::uint64_t n) noexcept {
  switch (o) {
    case Outcome::Failure: failure += n; break;
    case Outcome::Masked: masked += n; break;
    case Outcome::DetectedMasked: detected_masked += n; break;
    case Outcome::Detected: detected += n; break;
    case Outcome::Undetected: undetected += n; break;
    case Outcome::NotActivated: not_activated += n; break;
    case Outcome::RaceDetected: race_detected += n; break;
    case Outcome::BarrierDivergence: barrier_divergence += n; break;
    case Outcome::EccCorrected: ecc_corrected += n; break;
    case Outcome::EccDetectedUncorrectable: ecc_uncorrectable += n; break;
  }
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& o) noexcept {
  failure += o.failure;
  masked += o.masked;
  detected_masked += o.detected_masked;
  detected += o.detected;
  undetected += o.undetected;
  not_activated += o.not_activated;
  race_detected += o.race_detected;
  barrier_divergence += o.barrier_divergence;
  ecc_corrected += o.ecc_corrected;
  ecc_uncorrectable += o.ecc_uncorrectable;
  return *this;
}

GoldenJournal memory_fault_journal(gpusim::ecc::Scheme protection, int error_bits) noexcept {
  return protection != gpusim::ecc::Scheme::None && error_bits == 1 ? GoldenJournal::NetEffect
                                                                     : GoldenJournal::Full;
}

GoldenRun golden_run(Device& dev, const kir::BytecodeProgram& program, core::KernelJob& job,
                     core::ControlBlock* cb, int launch_workers, GoldenJournal record) {
  const auto args = job.setup(dev);
  if (cb) cb->reset_results();
  auto journal = record == GoldenJournal::None ? nullptr
                                               : std::make_shared<gpusim::LaunchJournal>();
  LaunchOptions opts;
  opts.hooks = cb;
  opts.max_workers = launch_workers;
  opts.record_journal = journal.get();
  opts.record_net_effect = record == GoldenJournal::NetEffect;
  const auto res = dev.launch(program, job.config(), args, opts);
  if (res.status != LaunchStatus::Ok)
    throw std::runtime_error("swifi golden run failed: " +
                             std::string(gpusim::launch_status_name(res.status)));
  GoldenRun g;
  if (journal && !journal->empty()) g.journal = std::move(journal);
  g.output = job.read_output(dev);
  g.per_thread_instructions =
      res.instructions / std::max<std::uint64_t>(1, res.threads);
  return g;
}

std::vector<FaultSpec> plan_faults(const kir::BytecodeProgram& fi_program,
                                   const core::ProfileData& profile, const PlanOptions& opt) {
  common::Rng rng = common::Rng::fork(opt.seed, 0xFA017);

  // Candidate sites: executed at least once and passing the filters.
  struct Candidate {
    std::uint32_t site_index;
    std::vector<std::uint32_t> threads;  ///< threads that execute the site
  };
  std::vector<Candidate> candidates;
  for (std::uint32_t si = 0; si < fi_program.fi_sites.size(); ++si) {
    const kir::FISite& site = fi_program.fi_sites[si];
    if (opt.type_filter && site.type != *opt.type_filter) continue;
    if (opt.hw_filter && site.hw != *opt.hw_filter) continue;
    if (si >= profile.exec_counts.size()) continue;
    Candidate c;
    c.site_index = si;
    const auto& counts = profile.exec_counts[si];
    for (std::uint32_t t = 0; t < counts.size(); ++t)
      if (counts[t] > 0) c.threads.push_back(t);
    if (!c.threads.empty()) candidates.push_back(std::move(c));
  }

  // Sample up to max_vars distinct sites.
  std::shuffle(candidates.begin(), candidates.end(), rng);
  if (static_cast<int>(candidates.size()) > opt.max_vars)
    candidates.resize(static_cast<std::size_t>(opt.max_vars));

  std::vector<FaultSpec> specs;
  specs.reserve(candidates.size() * static_cast<std::size_t>(opt.masks_per_var));
  for (const Candidate& c : candidates) {
    const kir::FISite& site = fi_program.fi_sites[c.site_index];
    for (int m = 0; m < opt.masks_per_var; ++m) {
      FaultSpec s;
      s.site_id = site.site_id;
      s.var = site.var;
      s.type = site.type;
      s.hw = site.hw;
      s.thread = c.threads[rng.next_below(c.threads.size())];
      const std::uint32_t max_occ = profile.exec_counts[c.site_index][s.thread];
      s.occurrence = 1 + static_cast<std::uint32_t>(rng.next_below(max_occ));
      s.mask = common::random_mask(rng, opt.error_bits);
      specs.push_back(s);
    }
  }
  return specs;
}

namespace {

/// Sanitizer-based reclassification: when the trial ran on a sanitizing
/// device (either engine), faults that turned the kernel racy or broke
/// barrier uniformity are reported as their own outcome classes instead of
/// disappearing into Failure (or worse, Masked).  Out-of-bounds reports do
/// not reclassify — the crash status already names those precisely.
std::optional<Outcome> sanitizer_outcome(const Device& dev, const gpusim::LaunchResult& res) {
  if (!dev.sanitize()) return std::nullopt;
  bool divergence = res.status == LaunchStatus::CrashBarrierDeadlock;
  bool race = false;
  for (const auto& r : res.sanitizer_reports) {
    if (r.kind == gpusim::HazardKind::BarrierDivergence) divergence = true;
    else if (r.kind != gpusim::HazardKind::SharedOutOfBounds) race = true;
  }
  if (divergence) return Outcome::BarrierDivergence;
  if (race) return Outcome::RaceDetected;
  return std::nullopt;
}

/// The outcome of a finished trial launch, one rule for every fault kind.
/// Sanitizer findings come first.  Hardware-ECC taxonomy next: an
/// uncorrectable (double-bit) error kills the kernel but is *detected* — it
/// never reaches results silently, so it gets its own class instead of
/// folding into Failure; any other crash or hang is a Failure.  A run that
/// finished clean is judged on its output (`cb`'s detectors alarm too, when
/// given).  One that is correct only because the code corrected a
/// single-bit memory error is EccCorrected rather than Masked: the
/// hardware, not luck or the workload's tolerance, absorbed the fault.
/// Detector alarms keep priority — if Hauberk also fired, the trial stays
/// in the Detected classes.
Outcome classify(const Device& dev, const gpusim::LaunchResult& res, const core::KernelJob& job,
                 const core::ControlBlock* cb, const core::ProgramOutput& golden,
                 const workloads::Requirement& req) {
  if (const auto so = sanitizer_outcome(dev, res)) return *so;
  if (res.status == LaunchStatus::EccUncorrectable) return Outcome::EccDetectedUncorrectable;
  if (res.status != LaunchStatus::Ok) return Outcome::Failure;
  core::ProgramOutput out;
  try {
    out = job.read_output(dev);
  } catch (const std::out_of_range&) {
    // The kernel never touched a corrupted pair, but the device->host
    // output copy did: the machine check fires on the copy-out exactly as
    // it would on a device read.  Detected, never silent.
    return gpusim::DeviceMemory::last_fault_uncorrectable() ? Outcome::EccDetectedUncorrectable
                                                            : Outcome::Failure;
  }
  const bool correct = req.satisfied(out, golden);
  if (res.sdc_alarm || (cb && cb->sdc_detected()))
    return correct ? Outcome::DetectedMasked : Outcome::Detected;
  if (correct && res.ecc_corrected > 0) return Outcome::EccCorrected;
  return correct ? Outcome::Masked : Outcome::Undetected;
}

}  // namespace

const std::vector<kir::Value>& TrialStage::stage() {
  if (!primed_) {
    args_ = job_->setup(*dev_);
    image_ = dev_->mem().image();
    check_image_ = dev_->mem().check_image();
    primed_ = true;
  } else {
    dev_->mem().restore_trial(image_, check_image_);
  }
  return args_;
}

Outcome run_one_fault(Device& dev, const kir::BytecodeProgram& program, core::KernelJob& job,
                      core::ControlBlock* cb, const FaultSpec& spec,
                      const core::ProgramOutput& golden, const workloads::Requirement& req,
                      std::uint64_t watchdog_instructions, int launch_workers,
                      std::size_t sanitize_cap, TrialStage* stage,
                      const gpusim::LaunchJournal* journal) {
  InjectingHooks hooks(program, cb);
  hooks.arm(spec);
  std::vector<kir::Value> own_args;
  if (!stage) own_args = job.setup(dev);
  const std::vector<kir::Value>& args = stage ? stage->stage() : own_args;
  if (cb) cb->reset_results();
  LaunchOptions opts;
  opts.hooks = &hooks;
  opts.watchdog_instructions = watchdog_instructions;
  opts.max_workers = launch_workers;
  opts.sanitize_report_cap = sanitize_cap;
  opts.journal = journal;
  const auto res = dev.launch(program, job.config(), args, opts);
  if (!hooks.activated() && res.status == LaunchStatus::Ok) return Outcome::NotActivated;
  return classify(dev, res, job, cb, golden, req);
}

std::uint64_t campaign_watchdog(const GoldenRun& gold, const CampaignConfig& cfg) noexcept {
  return std::max(cfg.hang_floor,
                  static_cast<std::uint64_t>(
                      static_cast<double>(gold.per_thread_instructions) * cfg.hang_factor));
}

// ---------------------------------------------------------------------------
// Memory / code faults
// ---------------------------------------------------------------------------

Outcome run_one_memory_fault(Device& dev, const kir::BytecodeProgram& program,
                             core::KernelJob& job, common::Rng& rng, std::uint32_t mask,
                             const core::ProgramOutput& golden,
                             const workloads::Requirement& req,
                             std::uint64_t watchdog_instructions, int launch_workers,
                             std::size_t sanitize_cap, core::ControlBlock* cb,
                             const gpusim::LaunchJournal* journal, TrialStage* stage) {
  std::vector<kir::Value> own_args;
  if (!stage) own_args = job.setup(dev);
  const std::vector<kir::Value>& args = stage ? stage->stage() : own_args;
  // Corrupt one random live word of device memory ("data segment" fault),
  // by physical index: PagedCpu addresses are sparse, the storage is not.
  const std::uint32_t used = dev.mem().used_words();
  if (used == 0) return Outcome::NotActivated;
  const auto idx = static_cast<std::uint32_t>(rng.next_below(used));
  if (dev.mem().protection() == gpusim::ecc::Scheme::None) {
    dev.mem().corrupt_word(idx, mask);
  } else {
    // Check-bit cells are DRAM too: 8 of the codeword's 72 bit positions
    // live in the shadow byte, so with probability 8/72 the strike lands
    // there instead (a single check-bit flip — correctable, and a correct
    // model of a one-cell upset in the check storage).  The extra draw only
    // happens under protection, keeping the unprotected RNG sequence — and
    // therefore every existing golden — bitwise unchanged.
    const std::uint32_t r =
        static_cast<std::uint32_t>(rng.next_below(gpusim::ecc::kCodeBits));
    if (r >= gpusim::ecc::kDataBits)
      dev.mem().corrupt_check(idx, static_cast<std::uint8_t>(
                                       1u << (r - gpusim::ecc::kDataBits)));
    else
      dev.mem().corrupt_word(idx, mask);
  }

  if (cb) cb->reset_results();
  LaunchOptions opts;
  opts.hooks = cb;
  opts.watchdog_instructions = watchdog_instructions;
  opts.max_workers = launch_workers;
  opts.sanitize_report_cap = sanitize_cap;
  opts.journal = journal;
  return classify(dev, dev.launch(program, job.config(), args, opts), job, cb, golden, req);
}

bool validate_program(const kir::BytecodeProgram& p) {
  const auto max_op = static_cast<std::uint8_t>(kir::OpCode::FIHook);
  // Only Halt and Jmp never continue at pc + 1: any other final instruction
  // makes the interpreter fetch one past the end of the program.
  if (!p.code.empty() && p.code.back().op != kir::OpCode::Halt &&
      p.code.back().op != kir::OpCode::Jmp)
    return false;
  for (const kir::Instr& in : p.code) {
    if (static_cast<std::uint8_t>(in.op) > max_op) return false;
    if (in.dst >= p.num_slots || in.a >= p.num_slots || in.b >= p.num_slots) return false;
    switch (in.op) {
      case kir::OpCode::Jmp:
      case kir::OpCode::Jz:
        // A target of exactly code.size() would make the interpreter fetch
        // past the end (the last real instruction is the Halt at size()-1),
        // so it is as undecodable as any other out-of-range target.
        if (in.aux >= p.code.size()) return false;
        break;
      case kir::OpCode::Un:
        if ((in.aux & 0xffffu) > static_cast<std::uint32_t>(kir::UnOp::CastI32)) return false;
        if (((in.aux >> 16) & 0xffu) > 2) return false;
        break;
      case kir::OpCode::Bin:
        if ((in.aux & 0xffffu) > static_cast<std::uint32_t>(kir::BinOp::LogicalOr)) return false;
        if (((in.aux >> 16) & 0xffu) > 2) return false;
        break;
      case kir::OpCode::Builtin:
        if (in.aux > static_cast<std::uint32_t>(kir::BuiltinVal::ThreadLinear)) return false;
        break;
      case kir::OpCode::Select:
        if (in.imm >= p.num_slots) return false;
        break;
      case kir::OpCode::FIHook:
      case kir::OpCode::CountExec:
        if (in.aux >= p.fi_sites.size()) return false;
        break;
      case kir::OpCode::RangeCheck:
      case kir::OpCode::EqualCheck:
      case kir::OpCode::ProfileVal:
        if (in.aux >= p.detectors.size()) return false;
        break;
      default:
        break;
    }
  }
  return true;
}

Outcome run_one_code_fault(Device& dev, const kir::BytecodeProgram& program,
                           core::KernelJob& job, common::Rng& rng,
                           const core::ProgramOutput& golden,
                           const workloads::Requirement& req,
                           std::uint64_t watchdog_instructions, int launch_workers,
                           std::size_t sanitize_cap) {
  kir::BytecodeProgram mutant = program;
  if (mutant.code.empty()) return Outcome::NotActivated;
  const std::size_t instr = rng.next_below(mutant.code.size());
  const int bit = static_cast<int>(rng.next_below(sizeof(kir::Instr) * 8));
  auto* bytes = reinterpret_cast<unsigned char*>(&mutant.code[instr]);
  bytes[bit / 8] = static_cast<unsigned char>(bytes[bit / 8] ^ (1u << (bit % 8)));

  // An undecodable mutant traps at fetch: illegal-instruction failure.
  if (!validate_program(mutant)) return Outcome::Failure;

  const auto args = job.setup(dev);
  LaunchOptions opts;
  opts.watchdog_instructions = watchdog_instructions;
  opts.max_workers = launch_workers;
  opts.sanitize_report_cap = sanitize_cap;
  return classify(dev, dev.launch(mutant, job.config(), args, opts), job, nullptr, golden, req);
}

}  // namespace hauberk::swifi
