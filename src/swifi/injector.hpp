// The SWIFI runtime: LaunchHooks implementation that arms one FaultSpec per
// launch, corrupts the targeted definition via the FIHook instruction, and
// forwards detector callbacks to a Hauberk control block when one is present
// (the FI&FT configuration of Fig. 7).  It reports the armed (site, thread)
// as its FI filter, so the threaded engine runs every other thread on a
// stream with FIHooks compiled away.
#pragma once

#include <atomic>

#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "swifi/fault.hpp"

namespace hauberk::swifi {

class InjectingHooks : public gpusim::LaunchHooks {
 public:
  /// `cb` may be null (plain FI build: sensitivity measurement, Fig. 1).
  InjectingHooks(const kir::BytecodeProgram& program, core::ControlBlock* cb)
      : prog_(&program), cb_(cb) {}

  /// Arm one fault for the next launch.
  void arm(const FaultSpec& spec) {
    spec_ = spec;
    armed_ = true;
    activated_.store(false, std::memory_order_relaxed);
    occurrence_seen_ = 0;
    // fi_hook matches on FISite::site_id; the filter names the site by the
    // index the hook receives (one index per site id).  A site id the
    // program does not have can never fire.
    filter_ = {gpusim::FIFilter::Kind::None};
    for (std::uint32_t i = 0; i < prog_->fi_sites.size(); ++i)
      if (prog_->fi_sites[i].site_id == spec.site_id)
        filter_ = {gpusim::FIFilter::Kind::Armed, i, spec.thread, spec.occurrence};
  }
  void disarm() {
    armed_ = false;
    filter_ = {gpusim::FIFilter::Kind::None};
  }
  [[nodiscard]] bool activated() const noexcept {
    return activated_.load(std::memory_order_relaxed);
  }

  // --- LaunchHooks ---
  /// None when disarmed, else the armed (site, thread): fi_hook is a no-op
  /// for every other call.
  [[nodiscard]] gpusim::FIFilter fi_filter() const override { return filter_; }
  bool fi_hook(std::uint32_t site_index, std::uint32_t thread_linear,
               std::uint32_t& value_bits) override {
    if (!armed_) return false;
    const kir::FISite& site = prog_->fi_sites[site_index];
    if (site.site_id != spec_.site_id || thread_linear != spec_.thread) return false;
    // Only the targeted thread reaches this point, so the occurrence counter
    // needs no synchronization.
    if (++occurrence_seen_ != spec_.occurrence) return false;
    value_bits ^= spec_.mask;
    activated_.store(true, std::memory_order_relaxed);
    return true;
  }

  void fi_skipped(std::uint32_t site_index, std::uint32_t thread_linear,
                  std::uint64_t executions) override {
    if (armed_ && prog_->fi_sites[site_index].site_id == spec_.site_id &&
        thread_linear == spec_.thread)
      occurrence_seen_ += executions;
  }

  bool check_range(int detector, kir::Value value) override {
    return cb_ ? cb_->check_range(detector, value) : false;
  }
  void equal_check_failed(int detector) override {
    if (cb_) cb_->equal_check_failed(detector);
  }
  void profile_value(int detector, kir::Value value) override {
    if (cb_) cb_->profile_value(detector, value);
  }
  void count_exec(std::uint32_t site_index, std::uint32_t thread_linear) override {
    if (cb_) cb_->count_exec(site_index, thread_linear);
  }

 private:
  const kir::BytecodeProgram* prog_;
  core::ControlBlock* cb_;
  FaultSpec spec_{};
  bool armed_ = false;
  gpusim::FIFilter filter_{gpusim::FIFilter::Kind::None};
  std::uint64_t occurrence_seen_ = 0;
  std::atomic<bool> activated_{false};
};

}  // namespace hauberk::swifi
