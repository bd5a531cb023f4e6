// The Hauberk control block (Section V.A): the object the CPU-side code
// allocates, copies to GPU memory, and passes to the kernel so that placed
// error detectors can read their configuration (profiled value ranges,
// alpha) and record results (SDC bits, outliers) without terminating the
// kernel.  After kernel completion the CPU copies it back and hands it to
// the recovery engine.
//
// In this reproduction the control block lives host-side and is wired into
// the kernel through the interpreter's LaunchHooks interface; the simulated
// cost of shuttling it across PCIe is charged via
// LaunchOptions::charge_control_block.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "hauberk/ranges.hpp"
#include "kir/bytecode.hpp"

namespace hauberk::core {

/// Per-detector configuration + runtime state.
struct DetectorState {
  kir::DetectorMeta meta;
  RangeSet ranges;
  double alpha = 1.0;
  bool configured = false;  ///< ranges loaded from profiling

  // Runtime results (reset per launch):
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::vector<double> outliers;  ///< capped; feeds on-line range updates
};

/// Host-side control block implementing the device-side detector runtime.
/// Thread-safe: kernels execute blocks on concurrent workers.
class ControlBlock : public gpusim::LaunchHooks {
 public:
  static constexpr std::size_t kMaxOutliers = 64;
  static constexpr std::size_t kMaxSamples = 1u << 16;

  explicit ControlBlock(const kir::BytecodeProgram& program);

  // --- configuration (CPU side, before launch) ---
  void set_ranges(int detector, const RangeSet& rs);
  void set_alpha(double alpha);
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  /// Configure all value detectors from profiled sample sets.
  void configure_from_profile(const std::vector<std::vector<double>>& samples_per_detector);

  // --- per-launch lifecycle ---
  void reset_results();

  // --- results (CPU side, after launch) ---
  [[nodiscard]] bool sdc_detected() const noexcept {
    return sdc_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<DetectorState>& detectors() const noexcept {
    return detectors_;
  }
  [[nodiscard]] std::vector<DetectorState>& detectors() noexcept { return detectors_; }
  [[nodiscard]] std::uint64_t total_checks() const noexcept;
  [[nodiscard]] std::uint64_t total_violations() const noexcept;

  /// On-line learning step: absorb recorded outliers into the ranges
  /// (invoked by the recovery engine once a false alarm is diagnosed).
  void absorb_outliers();

  // --- profiler-mode state ---
  void prepare_profiling(std::uint64_t total_threads);
  [[nodiscard]] const std::vector<std::vector<double>>& profiled_samples() const noexcept {
    return samples_;
  }
  /// Execution counts per FI site per thread (FI target derivation).
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& exec_counts() const noexcept {
    return exec_counts_;
  }

  // --- LaunchHooks ---
  /// None: the control block never overrides fi_hook, so no FIHook can act
  /// (the threaded engine drops them, and segment replay may serve it).
  [[nodiscard]] gpusim::FIFilter fi_filter() const override {
    return {gpusim::FIFilter::Kind::None};
  }
  bool check_range(int detector, kir::Value value) override;
  void equal_check_failed(int detector) override;
  void profile_value(int detector, kir::Value value) override;
  void count_exec(std::uint32_t site_index, std::uint32_t thread_linear) override;

 private:
  std::vector<DetectorState> detectors_;
  double alpha_ = 1.0;
  std::atomic<bool> sdc_{false};
  std::mutex mu_;

  // Profiler state.
  std::vector<std::vector<double>> samples_;                 ///< [detector] -> samples
  std::vector<std::vector<std::uint32_t>> exec_counts_;      ///< [site] -> per-thread counts
  std::uint64_t profile_threads_ = 0;
};

}  // namespace hauberk::core
