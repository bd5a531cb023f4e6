// Fault model of the SWIFI toolset (Section VII).
//
// A FaultSpec names one architecture-state corruption: which FI site (i.e.
// which virtual-variable definition), which thread, which dynamic occurrence
// of that definition in that thread, and the error mask to XOR in.  Faults
// are planned from profiler execution counts and injected through the
// FIHook instructions the translator placed (Fig. 12).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kir/ast.hpp"
#include "kir/bytecode.hpp"

namespace hauberk::swifi {

struct FaultSpec {
  std::uint32_t site_id = 0;     ///< FISite::site_id in the FI program
  std::uint32_t thread = 0;      ///< global linear thread id
  std::uint32_t occurrence = 1;  ///< 1-based dynamic execution index in that thread
  std::uint32_t mask = 1;        ///< error bits XORed into the defined value

  // Descriptive metadata (copied from the site for reporting).
  kir::VarId var = kir::kInvalidVar;
  kir::DType type = kir::DType::I32;
  kir::HwComponent hw = kir::HwComponent::ALU;
};

/// Fault-injection experiment outcome, the five classes of Section VIII plus
/// NotActivated (the planned fault never triggered — excluded from ratios).
/// Campaigns run with CampaignConfig::sanitize split two sanitizer-visible
/// classes out of Failure: RaceDetected (the fault turned the kernel racy)
/// and BarrierDivergence (the fault broke barrier uniformity).  With the
/// sanitizer off, those trials classify exactly as before.
/// Campaigns on a protected-memory device (CampaignConfig::protection) add
/// the hardware-ECC taxonomy: EccCorrected (the code corrected a single-bit
/// memory error and the run finished clean) and EccDetectedUncorrectable
/// (a double-bit error was detected and killed the kernel — detected, never
/// silent).  Outcome values are part of the binary result-log format; new
/// classes append, existing encodings never renumber.
enum class Outcome : std::uint8_t {
  Failure,         ///< kernel crash, or hang caught by the guardian watchdog
  Masked,          ///< output satisfies the correctness requirement, no alarm
  DetectedMasked,  ///< alarm raised but output still satisfies the requirement
  Detected,        ///< alarm raised and output violates the requirement
  Undetected,      ///< output violates the requirement with no alarm (SDC!)
  NotActivated,
  RaceDetected,       ///< sanitizer saw a shared-memory race (WW/RW or uninit read)
  BarrierDivergence,  ///< sanitizer saw divergent/abandoned barriers
  EccCorrected,       ///< hardware ECC corrected the error; output clean, no alarm
  EccDetectedUncorrectable,  ///< hardware ECC detected a double-bit error (kernel killed)
};

[[nodiscard]] const char* outcome_name(Outcome o) noexcept;

/// Aggregated campaign counts.
struct OutcomeCounts {
  std::uint64_t failure = 0;
  std::uint64_t masked = 0;
  std::uint64_t detected_masked = 0;
  std::uint64_t detected = 0;
  std::uint64_t undetected = 0;
  std::uint64_t not_activated = 0;
  std::uint64_t race_detected = 0;
  std::uint64_t barrier_divergence = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_uncorrectable = 0;

  /// Count `n` trials of outcome `o` (n > 1: one representative trial
  /// standing for `n` equivalent fault specs, campaign pruning).
  void add(Outcome o, std::uint64_t n = 1) noexcept;
  /// Field-by-field sum (shard merges, per-arm totals).
  OutcomeCounts& operator+=(const OutcomeCounts& o) noexcept;
  [[nodiscard]] std::uint64_t activated() const noexcept {
    return failure + masked + detected_masked + detected + undetected +
           race_detected + barrier_divergence + ecc_corrected + ecc_uncorrectable;
  }
  /// Error detection coverage: probability a fault is detected or masked
  /// (Section VIII: 1 - undetected ratio).
  [[nodiscard]] double coverage() const noexcept {
    const auto n = activated();
    return n == 0 ? 1.0 : 1.0 - static_cast<double>(undetected) / static_cast<double>(n);
  }
  [[nodiscard]] double ratio(std::uint64_t part) const noexcept {
    const auto n = activated();
    return n == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(n);
  }
};

}  // namespace hauberk::swifi
