// The authoritative cycle-cost layer for simulated bytecode.
//
// One place owns every cost rule the repo used to scatter across
// device.cpp's launch-plan build, the translator's spill reasoning, and
// ad-hoc bench accounting:
//
//   * CostModel           — the per-opcode cycle table (GT200-class relative
//                           throughput) plus spill / duplication / ECC
//                           surcharges,
//   * spill_mask()        — the register-allocation model: which slots spill
//                           when demand exceeds the per-thread budget,
//   * static_cost()       — per-instruction cycles including the R-Scatter /
//                           Hauberk-dup discounts, ECC surcharge, and spill
//                           round trips,
//   * instruction_costs() — the full per-pc cost vector a launch plan (or a
//                           static estimator) folds against execution counts,
//   * classify()          — attribution of an instruction to the overhead
//                           anatomy categories behind Fig. 13's bars.
//
// Device::launch_plan() delegates here, so predicted and measured cycles
// come from the same table by construction.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "kir/bytecode.hpp"

namespace hauberk::gpusim {

/// Per-instruction cycle costs.  Values model relative throughput of a
/// GT200-class part (FP32 MAD pipe, SFU transcendentals, uncoalesced-average
/// global memory); absolute numbers are not calibrated — the paper's
/// evaluation reasons about *relative* overhead.
struct CostModel {
  std::uint32_t alu = 1;            ///< integer/pointer ops, moves, branches
  std::uint32_t fpu_addmul = 4;     ///< f32 add/sub/mul/min/max/compare
  std::uint32_t fpu_div = 20;       ///< f32 div, i32 div/mod
  std::uint32_t sfu = 16;           ///< sqrt/rsqrt/exp/log/sin/cos
  std::uint32_t load_global = 24;   ///< coalesced-average access
  std::uint32_t store_global = 24;
  std::uint32_t load_shared = 4;
  std::uint32_t store_shared = 4;
  std::uint32_t atomic_global = 80;
  std::uint32_t barrier = 8;
  std::uint32_t chk_xor = 1;        ///< Hauberk checksum update (one XOR)
  std::uint32_t dup_cmp = 2;        ///< compare + conditional set
  std::uint32_t range_check = 36;   ///< FP value vs up to 3 ranges + CB access
  std::uint32_t equal_check = 6;
  std::uint32_t chk_validate = 12;
  std::uint32_t spill = 8;          ///< extra per access to a spilled register
  std::uint32_t scatter_percent = 85;  ///< cost of R-Scatter duplicated instrs (% of base)
  /// Cost of Hauberk's non-loop duplicated computation (% of base): the
  /// duplicate issues in the ILP slack of the original latency-bound
  /// sequential code (this is what makes the paper's RPES overhead ~60%
  /// despite a ~75% sequential share).
  std::uint32_t hauberk_dup_percent = 75;
  std::uint32_t control_block_per_launch = 2000;  ///< CPU<->GPU control block delivery
  /// Protected-memory (ECC) surcharges, charged only when DeviceProps::
  /// protection is on.  The EDC syndrome check rides every global read and
  /// the encoder every global write (folded into the static per-instruction
  /// cost at plan build, so the hot path never branches on them); a
  /// correction additionally pays the scrub write-back per corrected pair.
  std::uint32_t ecc_check = 2;    ///< syndrome check per global load
  std::uint32_t ecc_encode = 2;   ///< check-bit encode per global store
  std::uint32_t ecc_scrub = 120;  ///< array write-back per corrected codeword

  bool operator==(const CostModel&) const = default;
};

/// Overhead-anatomy attribution of one instruction (the categories behind
/// Fig. 13's bars and bench_overhead_breakdown's columns).
enum class CostClass : std::uint8_t {
  Program,      ///< the original kernel computation
  Dup,          ///< duplicated non-loop recompute (Fig. 8(c) step ii / R-Scatter)
  Check,        ///< detector library calls (checksum, dup compare, range check)
  DetectorAux,  ///< loop-detector bookkeeping (accumulators, counters, guards)
  Measurement,  ///< profiler/FI hooks — free, excluded from every total
};

[[nodiscard]] CostClass classify(const kir::Instr& in) noexcept;
[[nodiscard]] const char* cost_class_name(CostClass c) noexcept;

/// Register-allocation model: when the kernel's register demand exceeds the
/// per-thread budget, the *least frequently accessed* values are spilled to
/// local memory (loop-nested accesses weighted heavily), as a real allocator
/// would.  Every access to a spilled slot then pays CostModel::spill extra
/// cycles.  Returns one flag per value slot.
[[nodiscard]] std::vector<bool> spill_mask(const kir::BytecodeProgram& program,
                                           std::uint32_t regs_per_thread);

/// Per-instruction static cost including register-spill surcharge.  `ecc`
/// (device has protected memory) folds the per-access EDC-check/encode
/// surcharge into every global access right here at plan build, so the
/// engines' hot paths never branch on the protection mode.
[[nodiscard]] std::uint32_t static_cost(const kir::Instr& in, const CostModel& cm,
                                        const std::vector<bool>& spilled, bool ecc);

/// The full cost vector (one entry per bytecode pc): spill analysis plus
/// static_cost of every instruction.  This is exactly what a Device launch
/// plan charges per execution, exposed so static estimators predict with
/// the same table the simulator measures with.
[[nodiscard]] std::vector<std::uint32_t> instruction_costs(
    const kir::BytecodeProgram& program, const CostModel& cm,
    std::uint32_t regs_per_thread, bool ecc);

constexpr std::size_t kNumCostClasses = 5;

/// Per-CostClass totals over a program.  From static_breakdown the entries
/// are per-pc (each instruction counted once); from weighted_breakdown they
/// are per-execution (folded against an interpreter count vector), which is
/// the Fig. 13 overhead-anatomy view bench_overhead_breakdown prints.
struct CostBreakdown {
  std::array<std::uint64_t, kNumCostClasses> instructions{};
  std::array<std::uint64_t, kNumCostClasses> cycles{};

  [[nodiscard]] std::uint64_t total_instructions() const noexcept;
  [[nodiscard]] std::uint64_t total_cycles() const noexcept;
  [[nodiscard]] std::uint64_t at(CostClass c, bool cycles_view) const noexcept;
};

[[nodiscard]] CostBreakdown static_breakdown(const kir::BytecodeProgram& program,
                                             const CostModel& cm,
                                             std::uint32_t regs_per_thread, bool ecc);

/// `counts` is a per-pc execution-count vector (LaunchOptions::
/// instr_exec_counts); entries beyond its size count as zero.
[[nodiscard]] CostBreakdown weighted_breakdown(const kir::BytecodeProgram& program,
                                               const CostModel& cm,
                                               std::uint32_t regs_per_thread, bool ecc,
                                               std::span<const std::uint64_t> counts);

}  // namespace hauberk::gpusim
