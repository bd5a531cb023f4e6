// Static fault-site pruning facts.
//
// A PruningPlan records, per kernel and per fault-injection site, the
// environment-free facts the campaign pruner needs to skip provably
// redundant SWIFI trials:
//
//   * `live` — the bit-liveness mask from kir::DefUseAnalysis.  A flip whose
//     mask lands entirely outside `live` is killed by downstream masking
//     (and/or/shift constants, dead windows, dead destinations) before it
//     can influence any observable behaviour: it is *statically Benign* and
//     its ground-truth outcome must be Masked (or NotActivated).
//   * `cone` — a structural signature of the site's def-use propagation
//     cone (variable identities and constant values erased, op structure,
//     dtype, hardware component, loop membership and dead-window status
//     kept).  Sites with equal signatures have isomorphic propagation cones:
//     thread-uniform code, structurally identical loop iterations, and
//     symmetric register lanes all collapse onto one signature.
//   * `uniform` / `occsym` — whether the site's value is thread-uniform and
//     whether faults in different dynamic occurrences are interchangeable
//     (not loop-carried, not control-steering, not a scheduler/iterator
//     site).
//
// Plans serialize to the strict s-expression dialect HardeningPlan and
// kernels share (common/sexpr.hpp) and carry a digest that
// swifi::campaign_digest folds in so stored campaign results are bound to
// the exact pruning decisions that produced them.  Each kernel entry also
// pins the bytecode program digest it was derived from; consumers reject a
// plan applied to a different build of the kernel.
//
// The partitioner that turns these facts into equivalence classes over
// concrete FaultSpecs lives in swifi/prune.hpp (it needs the campaign
// types); the kirprune CLI emits plan files; fault_campaign / campaignd /
// benches consume them via --prune=FILE.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kir/ast.hpp"
#include "kir/bytecode.hpp"

namespace hauberk::kir {
class AnalysisManager;
}  // namespace hauberk::kir

namespace hauberk::prune {

/// Static facts for one fault-injection site.
struct SiteFacts {
  std::uint32_t site_id = 0;
  /// Bits whose corruption can reach an observable root; 0 = dead site.
  std::uint32_t live_mask = 0;
  /// Structural propagation-cone signature (see file comment).
  std::uint64_t cone_sig = 0;
  /// Value is provably identical across threads.
  bool uniform = false;
  /// Faults in different dynamic occurrences are interchangeable.
  bool occ_symmetric = false;
};

/// Facts for every site of one lowered kernel build.
struct KernelPruneFacts {
  std::string kernel;
  /// Digest of the kir::BytecodeProgram the facts were computed over; a
  /// plan never applies to a differently-built program.
  std::uint64_t program_digest = 0;
  std::vector<SiteFacts> sites;  ///< sorted by site_id

  [[nodiscard]] const SiteFacts* find(std::uint32_t site_id) const noexcept;
};

struct PruningPlan {
  std::vector<KernelPruneFacts> kernels;

  [[nodiscard]] const KernelPruneFacts* find(const std::string& kernel) const noexcept;
  [[nodiscard]] bool trivial() const noexcept { return kernels.empty(); }
};

/// Is a flip of `mask` at this site statically Benign?
[[nodiscard]] inline bool statically_benign(const SiteFacts& f, std::uint32_t mask) noexcept {
  return (mask & f.live_mask) == 0;
}

/// Compute facts for one instrumented kernel (the FI or FIFT translation —
/// site ids must match `program`'s FISite table, which lower() guarantees
/// when `instrumented` is the AST that produced it).  `am`, when given,
/// caches/reuses the DefUseAnalysis.
[[nodiscard]] KernelPruneFacts build_kernel_prune_facts(const kir::Kernel& instrumented,
                                                        const kir::BytecodeProgram& program,
                                                        kir::AnalysisManager* am = nullptr);

/// Canonical s-expression form, e.g.
///   (hauberk-prune 1
///     (kernel "CP" (program 1f2e3d4c5b6a7988)
///       (site 0 (live ffffffff) (cone a1b2c3d4e5f60718) (uniform 0) (occsym 1))))
[[nodiscard]] std::string serialize_pruning_plan(const PruningPlan& plan);

/// Strict parser; throws std::runtime_error "hauberk-prune parse error:
/// <why> at offset <n>" on malformed input (unknown atom, bad arity,
/// duplicate kernel/site entry, trailing garbage, and everything the shared
/// dialect rejects).  Site ids are read as hex although they are written in
/// decimal, so ids of 10 and up do not round-trip (DESIGN.md §14).
[[nodiscard]] PruningPlan parse_pruning_plan(const std::string& text);

/// Read and parse a plan file (--prune=FILE); throws naming the path.
[[nodiscard]] PruningPlan load_pruning_plan(const std::string& path);

/// 0 for a trivial plan (prune-free campaign digests never move), else a
/// nonzero FNV-1a over the canonical serialization
/// (common::kFnvTruncatedBasis).
[[nodiscard]] std::uint64_t pruning_plan_digest(const PruningPlan& plan) noexcept;

}  // namespace hauberk::prune
