// Minimal command-line flag parsing for the benchmark harnesses and example
// programs: `--name=value` / `--name value` / bare `--flag` forms.
//
// Typed getters parse strictly: a malformed value (e.g. `--workers=abc`)
// returns the default and records a diagnostic retrievable via errors(), so
// tools can fail fast instead of silently running with a zeroed knob.
// unknown_flags() lets a tool reject typos against its known-flag list.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hauberk::common {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const { return kv_.count(name) != 0; }
  [[nodiscard]] std::string get(const std::string& name, const std::string& def = "") const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name, std::uint64_t def) const;

  /// Flags that were passed but are not in `known` (typo detection).
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> known) const;

  /// Diagnostics accumulated by the typed getters (malformed values).
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }
  [[nodiscard]] bool ok() const noexcept { return errors_.empty(); }

  /// Record a tool-side validation failure in the same diagnostics stream
  /// (e.g. an out-of-range value for a flag that parsed fine).
  void note_error(std::string msg) const { errors_.push_back(std::move(msg)); }

 private:
  std::map<std::string, std::string> kv_;
  mutable std::vector<std::string> errors_;  ///< filled lazily by const getters
};

/// Interpreter engine selection, mirroring gpusim::ExecEngine value for
/// value (common cannot link gpusim; static_asserts in bench_common.hpp pin
/// the correspondence where both headers are visible).
enum class EngineKind : std::uint8_t { Reference, Threaded };

/// Canonical spelling accepted by --engine and printed in reports.
[[nodiscard]] const char* engine_kind_name(EngineKind k) noexcept;

/// Parse an --engine value; returns false (out untouched) on any string
/// that is not one of reference|threaded.
[[nodiscard]] bool parse_engine_kind(std::string_view text, EngineKind& out) noexcept;

/// Hardware memory-protection selection, mirroring gpusim::ecc::Scheme value
/// for value (same arrangement as EngineKind: common cannot link gpusim, and
/// bench_common.hpp static_asserts pin the correspondence).
enum class ProtectionKind : std::uint8_t { None, Hamming, Hsiao };

/// Canonical spelling accepted by --protection and printed in reports.
[[nodiscard]] const char* protection_kind_name(ProtectionKind k) noexcept;

/// Parse a --protection value; returns false (out untouched) on any string
/// that is not one of none|hamming|hsiao.
[[nodiscard]] bool parse_protection_kind(std::string_view text, ProtectionKind& out) noexcept;

/// The campaign-control flags shared by every SWIFI-running tool
/// (fault_campaign, controller, campaignd, and the bench harnesses):
///   --workers=N           campaign workers (0 = hardware concurrency)
///   --sanitize            attach the shared-memory hazard shadow to every
///                         trial (on either engine)
///   --datasets=N          independent datasets per experiment
///   --sanitize-cap=N      per-block sanitizer report cap (default 64)
///   --engine=K            interpreter engine: reference|threaded
///                         (default threaded; reference is the oracle)
///   --shards=K or K/I     split the campaign into K shards; run shard I
///                         (trial t belongs to shard t mod K; default 1/0)
///   --checkpoint=FILE     campaign checkpoint file to write
///   --checkpoint-every=N  write a checkpoint every N committed trials (0 = off)
///   --resume=FILE         resume from FILE (also becomes the checkpoint path
///                         unless --checkpoint overrides it)
///   --resultlog=FILE      compact binary per-trial result log
///   --protection=K        hardware memory protection: none|hamming|hsiao
///   --plan=FILE           structured hardening plan (hauberk-plan s-expr)
///                         applied to every translated kernel
///   --prune=FILE          static fault-site pruning plan (hauberk-prune
///                         s-expr, from kirprune --emit-plan): run one
///                         representative trial per equivalence class and
///                         weight aggregates by class size
///   --budget=P%|N         selective-hardening overhead budget: percent of
///                         the baseline cycles ("10%", 0..100) or an
///                         absolute extra-cycle count ("250000")
struct CampaignFlags {
  int workers = 0;
  bool sanitize = false;
  int datasets = 1;
  int sanitize_cap = 64;  ///< gpusim::SharedShadow::kMaxReportsPerBlock
  EngineKind engine = EngineKind::Threaded;
  ProtectionKind protection = ProtectionKind::None;
  int shards = 1;
  int shard_index = 0;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint;
  std::string resume;
  std::string resultlog;
  std::string plan;          ///< --plan=FILE; empty when absent
  std::string prune;         ///< --prune=FILE; empty when absent
  double budget_pct = -1.0;  ///< --budget=P%; negative when absent/absolute
  std::uint64_t budget_cycles = 0;  ///< --budget=N (absolute extra cycles)
};

/// Parse a --shards value: "K" (shard 0 of K) or "K/I" (shard I of K).
/// Returns false on malformed text or out-of-range indices (K < 1,
/// I < 0 or I >= K); `shards`/`shard_index` are untouched on failure.
[[nodiscard]] bool parse_shards(std::string_view text, int& shards, int& shard_index) noexcept;

/// Parse a --budget value: "P%" (percent overhead over the unprotected
/// baseline; fractional allowed, 0 <= P <= 100) or a plain non-negative
/// integer (absolute extra cycles).  A percent sets `pct` and zeroes
/// `cycles`; an absolute count sets `cycles` and sets `pct` to -1.
/// Returns false on malformed text, a negative value, or percent > 100;
/// outputs are untouched on failure.
[[nodiscard]] bool parse_budget(std::string_view text, double& pct,
                                std::uint64_t& cycles) noexcept;

/// Parse the shared campaign flags, validating ranges: negative --workers,
/// --datasets < 1, --sanitize-cap < 1 or a malformed --shards record an
/// error on `args` and fall back to the default.
[[nodiscard]] CampaignFlags parse_campaign_flags(const CliArgs& args,
                                                 int default_datasets = 1);

}  // namespace hauberk::common
