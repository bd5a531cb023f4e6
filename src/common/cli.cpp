#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>

namespace hauberk::common {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view a(argv[i]);
    if (!a.starts_with("--")) continue;
    a.remove_prefix(2);
    const auto eq = a.find('=');
    if (eq != std::string_view::npos) {
      kv_[std::string(a.substr(0, eq))] = std::string(a.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      kv_[std::string(a)] = argv[i + 1];
      ++i;
    } else {
      kv_[std::string(a)] = "1";
    }
  }
}

std::string CliArgs::get(const std::string& name, const std::string& def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : it->second;
}

namespace {

/// Strict full-string numeric parse; *end must reach the terminator.
template <typename T, typename Fn>
bool parse_full(const std::string& text, Fn fn, T& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = static_cast<T>(fn(text.c_str(), &end));
  return errno == 0 && end != nullptr && *end == '\0';
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def) const {
  auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  std::int64_t v;
  if (!parse_full(it->second, [](const char* s, char** e) { return std::strtoll(s, e, 0); },
                  v)) {
    errors_.push_back("--" + name + ": invalid integer '" + it->second + "'");
    return def;
  }
  return v;
}

std::uint64_t CliArgs::get_u64(const std::string& name, std::uint64_t def) const {
  auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  std::uint64_t v;
  if (!parse_full(it->second, [](const char* s, char** e) { return std::strtoull(s, e, 0); },
                  v)) {
    errors_.push_back("--" + name + ": invalid integer '" + it->second + "'");
    return def;
  }
  return v;
}

double CliArgs::get_double(const std::string& name, double def) const {
  auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  double v;
  if (!parse_full(it->second, [](const char* s, char** e) { return std::strtod(s, e); }, v)) {
    errors_.push_back("--" + name + ": invalid number '" + it->second + "'");
    return def;
  }
  return v;
}

std::vector<std::string> CliArgs::unknown_flags(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : kv_) {
    bool found = false;
    for (std::string_view k : known)
      if (name == k) {
        found = true;
        break;
      }
    if (!found) out.push_back(name);
  }
  return out;
}

const char* engine_kind_name(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::Reference: return "reference";
    case EngineKind::Threaded: return "threaded";
  }
  return "?";
}

bool parse_engine_kind(std::string_view text, EngineKind& out) noexcept {
  for (const auto k : {EngineKind::Reference, EngineKind::Threaded}) {
    if (text == engine_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* protection_kind_name(ProtectionKind k) noexcept {
  switch (k) {
    case ProtectionKind::None: return "none";
    case ProtectionKind::Hamming: return "hamming";
    case ProtectionKind::Hsiao: return "hsiao";
  }
  return "?";
}

bool parse_protection_kind(std::string_view text, ProtectionKind& out) noexcept {
  for (const auto k :
       {ProtectionKind::None, ProtectionKind::Hamming, ProtectionKind::Hsiao}) {
    if (text == protection_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool parse_shards(std::string_view text, int& shards, int& shard_index) noexcept {
  const auto parse_int = [](std::string_view s, int& out) {
    if (s.empty() || s.size() > 9) return false;
    int v = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
    }
    out = v;
    return true;
  };
  const auto slash = text.find('/');
  int k = 0, i = 0;
  if (slash == std::string_view::npos) {
    if (!parse_int(text, k)) return false;
  } else {
    if (!parse_int(text.substr(0, slash), k) || !parse_int(text.substr(slash + 1), i))
      return false;
  }
  if (k < 1 || i >= k) return false;
  shards = k;
  shard_index = i;
  return true;
}

bool parse_budget(std::string_view text, double& pct, std::uint64_t& cycles) noexcept {
  if (text.empty()) return false;
  if (text.back() == '%') {
    const std::string num(text.substr(0, text.size() - 1));
    if (num.empty() || num.front() == '-' || num.front() == '+') return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    if (!(v >= 0.0) || v > 100.0) return false;
    pct = v;
    cycles = 0;
    return true;
  }
  if (text.front() == '-' || text.front() == '+') return false;
  const std::string num(text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(num.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  pct = -1.0;
  cycles = v;
  return true;
}

CampaignFlags parse_campaign_flags(const CliArgs& args, int default_datasets) {
  CampaignFlags f;
  const auto workers = args.get_int("workers", 0);
  if (workers < 0) {
    args.note_error("--workers: must be >= 0 (got " + std::to_string(workers) + ")");
  } else {
    f.workers = static_cast<int>(workers);
  }
  f.sanitize = args.has("sanitize");
  const auto datasets = args.get_int("datasets", default_datasets);
  if (datasets < 1) {
    args.note_error("--datasets: must be >= 1 (got " + std::to_string(datasets) + ")");
    f.datasets = default_datasets;
  } else {
    f.datasets = static_cast<int>(datasets);
  }
  const auto cap = args.get_int("sanitize-cap", f.sanitize_cap);
  if (cap < 1) {
    args.note_error("--sanitize-cap: must be >= 1 (got " + std::to_string(cap) + ")");
  } else {
    f.sanitize_cap = static_cast<int>(cap);
  }
  if (args.has("engine")) {
    const std::string text = args.get("engine");
    if (!parse_engine_kind(text, f.engine))
      args.note_error("--engine: unknown engine '" + text +
                      "' (expected reference|threaded)");
  }
  if (args.has("protection")) {
    const std::string text = args.get("protection");
    if (!parse_protection_kind(text, f.protection))
      args.note_error("--protection: unknown scheme '" + text +
                      "' (expected none|hamming|hsiao)");
  }
  if (args.has("shards")) {
    const std::string text = args.get("shards");
    if (!parse_shards(text, f.shards, f.shard_index))
      args.note_error("--shards: expected K or K/I with K >= 1 and 0 <= I < K (got '" +
                      text + "')");
  }
  if (args.has("budget")) {
    const std::string text = args.get("budget");
    if (!parse_budget(text, f.budget_pct, f.budget_cycles))
      args.note_error("--budget: expected P% (0 <= P <= 100) or a non-negative "
                      "cycle count (got '" + text + "')");
  }
  f.plan = args.get("plan");
  f.prune = args.get("prune");
  f.checkpoint_every = args.get_u64("checkpoint-every", 0);
  f.checkpoint = args.get("checkpoint");
  f.resume = args.get("resume");
  f.resultlog = args.get("resultlog");
  if (f.checkpoint.empty()) f.checkpoint = f.resume;
  if (f.checkpoint_every > 0 && f.checkpoint.empty())
    args.note_error("--checkpoint-every: requires --checkpoint=FILE (or --resume=FILE)");
  return f;
}

}  // namespace hauberk::common
