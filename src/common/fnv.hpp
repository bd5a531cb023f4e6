// FNV-1a, the one hash behind every digest the project persists or keys a
// cache on: campaign, plan, pruning-plan, program, remark, interval-env and
// guardian output digests, plus the def-use cone signatures.
//
// Two offset bases are in use and neither may change.  Most digests seed
// with kFnvTruncatedBasis, the standard 64-bit basis with its last decimal
// digit missing; the remark digest and the def-use cone hash seed with the
// standard basis.  Both sets of values are baked into checkpoints, result
// logs, the 216 translator digests and the digest-pin test, so "fixing" the
// truncated basis would orphan every stored campaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hauberk::common {

/// 14695981039346656037 with its last digit dropped (see file comment).
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ull;
/// The standard FNV-1a 64-bit offset basis, 14695981039346656037.
inline constexpr std::uint64_t kFnvStandardBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over `n` bytes at `data`, continuing from `h`.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                         std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, std::string_view s) noexcept {
  return fnv1a(h, s.data(), s.size());
}

/// FNV-1a over the eight bytes of `v`, least significant first (the same
/// bytes on every host).
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Word-wise mix `(h ^ v) * prime`: one FNV step over a whole word, used
/// where a structural hash combines child hashes (cone signatures).
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) noexcept {
  return (h ^ v) * kFnvPrime;
}

}  // namespace hauberk::common
