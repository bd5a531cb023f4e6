// (72,64) SEC-DED codeword schemes for the protected-memory mode.
//
// The paper's GPUs predate Fermi ECC; this module models the hardware
// protection that arrived after it so the SWIFI campaigns can compare
// hardware ECC against Hauberk's software detectors (ROADMAP: ECC/EDC
// backend).  Two classic single-error-correcting, double-error-detecting
// codes over 64 data bits + 8 check bits:
//
//  * Hamming — the extended Hamming (72,64) code in systematic form.  Data
//    bit i maps to the i-th non-power-of-two position m in 3..71 of the
//    classic construction; its parity-check column is m itself when
//    popcount(m) is odd, else m with bit 7 (the overall-parity row) set.
//
//  * Hsiao — the odd-weight-column code from Hsiao's 1970 paper: the 56
//    weight-3 bytes (in increasing numeric order) plus the first 8 weight-5
//    bytes.  Minimum-weight columns mean fewer XOR terms per check bit in
//    real silicon; here the schemes cost the same and differ only in their
//    H matrix (and therefore their golden check bytes).
//
// Both constructions give every one of the 72 code bits (64 data + 8 check,
// the check columns being the unit vectors) a distinct odd-weight column.
// Odd columns make the algebra airtight: a single-bit error produces a
// syndrome equal to its column (odd weight -> nonzero, found in the locate
// table -> corrected), while a double-bit error produces the XOR of two odd
// columns — even weight, so never zero and never itself a column -> always
// flagged uncorrectable.  The exhaustive sweeps in tests/test_ecc.cpp walk
// all 72 single flips and all 72*71/2 double flips per scheme to pin this.
//
// Encoding is systematic: the stored check byte is encode(data), one 64-bit
// parity per H-matrix row.  The codes are linear, so encode(data) is the XOR
// of the columns of its set bits, and encode() computes it byte-sliced: an
// XOR of eight lookups in a per-code 8x256 table of those partial XORs
// (tests/test_ecc.cpp checks it against the row parities).  The syndrome of
// a stored pair is encode(data) ^ check; decode() is a 256-entry table
// lookup.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace hauberk::gpusim::ecc {

/// Memory-protection policy of a DeviceMemory (and the device that owns it).
enum class Scheme : std::uint8_t { None = 0, Hamming = 1, Hsiao = 2 };

constexpr int kDataBits = 64;   ///< data bits per codeword (a pair of arena words)
constexpr int kCheckBits = 8;   ///< check bits per codeword (one shadow byte)
constexpr int kCodeBits = 72;   ///< total code bits a fault can land in

constexpr std::int8_t kNoError = -1;        ///< decode: syndrome zero
constexpr std::int8_t kUncorrectable = -2;  ///< decode: double (or worse) error

/// One scheme's tables: H-matrix rows (the encoding's definition), per-bit
/// syndrome columns for the tests/injector, the byte-sliced encode table and
/// the syndrome -> code-bit locate table.
struct Code {
  std::array<std::uint64_t, kCheckBits> row;  ///< data bits feeding check bit j
  std::array<std::uint8_t, kCodeBits> column; ///< syndrome of a flip at code bit k
  /// byte[i][v]: check byte of the data word whose byte i is v, all else zero.
  std::array<std::array<std::uint8_t, 256>, kDataBits / 8> byte;
  std::array<std::int8_t, 256> locate;        ///< syndrome -> code bit / kNoError / kUncorrectable
};

/// The tables for a real scheme (must not be called with Scheme::None).
[[nodiscard]] const Code& code(Scheme scheme) noexcept;

/// Check byte for a 64-bit data word: one parity per H-matrix row, as the
/// XOR of its bytes' table entries (the code is linear).
[[nodiscard]] constexpr std::uint8_t encode(const Code& c, std::uint64_t data) noexcept {
  return static_cast<std::uint8_t>(
      c.byte[0][data & 0xff] ^ c.byte[1][(data >> 8) & 0xff] ^ c.byte[2][(data >> 16) & 0xff] ^
      c.byte[3][(data >> 24) & 0xff] ^ c.byte[4][(data >> 32) & 0xff] ^
      c.byte[5][(data >> 40) & 0xff] ^ c.byte[6][(data >> 48) & 0xff] ^ c.byte[7][data >> 56]);
}

struct Decoded {
  std::uint64_t data = 0;    ///< data after any correction
  std::uint8_t check = 0;    ///< check bits after any correction
  std::int8_t bit = kNoError;  ///< corrected code bit, kNoError, or kUncorrectable
};

/// EDC check + SEC decode of a stored (data, check) pair.
[[nodiscard]] constexpr Decoded decode(const Code& c, std::uint64_t data,
                                       std::uint8_t check) noexcept {
  const auto syn = static_cast<std::uint8_t>(encode(c, data) ^ check);
  if (syn == 0) return {data, check, kNoError};
  const std::int8_t pos = c.locate[syn];
  if (pos == kUncorrectable) return {data, check, kUncorrectable};
  if (pos < kDataBits) return {data ^ (1ull << pos), check, pos};
  return {data, static_cast<std::uint8_t>(check ^ (1u << (pos - kDataBits))), pos};
}

/// Canonical spelling accepted by --protection and printed in reports.
[[nodiscard]] const char* scheme_name(Scheme scheme) noexcept;

/// Parse a --protection value; returns false (out untouched) on any string
/// that is not one of none|hamming|hsiao.
[[nodiscard]] bool parse_scheme(std::string_view text, Scheme& out) noexcept;

}  // namespace hauberk::gpusim::ecc
