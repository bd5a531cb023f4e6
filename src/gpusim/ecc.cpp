#include "gpusim/ecc.hpp"

#include <bit>

namespace hauberk::gpusim::ecc {

namespace {

// Data-bit columns of the extended Hamming (72,64) code in systematic form:
// the i-th non-power-of-two m in 3..71, with the overall-parity row (bit 7)
// added exactly when popcount(m) is even, so every column ends up odd.
consteval std::array<std::uint8_t, kDataBits> hamming_columns() {
  std::array<std::uint8_t, kDataBits> cols{};
  int n = 0;
  for (unsigned m = 3; n < kDataBits; ++m) {
    if ((m & (m - 1)) == 0) continue;  // power of two: a check-bit position
    cols[n++] = static_cast<std::uint8_t>(std::popcount(m) % 2 ? m : (m | 0x80u));
  }
  return cols;
}

// Hsiao odd-weight columns: all 56 weight-3 bytes, then the first 8
// weight-5 bytes, both in increasing numeric order.
consteval std::array<std::uint8_t, kDataBits> hsiao_columns() {
  std::array<std::uint8_t, kDataBits> cols{};
  int n = 0;
  for (int w : {3, 5})
    for (unsigned v = 0; v < 256 && n < kDataBits; ++v)
      if (std::popcount(v) == w) cols[n++] = static_cast<std::uint8_t>(v);
  return cols;
}

consteval Code make_code(std::array<std::uint8_t, kDataBits> data_cols) {
  Code c{};
  for (int k = 0; k < kDataBits; ++k) c.column[static_cast<std::size_t>(k)] = data_cols[static_cast<std::size_t>(k)];
  // Systematic encoding: a flipped check bit j shows up as syndrome bit j.
  for (int j = 0; j < kCheckBits; ++j)
    c.column[static_cast<std::size_t>(kDataBits + j)] = static_cast<std::uint8_t>(1u << j);
  for (int j = 0; j < kCheckBits; ++j) {
    std::uint64_t mask = 0;
    for (int i = 0; i < kDataBits; ++i)
      if ((data_cols[static_cast<std::size_t>(i)] >> j) & 1u) mask |= 1ull << i;
    c.row[static_cast<std::size_t>(j)] = mask;
  }
  // Byte-sliced encode: entry v of byte i XORs the columns of v's set bits.
  for (std::size_t i = 0; i < c.byte.size(); ++i)
    for (unsigned v = 0; v < 256; ++v) {
      std::uint8_t check = 0;
      for (unsigned b = 0; b < 8; ++b)
        if ((v >> b) & 1u) check ^= data_cols[i * 8 + b];
      c.byte[i][v] = check;
    }
  for (auto& e : c.locate) e = kUncorrectable;
  c.locate[0] = kNoError;
  for (int k = 0; k < kCodeBits; ++k)
    c.locate[c.column[static_cast<std::size_t>(k)]] = static_cast<std::int8_t>(k);
  return c;
}

constexpr Code kHamming = make_code(hamming_columns());
constexpr Code kHsiao = make_code(hsiao_columns());

// The SEC-DED guarantees rest on the columns being distinct, nonzero and
// odd-weight; pin that at compile time for both schemes.
consteval bool columns_odd_and_distinct(const Code& c) {
  for (int a = 0; a < kCodeBits; ++a) {
    if (c.column[static_cast<std::size_t>(a)] == 0) return false;
    if (std::popcount(unsigned{c.column[static_cast<std::size_t>(a)]}) % 2 == 0) return false;
    for (int b = a + 1; b < kCodeBits; ++b)
      if (c.column[static_cast<std::size_t>(a)] == c.column[static_cast<std::size_t>(b)]) return false;
  }
  return true;
}
static_assert(columns_odd_and_distinct(kHamming));
static_assert(columns_odd_and_distinct(kHsiao));

}  // namespace

const Code& code(Scheme scheme) noexcept {
  return scheme == Scheme::Hsiao ? kHsiao : kHamming;
}

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::None: return "none";
    case Scheme::Hamming: return "hamming";
    case Scheme::Hsiao: return "hsiao";
  }
  return "none";
}

bool parse_scheme(std::string_view text, Scheme& out) noexcept {
  if (text == "none") out = Scheme::None;
  else if (text == "hamming") out = Scheme::Hamming;
  else if (text == "hsiao") out = Scheme::Hsiao;
  else return false;
  return true;
}

}  // namespace hauberk::gpusim::ecc
