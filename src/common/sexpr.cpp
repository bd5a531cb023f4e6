#include "common/sexpr.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hauberk::common::sexpr {

void write_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  if (v == 0) return "0";
  char buf[16];
  int i = 16;
  while (v != 0) {
    buf[--i] = digits[v & 0xf];
    v >>= 4;
  }
  return std::string(buf + i, buf + 16);
}

std::string read_file(const std::string& path, std::string_view format) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string(format) + ": cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

namespace {

bool is_space(char c) noexcept { return c == ' ' || c == '\n' || c == '\t'; }

bool ends_atom(char c) noexcept {
  return is_space(c) || c == '(' || c == ')' || c == '"' || c == '\r';
}

}  // namespace

Reader::Reader(std::string_view text, std::string prefix)
    : src_(text), prefix_(std::move(prefix)) {
  advance();
}

void Reader::fail(std::string_view why) const {
  throw std::runtime_error(prefix_ + std::string(why) + " at offset " +
                           std::to_string(tok_pos_));
}

void Reader::advance() {
  while (pos_ < src_.size() && is_space(src_[pos_])) ++pos_;
  tok_pos_ = pos_;
  text_.clear();
  if (pos_ >= src_.size()) {
    kind_ = Tok::End;
    return;
  }
  const char c = src_[pos_];
  if (c == '\r') fail("carriage return (the format uses LF line endings)");
  if (c == '(') {
    if (depth_ == kMaxNesting)
      fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
    ++depth_;
    ++pos_;
    kind_ = Tok::LParen;
    return;
  }
  if (c == ')') {
    if (depth_ == 0) fail("unbalanced ')'");
    --depth_;
    ++pos_;
    kind_ = Tok::RParen;
    return;
  }
  if (c == '"') {
    ++pos_;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      char ch = src_[pos_++];
      if (ch == '\\') {
        if (pos_ >= src_.size()) break;
        switch (src_[pos_++]) {
          case '"': ch = '"'; break;
          case '\\': ch = '\\'; break;
          case 'n': ch = '\n'; break;
          case 't': ch = '\t'; break;
          default: tok_pos_ = pos_ - 2; fail("bad escape");
        }
      }
      text_ += ch;
    }
    if (pos_ >= src_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    kind_ = Tok::Str;
    return;
  }
  while (pos_ < src_.size() && !ends_atom(src_[pos_])) text_ += src_[pos_++];
  kind_ = Tok::Atom;
}

bool Reader::accept(Tok k) {
  if (kind_ != k) return false;
  advance();
  return true;
}

bool Reader::accept_atom(std::string_view word) {
  if (kind_ != Tok::Atom || text_ != word) return false;
  advance();
  return true;
}

void Reader::expect(Tok k, std::string_view why) {
  if (!accept(k)) fail(why);
}

void Reader::expect_atom(std::string_view word) {
  if (!accept_atom(word)) fail("expected '" + std::string(word) + "'");
}

std::string Reader::atom(std::string_view what) {
  if (kind_ != Tok::Atom) fail("expected " + std::string(what));
  std::string out = std::move(text_);
  advance();
  return out;
}

std::string Reader::string(std::string_view what) {
  if (kind_ != Tok::Str) fail(std::string(what) + " must be a quoted string");
  std::string out = std::move(text_);
  advance();
  return out;
}

std::int64_t Reader::integer(std::int64_t lo, std::int64_t hi, std::string_view what) {
  const auto not_int = [&] { fail(std::string(what) + " must be an integer"); };
  if (kind_ != Tok::Atom) not_int();
  const bool neg = text_[0] == '-';
  if (text_.size() == (neg ? 1u : 0u)) not_int();
  // Magnitude up to 2^63, so INT64_MIN parses; larger inputs are out of
  // range for every caller and are rejected before they can wrap.
  constexpr std::uint64_t kLimit = 1ull << 63;
  std::uint64_t mag = 0;
  for (std::size_t i = neg ? 1 : 0; i < text_.size(); ++i) {
    const char c = text_[i];
    if (c < '0' || c > '9') not_int();
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (mag > (kLimit - d) / 10) fail(std::string(what) + " out of range");
    mag = mag * 10 + d;
  }
  if (!neg && mag == kLimit) fail(std::string(what) + " out of range");
  const auto v = static_cast<std::int64_t>(neg ? 0 - mag : mag);
  if (v < lo || v > hi) fail(std::string(what) + " out of range");
  advance();
  return v;
}

std::uint64_t Reader::hex(std::uint64_t max, std::string_view what) {
  const auto not_hex = [&] { fail(std::string(what) + " must be a hex number"); };
  if (kind_ != Tok::Atom || text_.size() > 16) not_hex();
  std::uint64_t v = 0;
  for (const char c : text_) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else not_hex();
  }
  if (v > max) fail(std::string(what) + " out of range");
  advance();
  return v;
}

void Reader::expect_end(std::string_view why) {
  if (kind_ != Tok::End) fail(why);
}

}  // namespace hauberk::common::sexpr
