// The strict s-expression dialect of the project's text formats:
// instrumented kernels (kir::serialize_kernel), selective-hardening plans
// (hauberk/plan.hpp) and pruning plans (hauberk/prune.hpp).
//
// Tokens are '(' and ')', atoms (maximal runs of bytes other than
// whitespace, parentheses and '"'), and double-quoted strings with the
// \" \\ \n \t escapes.  Whitespace is space, tab and LF.  A CR byte is an
// error, so CRLF text is rejected rather than half-accepted.  Parentheses
// nest at most kMaxNesting deep, which bounds the recursion of every
// recursive-descent reader built on Reader.  Every error is a
// std::runtime_error whose message is the format's prefix, the reason, and
// the byte offset of the offending token.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hauberk::common::sexpr {

/// Deepest parenthesis nesting a Reader accepts.
inline constexpr std::size_t kMaxNesting = 4096;

/// Append `s` as a quoted string, escaping '"', '\\', LF and tab.
void write_string(std::string& out, std::string_view s);

/// Lowercase hex without a prefix or leading zeros ("0" for zero).
[[nodiscard]] std::string hex(std::uint64_t v);

/// Whole contents of the file at `path`; throws std::runtime_error
/// "<format>: cannot read '<path>'" when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path, std::string_view format);

enum class Tok : std::uint8_t { LParen, RParen, Atom, Str, End };

/// A one-token-lookahead cursor over a document.
class Reader {
 public:
  /// `prefix` starts every error message, e.g. "hauberk-plan parse error: ".
  Reader(std::string_view text, std::string prefix);

  /// The current token's kind.
  [[nodiscard]] bool at(Tok k) const noexcept { return kind_ == k; }
  /// Consume the current token if it is of kind `k`.
  bool accept(Tok k);
  /// Consume the current token if it is the atom `word`.
  bool accept_atom(std::string_view word);
  /// Consume a token of kind `k`, else fail with `why`.
  void expect(Tok k, std::string_view why);
  /// Consume the atom `word`, else fail with "expected '<word>'".
  void expect_atom(std::string_view word);
  /// Consume and return any atom; `what` names it in the error.
  [[nodiscard]] std::string atom(std::string_view what);
  /// Consume and return a quoted string's decoded contents.
  [[nodiscard]] std::string string(std::string_view what);
  /// Consume a decimal integer atom (optional '-', digits) in [lo, hi].
  [[nodiscard]] std::int64_t integer(std::int64_t lo, std::int64_t hi, std::string_view what);
  /// Consume a lowercase hex atom (1-16 digits, no prefix) no greater than `max`.
  [[nodiscard]] std::uint64_t hex(std::uint64_t max, std::string_view what);
  /// Fail with `why` unless the document has ended.
  void expect_end(std::string_view why);

  [[noreturn]] void fail(std::string_view why) const;

 private:
  void advance();

  std::string_view src_;
  std::string prefix_;
  std::size_t pos_ = 0;      ///< next unlexed byte
  std::size_t tok_pos_ = 0;  ///< offset of the current token
  std::size_t depth_ = 0;    ///< open parentheses lexed so far
  Tok kind_ = Tok::End;
  std::string text_;  ///< the current atom, or string contents
};

}  // namespace hauberk::common::sexpr
