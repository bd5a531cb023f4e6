// The three text formats — instrumented kernels (kir::serialize_kernel),
// selective-hardening plans and pruning plans — share one strict
// s-expression reader (common/sexpr.hpp).  These tests pin the dialect:
// every hostile input is rejected by every format with std::runtime_error
// carrying that format's prefix, never by another exception type, a crash
// or a hang.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/sexpr.hpp"
#include "hauberk/plan.hpp"
#include "hauberk/prune.hpp"
#include "kir/builder.hpp"
#include "kir/printer.hpp"

using namespace hauberk;

namespace {

struct Format {
  const char* name;
  std::function<void(const std::string&)> parse;
  std::string canonical;  ///< a valid document in canonical form
  const char* prefix;     ///< every error message starts with this
};

std::vector<Format> formats() {
  core::KernelPlan kp;
  kp.kernel = "k";
  kp.loops = core::Tri::On;
  kp.var_actions.emplace("acc", false);

  prune::KernelPruneFacts facts;
  facts.kernel = "k";
  facts.program_digest = 0x1f2e3d4c5b6a7988ull;
  facts.sites = {{0, 0xffffffffu, 0xa1b2c3d4e5f60718ull, false, true}};

  kir::KernelBuilder kb("k");
  auto out = kb.param_ptr("out");
  kb.store(out, kir::i32c(7));

  return {
      {"plan", [](const std::string& t) { (void)core::parse_plan(t); },
       core::serialize_plan(core::HardeningPlan{{kp}}), "hauberk-plan parse error: "},
      {"prune", [](const std::string& t) { (void)prune::parse_pruning_plan(t); },
       prune::serialize_pruning_plan(prune::PruningPlan{{facts}}),
       "hauberk-prune parse error: "},
      {"kir", [](const std::string& t) { (void)kir::parse_kernel(t); },
       kir::serialize_kernel(kb.build()), "kir::parse_kernel: "},
  };
}

/// The first run of decimal digits that follows a space (outside any
/// string: the canonical names hold no digits), replaced by `with`.
std::string replace_first_number(std::string text, const std::string& with) {
  for (std::size_t i = 1; i < text.size(); ++i) {
    if (text[i - 1] != ' ' || text[i] < '0' || text[i] > '9') continue;
    std::size_t end = i;
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
    return text.replace(i, end - i, with);
  }
  ADD_FAILURE() << "no number in " << text;
  return text;
}

std::string crlf(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

}  // namespace

TEST(TextFormats, CanonicalTextParses) {
  for (const Format& f : formats())
    EXPECT_NO_THROW(f.parse(f.canonical)) << f.name << ":\n" << f.canonical;
}

TEST(TextFormats, HostileInputThrowsTheFormatsError) {
  for (const Format& f : formats()) {
    const std::string& c = f.canonical;
    const std::size_t quote = c.find('"');
    ASSERT_NE(quote, std::string::npos) << f.name;
    const std::pair<const char*, std::string> cases[] = {
        {"unterminated string", c.substr(0, quote + 2)},
        {"bad escape", c.substr(0, quote + 1) + "\\q" + c.substr(quote + 1)},
        {"trailing garbage", c + " junk"},
        {"20-digit integer", replace_first_number(c, "99999999999999999999")},
        {"5000-deep parens", std::string(5000, '(') + std::string(5000, ')')},
        {"CRLF canonical text", crlf(c)},
    };
    for (const auto& [what, text] : cases) {
      try {
        f.parse(text);
        ADD_FAILURE() << f.name << ": " << what << " parsed";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind(f.prefix, 0), 0u)
            << f.name << ": " << what << ": " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << f.name << ": " << what << " threw a non-runtime_error: " << e.what();
      }
    }
  }
}

// --- the shared reader itself ---

namespace sx = common::sexpr;

TEST(Sexpr, StringEscapesRoundTrip) {
  const std::string raw = "a \"quoted\" back\\slash\nnew\ttab";
  std::string text;
  sx::write_string(text, raw);
  EXPECT_EQ(text, "\"a \\\"quoted\\\" back\\\\slash\\nnew\\ttab\"");
  sx::Reader r(text, "t: ");
  EXPECT_EQ(r.string("s"), raw);
  r.expect_end("end");
}

TEST(Sexpr, IntegersAreRangeChecked) {
  sx::Reader r("-2147483648 4294967295 -1 007", "t: ");
  EXPECT_EQ(r.integer(INT32_MIN, INT32_MAX, "i32"), INT32_MIN);
  EXPECT_EQ(r.integer(0, UINT32_MAX, "u32"), 4294967295ll);
  EXPECT_THROW((void)r.integer(0, 10, "nonneg"), std::runtime_error);
  sx::Reader lead("007", "t: ");
  EXPECT_EQ(lead.integer(0, 10, "n"), 7);
  sx::Reader wide("4294967296", "t: ");
  EXPECT_THROW((void)wide.integer(0, UINT32_MAX, "u32"), std::runtime_error);
  for (const char* bad : {"-", "1x", "+1", "9223372036854775808",
                          "-9223372036854775809", "99999999999999999999"}) {
    sx::Reader b(bad, "t: ");
    EXPECT_THROW((void)b.integer(INT64_MIN, INT64_MAX, "n"), std::runtime_error) << bad;
  }
  sx::Reader edge("-9223372036854775808 9223372036854775807", "t: ");
  EXPECT_EQ(edge.integer(INT64_MIN, INT64_MAX, "n"), INT64_MIN);
  EXPECT_EQ(edge.integer(INT64_MIN, INT64_MAX, "n"), INT64_MAX);
}

TEST(Sexpr, HexIsLowercaseAndBounded) {
  EXPECT_EQ(sx::hex(0), "0");
  EXPECT_EQ(sx::hex(0xa1b2c3d4e5f60718ull), "a1b2c3d4e5f60718");
  sx::Reader r("ffffffffffffffff ffffffff 100000000", "t: ");
  EXPECT_EQ(r.hex(UINT64_MAX, "h"), UINT64_MAX);
  EXPECT_EQ(r.hex(0xffffffffull, "h"), 0xffffffffull);
  EXPECT_THROW((void)r.hex(0xffffffffull, "h"), std::runtime_error);
  for (const char* bad : {"FF", "0x1", "10000000000000000", "g"}) {
    sx::Reader b(bad, "t: ");
    EXPECT_THROW((void)b.hex(UINT64_MAX, "h"), std::runtime_error) << bad;
  }
}

TEST(Sexpr, NestingCapIsExact) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '(') + std::string(depth, ')');
  };
  const auto walk = [](const std::string& text) {
    sx::Reader r(text, "t: ");
    while (!r.at(sx::Tok::End)) {
      if (!r.accept(sx::Tok::LParen)) r.expect(sx::Tok::RParen, "paren");
    }
  };
  EXPECT_NO_THROW(walk(nested(sx::kMaxNesting)));
  try {
    walk(nested(sx::kMaxNesting + 1));
    FAIL() << "nesting past the cap accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("t: nesting deeper than 4096 levels", 0), 0u)
        << e.what();
  }
}

TEST(Sexpr, ErrorsCarryPrefixAndOffset) {
  sx::Reader r("(a  b)", "fmt: ");
  r.expect(sx::Tok::LParen, "open");
  r.expect_atom("a");
  try {
    r.expect_atom("c");
    FAIL() << "mismatched atom accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fmt: expected 'c' at offset 4");
  }
}

TEST(Sexpr, UnbalancedCloseIsRejected) {
  EXPECT_THROW(sx::Reader(")", "t: "), std::runtime_error);
  sx::Reader r("()", "t: ");
  r.expect(sx::Tok::LParen, "open");
  r.expect(sx::Tok::RParen, "close");
  sx::Reader extra("())", "t: ");
  extra.expect(sx::Tok::LParen, "open");
  EXPECT_THROW(extra.expect(sx::Tok::RParen, "close"), std::runtime_error);
}
