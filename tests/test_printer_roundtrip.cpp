// kir serializer round-trip tests: parse_kernel(serialize_kernel(k)) must
// rebuild a kernel whose lowered bytecode is bit-identical to lowering the
// original — program_digest (the same FNV digest the golden translator file
// pins) is the equality oracle.  The matrix covers every workload's raw
// kernel plus every LibMode/ablation configuration of the golden digest
// harness, so any printer field the lowering reads is exercised.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hauberk/translator.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "kir/printer.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;

namespace {

std::vector<std::unique_ptr<workloads::Workload>> all_workloads() {
  std::vector<std::unique_ptr<workloads::Workload>> out;
  for (auto& w : workloads::hpc_suite()) out.push_back(std::move(w));
  for (auto& w : workloads::graphics_suite()) out.push_back(std::move(w));
  for (auto& w : workloads::cpu_suite()) out.push_back(std::move(w));
  out.push_back(workloads::make_cpu_matmul());  // not in cpu_suite
  return out;
}

/// Round-trip `k` through the serializer and compare lowered digests; also
/// pin serializer idempotence (serialize(parse(text)) == text).
void expect_roundtrip(const kir::Kernel& k, const std::string& what) {
  const std::string text = kir::serialize_kernel(k);
  kir::Kernel back;
  ASSERT_NO_THROW(back = kir::parse_kernel(text)) << what;
  EXPECT_EQ(kir::program_digest(kir::lower(back)), kir::program_digest(kir::lower(k))) << what;
  EXPECT_EQ(kir::serialize_kernel(back), text) << what;
  // Metadata the digest does not cover must survive too.
  EXPECT_EQ(back.name, k.name) << what;
  ASSERT_EQ(back.vars.size(), k.vars.size()) << what;
  for (std::size_t i = 0; i < k.vars.size(); ++i) {
    EXPECT_EQ(back.vars[i].name, k.vars[i].name) << what;
    EXPECT_EQ(back.vars[i].scatter_shadow, k.vars[i].scatter_shadow) << what;
  }
}

}  // namespace

TEST(PrinterRoundTrip, RawWorkloadKernels) {
  for (const auto& w : all_workloads())
    expect_roundtrip(w->build_kernel(workloads::Scale::Small), w->name());
}

TEST(PrinterRoundTrip, AllLibModesAndAblations) {
  // The golden-digest configuration matrix: 4 modes x maxvar{1,2} x
  // naive{off,on}, plus the Hauberk-L / Hauberk-NL ablations.
  struct Config {
    std::string name;
    core::TranslateOptions opt;
  };
  std::vector<Config> cfgs;
  const struct {
    core::LibMode mode;
    const char* tag;
  } modes[] = {{core::LibMode::Profiler, "profiler"},
               {core::LibMode::FT, "ft"},
               {core::LibMode::FI, "fi"},
               {core::LibMode::FIFT, "fift"}};
  for (const auto& m : modes) {
    for (const int maxvar : {1, 2}) {
      for (const bool naive : {false, true}) {
        Config c;
        c.opt.mode = m.mode;
        c.opt.maxvar = maxvar;
        c.opt.naive_duplication = naive;
        c.name = std::string(m.tag) + ".maxvar" + std::to_string(maxvar) +
                 (naive ? ".naive" : "");
        cfgs.push_back(std::move(c));
      }
    }
  }
  Config l;
  l.opt.mode = core::LibMode::FT;
  l.opt.protect_nonloop = false;
  l.name = "ft.hauberk-l";
  cfgs.push_back(std::move(l));
  Config nl;
  nl.opt.mode = core::LibMode::FT;
  nl.opt.protect_loop = false;
  nl.name = "ft.hauberk-nl";
  cfgs.push_back(std::move(nl));

  for (const auto& w : all_workloads()) {
    const auto kernel = w->build_kernel(workloads::Scale::Small);
    for (const auto& c : cfgs)
      expect_roundtrip(core::translate(kernel, c.opt), w->name() + "/" + c.name);
  }
}

TEST(PrinterRoundTrip, EscapedNamesAndLabels) {
  kir::KernelBuilder kb("odd \"name\"\n\twith\\escapes");
  auto out = kb.param_ptr("p\"0\"");
  auto v = kb.let("x\\y", kir::i32c(7));
  kb.store(out, v);
  auto k = kb.build();
  k.body.front()->label = "label with \"quotes\" and\nnewline";
  expect_roundtrip(k, "escapes");
}

TEST(PrinterRoundTrip, MalformedInputThrows) {
  EXPECT_THROW((void)kir::parse_kernel(""), std::runtime_error);
  EXPECT_THROW((void)kir::parse_kernel("(kernel"), std::runtime_error);
  EXPECT_THROW((void)kir::parse_kernel("(wrong \"k\" 0 0 (params) (vars) ())"),
               std::runtime_error);
  // Out-of-range enum payload.
  kir::KernelBuilder kb("k");
  auto out = kb.param_ptr("out");
  kb.store(out, kir::i32c(1));
  const std::string good = kir::serialize_kernel(kb.build());
  std::string text = good;
  const auto pos = text.find("(s ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "(s 99");
  EXPECT_THROW((void)kir::parse_kernel(text), std::runtime_error);
  // Truncation anywhere in the stream must throw, never crash.
  for (std::size_t cut = 0; cut + 1 < good.size(); cut += 7)
    EXPECT_THROW((void)kir::parse_kernel(good.substr(0, cut)), std::runtime_error);
}

TEST(PrinterRoundTrip, DeepNestingIsCappedNotFatal) {
  // A 1k-deep expression — far past any real kernel (the workloads and the
  // translator configurations nest at most 15 levels) — still round-trips.
  kir::KernelBuilder kb("deep");
  auto out = kb.param_ptr("out");
  auto x = kir::i32c(0);
  for (int i = 0; i < 1000; ++i) x = x + kir::i32c(i);
  kb.store(out, x);
  expect_roundtrip(kb.build(), "1k-deep expression");

  // Hostile input: one statement whose value is a `depth`-deep chain of
  // expression nodes (the parser checks structure, not semantics, so every
  // enum field is 0).  100k levels would overflow the stack without the
  // nesting cap; with it the parser throws its documented error.
  const auto nested = [](int depth) {
    std::string value;
    for (int i = 0; i < depth; ++i) value += "(e 0 0 0 0 0 0 0 0 0 ";
    value += "_ _ _)";
    for (int i = 1; i < depth; ++i) value += " _ _)";
    return "(kernel \"k\" 0 0 (params) (vars) ((s 0 0 0 0 0 0 0 0 0 \"\" " + value +
           " _ _ _ _ _ () ())))";
  };
  EXPECT_NO_THROW((void)kir::parse_kernel(nested(3)));
  try {
    (void)kir::parse_kernel(nested(100'000));
    FAIL() << "100k-deep expression parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("kir::parse_kernel: nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}
