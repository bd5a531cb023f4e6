// Exhaustive interpreter-semantics tests: every binary/unary operator per
// operand type against natively computed expectations (including edge
// values: INT_MIN, NaN, infinities, negative zero), plus disassembler and
// code-fault validator properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::kir;

namespace {

/// Run a single-thread kernel computing `expr(a, b)` and return the result.
Value eval_binary(BinOp op, Value a, Value b, gpusim::LaunchStatus* status = nullptr) {
  KernelBuilder kb("bin");
  auto pa = a.type == DType::F32 ? kb.param_f32("a")
            : a.type == DType::PTR ? kb.param_ptr("a") : kb.param_i32("a");
  auto pb = b.type == DType::F32 ? kb.param_f32("b")
            : b.type == DType::PTR ? kb.param_ptr("b") : kb.param_i32("b");
  auto out = kb.param_ptr("out");
  kb.store(out, ExprH(Expr::make_binary(op, pa.node(), pb.node())));
  auto prog = lower(kb.build());
  gpusim::Device dev;
  const auto oa = dev.mem().alloc(1);
  const Value args[] = {a, b, Value::ptr(oa)};
  const auto res = dev.launch(prog, gpusim::LaunchConfig{}, args);
  if (status) *status = res.status;
  if (res.status != gpusim::LaunchStatus::Ok) return Value{};
  std::uint32_t w = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&w, 1));
  const DType rt = Expr::make_binary(op, pa.node(), pb.node())->type;
  return Value{rt, w};
}

Value eval_unary(UnOp op, Value a) {
  KernelBuilder kb("un");
  auto pa = a.type == DType::F32 ? kb.param_f32("a") : kb.param_i32("a");
  auto out = kb.param_ptr("out");
  kb.store(out, ExprH(Expr::make_unary(op, pa.node())));
  auto prog = lower(kb.build());
  gpusim::Device dev;
  const auto oa = dev.mem().alloc(1);
  const Value args[] = {a, Value::ptr(oa)};
  EXPECT_EQ(dev.launch(prog, gpusim::LaunchConfig{}, args).status, gpusim::LaunchStatus::Ok);
  std::uint32_t w = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&w, 1));
  return Value{Expr::make_unary(op, pa.node())->type, w};
}

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

// --- float binary semantics match host single-precision arithmetic ---

// Each case carries its own test name (the generator below) and prints as
// that name, so the names gtest_discover_tests registers (which include the
// printed parameter) are the same in every build: the default printer would
// dump the object's bytes, function pointer included.
struct FloatBinCase {
  const char* name;
  BinOp op;
  float a, b;
  float (*ref)(float, float);
};
void PrintTo(const FloatBinCase& c, std::ostream* os) { *os << c.name; }

class FloatBinOps : public ::testing::TestWithParam<FloatBinCase> {};

TEST_P(FloatBinOps, MatchesHostArithmeticBitExactly) {
  const auto& c = GetParam();
  const Value r = eval_binary(c.op, Value::f32(c.a), Value::f32(c.b));
  const float expect = c.ref(c.a, c.b);
  if (std::isnan(expect))
    EXPECT_TRUE(std::isnan(r.as_f32()));
  else
    EXPECT_EQ(r.bits, Value::f32(expect).bits);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FloatBinOps,
    ::testing::Values(
        FloatBinCase{"Add", BinOp::Add, 1.5f, 2.25f, [](float a, float b) { return a + b; }},
        FloatBinCase{"AddLarge", BinOp::Add, 1e30f, 1e30f,
                     [](float a, float b) { return a + b; }},
        FloatBinCase{"SubSignedZero", BinOp::Sub, -0.0f, 0.0f,
                     [](float a, float b) { return a - b; }},
        FloatBinCase{"Mul", BinOp::Mul, 3.0f, -7.5f, [](float a, float b) { return a * b; }},
        FloatBinCase{"MulOverflowsToInf", BinOp::Mul, 1e30f, 1e30f,
                     [](float a, float b) { return a * b; }},
        FloatBinCase{"Div", BinOp::Div, 1.0f, 3.0f, [](float a, float b) { return a / b; }},
        FloatBinCase{"DivByZeroIsInf", BinOp::Div, 5.0f, 0.0f,
                     [](float a, float b) { return a / b; }},
        FloatBinCase{"ZeroByZeroIsNaN", BinOp::Div, 0.0f, 0.0f,
                     [](float a, float b) { return a / b; }},
        FloatBinCase{"Mod", BinOp::Mod, 7.5f, 2.0f,
                     [](float a, float b) { return std::fmod(a, b); }},
        FloatBinCase{"MinOfInf", BinOp::Min, kInf, 3.0f,
                     [](float a, float b) { return std::fmin(a, b); }},
        FloatBinCase{"MaxOfNegInf", BinOp::Max, -kInf, 3.0f,
                     [](float a, float b) { return std::fmax(a, b); }}),
    [](const ::testing::TestParamInfo<FloatBinCase>& info) { return std::string(info.param.name); });

// --- integer binary semantics: wraparound, division, shifts ---

TEST(IntBinOps, AdditionWrapsLikeTwosComplement) {
  const Value r = eval_binary(BinOp::Add, Value::i32(0x7fffffff), Value::i32(1));
  EXPECT_EQ(r.as_i32(), std::numeric_limits<std::int32_t>::min());
}

TEST(IntBinOps, MultiplicationWraps) {
  const Value r = eval_binary(BinOp::Mul, Value::i32(1 << 30), Value::i32(4));
  EXPECT_EQ(r.as_i32(), 0);
}

TEST(IntBinOps, DivisionTruncatesTowardZero) {
  EXPECT_EQ(eval_binary(BinOp::Div, Value::i32(-7), Value::i32(2)).as_i32(), -3);
  EXPECT_EQ(eval_binary(BinOp::Mod, Value::i32(-7), Value::i32(2)).as_i32(), -1);
}

TEST(IntBinOps, IntMinDividedByMinusOneDoesNotTrap) {
  // Would be UB/SIGFPE on x86; the simulated ALU wraps via the 64-bit path.
  gpusim::LaunchStatus st;
  const Value r = eval_binary(BinOp::Div, Value::i32(std::numeric_limits<std::int32_t>::min()),
                              Value::i32(-1), &st);
  EXPECT_EQ(st, gpusim::LaunchStatus::Ok);
  EXPECT_EQ(r.as_i32(), std::numeric_limits<std::int32_t>::min());
}

TEST(IntBinOps, ArithmeticShiftRightOnNegatives) {
  EXPECT_EQ(eval_binary(BinOp::Shr, Value::i32(-8), Value::i32(1)).as_i32(), -4);
}

TEST(IntBinOps, ShiftCountMaskedTo5Bits) {
  EXPECT_EQ(eval_binary(BinOp::Shl, Value::i32(1), Value::i32(33)).as_i32(), 2);
}

TEST(IntBinOps, ComparisonsYieldZeroOne) {
  EXPECT_EQ(eval_binary(BinOp::Lt, Value::i32(-5), Value::i32(3)).as_i32(), 1);
  EXPECT_EQ(eval_binary(BinOp::Ge, Value::i32(-5), Value::i32(3)).as_i32(), 0);
  EXPECT_EQ(eval_binary(BinOp::Eq, Value::i32(7), Value::i32(7)).as_i32(), 1);
}

TEST(IntBinOps, LogicalOpsTreatNonzeroAsTrue) {
  EXPECT_EQ(eval_binary(BinOp::LogicalAnd, Value::i32(-3), Value::i32(2)).as_i32(), 1);
  EXPECT_EQ(eval_binary(BinOp::LogicalOr, Value::i32(0), Value::i32(0)).as_i32(), 0);
}

TEST(PtrBinOps, UnsignedComparisonSemantics) {
  // 0xffff0000 > 5 as unsigned pointers (would be negative as signed int).
  EXPECT_EQ(eval_binary(BinOp::Gt, Value::ptr(0xffff0000u), Value::ptr(5)).as_i32(), 1);
}

TEST(PtrBinOps, PointerDifferenceIsInt) {
  const Value r = eval_binary(BinOp::Sub, Value::ptr(100), Value::ptr(108));
  EXPECT_EQ(r.type, DType::I32);
  EXPECT_EQ(static_cast<std::int32_t>(r.bits), -8);
}

// --- float comparisons with NaN ---

TEST(FloatCompare, NaNComparesFalse) {
  const Value nan = Value::f32(std::nanf(""));
  EXPECT_EQ(eval_binary(BinOp::Lt, nan, Value::f32(1.0f)).as_i32(), 0);
  EXPECT_EQ(eval_binary(BinOp::Ge, nan, Value::f32(1.0f)).as_i32(), 0);
  EXPECT_EQ(eval_binary(BinOp::Eq, nan, nan).as_i32(), 0);
  EXPECT_EQ(eval_binary(BinOp::Ne, nan, nan).as_i32(), 1);
}

// --- unary semantics ---

TEST(UnaryOps, SqrtOfNegativeIsNaN) {
  EXPECT_TRUE(std::isnan(eval_unary(UnOp::Sqrt, Value::f32(-4.0f)).as_f32()));
}

TEST(UnaryOps, RsqrtMatchesReference) {
  const Value r = eval_unary(UnOp::Rsqrt, Value::f32(16.0f));
  EXPECT_EQ(r.as_f32(), 0.25f);
}

TEST(UnaryOps, CastI32SaturatesAndZeroesNaN) {
  EXPECT_EQ(eval_unary(UnOp::CastI32, Value::f32(3e9f)).as_i32(), 0x7fffffff);
  EXPECT_EQ(eval_unary(UnOp::CastI32, Value::f32(-3e9f)).as_i32(),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(eval_unary(UnOp::CastI32, Value::f32(std::nanf(""))).as_i32(), 0);
  EXPECT_EQ(eval_unary(UnOp::CastI32, Value::f32(-2.75f)).as_i32(), -2);  // truncation
}

TEST(UnaryOps, CastF32FromNegativeInt) {
  EXPECT_EQ(eval_unary(UnOp::CastF32, Value::i32(-3)).as_f32(), -3.0f);
}

TEST(UnaryOps, AbsAndNeg) {
  EXPECT_EQ(eval_unary(UnOp::Abs, Value::i32(-7)).as_i32(), 7);
  EXPECT_EQ(eval_unary(UnOp::Neg, Value::f32(-0.0f)).bits, Value::f32(0.0f).bits);
  EXPECT_EQ(eval_unary(UnOp::Abs, Value::f32(-2.5f)).as_f32(), 2.5f);
}

TEST(UnaryOps, FloorOfNegative) {
  EXPECT_EQ(eval_unary(UnOp::Floor, Value::f32(-1.25f)).as_f32(), -2.0f);
}

TEST(UnaryOps, TranscendentalsMatchHostFloat) {
  for (float x : {0.25f, 1.0f, 2.5f}) {
    EXPECT_EQ(eval_unary(UnOp::Exp, Value::f32(x)).bits, Value::f32(std::exp(x)).bits);
    EXPECT_EQ(eval_unary(UnOp::Log, Value::f32(x)).bits, Value::f32(std::log(x)).bits);
    EXPECT_EQ(eval_unary(UnOp::Sin, Value::f32(x)).bits, Value::f32(std::sin(x)).bits);
    EXPECT_EQ(eval_unary(UnOp::Cos, Value::f32(x)).bits, Value::f32(std::cos(x)).bits);
  }
}

// --- disassembler & code-fault validator ---

TEST(Disassemble, ListsEveryInstruction) {
  KernelBuilder kb("d");
  auto out = kb.param_ptr("out");
  auto x = kb.let("x", f32c(1.0f) + f32c(2.0f));
  kb.store(out, x);
  auto p = lower(kb.build());
  const std::string d = disassemble(p);
  EXPECT_NE(d.find("halt"), std::string::npos);
  EXPECT_NE(d.find("storeg"), std::string::npos);
  // One line per instruction plus the header.
  EXPECT_EQ(static_cast<std::size_t>(std::count(d.begin(), d.end(), '\n')), p.code.size() + 1);
}

TEST(ValidateProgram, AcceptsAllWorkloadBinaries) {
  for (const auto& w : workloads::hpc_suite()) {
    const auto v = core::build_variants(w->build_kernel(workloads::Scale::Tiny));
    EXPECT_TRUE(swifi::validate_program(v.baseline)) << w->name();
    EXPECT_TRUE(swifi::validate_program(v.ft)) << w->name();
    EXPECT_TRUE(swifi::validate_program(v.fift)) << w->name();
  }
}

TEST(ValidateProgram, RejectsOutOfRangeOperands) {
  KernelBuilder kb("v");
  auto out = kb.param_ptr("out");
  kb.store(out, i32c(1));
  auto p = lower(kb.build());
  auto bad = p;
  bad.code[0].dst = static_cast<std::uint16_t>(p.num_slots + 5);
  EXPECT_FALSE(swifi::validate_program(bad));
  bad = p;
  bad.code.back().op = static_cast<OpCode>(250);
  EXPECT_FALSE(swifi::validate_program(bad));
}

TEST(ValidateProgram, FuzzedMutantsNeverCrashTheValidator) {
  // Property: for any single-bit mutation of any instruction, the validator
  // terminates with a verdict, and mutants it accepts execute without
  // touching out-of-range registers (the interpreter relies on this).
  auto w = workloads::make_pns();
  const auto prog = lower(w->build_kernel(workloads::Scale::Tiny));
  const auto ds = w->make_dataset(5, workloads::Scale::Tiny);
  auto job = w->make_job(ds);
  gpusim::Device dev;
  common::Rng rng(77);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    auto mutant = prog;
    const std::size_t instr = rng.next_below(mutant.code.size());
    const int bit = static_cast<int>(rng.next_below(sizeof(Instr) * 8));
    auto* bytes = reinterpret_cast<unsigned char*>(&mutant.code[instr]);
    bytes[bit / 8] = static_cast<unsigned char>(bytes[bit / 8] ^ (1u << (bit % 8)));
    if (!swifi::validate_program(mutant)) {
      ++rejected;
      continue;
    }
    ++accepted;
    const auto args = job->setup(dev);
    gpusim::LaunchOptions opts;
    opts.watchdog_instructions = 500000;
    (void)dev.launch(mutant, job->config(), args, opts);  // must not UB/crash the host
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}
