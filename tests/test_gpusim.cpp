// Unit tests for the simulated GPU: memory models, interpreter semantics,
// crash/hang detection, barriers/atomics, cost attribution, fault model.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>

#include "gpusim/device.hpp"
#include "kir/builder.hpp"
#include "kir/bytecode.hpp"

using namespace hauberk::gpusim;
using namespace hauberk::kir;

namespace {

DeviceProps small_props() {
  DeviceProps p;
  p.global_mem_words = 1u << 20;
  return p;
}

float f32_of(std::uint32_t bits) { return Value{DType::F32, bits}.as_f32(); }

}  // namespace

// --- memory ---

TEST(Memory, FlatGpuPacksFromZero) {
  DeviceMemory m(MemoryModel::FlatGpu, 1024);
  EXPECT_EQ(m.alloc(16), 0u);
  EXPECT_EQ(m.alloc(16), 16u);
  EXPECT_TRUE(m.valid(31));
  // No page protection: unallocated-but-physical addresses are accessible.
  EXPECT_TRUE(m.valid(32));
  EXPECT_FALSE(m.valid(1024));
}

TEST(Memory, FlatGpuCorruptedPointerOftenStaysValid) {
  // The GPU has no page protection: any address below the high-water mark is
  // accessible, so small-bit corruptions of a pointer stay "valid".
  DeviceMemory m(MemoryModel::FlatGpu, 1u << 20);
  const std::uint32_t base = m.alloc(1u << 16);
  EXPECT_TRUE(m.valid(base + 5));
  EXPECT_TRUE(m.valid((base + 5) ^ (1u << 10)));   // low-bit flip: still in arena
  EXPECT_TRUE(m.valid((base + 5) ^ (1u << 19)));   // still within physical memory
  EXPECT_FALSE(m.valid((base + 5) ^ (1u << 30)));  // beyond physical memory
}

TEST(Memory, PagedCpuRejectsBetweenAllocations) {
  DeviceMemory m(MemoryModel::PagedCpu, 1u << 20);
  const std::uint32_t a = m.alloc(100);
  const std::uint32_t b = m.alloc(100);
  EXPECT_NE(a, b);
  EXPECT_TRUE(m.valid(a));
  EXPECT_TRUE(m.valid(a + 99));
  EXPECT_FALSE(m.valid(a + 100));   // past end of allocation
  EXPECT_FALSE(m.valid(0));         // null page unmapped
  EXPECT_FALSE(m.valid(a - 1));
}

TEST(Memory, PagedCpuStoresAndLoads) {
  DeviceMemory m(MemoryModel::PagedCpu, 1u << 20);
  const std::uint32_t a = m.alloc(4);
  const std::uint32_t b = m.alloc(4);
  std::uint32_t data[4] = {1, 2, 3, 4};
  m.copy_in(a, data);
  m.copy_in(b, data);
  std::uint32_t out[4] = {};
  m.copy_out(b, out);
  EXPECT_EQ(out[2], 3u);
}

TEST(Memory, CopyOutOfBoundsThrows) {
  DeviceMemory m(MemoryModel::FlatGpu, 64);
  (void)m.alloc(8);
  std::uint32_t buf[16] = {};
  // Host copies beyond physical memory fault.
  EXPECT_THROW(m.copy_out(56, std::span<std::uint32_t>(buf, 16)), std::out_of_range);
}

TEST(Memory, FootprintAccounting) {
  DeviceMemory m(MemoryModel::FlatGpu, 1024);
  (void)m.alloc(100, AllocClass::F32Data);
  (void)m.alloc(10, AllocClass::I32Data);
  EXPECT_EQ(m.allocated_bytes(AllocClass::F32Data), 400u);
  EXPECT_EQ(m.allocated_bytes(AllocClass::I32Data), 40u);
  m.reset();
  EXPECT_EQ(m.allocated_bytes(AllocClass::F32Data), 0u);
}

// --- basic execution ---

TEST(Exec, SaxpyMatchesNative) {
  constexpr int n = 256;
  KernelBuilder kb("saxpy");
  auto a = kb.param_f32("a");
  auto x = kb.param_ptr("x");
  auto y = kb.param_ptr("y");
  auto i = kb.thread_linear();
  kb.store(y + i, a * kb.load_f32(x + i) + kb.load_f32(y + i));
  auto prog = lower(kb.build());

  Device dev(small_props());
  const auto xa = dev.mem().alloc(n, AllocClass::F32Data);
  const auto ya = dev.mem().alloc(n, AllocClass::F32Data);
  std::vector<std::uint32_t> xs(n), ys(n);
  for (int k = 0; k < n; ++k) {
    xs[k] = Value::f32(static_cast<float>(k)).bits;
    ys[k] = Value::f32(1.0f).bits;
  }
  dev.mem().copy_in(xa, xs);
  dev.mem().copy_in(ya, ys);

  const Value args[] = {Value::f32(2.0f), Value::ptr(xa), Value::ptr(ya)};
  LaunchConfig cfg{4, 1, 64, 1};
  auto res = dev.launch(prog, cfg, args);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  EXPECT_EQ(res.threads, 256u);

  std::vector<std::uint32_t> out(n);
  dev.mem().copy_out(ya, out);
  for (int k = 0; k < n; ++k)
    EXPECT_EQ(f32_of(out[k]), 2.0f * static_cast<float>(k) + 1.0f);
}

TEST(Exec, LoopSumMatchesClosedForm) {
  KernelBuilder kb("sum");
  auto n = kb.param_i32("n");
  auto out = kb.param_ptr("out");
  auto acc = kb.let("acc", i32c(0));
  kb.for_loop("i", i32c(0), n, [&](ExprH i) { kb.assign(acc, acc + i); });
  kb.store(out + kb.thread_linear(), acc);
  auto prog = lower(kb.build());

  Device dev(small_props());
  const auto oa = dev.mem().alloc(1, AllocClass::I32Data);
  const Value args[] = {Value::i32(100), Value::ptr(oa)};
  auto res = dev.launch(prog, LaunchConfig{}, args);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  std::uint32_t result = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_EQ(static_cast<std::int32_t>(result), 4950);
}

TEST(Exec, IfElseBothBranches) {
  KernelBuilder kb("branch");
  auto out = kb.param_ptr("out");
  auto i = kb.thread_linear();
  kb.if_then_else((i % i32c(2)) == i32c(0),
                  [&] { kb.store(out + i, i32c(7)); },
                  [&] { kb.store(out + i, i32c(9)); });
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(8, AllocClass::I32Data);
  const Value args[] = {Value::ptr(oa)};
  auto res = dev.launch(prog, LaunchConfig{1, 1, 8, 1}, args);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  std::vector<std::uint32_t> vals(8);
  dev.mem().copy_out(oa, vals);
  for (int k = 0; k < 8; ++k) EXPECT_EQ(vals[k], (k % 2 == 0) ? 7u : 9u);
}

TEST(Exec, WhileLoopRuns) {
  KernelBuilder kb("wh");
  auto out = kb.param_ptr("out");
  auto i = kb.let("i", i32c(0));
  kb.while_loop([&] { return i < i32c(10); }, [&] { kb.assign(i, i + i32c(3)); });
  kb.store(out, i);
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1, AllocClass::I32Data);
  const Value args[] = {Value::ptr(oa)};
  ASSERT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::Ok);
  std::uint32_t result = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_EQ(result, 12u);
}

TEST(Exec, SelectIsBranchless) {
  KernelBuilder kb("sel");
  auto out = kb.param_ptr("out");
  auto i = kb.thread_linear();
  kb.store(out + i, select_(i < i32c(2), f32c(1.5f), f32c(-2.5f)));
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(4, AllocClass::F32Data);
  const Value args[] = {Value::ptr(oa)};
  ASSERT_EQ(dev.launch(prog, LaunchConfig{1, 1, 4, 1}, args).status, LaunchStatus::Ok);
  std::vector<std::uint32_t> vals(4);
  dev.mem().copy_out(oa, vals);
  EXPECT_EQ(f32_of(vals[0]), 1.5f);
  EXPECT_EQ(f32_of(vals[3]), -2.5f);
}

// --- crashes / hangs ---

TEST(Exec, OutOfBoundsLoadCrashes) {
  KernelBuilder kb("oob");
  auto out = kb.param_ptr("out");
  kb.store(out, kb.load_f32(ExprH(Expr::make_const(Value::ptr(0xffff0000u)))));
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1);
  const Value args[] = {Value::ptr(oa)};
  EXPECT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::CrashOutOfBounds);
}

TEST(Exec, IntegerDivByZeroCrashes) {
  KernelBuilder kb("div0");
  auto out = kb.param_ptr("out");
  auto z = kb.param_i32("z");
  kb.store(out, i32c(1) / z);
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1);
  const Value args[] = {Value::ptr(oa), Value::i32(0)};
  EXPECT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::CrashDivByZero);
}

TEST(Exec, FloatDivByZeroDoesNotCrash) {
  // Observation 2's mechanism: FP div-by-zero yields infinity, no exception.
  KernelBuilder kb("fdiv0");
  auto out = kb.param_ptr("out");
  kb.store(out, f32c(1.0f) / f32c(0.0f));
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1);
  const Value args[] = {Value::ptr(oa)};
  ASSERT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::Ok);
  std::uint32_t result = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_TRUE(std::isinf(f32_of(result)));
}

TEST(Exec, InfiniteLoopReportsHang) {
  KernelBuilder kb("hang");
  auto i = kb.let("i", i32c(0));
  kb.while_loop([&] { return i >= i32c(0); }, [&] { kb.assign(i, i | i32c(0)); });
  auto prog = lower(kb.build());
  Device dev(small_props());
  LaunchOptions opts;
  opts.watchdog_instructions = 10000;
  EXPECT_EQ(dev.launch(prog, LaunchConfig{}, {}, opts).status, LaunchStatus::Hang);
}

TEST(Exec, SharedMemoryOverLimitFailsLaunch) {
  KernelBuilder kb("bigshared", /*shared_mem_words=*/1u << 20);
  kb.shstore(i32c(0), i32c(1));
  auto prog = lower(kb.build());
  Device dev(small_props());
  EXPECT_EQ(dev.launch(prog, LaunchConfig{}, {}).status, LaunchStatus::LaunchFailure);
}

TEST(Exec, WrongArgCountFailsLaunch) {
  KernelBuilder kb("args");
  (void)kb.param_i32("n");
  auto prog = lower(kb.build());
  Device dev(small_props());
  EXPECT_EQ(dev.launch(prog, LaunchConfig{}, {}).status, LaunchStatus::LaunchFailure);
}

TEST(Exec, DisabledDeviceRefusesLaunch) {
  KernelBuilder kb("nop2");
  auto prog = lower(kb.build());
  Device dev(small_props());
  dev.set_disabled(true);
  EXPECT_EQ(dev.launch(prog, LaunchConfig{}, {}).status, LaunchStatus::DeviceDisabled);
}

// --- shared memory + barrier + atomics ---

TEST(Exec, SharedMemoryReductionWithBarrier) {
  constexpr std::uint32_t kThreads = 32;
  KernelBuilder kb("reduce", kThreads);
  auto out = kb.param_ptr("out");
  auto t = kb.tid_x();
  kb.shstore(t, t * i32c(2));
  kb.barrier();
  kb.if_then(t == i32c(0), [&] {
    auto acc = kb.let("acc", i32c(0));
    kb.for_loop("i", i32c(0), i32c(kThreads),
                [&](ExprH i) { kb.assign(acc, acc + kb.shload_i32(i)); });
    kb.store(out, acc);
  });
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1, AllocClass::I32Data);
  const Value args[] = {Value::ptr(oa)};
  ASSERT_EQ(dev.launch(prog, LaunchConfig{1, 1, kThreads, 1}, args).status, LaunchStatus::Ok);
  std::uint32_t result = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_EQ(result, 2u * (kThreads * (kThreads - 1) / 2));
}

TEST(Exec, AtomicAddAccumulatesAcrossBlocks) {
  KernelBuilder kb("atom");
  auto out = kb.param_ptr("out");
  kb.atomic_add(out, i32c(1));
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1, AllocClass::I32Data);
  const Value args[] = {Value::ptr(oa)};
  ASSERT_EQ(dev.launch(prog, LaunchConfig{16, 1, 32, 1}, args).status, LaunchStatus::Ok);
  std::uint32_t result = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_EQ(result, 16u * 32u);
}

// --- cost model / attribution ---

TEST(Cost, LoopCyclesDominateLoopHeavyKernel) {
  KernelBuilder kb("loopy");
  auto n = kb.param_i32("n");
  auto out = kb.param_ptr("out");
  auto acc = kb.let("acc", f32c(0.0f));
  kb.for_loop("i", i32c(0), n, [&](ExprH i) { kb.assign(acc, acc + to_f32(i) * f32c(0.5f)); });
  kb.store(out, acc);
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1);
  const Value args[] = {Value::i32(1000), Value::ptr(oa)};
  auto res = dev.launch(prog, LaunchConfig{}, args);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  EXPECT_GT(res.loop_cycles, res.cycles * 95 / 100);
  EXPECT_LE(res.loop_cycles, res.cycles);
}

TEST(Cost, DeterministicAcrossRuns) {
  KernelBuilder kb("det");
  auto n = kb.param_i32("n");
  auto acc = kb.let("acc", f32c(1.0f));
  kb.for_loop("i", i32c(0), n, [&](ExprH) { kb.assign(acc, acc * f32c(1.0001f)); });
  auto prog = lower(kb.build());
  Device dev(small_props());
  const Value args[] = {Value::i32(5000)};
  auto r1 = dev.launch(prog, LaunchConfig{8, 1, 32, 1}, args);
  auto r2 = dev.launch(prog, LaunchConfig{8, 1, 32, 1}, args);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST(Cost, RegisterSpillIncreasesCycles) {
  // Same kernel, tighter register budget => spill surcharges => more cycles.
  KernelBuilder kb("spill");
  auto n = kb.param_i32("n");
  auto out = kb.param_ptr("out");
  std::vector<ExprH> vars;
  for (int v = 0; v < 30; ++v)
    vars.push_back(kb.let("v" + std::to_string(v), f32c(static_cast<float>(v))));
  auto acc = kb.let("acc", f32c(0.0f));
  kb.for_loop("i", i32c(0), n, [&](ExprH) {
    for (auto& v : vars) kb.assign(acc, acc + v);
  });
  kb.store(out, acc);
  auto prog = lower(kb.build());

  DeviceProps loose = small_props();
  loose.regs_per_thread = 64;
  DeviceProps tight = small_props();
  tight.regs_per_thread = 16;
  Device d1(loose), d2(tight);
  const auto o1 = d1.mem().alloc(1);
  const auto o2 = d2.mem().alloc(1);
  const Value a1[] = {Value::i32(100), Value::ptr(o1)};
  const Value a2[] = {Value::i32(100), Value::ptr(o2)};
  auto r1 = d1.launch(prog, LaunchConfig{}, a1);
  auto r2 = d2.launch(prog, LaunchConfig{}, a2);
  ASSERT_EQ(r1.status, LaunchStatus::Ok);
  ASSERT_EQ(r2.status, LaunchStatus::Ok);
  EXPECT_GT(r2.cycles, r1.cycles);
}

namespace {

/// Hand-assembled program exercising every detector opcode exactly once
/// (plus two Consts and two ChkXors), with values chosen so no check fires.
/// Fields: {op, flags, dst, a, b, aux, imm}.
BytecodeProgram detector_program() {
  BytecodeProgram p;
  p.name = "detops";
  p.num_slots = 2;
  p.slot_types = {DType::I32, DType::I32};
  p.detectors.push_back({0, "acc", DType::F32, false});
  p.code = {
      {OpCode::Const, 0, 0, 0, 0, 0, 0},     // slot0 = 0 (checksum accumulator)
      {OpCode::Const, 0, 1, 0, 0, 0, 5},     // slot1 = 5 (checked value)
      {OpCode::ChkXor, 0, 0, 1, 0, 0, 0},    // slot0 ^= slot1  -> 5
      {OpCode::ChkXor, 0, 0, 1, 0, 0, 0},    // slot0 ^= slot1  -> 0
      {OpCode::ChkValidate, 0, 0, 0, 0, 0, 0},  // slot0 == 0: checksum intact
      {OpCode::DupCmp, 0, 0, 1, 1, 0, 0},       // slot1 == slot1: duplicates agree
      {OpCode::RangeCheck, 0, 0, 1, 0, 0, 0},   // detector 0 (no hooks -> no-op)
      {OpCode::EqualCheck, 0, 0, 1, 1, 0, 0},   // equal: no violation
      {OpCode::Halt, 0, 0, 0, 0, 0, 0},
  };
  return p;
}

}  // namespace

TEST(Cost, DetectorOpcodeCyclesMatchCostModelOnBothEngines) {
  // Pins the per-opcode charge of the Hauberk detector instructions
  // (Table I's runtime overhead mechanism) to the cost model, on both the
  // threaded-code engine and the reference switch interpreter.
  const auto prog = detector_program();
  for (const auto engine : {ExecEngine::Threaded, ExecEngine::Reference}) {
    Device dev(small_props());
    dev.set_engine(engine);
    const CostModel& cm = dev.cost_model();
    const std::uint64_t expected = 2ull * cm.alu            // two Consts
                                   + 2ull * cm.chk_xor      // checksum updates
                                   + cm.chk_validate + cm.dup_cmp + cm.range_check +
                                   cm.equal_check;          // Halt is free
    const auto res = dev.launch(prog, LaunchConfig{}, {});
    ASSERT_EQ(res.status, LaunchStatus::Ok) << exec_engine_name(engine);
    EXPECT_EQ(res.cycles, expected) << exec_engine_name(engine);
    EXPECT_EQ(res.instructions, prog.code.size()) << exec_engine_name(engine);
    EXPECT_FALSE(res.sdc_alarm) << exec_engine_name(engine);
  }
}

TEST(Cost, DetectorSdcBitRaisesAlarmIdenticallyOnBothEngines) {
  // A mismatching duplicate pair must set the launch's SDC alarm with the
  // same cycle total on both engines (the check itself costs dup_cmp either
  // way; only the alarm bit differs from the clean program).
  auto prog = detector_program();
  prog.code[1].imm = 7;            // slot1 = 7
  prog.code[5] = {OpCode::DupCmp, 0, 0, 0, 1, 0, 0};  // slot0(0) != slot1(7)
  // Re-point ChkValidate at the still-zero slot0 so only DupCmp fires.
  std::uint64_t cycles[2] = {0, 0};
  int i = 0;
  for (const auto engine : {ExecEngine::Threaded, ExecEngine::Reference}) {
    Device dev(small_props());
    dev.set_engine(engine);
    const auto res = dev.launch(prog, LaunchConfig{}, {});
    ASSERT_EQ(res.status, LaunchStatus::Ok) << exec_engine_name(engine);
    EXPECT_TRUE(res.sdc_alarm) << exec_engine_name(engine);
    cycles[i++] = res.cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(Cost, ControlBlockChargeAdded) {
  KernelBuilder kb("cb");
  auto prog = lower(kb.build());
  Device dev(small_props());
  LaunchOptions plain, charged;
  charged.charge_control_block = true;
  auto r1 = dev.launch(prog, LaunchConfig{}, {}, plain);
  auto r2 = dev.launch(prog, LaunchConfig{}, {}, charged);
  EXPECT_EQ(r2.cycles - r1.cycles, dev.cost_model().control_block_per_launch);
}

// --- device fault model (BIST substrate) ---

TEST(FaultModel, PermanentAluFaultCorruptsIntegerResults) {
  KernelBuilder kb("alu");
  auto out = kb.param_ptr("out");
  kb.store(out, i32c(40) + i32c(2));
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(2, AllocClass::I32Data);
  const Value args[] = {Value::ptr(oa)};

  DeviceFaultModel fm;
  fm.kind = DeviceFaultModel::Kind::Permanent;
  fm.component = DeviceFaultModel::Component::ALU;
  fm.sm = 0;
  fm.mask = 1u << 4;
  dev.install_fault(fm);
  ASSERT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::Ok);
  std::uint32_t result = 0;
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_NE(result, 42u);  // corrupted

  dev.clear_fault();
  ASSERT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::Ok);
  dev.mem().copy_out(oa, std::span<std::uint32_t>(&result, 1));
  EXPECT_EQ(result, 42u);  // healthy again
}

TEST(FaultModel, TransientFaultStopsAfterDuration) {
  KernelBuilder kb("trans");
  auto n = kb.param_i32("n");
  auto out = kb.param_ptr("out");
  auto acc = kb.let("acc", i32c(0));
  kb.for_loop("i", i32c(0), n, [&](ExprH) { kb.assign(acc, acc + i32c(0)); });
  kb.store(out, acc);
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1, AllocClass::I32Data);
  const Value args[] = {Value::i32(1000), Value::ptr(oa)};

  DeviceFaultModel fm;
  fm.kind = DeviceFaultModel::Kind::Transient;
  fm.component = DeviceFaultModel::Component::ALU;
  fm.mask = 0xff;
  fm.duration_ops = 1;  // exactly one corrupted op
  dev.install_fault(fm);
  ASSERT_EQ(dev.launch(prog, LaunchConfig{}, args).status, LaunchStatus::Ok);
  EXPECT_EQ(dev.fault_injected_ops_.load(), 1u);
}

TEST(Profiling, InstructionExecutionCountsSumToTotal) {
  KernelBuilder kb("prof");
  auto n = kb.param_i32("n");
  auto out = kb.param_ptr("out");
  auto acc = kb.let("acc", i32c(0));
  kb.for_loop("i", i32c(0), n, [&](ExprH i) { kb.assign(acc, acc + i); });
  kb.store(out, acc);
  auto prog = lower(kb.build());
  Device dev(small_props());
  const auto oa = dev.mem().alloc(1, AllocClass::I32Data);
  const Value args[] = {Value::i32(50), Value::ptr(oa)};
  std::vector<std::uint64_t> counts;
  LaunchOptions opts;
  opts.instr_exec_counts = &counts;
  const auto res = dev.launch(prog, LaunchConfig{2, 1, 8, 1}, args, opts);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  ASSERT_EQ(counts.size(), prog.code.size());
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, res.instructions);
  // The Halt instruction runs exactly once per thread.
  EXPECT_EQ(counts.back(), 16u);
}

TEST(Profiling, CountsAreDeterministicAcrossWorkers) {
  KernelBuilder kb("prof2");
  auto n = kb.param_i32("n");
  auto acc = kb.let("acc", f32c(0.0f));
  kb.for_loop("i", i32c(0), n, [&](ExprH) { kb.assign(acc, acc + f32c(0.5f)); });
  auto prog = lower(kb.build());
  const Value args[] = {Value::i32(30)};
  std::vector<std::uint64_t> c1, c2;
  for (auto* c : {&c1, &c2}) {
    Device dev(small_props());
    LaunchOptions opts;
    opts.instr_exec_counts = c;
    opts.max_workers = c == &c1 ? 1 : 4;
    ASSERT_EQ(dev.launch(prog, LaunchConfig{8, 1, 16, 1}, args, opts).status,
              LaunchStatus::Ok);
  }
  EXPECT_EQ(c1, c2);
}

TEST(SimtCost, UniformKernelCostsOneWarpIssuePerInstruction) {
  // 32 threads executing identical paths: warp cost = thread cost / 32.
  KernelBuilder kb("uni");
  auto n = kb.param_i32("n");
  auto acc = kb.let("acc", f32c(0.0f));
  kb.for_loop("i", i32c(0), n, [&](ExprH) { kb.assign(acc, acc + f32c(1.0f)); });
  auto prog = lower(kb.build());
  Device dev(small_props());
  const Value args[] = {Value::i32(40)};
  LaunchOptions opts;
  opts.simt_cost = true;
  const auto res = dev.launch(prog, LaunchConfig{1, 1, 32, 1}, args, opts);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  EXPECT_EQ(res.simt_cycles * 32, res.cycles);
}

TEST(SimtCost, DivergentTripCountsSerializeToWarpMaximum) {
  // Thread t iterates t times: per-thread cycles sum ~ Sum(t); warp cost of
  // the loop body ~ max(t) = 31 iterations.
  KernelBuilder kb("tri");
  auto acc = kb.let("acc", i32c(0));
  kb.for_loop("i", i32c(0), kb.thread_linear(), [&](ExprH) { kb.assign(acc, acc + i32c(1)); });
  auto prog = lower(kb.build());
  Device dev(small_props());
  LaunchOptions opts;
  opts.simt_cost = true;
  const auto res = dev.launch(prog, LaunchConfig{1, 1, 32, 1}, {}, opts);
  ASSERT_EQ(res.status, LaunchStatus::Ok);
  // Average trip is 15.5, max is 31: warp cost must be roughly twice the
  // per-thread average (sum/32), not equal to it.
  EXPECT_GT(res.simt_cycles * 32, res.cycles * 3 / 2);
}

TEST(SimtCost, IfElseDivergenceChargesBothPaths) {
  auto build = [](bool divergent) {
    KernelBuilder kb("d");
    auto tid = kb.let("tid", kb.thread_linear());
    auto sel = kb.let("sel", divergent ? (tid & i32c(1)) : i32c(0));
    auto acc = kb.let("acc", f32c(0.0f));
    kb.for_loop("i", i32c(0), i32c(32), [&](ExprH) {
      kb.if_then_else(sel == i32c(0), [&] { kb.assign(acc, acc + f32c(1.0f)); },
                      [&] { kb.assign(acc, acc + f32c(2.0f)); });
    });
    return lower(kb.build());
  };
  Device dev(small_props());
  LaunchOptions opts;
  opts.simt_cost = true;
  const auto uni = dev.launch(build(false), LaunchConfig{1, 1, 32, 1}, {}, opts);
  const auto div = dev.launch(build(true), LaunchConfig{1, 1, 32, 1}, {}, opts);
  ASSERT_EQ(uni.status, LaunchStatus::Ok);
  ASSERT_EQ(div.status, LaunchStatus::Ok);
  EXPECT_GT(div.simt_cycles, uni.simt_cycles * 120 / 100)
      << "divergent warps must serialize both branch paths";
  EXPECT_NEAR(static_cast<double>(div.cycles), static_cast<double>(uni.cycles),
              static_cast<double>(uni.cycles) * 0.05)
      << "per-thread cost is divergence-blind";
}

// --- restore_trial (the campaign service's per-trial re-staging primitive) ---

TEST(RestoreTrial, ZeroWordTrialIsANoOpThatStaysFresh) {
  // A trial that allocates nothing: image() is empty, restore_trial of the
  // empty image must be valid and leave the arena exactly fresh.
  DeviceMemory m(MemoryModel::FlatGpu, 64);
  const auto img = m.image();
  EXPECT_TRUE(img.empty());
  m.restore_trial(img);
  EXPECT_EQ(m.image(), img);

  // Even after a stray scribble above the (empty) staged prefix — the
  // no-page-protection case — restore_trial must wipe it back to zero.
  ASSERT_TRUE(m.store(10, 0xdeadbeefu));
  m.restore_trial(img);
  std::uint32_t v = 1;
  ASSERT_TRUE(m.load(10, v));
  EXPECT_EQ(v, 0u);
}

TEST(RestoreTrial, StoreExactlyAtHighWaterBoundaryIsCleared) {
  DeviceMemory m(MemoryModel::FlatGpu, 64);
  const auto base = m.alloc(8);
  std::vector<std::uint32_t> data(8);
  for (std::uint32_t i = 0; i < 8; ++i) data[i] = 100 + i;
  m.copy_in(base, data);
  const auto staged = m.image();
  ASSERT_EQ(staged.size(), 8u);

  // Scribble at the exact allocation boundary (first unallocated word) and
  // at the last physical word: both are above the staged prefix and must be
  // zeroed by restore_trial, while the prefix comes back bitwise.
  ASSERT_TRUE(m.store(8, 0xffffffffu));
  ASSERT_TRUE(m.store(63, 0xabababab));
  // Also corrupt the staged prefix itself.
  ASSERT_TRUE(m.store(3, 0x12345678u));

  m.restore_trial(staged);
  EXPECT_EQ(m.image(), staged) << "staged prefix must restore bitwise";
  std::uint32_t v = 1;
  ASSERT_TRUE(m.load(8, v));
  EXPECT_EQ(v, 0u) << "word at the high-water boundary must be wiped";
  ASSERT_TRUE(m.load(63, v));
  EXPECT_EQ(v, 0u) << "last physical word must be wiped";
}

TEST(RestoreTrial, RestoreAfterRestoreIsIdempotent) {
  DeviceMemory m(MemoryModel::FlatGpu, 128);
  const auto base = m.alloc(16);
  std::vector<std::uint32_t> data(16);
  for (std::uint32_t i = 0; i < 16; ++i) data[i] = i * i + 7;
  m.copy_in(base, data);
  const auto staged = m.image();

  ASSERT_TRUE(m.store(base + 5, 0xcccccccc));
  ASSERT_TRUE(m.store(40, 0xdddddddd));
  m.restore_trial(staged);
  const auto after_first = m.image();
  m.restore_trial(staged);  // no intervening stores: must change nothing
  EXPECT_EQ(m.image(), after_first);
  EXPECT_EQ(m.image(), staged);
  std::uint32_t v = 1;
  ASSERT_TRUE(m.load(40, v));
  EXPECT_EQ(v, 0u);
}

TEST(RestoreTrial, PostRestoreImageMatchesFreshDeviceBitwise) {
  // The determinism contract's memory leg: a restored arena must be
  // indistinguishable from a freshly staged one — compare against a second
  // device that never ran a faulty trial.
  const auto stage = [](DeviceMemory& m) {
    const auto a = m.alloc(12, AllocClass::F32Data);
    const auto b = m.alloc(4, AllocClass::PtrData);
    std::vector<std::uint32_t> va(12), vb(4);
    for (std::uint32_t i = 0; i < 12; ++i) va[i] = 0x40000000u + i;
    for (std::uint32_t i = 0; i < 4; ++i) vb[i] = i;
    m.copy_in(a, va);
    m.copy_in(b, vb);
  };
  DeviceMemory dirty(MemoryModel::FlatGpu, 256);
  DeviceMemory fresh(MemoryModel::FlatGpu, 256);
  stage(dirty);
  stage(fresh);
  const auto staged = fresh.image();

  // Simulate a wild trial: overwrite everything the model lets us reach.
  for (std::uint32_t addr = 0; addr < 256; ++addr) (void)dirty.store(addr, ~addr);
  dirty.restore_trial(staged);

  EXPECT_EQ(dirty.image(), fresh.image());
  for (std::uint32_t addr = 0; addr < 256; ++addr) {
    std::uint32_t dv = 1, fv = 2;
    ASSERT_TRUE(dirty.load(addr, dv));
    ASSERT_TRUE(fresh.load(addr, fv));
    ASSERT_EQ(dv, fv) << "word " << addr << " differs from a fresh device";
  }
}

TEST(RestoreTrial, NoteStoreGrowsTheWatermarkMonotonically) {
  DeviceMemory m(MemoryModel::FlatGpu, 64);
  const auto staged = m.image();
  // Engine-style dirty tracking: stores through flat_arena() + note_store.
  auto arena = m.flat_arena();
  ASSERT_FALSE(arena.empty());
  arena[20] = 0xeeeeeeee;
  m.note_store(20);
  arena[5] = 0x55555555;
  m.note_store(5);  // below the watermark: must not shrink it
  m.restore_trial(staged);
  std::uint32_t v = 1;
  ASSERT_TRUE(m.load(20, v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(m.load(5, v));
  EXPECT_EQ(v, 0u);
}

// --- device arena: zero-page mappings against the std::vector semantics ---

namespace {

/// The arena as specified before it moved onto zero pages: plain vectors,
/// a store watermark and eager fills, with every operation the oracle test
/// drives spelled out the way DeviceMemory used to do it.
struct VectorArena {
  const ecc::Code* code;  // nullptr when unprotected
  std::vector<std::uint32_t> words;
  std::vector<std::uint8_t> check;
  std::size_t hi = 0;  // store watermark

  VectorArena(std::size_t capacity, ecc::Scheme scheme)
      : code(scheme == ecc::Scheme::None ? nullptr : &ecc::code(scheme)),
        words(capacity, 0),
        check(code ? capacity / 2 : 0, 0) {}

  static std::size_t pairs(std::size_t n) { return (n + 1) / 2; }
  std::uint64_t pair(std::size_t p) const {
    return words[2 * p] | (std::uint64_t{words[2 * p + 1]} << 32);
  }
  void reencode(std::size_t n) {
    for (std::size_t p = 0; p < pairs(n); ++p) check[p] = ecc::encode(*code, pair(p));
  }
  void note(std::size_t i) { hi = std::max(hi, i + 1); }
  /// EDC check of word i's pair: scrub a single-bit error, refuse a double.
  bool edc(std::size_t i) {
    if (!code) return true;
    const std::size_t p = i / 2;
    const auto d = ecc::decode(*code, pair(p), check[p]);
    if (d.bit == ecc::kUncorrectable) return false;
    words[2 * p] = static_cast<std::uint32_t>(d.data);
    words[2 * p + 1] = static_cast<std::uint32_t>(d.data >> 32);
    check[p] = d.check;
    return true;
  }
  bool load(std::size_t i, std::uint32_t& out) {
    if (!edc(i)) return false;
    out = words[i];
    return true;
  }
  bool store(std::size_t i, std::uint32_t value) {
    if (!edc(i)) return false;
    words[i] = value;
    if (code) check[i / 2] = ecc::encode(*code, pair(i / 2));
    note(i);
    return true;
  }
  void zero_words(std::size_t from, std::size_t to) {
    to = std::min(to, words.size());
    if (from < to) std::fill(words.begin() + static_cast<long>(from),
                             words.begin() + static_cast<long>(to), 0u);
  }
  void zero_check(std::size_t from, std::size_t to) {
    if (!code) return;
    from = pairs(from);
    to = pairs(std::min(to, words.size()));
    if (from < to) std::fill(check.begin() + static_cast<long>(from),
                             check.begin() + static_cast<long>(to), std::uint8_t{0});
  }
  void restore_trial(std::span<const std::uint32_t> img, std::span<const std::uint8_t> cimg) {
    const std::size_t n = img.size();
    std::copy(img.begin(), img.end(), words.begin());
    zero_words(n, hi);
    if (code) {
      if (cimg.size() >= pairs(n))
        std::copy(cimg.begin(), cimg.begin() + static_cast<long>(pairs(n)), check.begin());
      else
        reencode(n);
      zero_check(n, hi);
    }
    hi = n;
  }
  void reset() {
    zero_words(0, hi);
    zero_check(0, hi);
    hi = 0;
  }
  void restore(std::span<const std::uint32_t> img) {
    std::copy(img.begin(), img.end(), words.begin());
    if (!img.empty()) note(img.size() - 1);
    if (code) reencode(img.size());
  }
  void corrupt_word(std::size_t i, std::uint32_t mask) {
    if (mask == 0) return;
    words[i] ^= mask;
    note(i);
  }
  void corrupt_check(std::size_t i, std::uint8_t mask) {
    if (!code) return;
    check[i / 2] ^= mask;
    note(i);
  }
};

/// Index of the first element where a and b differ, or -1 when equal.
template <class T>
long first_diff(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return static_cast<long>(std::min(a.size(), b.size()));
  const auto it = std::mismatch(a.begin(), a.end(), b.begin());
  return it.first == a.end() ? -1 : it.first - a.begin();
}

class DeviceArenaOracle
    : public ::testing::TestWithParam<std::tuple<MemoryModel, ecc::Scheme>> {};

}  // namespace

TEST_P(DeviceArenaOracle, MatchesVectorModel) {
  const auto [model, scheme] = GetParam();
  // Dirty-range lengths (in words) at which the word tail and the check
  // tail reach ZeroPages' release threshold.
  constexpr std::size_t kWordT = ZeroPages::kReleaseBytes / sizeof(std::uint32_t);
  constexpr std::size_t kCheckT = ZeroPages::kReleaseBytes * 2;
  // Room for a check-threshold tail above a staged prefix; neither arena
  // ends on a page boundary (4 * kCap and kCap / 2 bytes).
  constexpr std::uint32_t kCap = 3 * kCheckT + 6;
  DeviceMemory m(model, kCap, scheme);
  VectorArena v(kCap, scheme);
  // The whole arena is one live allocation, so image() and check_image()
  // show every data word and check byte.
  std::uint32_t base = m.alloc(kCap);

  std::mt19937_64 rng(0x5eed15);
  const auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto clamp = [&](long x) {
    return static_cast<std::size_t>(std::clamp<long>(x, 0, static_cast<long>(kCap)));
  };
  // A length or index close to a threshold distance from `from`: exactly
  // on it, or a word or two either side.
  const auto near = [&](std::size_t from, long sign) {
    const auto t = static_cast<long>(below(2) ? kWordT : kCheckT);
    return clamp(static_cast<long>(from) + sign * t + static_cast<long>(below(5)) - 2);
  };
  const auto pick = [&]() -> std::size_t {
    switch (below(6)) {
      case 0: return kCap - 1;  // the stray store at the arena top
      case 1: return below(kCap);
      case 2: return below(4096);
      default: return std::min<std::size_t>(near(v.hi, +1), kCap - 1);
    }
  };
  const auto prefix = [&]() -> std::size_t {
    switch (below(4)) {
      case 0: return 0;
      case 1: return below(kCap);
      default: return near(v.hi, -1);  // dirty tail [n, hi) straddles a threshold
    }
  };

  // Stage: upload a random prefix, as a job's setup would.
  std::vector<std::uint32_t> upload(5000);
  for (auto& w : upload) w = static_cast<std::uint32_t>(rng());
  m.copy_in(base, upload);
  for (std::size_t i = 0; i < upload.size(); ++i) ASSERT_TRUE(v.store(i, upload[i]));
  const auto staged = m.image();
  const auto staged_check = m.check_image();
  ASSERT_EQ(staged.size(), kCap);

  for (int step = 0; step < 400; ++step) {
    std::string op;
    switch (below(9)) {
      case 0: {
        const std::size_t i = pick();
        const auto val = static_cast<std::uint32_t>(rng());
        op = "store " + std::to_string(i);
        ASSERT_EQ(m.store(base + static_cast<std::uint32_t>(i), val), v.store(i, val)) << op;
        break;
      }
      case 1: {
        const std::size_t i = pick();
        op = "rmw " + std::to_string(i);
        const auto f = [](std::uint32_t x) { return x * 3 + 1; };
        std::uint32_t cur = 0;
        const bool ok = v.load(i, cur) && v.store(i, f(cur));
        ASSERT_EQ(m.rmw(base + static_cast<std::uint32_t>(i), f), ok) << op;
        break;
      }
      case 2: {
        const std::size_t i = pick();
        op = "load " + std::to_string(i);
        std::uint32_t got = 0, want = 0;
        const bool ok = v.load(i, want);
        ASSERT_EQ(m.load(base + static_cast<std::uint32_t>(i), got), ok) << op;
        if (ok) {
          ASSERT_EQ(got, want) << op;
        }
        break;
      }
      case 3: {
        const std::size_t i = pick();
        // Mostly single-bit upsets; sometimes a multi-bit one (uncorrectable
        // under protection, so later accesses of that pair fail).
        const auto mask = below(4) ? 1u << below(32) : static_cast<std::uint32_t>(rng());
        op = "corrupt_word " + std::to_string(i);
        m.corrupt_word(static_cast<std::uint32_t>(i), mask);
        v.corrupt_word(i, mask);
        break;
      }
      case 4: {
        const std::size_t i = pick();
        const auto mask = static_cast<std::uint8_t>(1u << below(8));
        op = "corrupt_check " + std::to_string(i);
        m.corrupt_check(static_cast<std::uint32_t>(i), mask);
        v.corrupt_check(i, mask);
        break;
      }
      case 5:
      case 6: {
        const std::size_t n = prefix();
        const bool with_check = below(2) != 0;
        op = "restore_trial n=" + std::to_string(n) + " hi=" + std::to_string(v.hi) +
             (with_check ? " +check" : "");
        const auto img = std::span<const std::uint32_t>(staged).first(n);
        const auto cimg = with_check ? std::span<const std::uint8_t>(staged_check)
                                           .first(std::min(staged_check.size(), (n + 1) / 2))
                                     : std::span<const std::uint8_t>{};
        m.restore_trial(img, cimg);
        v.restore_trial(img, cimg);
        break;
      }
      case 7: {
        const std::size_t n = prefix();
        op = "restore n=" + std::to_string(n);
        const auto img = std::span<const std::uint32_t>(staged).first(n);
        m.restore(img);
        v.restore(img);
        break;
      }
      default: {
        op = "reset hi=" + std::to_string(v.hi);
        m.reset();
        v.reset();
        base = m.alloc(kCap);
        break;
      }
    }
    ASSERT_EQ(first_diff(m.image(), v.words), -1) << "data word differs after step " << step
                                                  << ": " << op;
    ASSERT_EQ(first_diff(m.check_image(), v.check), -1)
        << "check byte differs after step " << step << ": " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arenas, DeviceArenaOracle,
    ::testing::Combine(::testing::Values(MemoryModel::FlatGpu, MemoryModel::PagedCpu),
                       ::testing::Values(ecc::Scheme::None, ecc::Scheme::Hsiao)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == MemoryModel::FlatGpu ? "FlatGpu"
                                                                          : "PagedCpu") +
             "_" + ecc::scheme_name(std::get<1>(info.param));
    });

TEST(DeviceArena, ZeroCapacityIsRejected) {
  EXPECT_THROW(DeviceMemory(MemoryModel::FlatGpu, 0), std::invalid_argument);
  // Pair rounding wraps UINT32_MAX to 0 words.
  EXPECT_THROW(DeviceMemory(MemoryModel::FlatGpu, UINT32_MAX), std::invalid_argument);
  EXPECT_THROW(DeviceMemory(MemoryModel::PagedCpu, 0, ecc::Scheme::Hsiao),
               std::invalid_argument);
  DeviceProps props;
  props.global_mem_words = 0;
  EXPECT_THROW(Device{props}, std::invalid_argument);
  DeviceMemory one(MemoryModel::FlatGpu, 1, ecc::Scheme::Hsiao);  // rounds up to a pair
  EXPECT_TRUE(one.store(1, 7));
  EXPECT_FALSE(one.valid(2));
}

TEST(DeviceArena, ZeroPagesMoveHandsOverTheMapping) {
  ZeroPages a(ZeroPages::kReleaseBytes);
  a.view<std::uint32_t>()[3] = 42;
  ZeroPages b(std::move(a));
  EXPECT_TRUE(a.view<std::uint32_t>().empty());
  ASSERT_EQ(b.view<std::uint32_t>().size(), ZeroPages::kReleaseBytes / 4);
  EXPECT_EQ(b.view<std::uint32_t>()[3], 42u);
  ZeroPages c;
  c = std::move(b);
  EXPECT_EQ(c.view<std::uint32_t>()[3], 42u);
  c.zero(0, ZeroPages::kReleaseBytes);  // the page-release path
  EXPECT_EQ(c.view<std::uint32_t>()[3], 0u);
}

#if defined(__linux__)
namespace {
/// Resident set size of this process, from /proc/self/statm.
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident * ::sysconf(_SC_PAGESIZE);
}
}  // namespace

TEST(DeviceArena, ResidentMemoryFollowsTouchedPages) {
  // Construction maps zero pages and writes none of them (default
  // capacity: 64 MiB per device).
  const long before = resident_bytes();
  std::vector<std::unique_ptr<Device>> devices;
  for (int i = 0; i < 8; ++i) devices.push_back(std::make_unique<Device>(DeviceProps{}));
  EXPECT_LT(resident_bytes() - before, 16l << 20) << "constructing 8 devices";

  // A stray store at the top of the arena dirties one page; restore_trial
  // hands the pages back instead of writing zeros over the whole range.
  DeviceMemory& mem = devices[0]->mem();
  const auto staged = mem.image();
  const long clean = resident_bytes();
  ASSERT_TRUE(mem.store(DeviceProps{}.global_mem_words - 1, 0xdeadbeefu));
  mem.restore_trial(staged);
  EXPECT_LT(resident_bytes() - clean, 1l << 20) << "after restore_trial of a stray store";
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(DeviceProps{}.global_mem_words - 1, v));
  EXPECT_EQ(v, 0u);
}
#endif
