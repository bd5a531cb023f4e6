// Threaded-code execution form: the compiled stream behind
// gpusim::ExecEngine::Threaded (compiled with a MemInstr mode: sanitized on a
// sanitizing device, gpusim::Device::set_sanitize; recording or
// write-tracking for segment-replay launches).
//
// The predecoded stream (kir::DecodedProgram) already folds operator,
// operand type and cycle cost into one flat instruction, but an
// interpreter over it would still pay one dispatch, one watchdog test and
// one cost/loop-cost/pc update per *source* instruction.  A SWIFI campaign
// replays the same few hundred instructions billions of times, so this
// compilation step buys the remaining headroom:
//
//  * `TOp` is the threaded opcode set: every DecodedOp has a 1:1 single-op
//    entry (same numeric value — see the static_asserts below), plus fused
//    *superinstructions* for the idioms the lowering actually emits per loop
//    iteration (Const/compare/Jz loop heads, Const/add/Jmp back-edges,
//    load-op-store global accumulates, and the Hauberk detector sequences
//    ChkXor/DupCmp/RangeCheck).  A fused op executes 2-3 source
//    instructions under a single dispatch and a single budget decrement.
//  * straight-line *runs*: a maximal region with no control transfer inside
//    and no jump target after its first slot compiles to a `RunHead` that
//    performs one budget test and one pre-summed cost charge for the whole
//    region, then falls through *naked* op variants (`Nk_*`) that execute
//    with no per-op accounting at all.  Ops that can crash mid-run carry
//    the suffix charge to refund, so a crash bills exactly the prefix the
//    reference interpreter would have billed.
//  * the stream is position-stable: code[pc] corresponds to decoded pc and
//    a fused head sits at its first instruction's slot.  Slots covered by a
//    2-3-op fused head *retain their single-op translations*, so a jump
//    into the middle lands on ordinary instructions; run interiors instead
//    hold naked ops, which is safe because the compiler only forms runs
//    whose interior slots are not jump targets (and barriers/branches never
//    appear inside a run, so no resume point lands there either).
//  * per-launch-plan specialization: the reloaded loop constants of the
//    Const+compare and Const+add idioms are folded into the
//    superinstruction immediate, and the watchdog budget becomes one
//    countdown decremented once per (super)instruction or run.
//  * memory instrumentation (`MemInstr`): a sanitized stream compiles
//    shared loads and stores to the shadow-observing singles SanLoadS/
//    SanStoreS, which never enter a run; a recording stream compiles every
//    global and shared load, store and atomic to the Rec* ops that feed the
//    golden journal's recorder, a net-effect stream (the net-effect
//    journal) does the same for global accesses only, and a write-tracking
//    stream (segment replay) for stores and atomics only.  Rec* ops stay in
//    runs as their naked Nk_Rec* forms.  No instrumented access is ever
//    part of a fused head or tile, so each one reaches its observer in
//    program order.
//  * snapshot points: recording and write-tracking streams compile every
//    backward jump (Jmp, Jz, and the AddJmp back-edge fusions) to a *Bk
//    variant that reports the taken jump, so the golden run can take its
//    snapshots there and a replayed slice can stop there; a backward
//    compare-branch is left unfused in those streams.  Recording streams
//    also count every FIHook (RecFIHook), unarmed ones included.
//  * FI streams: a SWIFI trial arms one (site, thread, occurrence), so
//    every other FIHook is a no-op.  Each memory mode therefore has two
//    streams, FIHooks live and FIHooks compiled away, and only the armed
//    thread runs the live one, until its fault fires (gpusim::Device picks
//    them per slice).  In a stream without FIHooks, hooks inside runs get
//    no slot at all — the run's executed ops are packed right-aligned
//    against the run's end and the RunHead skips the gap, so the tiles the
//    hooks used to split re-form — while the RunHead still charges them
//    (instruction and cycle totals unchanged) and crash refunds are
//    computed from original positions.  Hooks outside runs become Nop
//    singles.
//
// Determinism contract: a fused handler must be bit-identical to running
// its singles back to back.  Anything it cannot replicate exactly — a
// watchdog boundary inside the fused region, a crash condition — it
// *delegates*: the interpreter resumes the slice on the reference
// interpreter from the head pc, before any register write or cost charge,
// so the observable trace is the reference trace by construction.
// compile_threaded therefore only emits fused ops whose crash conditions
// are checkable up front (no Div/Mod fusions, store addresses not written
// by the covered instructions, load/store fusions only over the flat
// global arena).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "kir/bytecode.hpp"

namespace hauberk::kir {

// Master opcode lists.  HAUBERK_TOP_SINGLE_LIST mirrors DecodedOp entry for
// entry (pinned by static_asserts); the CMP/ALU lists are the operator
// families eligible for fusion — none of them can crash, which is what lets
// fused handlers charge their summed cost after one up-front check.
#define HAUBERK_TOP_SINGLE_LIST(X) \
  X(Nop) X(Const) X(Mov) X(Builtin) X(Select) \
  X(NegF) X(NegI) X(NotF) X(NotW) X(BitNot) X(AbsF) X(AbsI) \
  X(SqrtF) X(RsqrtF) X(ExpF) X(LogF) X(SinF) X(CosF) X(FloorF) \
  X(I2F) X(P2F) X(F2I) X(CopyA) X(UnGeneric) \
  X(AddF) X(SubF) X(MulF) X(DivF) X(MinF) X(MaxF) \
  X(LtF) X(LeF) X(GtF) X(GeF) X(EqF) X(NeF) \
  X(AddW) X(SubW) X(MulW) \
  X(DivI) X(ModI) X(DivU) X(ModU) \
  X(MinI) X(MaxI) X(MinU) X(MaxU) \
  X(LtI) X(LeI) X(GtI) X(GeI) \
  X(LtU) X(LeU) X(GtU) X(GeU) \
  X(EqW) X(NeW) \
  X(AndB) X(OrB) X(XorB) X(ShlB) X(ShrL) X(ShrA) \
  X(LAndW) X(LOrW) X(BinGeneric) \
  X(LoadG) X(StoreG) X(LoadS) X(StoreS) X(AtomicAddF) X(AtomicAddI) \
  X(Jmp) X(Jz) X(Barrier) X(Halt) \
  X(ChkXor) X(ChkValidate) X(DupCmp) X(RangeCheck) X(EqualCheck) \
  X(ProfileVal) X(CountExec) X(FIHook) \
  X(Invalid)

/// Comparison operators fusable with a following Jz (loop heads, while
/// conditions, compare-branch tails).
#define HAUBERK_TOP_CMP_LIST(X) \
  X(LtI) X(LeI) X(GtI) X(GeI) \
  X(LtU) X(LeU) X(GtU) X(GeU) \
  X(LtF) X(LeF) X(GtF) X(GeF) \
  X(EqW) X(NeW) X(EqF) X(NeF)

/// Non-crashing ALU operators fusable inside Const-bin, load-op-store and
/// detector superinstructions, and specialized into the naked tiles below.
/// The set is profile-driven: the arithmetic core plus the compare/mask
/// operators that dominate loop conditions in the workload suites.
#define HAUBERK_TOP_ALU_LIST(X)                            \
  X(AddW) X(SubW) X(MulW) X(AddF) X(SubF) X(MulF)          \
  X(DivF) X(MaxF) X(LtF) X(GtI) X(EqW) X(AndB) X(ShrA) X(LAndW)

/// Every ordered (K1, K2) pair of the ALU list — the naked back-to-back
/// binary tile (NkBinBin) is specialized per combination so both operators
/// dispatch once.  The row macro calls X(K1, K2) for each K2.
#define HAUBERK_TOP_ALU_PAIR_ROW(X, K1)                               \
  X(K1, AddW) X(K1, SubW) X(K1, MulW) X(K1, AddF) X(K1, SubF)         \
  X(K1, MulF) X(K1, DivF) X(K1, MaxF) X(K1, LtF) X(K1, GtI)           \
  X(K1, EqW) X(K1, AndB) X(K1, ShrA) X(K1, LAndW)
#define HAUBERK_TOP_ALU_PAIR_LIST(X)    \
  HAUBERK_TOP_ALU_PAIR_ROW(X, AddW)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, SubW)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, MulW)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, AddF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, SubF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, MulF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, DivF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, MaxF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, LtF)      \
  HAUBERK_TOP_ALU_PAIR_ROW(X, GtI)      \
  HAUBERK_TOP_ALU_PAIR_ROW(X, EqW)      \
  HAUBERK_TOP_ALU_PAIR_ROW(X, AndB)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, ShrA)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, LAndW)

/// Ops that may appear *inside* a straight-line run: every single except
/// control transfer (Jmp/Jz/Barrier/Halt) and Invalid.  Their naked (`Nk_`)
/// variants execute with no budget test, no cost charge and no instruction
/// count — the RunHead already accounted for the whole region.  The
/// interpreter defines each op's body once and instantiates both the
/// accounted single and its naked twin from it (gpusim/device.cpp,
/// run_thread_threaded), so this list and the handlers cannot drift.
#define HAUBERK_TOP_NAKED_LIST(X) \
  X(Nop) X(Const) X(Mov) X(Builtin) X(Select) \
  X(NegF) X(NegI) X(NotF) X(NotW) X(BitNot) X(AbsF) X(AbsI) \
  X(SqrtF) X(RsqrtF) X(ExpF) X(LogF) X(SinF) X(CosF) X(FloorF) \
  X(I2F) X(P2F) X(F2I) X(CopyA) X(UnGeneric) \
  X(AddF) X(SubF) X(MulF) X(DivF) X(MinF) X(MaxF) \
  X(LtF) X(LeF) X(GtF) X(GeF) X(EqF) X(NeF) \
  X(AddW) X(SubW) X(MulW) \
  X(DivI) X(ModI) X(DivU) X(ModU) \
  X(MinI) X(MaxI) X(MinU) X(MaxU) \
  X(LtI) X(LeI) X(GtI) X(GeI) \
  X(LtU) X(LeU) X(GtU) X(GeU) \
  X(EqW) X(NeW) \
  X(AndB) X(OrB) X(XorB) X(ShlB) X(ShrL) X(ShrA) \
  X(LAndW) X(LOrW) X(BinGeneric) \
  X(LoadG) X(StoreG) X(LoadS) X(StoreS) X(AtomicAddF) X(AtomicAddI) \
  X(ChkXor) X(ChkValidate) X(DupCmp) X(RangeCheck) X(EqualCheck) \
  X(ProfileVal) X(CountExec) X(FIHook)

enum class TOp : std::uint16_t {
#define HAUBERK_TOP_E(n) n,
  HAUBERK_TOP_SINGLE_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E

  // --- fused superinstructions (always >= FusedBegin) ---
  // [Cmp dst,a,b][Jz dst,target] and [Const c,imm][Cmp dst,a,c][Jz dst,target]
#define HAUBERK_TOP_E(n) CmpJz_##n, ConstCmpJz_##n,
  HAUBERK_TOP_CMP_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E
  // Loop back-edges: [Const c,imm][AddW dst,a,c][Jmp target] / [AddW][Jmp].
  ConstAddJmp, AddJmp,
  // [Const c,imm][Bin dst,a,b], [LoadG c,a][Bin][StoreG], and the detector
  // tails [Bin][ChkXor] / [Bin][DupCmp].
#define HAUBERK_TOP_E(n) ConstBin_##n, LoadBinStore_##n, BinChkXor_##n, BinDupCmp_##n,
  HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E
  ChkXor2, RangeCheck2,

  // --- straight-line runs ---
  // RunHead performs one budget test + one pre-summed charge for `len`
  // source instructions, then dispatches the naked variant in `d` (the
  // head's own operands live in the same slot, so the head tile must not
  // use the d field itself, and must be crash-free — cost/loop_cost/len
  // carry the region sums, leaving no room for refund data).  Interior
  // slots hold naked singles and naked tiles; crashable naked forms carry
  // the suffix charge to refund in their (otherwise unused)
  // cost/loop_cost/len fields.
  RunHead,
#define HAUBERK_TOP_E(n) Nk_##n,
  HAUBERK_TOP_NAKED_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E
#define HAUBERK_TOP_E(n) NkConstBin_##n, NkBinChkXor_##n, NkBinDupCmp_##n,
  HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E
  NkChkXor2, NkRangeCheck2,
  // Generic naked tiles for the idioms the pair-frequency profile of the
  // workload suite actually shows inside runs: back-to-back ALU ops, an ALU
  // op next to a reloaded constant, adjacent constants, loads feeding or fed
  // by an ALU op, and the 3-op addressing idiom Const+AddW+LoadG.
#define HAUBERK_TOP_E(a, b) NkBinBin_##a##_##b,
  HAUBERK_TOP_ALU_PAIR_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E
#define HAUBERK_TOP_E(n) NkBinConst_##n, NkLoadBin_##n, NkBinLoad_##n, NkConstBinLoad_##n,
  HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_E)
#undef HAUBERK_TOP_E
  NkConst2, NkLoadConst,

  // --- sanitizer singles (sanitized plans only, never fused) ---
  // LoadS/StoreS that report every access to the block's SharedShadow.
  SanLoadS, SanStoreS,
  // --- recorded accesses (recording and write-tracking streams, never fused
  // into tiles) ---
  // Global/shared accesses that report to the launch's journal recorder or
  // delta set after the access: accounted singles, and their naked forms
  // inside runs (crashable, so they carry suffix refunds like Nk_LoadG).
  RecLoadG, RecStoreG, RecLoadS, RecStoreS, RecAtomicAddF, RecAtomicAddI,
  Nk_RecLoadG, Nk_RecStoreG, Nk_RecLoadS, Nk_RecStoreS, Nk_RecAtomicAddF, Nk_RecAtomicAddI,
  // --- snapshot points (recording and write-tracking streams, never in
  // runs) ---
  // Backward jumps, single and fused, that report each *taken* jump to the
  // launch's snapshot logic: the recorder takes its snapshots there, and a
  // replayed slice stops there to try to rejoin the journal (DESIGN §10).
  JmpBk, JzBk, ConstAddJmpBk, AddJmpBk,
  // --- counted FI hooks (recording streams) ---
  // Every FIHook, accounted and naked: counts the execution per thread and
  // site for the snapshot table, then calls the hook when FIHooks are live
  // (t: 0 never, 1 always).
  RecFIHook, Nk_RecFIHook,
  Count_,
};

inline constexpr std::uint16_t kTOpFusedBegin =
    static_cast<std::uint16_t>(TOp::Invalid) + 1;
inline constexpr std::size_t kNumTOps = static_cast<std::size_t>(TOp::Count_);

// Pin the single-op block to DecodedOp, value for value: the interpreter
// casts between them and the decode-completeness test walks the mirror.
#define HAUBERK_TOP_CHECK(n) \
  static_assert(static_cast<unsigned>(TOp::n) == static_cast<unsigned>(DecodedOp::n));
HAUBERK_TOP_SINGLE_LIST(HAUBERK_TOP_CHECK)
#undef HAUBERK_TOP_CHECK

[[nodiscard]] constexpr bool top_is_fused(TOp op) noexcept {
  return static_cast<std::uint16_t>(op) >= kTOpFusedBegin &&
         static_cast<std::uint16_t>(op) < static_cast<std::uint16_t>(TOp::SanLoadS);
}

/// The single-op TOp for a DecodedOp (the identity mapping the
/// static_asserts above pin down).  DecodedOp::Invalid maps to TOp::Invalid,
/// which the interpreter reports as a code-segment crash.
[[nodiscard]] constexpr TOp threaded_single_op(DecodedOp op) noexcept {
  return static_cast<TOp>(static_cast<std::uint8_t>(op));
}

[[nodiscard]] const char* top_name(TOp op) noexcept;

/// One threaded instruction (32 bytes).  Singles carry the DecodedInstr
/// fields verbatim (len == 1); fused ops reuse them per the pattern layout
/// documented in threaded.cpp, with `c`/`d` as extra register slots, `len`
/// as the number of covered source instructions, and cost/loop_cost as the
/// pre-summed charge for the whole region.
struct ThreadedInstr {
  std::uint16_t op = static_cast<std::uint16_t>(TOp::Invalid);
  std::uint8_t t = 0;        ///< DType byte / fused operand-order flag / packed pair
  std::uint8_t len = 1;      ///< source instructions covered (1 for singles)
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;       ///< fused: extra slot (folded Const dst, 2nd ChkXor dst, ...)
  std::uint16_t d = 0;       ///< fused: extra slot
  std::uint16_t skip = 0;    ///< RunHead: slots of dropped FIHooks to jump over (else 0)
  std::uint32_t aux = 0;
  std::uint32_t imm = 0;
  std::uint32_t cost = 0;
  std::uint32_t loop_cost = 0;
};
static_assert(sizeof(ThreadedInstr) <= 32);

/// Fusion families, for stats and tests.
enum class FuseFamily : std::uint8_t {
  ConstCmpJz, CmpJz, ConstAddJmp, AddJmp,
  ConstBin, LoadBinStore, BinChkXor, BinDupCmp, ChkXor2, RangeCheck2,
  Count_,
};
inline constexpr std::size_t kNumFuseFamilies = static_cast<std::size_t>(FuseFamily::Count_);

struct ThreadedProgram {
  std::vector<ThreadedInstr> code;  ///< 1:1 with DecodedProgram::code (position-stable)

  // Compile-time statistics (inspect tool, fusion regression tests).
  std::array<std::uint32_t, kNumFuseFamilies> fuse_counts{};  ///< fused heads per family
  std::uint32_t fused_heads = 0;    ///< total fused superinstructions emitted
  std::uint32_t fused_covered = 0;  ///< source instructions covered by fused heads
  std::uint32_t run_heads = 0;      ///< straight-line runs emitted
  std::uint32_t run_covered = 0;    ///< source instructions inside runs (incl. heads)
  std::uint32_t fi_hooks = 0;       ///< FIHook instructions in the program
  /// FIHooks compiled away: those inside runs that got no slot (the
  /// RunHead charges them), and those still dispatched as a Nop (outside
  /// runs, or kept as a run's head).
  std::uint32_t fi_dropped = 0;
  std::uint32_t fi_nops = 0;
  bool has_barriers = false;
};

/// The FI filter of the hook contract (gpusim::LaunchHooks::fi_filter):
/// which FIHook executions can have any effect.  Generic — every FIHook
/// calls the hook.  None — no FIHook has an effect.  Armed — only the
/// FIHooks whose site index (their `aux`, the hook's `site_index`) is
/// `site`, and only in global linear thread `thread`, and only the
/// `occurrence`-th such execution (counted from 1 over the launch) can act;
/// 0 leaves the occurrence open.  The launch runs `thread` on the stream
/// with live FIHooks until its fault fires, and segment replay also skips
/// its golden prefix (gpusim::LaunchHooks::fi_skipped).
struct FIFilter {
  enum class Kind : std::uint8_t { Generic, None, Armed };
  Kind kind = Kind::Generic;
  std::uint32_t site = 0;
  std::uint32_t thread = 0;
  std::uint64_t occurrence = 0;
};

/// Which memory accesses a stream reports, and to whom.  One mode per
/// stream: sanitizing, recording and replay launches exclude each other.
enum class MemInstr : std::uint8_t {
  None,      ///< plain accesses, free to fuse and join runs
  Sanitize,  ///< LoadS/StoreS -> SanLoadS/SanStoreS (the sanitizer shadow)
  Record,    ///< every global/shared load, store and atomic -> Rec*/Nk_Rec* (golden journal)
  Writes,    ///< global/shared stores and atomics -> Rec*/Nk_Rec* (replay's write tracking)
  NetEffect, ///< global loads, stores and atomics -> Rec*/Nk_Rec* (net-effect journal)
};
/// The number of MemInstr modes (per-mode stream tables); NetEffect is last.
inline constexpr std::size_t kNumMemInstr = static_cast<std::size_t>(MemInstr::NetEffect) + 1;

/// FI-site counts for the golden journal's snapshot table (recording
/// streams, gpusim/journal.hpp): at every basic-block boundary two sites
/// whose single FIHooks share a basic block have executed equally often.
/// Returns, per site index (one past the highest FIHook site index), the
/// site whose count stands for it: itself for the first such site of each
/// block and for any site with several FIHooks, else that first site.  A
/// recording stream counts only the sites that stand for themselves.
[[nodiscard]] std::vector<std::uint32_t> fi_count_sites(const DecodedProgram& d);

/// Compile a predecoded stream into threaded-code form.  `num_slots` (the
/// program's register-slot count) is not read; it stays because
/// perfbench/trial_bench.cpp calls this signature.  `flat_global_memory`
/// is whether the target device uses the FlatGpu arena — load/store fusions
/// are only emitted there, because only the flat model's bounds are
/// checkable before any side effect (the PagedCpu fallback keeps singles,
/// which handle paged memory exactly like the reference interpreter).
/// `mem` picks the instrumented accesses (see MemInstr): they stay out of
/// fused heads and tiles; sanitized ones also stay out of runs.
/// `fi_hooks` compiles every FIHook to a hook call (the default); false
/// compiles them away (see the header comment), except that a recording
/// stream still counts them.
[[nodiscard]] ThreadedProgram compile_threaded(const DecodedProgram& d,
                                               std::uint16_t num_slots,
                                               bool flat_global_memory,
                                               MemInstr mem = MemInstr::None,
                                               bool fi_hooks = true);

}  // namespace hauberk::kir
