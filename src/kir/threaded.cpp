// Threaded-code compiler: DecodedProgram -> ThreadedProgram.
//
// Passes over the position-stable stream:
//
//  1. every slot gets its single-op translation (TOp mirrors DecodedOp
//     value for value, so this is a field copy);
//  2. control-transfer fusion: [Const][Cmp][Jz] / [Cmp][Jz] loop heads and
//     [Const][AddW][Jmp] / [AddW][Jmp] back-edges.  A match *overwrites the
//     head slot only* — the covered slots keep their singles, so jumps into
//     the middle of a fused region and the interpreter's budget/crash
//     delegation both land on ordinary instructions.  Overlap is allowed
//     and harmless for the same reason: a covered slot that itself heads a
//     matching pattern becomes a fused head too, reachable only by jumps.
//  3. straight-line runs: each remaining maximal region with no control
//     transfer, no fused slot and no interior jump target becomes a
//     RunHead (one budget test + one summed charge) followed by naked ops
//     with zero per-op accounting; adjacent pairs inside a run tile into
//     naked fused forms (NkConstBin etc.) to halve their dispatches.
//     Segments of exactly 2-3 ops keep the classic one-dispatch fused
//     forms (ConstBin/LoadBinStore/...) instead, which charge once anyway.
//
// FI specialization (a non-Generic FIFilter) changes only FIHooks.  In
// pass 1 unarmed hooks become Nop and the armed site's hooks FIHookArmed.
// In pass 3 a run tiles only its *executed* ops: unarmed hooks are left
// out, the executed ops are placed right-aligned against the run's end (op
// j of m at slot e - m + j, so every handler's `pc += len` still ends at e)
// and the RunHead's `skip` jumps over the gap.  The head still charges the
// whole region, hooks included, and refund fields are sums over original
// positions, so a crash bills exactly what the reference bills.  A run
// whose first executed op would be crashable keeps its leading hook as a
// naked Nop head (the head slot has no room for refund data).
//
// Fused-field layout (the interpreter in gpusim/device.cpp must agree):
//
//   CmpJz_K        [Cmp_K dst,a,b][Jz dst,aux]
//                  dst,a,b = compare; aux = branch target
//   ConstCmpJz_K   [Const c,imm][Cmp_K dst,a',c][Jz dst,aux]
//                  c,imm = folded constant; a = non-constant operand;
//                  t = 1 when the constant is the *left* compare operand
//   ConstAddJmp    [Const c,imm][AddW dst,a,b][Jmp aux]
//   AddJmp         [AddW dst,a,b][Jmp aux]
//   ConstBin_K     [Const c,imm][Bin_K dst,a,b]
//   LoadBinStore_K [LoadG c,a][Bin_K dst,x,y][StoreG b,dst]
//                  a = load address slot; c = load destination;
//                  b = store address slot; aux = x | y << 16
//   BinChkXor_K    [Bin_K dst,a,b][ChkXor c,d]
//   BinDupCmp_K    [Bin_K dst,a,b][DupCmp c,d]
//   ChkXor2        [ChkXor dst,a][ChkXor c,d]
//   RangeCheck2    [RangeCheck aux,a (type t&0xf)][RangeCheck imm,c (type t>>4)]
//
// Naked tile layouts (run interiors; the generic forms chosen from the
// pair-frequency profile of the workload suite):
//
//   NkBinBin_K1_K2   [Bin_K1 dst,a,b][Bin_K2 c,x,y]      aux = x | y << 16
//   NkBinConst_K     [Bin_K dst,a,b][Const c,imm]
//   NkConst2         [Const dst,imm][Const c,aux]
//   NkLoadBin_K      [LoadG dst,a][Bin_K c,x,y]          aux = x | y << 16
//   NkBinLoad_K      [Bin_K dst,a,b][LoadG c,d]          d = address slot
//   NkLoadConst      [LoadG dst,a][Const c,imm]
//   NkConstBinLoad_K [Const dst,imm][Bin_K c,x,y][LoadG b,a]  aux = x | y << 16
//
// Tiles containing a LoadG are crashable: their cost/loop_cost/len fields
// hold the suffix charge *after the load*, so a mid-tile crash refunds
// everything the reference interpreter would not have billed (ops executed
// before the load inside the tile stay billed, exactly like the reference
// trace).
//
// Every fused family is crash-free after its up-front checks: the CMP/ALU
// operator lists exclude Div/Mod, LoadBinStore requires the store address
// to be loop-invariant across the region (not written by the covered
// instructions) so both bounds are checkable before any side effect, and
// load/store fusion is only emitted for the FlatGpu arena model.
#include "kir/threaded.hpp"

namespace hauberk::kir {

namespace {

constexpr TOp cmp_jz_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::CmpJz_##n;
    HAUBERK_TOP_CMP_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp const_cmp_jz_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::ConstCmpJz_##n;
    HAUBERK_TOP_CMP_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp const_bin_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::ConstBin_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp load_bin_store_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::LoadBinStore_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp bin_chkxor_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::BinChkXor_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp bin_dupcmp_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::BinDupCmp_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}

/// The zero-accounting variant executed inside a run; TOp::Invalid when the
/// op can never appear inside one (control transfer, Invalid).
constexpr TOp naked_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::Nk_##n;
    HAUBERK_TOP_NAKED_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_const_bin_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkConstBin_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_bin_chkxor_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkBinChkXor_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_bin_dupcmp_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkBinDupCmp_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_bin_bin_top(DecodedOp k1, DecodedOp k2) noexcept {
#define HAUBERK_TOP_M(a, b) \
  if (k1 == DecodedOp::a && k2 == DecodedOp::b) return TOp::NkBinBin_##a##_##b;
  HAUBERK_TOP_ALU_PAIR_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
  return TOp::Invalid;
}
constexpr TOp naked_bin_const_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkBinConst_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_load_bin_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkLoadBin_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_bin_load_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkBinLoad_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}
constexpr TOp naked_const_bin_load_top(DecodedOp k) noexcept {
  switch (k) {
#define HAUBERK_TOP_M(n) \
  case DecodedOp::n: return TOp::NkConstBinLoad_##n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    default: return TOp::Invalid;
  }
}

/// Ops whose naked handler has a crash exit (and therefore carries the
/// suffix-refund fields).  A run's *first* op must not be one of these: the
/// head slot's cost/loop_cost hold the region sums, leaving no room for
/// refund data.
constexpr bool can_crash(DecodedOp op) noexcept {
  switch (op) {
    case DecodedOp::DivI:
    case DecodedOp::ModI:
    case DecodedOp::DivU:
    case DecodedOp::ModU:
    case DecodedOp::BinGeneric:
    case DecodedOp::LoadG:
    case DecodedOp::StoreG:
    case DecodedOp::LoadS:
    case DecodedOp::StoreS:
    case DecodedOp::AtomicAddF:
    case DecodedOp::AtomicAddI:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* top_name(TOp op) noexcept {
  switch (op) {
#define HAUBERK_TOP_M(n) \
  case TOp::n: return #n;
    HAUBERK_TOP_SINGLE_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
#define HAUBERK_TOP_M(n)                       \
  case TOp::CmpJz_##n: return "CmpJz_" #n;     \
  case TOp::ConstCmpJz_##n: return "ConstCmpJz_" #n;
    HAUBERK_TOP_CMP_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    case TOp::ConstAddJmp: return "ConstAddJmp";
    case TOp::AddJmp: return "AddJmp";
#define HAUBERK_TOP_M(n)                                 \
  case TOp::ConstBin_##n: return "ConstBin_" #n;         \
  case TOp::LoadBinStore_##n: return "LoadBinStore_" #n; \
  case TOp::BinChkXor_##n: return "BinChkXor_" #n;       \
  case TOp::BinDupCmp_##n: return "BinDupCmp_" #n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    case TOp::ChkXor2: return "ChkXor2";
    case TOp::RangeCheck2: return "RangeCheck2";
    case TOp::RunHead: return "RunHead";
#define HAUBERK_TOP_M(n) \
  case TOp::Nk_##n: return "Nk_" #n;
    HAUBERK_TOP_NAKED_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
#define HAUBERK_TOP_M(n)                               \
  case TOp::NkConstBin_##n: return "NkConstBin_" #n;   \
  case TOp::NkBinChkXor_##n: return "NkBinChkXor_" #n; \
  case TOp::NkBinDupCmp_##n: return "NkBinDupCmp_" #n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    case TOp::NkChkXor2: return "NkChkXor2";
    case TOp::NkRangeCheck2: return "NkRangeCheck2";
#define HAUBERK_TOP_M(a, b) \
  case TOp::NkBinBin_##a##_##b: return "NkBinBin_" #a "_" #b;
    HAUBERK_TOP_ALU_PAIR_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
#define HAUBERK_TOP_M(n)                                       \
  case TOp::NkBinConst_##n: return "NkBinConst_" #n;           \
  case TOp::NkLoadBin_##n: return "NkLoadBin_" #n;             \
  case TOp::NkBinLoad_##n: return "NkBinLoad_" #n;             \
  case TOp::NkConstBinLoad_##n: return "NkConstBinLoad_" #n;
    HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_M)
#undef HAUBERK_TOP_M
    case TOp::NkConst2: return "NkConst2";
    case TOp::NkLoadConst: return "NkLoadConst";
    case TOp::SanLoadS: return "SanLoadS";
    case TOp::SanStoreS: return "SanStoreS";
    case TOp::FIHookArmed: return "FIHookArmed";
    case TOp::Nk_FIHookArmed: return "Nk_FIHookArmed";
    case TOp::Count_: break;
  }
  return "?";
}

ThreadedProgram compile_threaded(const DecodedProgram& d, std::uint16_t /*num_slots*/,
                                 bool flat_global_memory, bool form_runs, bool sanitize,
                                 const FIFilter& fi) {
  ThreadedProgram out;
  const std::size_t n = d.code.size();
  out.code.resize(n);
  const auto shared_access = [](DecodedOp op) {
    return op == DecodedOp::LoadS || op == DecodedOp::StoreS;
  };
  // FIHooks that keep their hook call under `fi`, and those `fi` proves are
  // no-ops (none in a Generic stream).
  const auto fi_armed = [&](const DecodedInstr& in) {
    return in.op == DecodedOp::FIHook && fi.kind == FIFilter::Kind::Armed &&
           in.aux == fi.site;
  };
  const auto fi_dead = [&](const DecodedInstr& in) {
    return in.op == DecodedOp::FIHook && fi.kind != FIFilter::Kind::Generic && !fi_armed(in);
  };

  // Single-op translation: a field copy (TOp mirrors DecodedOp), with the
  // sanitizer's shared accesses and the FI specialization applied.
  const auto single_of = [&](std::size_t pc) {
    const DecodedInstr& in = d.code[pc];
    ThreadedInstr ti;
    ti.op = static_cast<std::uint16_t>(threaded_single_op(in.op));
    ti.t = in.t;
    ti.dst = in.dst;
    ti.a = in.a;
    ti.b = in.b;
    ti.aux = in.aux;
    ti.imm = in.imm;
    ti.cost = in.cost;
    ti.loop_cost = in.loop_cost;
    ti.len = 1;
    if (sanitize && shared_access(in.op))
      ti.op = static_cast<std::uint16_t>(in.op == DecodedOp::LoadS ? TOp::SanLoadS
                                                                   : TOp::SanStoreS);
    if (fi_armed(in)) ti.op = static_cast<std::uint16_t>(TOp::FIHookArmed);
    if (fi_dead(in)) ti.op = static_cast<std::uint16_t>(TOp::Nop);
    return ti;
  };

  // Pass 1: singles.
  std::uint32_t fi_dead_total = 0;
  for (std::size_t pc = 0; pc < n; ++pc) {
    out.code[pc] = single_of(pc);
    const DecodedInstr& in = d.code[pc];
    if (in.op == DecodedOp::Barrier) out.has_barriers = true;
    if (in.op == DecodedOp::FIHook) ++out.fi_hooks;
    if (fi_dead(in)) ++fi_dead_total;
  }

  // Pass 2: fusion.  Each head is rewritten in place; covered slots keep
  // their singles.  `emit` pre-folds the region's cycle charge and tracks
  // slot roles so the run pass only tiles untouched straight-line code.
  std::vector<std::uint8_t> role(n, 0);  // 1 fused head, 2 covered, 3 run head, 4 run interior
  auto emit = [&](std::size_t pc, TOp op, std::uint8_t len, FuseFamily fam,
                  ThreadedInstr ti) {
    std::uint32_t cost = 0, loop = 0;
    for (std::size_t i = 0; i < len; ++i) {
      cost += d.code[pc + i].cost;
      loop += d.code[pc + i].loop_cost;
    }
    ti.op = static_cast<std::uint16_t>(op);
    ti.len = len;
    ti.cost = cost;
    ti.loop_cost = loop;
    out.code[pc] = ti;
    role[pc] = 1;
    for (std::size_t i = 1; i < len; ++i)
      if (role[pc + i] == 0) role[pc + i] = 2;
    ++out.fuse_counts[static_cast<std::size_t>(fam)];
    ++out.fused_heads;
    out.fused_covered += len;
  };

  // [Const][Cmp][Jz] loop heads and [Const][AddW][Jmp] back-edges.
  auto try_control3 = [&](std::size_t pc) -> bool {
    if (pc + 2 >= n) return false;
    const DecodedInstr& i0 = d.code[pc];
    const DecodedInstr& i1 = d.code[pc + 1];
    const DecodedInstr& i2 = d.code[pc + 2];
    if (i0.op != DecodedOp::Const) return false;
    if (const TOp top = const_cmp_jz_top(i1.op);
        top != TOp::Invalid && i2.op == DecodedOp::Jz && i2.a == i1.dst &&
        (i1.a == i0.dst || i1.b == i0.dst)) {
      ThreadedInstr ti;
      ti.c = i0.dst;
      ti.imm = i0.imm;
      ti.dst = i1.dst;
      // The constant operand is folded; `a` is the other one.  When both
      // operands are the constant slot, either choice reads the freshly
      // written constant — keep t = 0.
      if (i1.b == i0.dst) {
        ti.a = i1.a;
        ti.t = 0;  // CMP(regs[a], const)
      } else {
        ti.a = i1.b;
        ti.t = 1;  // CMP(const, regs[a])
      }
      ti.aux = i2.aux;
      emit(pc, top, 3, FuseFamily::ConstCmpJz, ti);
      return true;
    }
    if (i1.op == DecodedOp::AddW && i2.op == DecodedOp::Jmp &&
        (i1.a == i0.dst || i1.b == i0.dst)) {
      ThreadedInstr ti;
      ti.c = i0.dst;
      ti.imm = i0.imm;
      ti.dst = i1.dst;
      ti.a = i1.a;
      ti.b = i1.b;
      ti.aux = i2.aux;
      emit(pc, TOp::ConstAddJmp, 3, FuseFamily::ConstAddJmp, ti);
      return true;
    }
    return false;
  };

  // [Cmp][Jz] and [AddW][Jmp] without a reloaded constant.
  auto try_control2 = [&](std::size_t pc) -> bool {
    if (pc + 1 >= n) return false;
    const DecodedInstr& i0 = d.code[pc];
    const DecodedInstr& i1 = d.code[pc + 1];
    if (const TOp top = cmp_jz_top(i0.op);
        top != TOp::Invalid && i1.op == DecodedOp::Jz && i1.a == i0.dst) {
      ThreadedInstr ti;
      ti.dst = i0.dst;
      ti.a = i0.a;
      ti.b = i0.b;
      ti.aux = i1.aux;
      emit(pc, top, 2, FuseFamily::CmpJz, ti);
      return true;
    }
    if (i0.op == DecodedOp::AddW && i1.op == DecodedOp::Jmp) {
      ThreadedInstr ti;
      ti.dst = i0.dst;
      ti.a = i0.a;
      ti.b = i0.b;
      ti.aux = i1.aux;
      emit(pc, TOp::AddJmp, 2, FuseFamily::AddJmp, ti);
      return true;
    }
    return false;
  };

  // [LoadG][Bin][StoreG]: global read-modify-write with a pre-computed
  // store address (FlatGpu only — bounds checkable before any write).
  auto try_lbs = [&](std::size_t pc) -> bool {
    if (pc + 2 >= n || !flat_global_memory) return false;
    const DecodedInstr& i0 = d.code[pc];
    const DecodedInstr& i1 = d.code[pc + 1];
    const DecodedInstr& i2 = d.code[pc + 2];
    if (i0.op != DecodedOp::LoadG) return false;
    if (const TOp top = load_bin_store_top(i1.op);
        top != TOp::Invalid && i2.op == DecodedOp::StoreG && i2.b == i1.dst &&
        i2.a != i0.dst && i2.a != i1.dst) {
      ThreadedInstr ti;
      ti.a = i0.a;
      ti.c = i0.dst;
      ti.dst = i1.dst;
      ti.b = i2.a;
      ti.aux = static_cast<std::uint32_t>(i1.a) |
               (static_cast<std::uint32_t>(i1.b) << 16);
      emit(pc, top, 3, FuseFamily::LoadBinStore, ti);
      return true;
    }
    return false;
  };

  // Straight-line pairs: reloaded-constant arithmetic and the Hauberk
  // detector tails (accumulator update + checksum fold, duplicated compute
  // + compare, adjacent checksum folds, post-loop range guards).
  auto try_pair = [&](std::size_t pc) -> bool {
    if (pc + 1 >= n) return false;
    const DecodedInstr& i0 = d.code[pc];
    const DecodedInstr& i1 = d.code[pc + 1];
    if (i0.op == DecodedOp::Const) {
      if (const TOp top = const_bin_top(i1.op);
          top != TOp::Invalid && (i1.a == i0.dst || i1.b == i0.dst)) {
        ThreadedInstr ti;
        ti.c = i0.dst;
        ti.imm = i0.imm;
        ti.dst = i1.dst;
        ti.a = i1.a;
        ti.b = i1.b;
        emit(pc, top, 2, FuseFamily::ConstBin, ti);
        return true;
      }
    }
    if (const TOp top = bin_chkxor_top(i0.op);
        top != TOp::Invalid && i1.op == DecodedOp::ChkXor) {
      ThreadedInstr ti;
      ti.dst = i0.dst;
      ti.a = i0.a;
      ti.b = i0.b;
      ti.c = i1.dst;
      ti.d = i1.a;
      emit(pc, top, 2, FuseFamily::BinChkXor, ti);
      return true;
    }
    if (const TOp top = bin_dupcmp_top(i0.op);
        top != TOp::Invalid && i1.op == DecodedOp::DupCmp) {
      ThreadedInstr ti;
      ti.dst = i0.dst;
      ti.a = i0.a;
      ti.b = i0.b;
      ti.c = i1.a;
      ti.d = i1.b;
      emit(pc, top, 2, FuseFamily::BinDupCmp, ti);
      return true;
    }
    if (i0.op == DecodedOp::ChkXor && i1.op == DecodedOp::ChkXor) {
      ThreadedInstr ti;
      ti.dst = i0.dst;
      ti.a = i0.a;
      ti.c = i1.dst;
      ti.d = i1.a;
      emit(pc, TOp::ChkXor2, 2, FuseFamily::ChkXor2, ti);
      return true;
    }
    if (i0.op == DecodedOp::RangeCheck && i1.op == DecodedOp::RangeCheck) {
      ThreadedInstr ti;
      ti.a = i0.a;
      ti.c = i1.a;
      ti.aux = i0.aux;
      ti.imm = i1.aux;
      ti.t = static_cast<std::uint8_t>((i0.t & 0xf) | (i1.t << 4));
      emit(pc, TOp::RangeCheck2, 2, FuseFamily::RangeCheck2, ti);
      return true;
    }
    return false;
  };

  if (!form_runs) {
    // Flat fusion only: every pc independently considered as a head, in the
    // order the pattern lists above document.
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (try_control3(pc) || try_lbs(pc) || try_control2(pc) || try_pair(pc)) continue;
    }
    out.fi_nops = fi_dead_total;
    return out;
  }

  // Run mode.  Control-transfer fusions go first — they terminate straight
  // lines and fold the per-iteration branch — then every remaining maximal
  // straight-line region becomes a run.
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (try_control3(pc)) continue;
    try_control2(pc);
  }

  // Jump-target set from the decoded stream.  Fused heads branch to the
  // same targets their source Jz/Jmp did, so this is complete; a run's
  // interior must contain none of them (naked slots are only reachable by
  // falling through the head's budget check and charge).
  std::vector<bool> is_target(n, false);
  for (const DecodedInstr& in : d.code)
    if ((in.op == DecodedOp::Jmp || in.op == DecodedOp::Jz) && in.aux < n)
      is_target[in.aux] = true;

  // Refund fields for a tile whose LoadG is the source op at `lpos`: the
  // suffix strictly after the load, so T_NK_CRASH bills exactly the prefix
  // up to and including the load (ops the tile executed before the load
  // stay billed, like the reference interpreter's per-op trace).
  auto set_refund = [&](ThreadedInstr& ti, std::size_t lpos, std::size_t e) {
    std::uint32_t sc = 0, sl = 0;
    for (std::size_t i = lpos + 1; i < e; ++i) {
      sc += d.code[i].cost;
      sl += d.code[i].loop_cost;
    }
    ti.cost = sc;
    ti.loop_cost = sl;
    ti.len = static_cast<std::uint8_t>(e - lpos - 1);
  };
  auto pack2 = [](std::uint16_t x, std::uint16_t y) {
    return static_cast<std::uint32_t>(x) | (static_cast<std::uint32_t>(y) << 16);
  };

  // The current run's executed ops, as source positions: all of [s, e) in
  // a Generic stream, without the unarmed FIHooks in a specialized one.
  std::vector<std::size_t> ops;

  // Widest naked tile at executed op `j` of the run ending at `e`.  Head
  // tiles share the RunHead's slot, so they must be crash-free
  // (cost/loop_cost/len carry the region sums) and must not use the d field
  // (the dispatch target).  Returns the tile length (2-3) with `ti` filled,
  // or 0 for no tile.
  auto match_tile = [&](std::size_t j, std::size_t e, bool at_head,
                        ThreadedInstr& ti) -> std::size_t {
    if (j + 1 >= ops.size()) return 0;
    const DecodedInstr& i0 = d.code[ops[j]];
    const DecodedInstr& i1 = d.code[ops[j + 1]];
    // The 3-op addressing idiom: reloaded offset, address arithmetic, load.
    if (!at_head && j + 2 < ops.size() && i0.op == DecodedOp::Const &&
        d.code[ops[j + 2]].op == DecodedOp::LoadG) {
      if (const TOp p = naked_const_bin_load_top(i1.op); p != TOp::Invalid) {
        const DecodedInstr& i2 = d.code[ops[j + 2]];
        ti.op = static_cast<std::uint16_t>(p);
        ti.dst = i0.dst;
        ti.imm = i0.imm;
        ti.c = i1.dst;
        ti.aux = pack2(i1.a, i1.b);
        ti.b = i2.dst;
        ti.a = i2.a;
        set_refund(ti, ops[j + 2], e);
        return 3;
      }
    }
    if (i0.op == DecodedOp::Const) {
      // Unconditional inside runs: the handler is the exact two-op
      // composition whether or not the second op reads the constant.
      if (const TOp p = naked_const_bin_top(i1.op); p != TOp::Invalid) {
        ti.op = static_cast<std::uint16_t>(p);
        ti.c = i0.dst;
        ti.imm = i0.imm;
        ti.dst = i1.dst;
        ti.a = i1.a;
        ti.b = i1.b;
        return 2;
      }
      if (i1.op == DecodedOp::Const) {
        ti.op = static_cast<std::uint16_t>(TOp::NkConst2);
        ti.dst = i0.dst;
        ti.imm = i0.imm;
        ti.c = i1.dst;
        ti.aux = i1.imm;
        return 2;
      }
    }
    if (!at_head) {
      if (const TOp p = naked_bin_chkxor_top(i0.op);
          p != TOp::Invalid && i1.op == DecodedOp::ChkXor) {
        ti.op = static_cast<std::uint16_t>(p);
        ti.dst = i0.dst;
        ti.a = i0.a;
        ti.b = i0.b;
        ti.c = i1.dst;
        ti.d = i1.a;
        return 2;
      }
      if (const TOp p = naked_bin_dupcmp_top(i0.op);
          p != TOp::Invalid && i1.op == DecodedOp::DupCmp) {
        ti.op = static_cast<std::uint16_t>(p);
        ti.dst = i0.dst;
        ti.a = i0.a;
        ti.b = i0.b;
        ti.c = i1.a;
        ti.d = i1.b;
        return 2;
      }
    }
    if (const TOp p = naked_bin_bin_top(i0.op, i1.op); p != TOp::Invalid) {
      ti.op = static_cast<std::uint16_t>(p);
      ti.dst = i0.dst;
      ti.a = i0.a;
      ti.b = i0.b;
      ti.c = i1.dst;
      ti.aux = pack2(i1.a, i1.b);
      return 2;
    }
    if (i1.op == DecodedOp::Const) {
      if (const TOp p = naked_bin_const_top(i0.op); p != TOp::Invalid) {
        ti.op = static_cast<std::uint16_t>(p);
        ti.dst = i0.dst;
        ti.a = i0.a;
        ti.b = i0.b;
        ti.c = i1.dst;
        ti.imm = i1.imm;
        return 2;
      }
    }
    if (!at_head) {
      if (i0.op == DecodedOp::LoadG) {
        if (const TOp p = naked_load_bin_top(i1.op); p != TOp::Invalid) {
          ti.op = static_cast<std::uint16_t>(p);
          ti.dst = i0.dst;
          ti.a = i0.a;
          ti.c = i1.dst;
          ti.aux = pack2(i1.a, i1.b);
          set_refund(ti, ops[j], e);
          return 2;
        }
        if (i1.op == DecodedOp::Const) {
          ti.op = static_cast<std::uint16_t>(TOp::NkLoadConst);
          ti.dst = i0.dst;
          ti.a = i0.a;
          ti.c = i1.dst;
          ti.imm = i1.imm;
          set_refund(ti, ops[j], e);
          return 2;
        }
      }
      if (i1.op == DecodedOp::LoadG) {
        if (const TOp p = naked_bin_load_top(i0.op); p != TOp::Invalid) {
          ti.op = static_cast<std::uint16_t>(p);
          ti.dst = i0.dst;
          ti.a = i0.a;
          ti.b = i0.b;
          ti.c = i1.dst;
          ti.d = i1.a;
          set_refund(ti, ops[j + 1], e);
          return 2;
        }
      }
      if (i0.op == DecodedOp::ChkXor && i1.op == DecodedOp::ChkXor) {
        ti.op = static_cast<std::uint16_t>(TOp::NkChkXor2);
        ti.dst = i0.dst;
        ti.a = i0.a;
        ti.c = i1.dst;
        ti.d = i1.a;
        return 2;
      }
      if (i0.op == DecodedOp::RangeCheck && i1.op == DecodedOp::RangeCheck) {
        ti.op = static_cast<std::uint16_t>(TOp::NkRangeCheck2);
        ti.a = i0.a;
        ti.c = i1.a;
        ti.aux = i0.aux;
        ti.imm = i1.aux;
        ti.t = static_cast<std::uint8_t>((i0.t & 0xf) | (i1.t << 4));
        return 2;
      }
    }
    return 0;
  };

  // The naked form of the op at `pos` inside a run.
  const auto naked_at = [&](std::size_t pos) {
    const DecodedInstr& in = d.code[pos];
    if (fi_armed(in)) return TOp::Nk_FIHookArmed;
    if (fi_dead(in)) return TOp::Nk_Nop;
    return naked_top(in.op);
  };

  auto emit_run = [&](std::size_t s, std::size_t e) {
    const std::size_t len = e - s;
    std::uint32_t cost = 0, loop = 0;
    for (std::size_t i = s; i < e; ++i) {
      cost += d.code[i].cost;
      loop += d.code[i].loop_cost;
    }
    ops.clear();
    for (std::size_t i = s; i < e; ++i)
      if (!fi_dead(d.code[i])) ops.push_back(i);
    // The head op must not crash; if dropping the hooks would put a
    // crashable op (or nothing) first, the leading hook stays as the head.
    if (ops.empty() || can_crash(d.code[ops.front()].op)) ops.insert(ops.begin(), s);
    // Executed op j lives at slot base + j: right-aligned against e.
    const std::size_t base = e - ops.size();
    out.fi_dropped += static_cast<std::uint32_t>(base - s);

    // Head: RunHead dispatching the first tile (or the first op's naked
    // single) through `d`.  The tile's operand fields share the head slot;
    // len/cost/loop_cost carry the region sums.
    ThreadedInstr ht;
    std::size_t hl = match_tile(0, e, /*at_head=*/true, ht);
    ThreadedInstr& h = out.code[s];
    if (hl == 0) {
      hl = 1;
      h = single_of(ops[0]);
      h.d = static_cast<std::uint16_t>(naked_at(ops[0]));
    } else {
      const std::uint16_t tile = ht.op;
      h = ht;
      h.d = tile;
    }
    h.op = static_cast<std::uint16_t>(TOp::RunHead);
    h.len = static_cast<std::uint8_t>(len);
    h.cost = cost;
    h.loop_cost = loop;
    h.skip = static_cast<std::uint16_t>(base - s);
    role[s] = 3;
    for (std::size_t i = s + 1; i < e; ++i) role[i] = 4;

    // Interior: greedy naked tiling, naked singles elsewhere.
    std::size_t j = hl;
    while (j < ops.size()) {
      ThreadedInstr ti;
      if (const std::size_t tl = match_tile(j, e, /*at_head=*/false, ti); tl != 0) {
        out.code[base + j] = ti;
        j += tl;
        continue;
      }
      // Naked single.  Crashable ops repurpose cost/loop_cost/len as the
      // *suffix* charge to refund on crash, so the launch bills exactly the
      // prefix up to and including the crashing op — the reference
      // interpreter's charge-to-crash semantics.
      ThreadedInstr nt = single_of(ops[j]);
      nt.op = static_cast<std::uint16_t>(naked_at(ops[j]));
      if (can_crash(d.code[ops[j]].op)) set_refund(nt, ops[j], e);
      out.code[base + j] = nt;
      ++j;
    }
    ++out.run_heads;
    out.run_covered += static_cast<std::uint32_t>(len);
  };

  // Sanitized plans keep shared accesses as accounted singles: they end
  // runs exactly like control transfers do.
  const auto runnable = [&](DecodedOp op) {
    return naked_top(op) != TOp::Invalid && !(sanitize && shared_access(op));
  };
  std::size_t s = 0;
  while (s < n) {
    if (role[s] != 0 || !runnable(d.code[s].op)) {
      ++s;
      continue;
    }
    std::size_t e = s + 1;
    while (e < n && e - s < 255 && role[e] == 0 && !is_target[e] && runnable(d.code[e].op))
      ++e;
    // Exact-size short segments keep the tighter one-dispatch fused forms.
    if (e - s == 3 && try_lbs(s)) {
      s = e;
      continue;
    }
    if (e - s == 2 && try_pair(s)) {
      s = e;
      continue;
    }
    // The head op must be a non-crashing single (the head slot's
    // cost/loop_cost carry the region sums, leaving no room for refund
    // data); leading crashable ops stay accounted singles.
    std::size_t rs = s;
    while (rs < e && can_crash(d.code[rs].op)) ++rs;
    if (e - rs >= 2) emit_run(rs, e);
    s = e;
  }
  out.fi_nops = fi_dead_total - out.fi_dropped;
  return out;
}

}  // namespace hauberk::kir
