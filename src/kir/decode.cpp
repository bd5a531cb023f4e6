// Predecoding pass: bytecode -> flat type-resolved stream with pre-folded
// cycle costs.  See the DecodedOp commentary in bytecode.hpp for the
// contract; the mapping here must be semantics-preserving with respect to
// the reference interpreter's eval_un/eval_bin dispatch, so any (op, type)
// pair whose bit-level behavior is not *provably* shared falls back to the
// generic entries, which re-dispatch exactly like the reference engine.
#include "kir/bytecode.hpp"

namespace hauberk::kir {

namespace {

constexpr std::uint32_t aux_op(std::uint32_t aux) noexcept { return aux & 0xffffu; }
constexpr DType aux_type(std::uint32_t aux) noexcept {
  return static_cast<DType>((aux >> 16) & 0xffu);
}

DecodedOp decode_un(std::uint32_t aux) noexcept {
  const auto op = static_cast<UnOp>(aux_op(aux));
  const DType t = aux_type(aux);
  if (t == DType::F32) {
    switch (op) {
      case UnOp::Neg: return DecodedOp::NegF;
      case UnOp::LogicalNot: return DecodedOp::NotF;
      case UnOp::BitNot: return DecodedOp::BitNot;
      case UnOp::Sqrt: return DecodedOp::SqrtF;
      case UnOp::Rsqrt: return DecodedOp::RsqrtF;
      case UnOp::Abs: return DecodedOp::AbsF;
      case UnOp::Exp: return DecodedOp::ExpF;
      case UnOp::Log: return DecodedOp::LogF;
      case UnOp::Sin: return DecodedOp::SinF;
      case UnOp::Cos: return DecodedOp::CosF;
      case UnOp::Floor: return DecodedOp::FloorF;
      case UnOp::CastF32: return DecodedOp::CopyA;
      case UnOp::CastI32: return DecodedOp::F2I;
    }
    return DecodedOp::UnGeneric;
  }
  // I32 / PTR source.
  switch (op) {
    case UnOp::Neg: return DecodedOp::NegI;
    case UnOp::LogicalNot: return DecodedOp::NotW;
    case UnOp::BitNot: return DecodedOp::BitNot;
    case UnOp::Abs: return DecodedOp::AbsI;
    case UnOp::CastF32: return t == DType::PTR ? DecodedOp::P2F : DecodedOp::I2F;
    case UnOp::CastI32: return DecodedOp::CopyA;
    default:
      // Transcendentals on integers: the reference engine promotes through
      // a recursive eval_un call; keep that exact path.
      return DecodedOp::UnGeneric;
  }
}

DecodedOp decode_bin(std::uint32_t aux) noexcept {
  const auto op = static_cast<BinOp>(aux_op(aux));
  const DType t = aux_type(aux);
  if (t == DType::F32) {
    switch (op) {
      case BinOp::Add: return DecodedOp::AddF;
      case BinOp::Sub: return DecodedOp::SubF;
      case BinOp::Mul: return DecodedOp::MulF;
      case BinOp::Div: return DecodedOp::DivF;
      case BinOp::Min: return DecodedOp::MinF;
      case BinOp::Max: return DecodedOp::MaxF;
      case BinOp::Lt: return DecodedOp::LtF;
      case BinOp::Le: return DecodedOp::LeF;
      case BinOp::Gt: return DecodedOp::GtF;
      case BinOp::Ge: return DecodedOp::GeF;
      case BinOp::Eq: return DecodedOp::EqF;
      case BinOp::Ne: return DecodedOp::NeF;
      // Bit ops on f32 operate on raw bits in every type branch.
      case BinOp::BitAnd: return DecodedOp::AndB;
      case BinOp::BitOr: return DecodedOp::OrB;
      case BinOp::BitXor: return DecodedOp::XorB;
      case BinOp::Shl: return DecodedOp::ShlB;
      case BinOp::Shr: return DecodedOp::ShrL;
      // fmod and float logical and/or are rare: generic fallback.
      case BinOp::Mod:
      case BinOp::LogicalAnd:
      case BinOp::LogicalOr:
        return DecodedOp::BinGeneric;
    }
    return DecodedOp::BinGeneric;
  }
  const bool sign = t != DType::PTR;  // I32 semantics vs unsigned word
  switch (op) {
    // Add/Sub/Mul truncate to the low 32 bits, so the signed (64-bit
    // intermediate) and unsigned evaluations produce identical words.
    case BinOp::Add: return DecodedOp::AddW;
    case BinOp::Sub: return DecodedOp::SubW;
    case BinOp::Mul: return DecodedOp::MulW;
    case BinOp::Div: return sign ? DecodedOp::DivI : DecodedOp::DivU;
    case BinOp::Mod: return sign ? DecodedOp::ModI : DecodedOp::ModU;
    case BinOp::Min: return sign ? DecodedOp::MinI : DecodedOp::MinU;
    case BinOp::Max: return sign ? DecodedOp::MaxI : DecodedOp::MaxU;
    case BinOp::Lt: return sign ? DecodedOp::LtI : DecodedOp::LtU;
    case BinOp::Le: return sign ? DecodedOp::LeI : DecodedOp::LeU;
    case BinOp::Gt: return sign ? DecodedOp::GtI : DecodedOp::GtU;
    case BinOp::Ge: return sign ? DecodedOp::GeI : DecodedOp::GeU;
    case BinOp::Eq: return DecodedOp::EqW;
    case BinOp::Ne: return DecodedOp::NeW;
    case BinOp::BitAnd: return DecodedOp::AndB;
    case BinOp::BitOr: return DecodedOp::OrB;
    case BinOp::BitXor: return DecodedOp::XorB;
    case BinOp::Shl: return DecodedOp::ShlB;
    case BinOp::Shr: return sign ? DecodedOp::ShrA : DecodedOp::ShrL;
    // Logical and/or test the word against zero in both integer branches.
    case BinOp::LogicalAnd: return DecodedOp::LAndW;
    case BinOp::LogicalOr: return DecodedOp::LOrW;
  }
  return DecodedOp::BinGeneric;
}

}  // namespace

DecodedProgram decode_program(const BytecodeProgram& p,
                              std::span<const std::uint32_t> costs) {
  DecodedProgram d;
  d.code.resize(p.code.size());
  d.sanitizer_sites.assign(p.code.size(), kNoSite);
  for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
    switch (p.code[pc].op) {
      case OpCode::Barrier:
        ++d.num_barrier_sites;
        [[fallthrough]];
      case OpCode::LoadS:
      case OpCode::StoreS:
        d.sanitizer_sites[pc] = d.num_sites++;
        break;
      default:
        break;
    }
  }
  for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
    const Instr& in = p.code[pc];
    DecodedInstr& out = d.code[pc];
    out.dst = in.dst;
    out.a = in.a;
    out.b = in.b;
    out.aux = in.aux;
    out.imm = in.imm;
    out.cost = pc < costs.size() ? costs[pc] : 0;
    out.loop_cost = (in.flags & kInstrInLoop) ? out.cost : 0;
    switch (in.op) {
      case OpCode::Nop: out.op = DecodedOp::Nop; break;
      case OpCode::Const: out.op = DecodedOp::Const; break;
      case OpCode::Mov: out.op = DecodedOp::Mov; break;
      case OpCode::Builtin: out.op = DecodedOp::Builtin; break;
      case OpCode::Un: out.op = decode_un(in.aux); break;
      case OpCode::Bin: out.op = decode_bin(in.aux); break;
      case OpCode::Select: out.op = DecodedOp::Select; break;
      case OpCode::LoadG: out.op = DecodedOp::LoadG; break;
      case OpCode::StoreG: out.op = DecodedOp::StoreG; break;
      case OpCode::LoadS: out.op = DecodedOp::LoadS; break;
      case OpCode::StoreS: out.op = DecodedOp::StoreS; break;
      case OpCode::AtomicAddG:
        out.op = aux_type(in.aux) == DType::F32 ? DecodedOp::AtomicAddF
                                                : DecodedOp::AtomicAddI;
        break;
      case OpCode::Jmp: out.op = DecodedOp::Jmp; break;
      case OpCode::Jz: out.op = DecodedOp::Jz; break;
      case OpCode::Barrier: out.op = DecodedOp::Barrier; break;
      case OpCode::Halt: out.op = DecodedOp::Halt; break;
      case OpCode::ChkXor: out.op = DecodedOp::ChkXor; break;
      case OpCode::ChkValidate: out.op = DecodedOp::ChkValidate; break;
      case OpCode::DupCmp: out.op = DecodedOp::DupCmp; break;
      case OpCode::RangeCheck:
      case OpCode::ProfileVal:
        out.op = in.op == OpCode::RangeCheck ? DecodedOp::RangeCheck
                                             : DecodedOp::ProfileVal;
        // Pre-resolve the detector's value type; an out-of-range detector
        // index (possible only in structurally invalid code-fault mutants,
        // which validate_program rejects before execution) defaults to F32.
        out.t = static_cast<std::uint8_t>(
            in.aux < p.detectors.size() ? p.detectors[in.aux].value_type : DType::F32);
        break;
      case OpCode::EqualCheck: out.op = DecodedOp::EqualCheck; break;
      case OpCode::CountExec: out.op = DecodedOp::CountExec; break;
      case OpCode::FIHook: out.op = DecodedOp::FIHook; break;
      default: out.op = DecodedOp::Invalid; break;
    }
  }
  return d;
}

}  // namespace hauberk::kir
