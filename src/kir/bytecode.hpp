// Register-slot bytecode: the compiled form of a kernel.
//
// The AST is what the Hauberk translator instruments (its "source code");
// the bytecode is what the simulated GPU executes (its "SASS").  Lowering
// assigns every kernel parameter and virtual variable a fixed register slot
// and compiles expressions into temporaries above them.  The slot count is
// the kernel's register demand: when it exceeds the device's registers per
// thread, the highest slots are modeled as spilled to memory (Section V.A's
// register-pressure discussion; this is what makes naive duplication and the
// Hauberk-NL pass measurably more expensive in register-tight kernels).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kir/ast.hpp"

namespace hauberk::kir {

enum class OpCode : std::uint8_t {
  Nop = 0,
  Const,        ///< dst <- imm
  Mov,          ///< dst <- a
  Builtin,      ///< dst <- builtin(aux)
  Un,           ///< dst <- unop(aux) a
  Bin,          ///< dst <- binop(aux) a, b
  Select,       ///< dst <- a ? b : c(imm slot)
  LoadG,        ///< dst <- global[a]
  StoreG,       ///< global[a] <- b
  LoadS,        ///< dst <- shared[a]
  StoreS,       ///< shared[a] <- b
  AtomicAddG,   ///< global[a] += b (atomic)
  Jmp,          ///< pc <- aux
  Jz,           ///< if (a == 0) pc <- aux
  Barrier,      ///< __syncthreads
  Halt,         ///< end of kernel

  // Hauberk runtime library calls (FT):
  ChkXor,       ///< checksum ^= bits(a)
  ChkValidate,  ///< if (checksum != 0) cb->sdc = true
  DupCmp,       ///< if (bits(a) != bits(b)) cb->sdc = true
  RangeCheck,   ///< HauberkCheckRange(cb, det=aux, value=a)
  EqualCheck,   ///< HauberkCheckEqual(cb, det=aux, a, b)

  // Hauberk profiler library calls:
  ProfileVal,   ///< record sample(det=aux, value=a)
  CountExec,    ///< bump execution count of site aux

  // Hauberk fault injection library call:
  FIHook,       ///< maybe corrupt slot a according to the injection plan (site aux)
};

/// Instruction flag bits.
enum : std::uint8_t {
  kInstrInLoop = 1u << 0,      ///< executes inside a source-level loop
  kInstrScatter = 1u << 1,     ///< added by R-Scatter duplication (cost-modeled separately)
  kInstrHauberkDup = 1u << 2,  ///< Hauberk non-loop duplicate: fills ILP slack of the
                               ///< latency-bound sequential code it shadows
  kInstrDetectorAux = 1u << 3, ///< loop-detector bookkeeping (accumulator/counter adds,
                               ///< post-loop guards) inserted by the translator
};

struct Instr {
  OpCode op = OpCode::Nop;
  std::uint8_t flags = 0;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t aux = 0;  ///< op-specific: UnOp/BinOp/BuiltinVal/jump target/detector/site
  std::uint32_t imm = 0;  ///< Const bits; Select else-slot
};

/// Fault-injection site metadata (one per FIHook, Fig. 12: identifier,
/// pointer to state, data type, and hardware components used).
struct FISite {
  std::uint32_t site_id = 0;
  VarId var = kInvalidVar;
  std::uint16_t slot = 0;
  DType type = DType::I32;
  HwComponent hw = HwComponent::ALU;
  bool in_loop = false;
  /// Late-window hook: placed after the variable's last use, modeling the
  /// paper's time-random injections that land after the value is dead.
  bool dead_window = false;
  std::string var_name;
};

/// Metadata for a loop/range detector (accumulator value check or iteration
/// count check) referenced by RangeCheck/EqualCheck/ProfileVal `aux`.
struct DetectorMeta {
  int id = -1;
  std::string name;       ///< protected variable name
  DType value_type = DType::F32;
  bool is_iteration_check = false;
};

struct BytecodeProgram {
  std::string name;
  std::vector<Instr> code;
  std::vector<DType> slot_types;   ///< static type of every register slot
  std::uint16_t num_params = 0;    ///< params occupy slots [0, num_params)
  std::uint16_t num_named = 0;     ///< named vars occupy [num_params, num_params+num_named)
  std::uint16_t num_slots = 0;     ///< total including temporaries
  std::vector<std::uint16_t> var_slot;  ///< VarId -> slot
  std::vector<FISite> fi_sites;
  std::vector<DetectorMeta> detectors;
  std::uint32_t shared_mem_words = 0;

  /// Provenance side table, 1:1 with `code`: the pre-order ordinal of the
  /// originating *non-internal* source statement (counting only non-internal
  /// statements), or -1 for instructions the instrumentation inserted.
  /// Because instrumentation only ever inserts whole statements, ordinal k
  /// names the same source statement in a baseline and an instrumented
  /// lowering of one kernel — the anchor the static cycle estimator uses to
  /// transfer measured execution counts between builds.  A side table only:
  /// never read by the engines and excluded from program_digest.
  std::vector<std::int32_t> stmt_origin;

  /// Register demand reported to the launch engine; slots at or above the
  /// device's register budget are modeled as spilled.
  [[nodiscard]] std::uint16_t register_demand() const noexcept { return num_slots; }
};

/// Compile a kernel AST to bytecode.  Throws std::runtime_error on malformed
/// kernels (e.g. unsupported statement nesting).
BytecodeProgram lower(const Kernel& kernel);

/// Disassemble for debugging/tests.
std::string disassemble(const BytecodeProgram& p);

/// Order-sensitive FNV-1a digest over every semantically meaningful field of
/// a program: code, slot layout, FI sites and detector tables.  Two programs
/// digest equal iff the simulated GPU cannot distinguish them; the golden
/// translator-equivalence suite and the printer round-trip tests pin on it.
[[nodiscard]] std::uint64_t program_digest(const BytecodeProgram& p) noexcept;

// ---------------------------------------------------------------------------
// Predecoded execution form
// ---------------------------------------------------------------------------
//
// The interpreter's reference engine re-derives everything per executed
// instruction: it switches on OpCode, unpacks the operator and operand type
// from `aux`, branches on the flag byte for loop attribution, and indexes a
// separate cost vector.  A SWIFI campaign executes the same few hundred
// instructions billions of times, so the threaded-code compiler
// (kir/threaded.hpp) instead starts from this predecoded stream, where all
// of that is resolved once per program:
//
//  * `DecodedOp` is a flat opcode with the operator *and* operand type folded
//    in (`Bin(aux=Add,F32)` becomes `AddF`); combinations whose bit-level
//    semantics coincide share one entry (e.g. i32/ptr add both wrap mod 2^32
//    and decode to `AddW`), and anything rare falls back to `UnGeneric` /
//    `BinGeneric`, which re-dispatch exactly like the reference engine.
//  * the per-execution cycle cost (including spill surcharge and duplication
//    discounts) and its loop-attributed share are pre-folded into each
//    instruction, so the hot loop charges both with unconditional adds.
//  * detector operand types (RangeCheck/ProfileVal) are pre-resolved from
//    DetectorMeta into the `t` byte.
//
// The stream is position-stable: decoded[pc] corresponds to code[pc], so
// jump targets, execution-count profiles, and SIMT cost vectors carry over
// unchanged, and a mid-kernel crash happens at the same pc with the same
// partial side effects as the reference engine.
enum class DecodedOp : std::uint8_t {
  Nop = 0,
  Const,     ///< dst <- imm
  Mov,       ///< dst <- a
  Builtin,   ///< dst <- builtin(aux)
  Select,    ///< dst <- a ? b : slot(imm)

  // Unary, type-resolved.
  NegF, NegI, NotF, NotW, BitNot, AbsF, AbsI,
  SqrtF, RsqrtF, ExpF, LogF, SinF, CosF, FloorF,
  I2F,       ///< CastF32 of a signed i32
  P2F,       ///< CastF32 of an unsigned ptr word
  F2I,       ///< CastI32 of an f32 (saturating, NaN -> 0)
  CopyA,     ///< identity cast: dst <- a
  UnGeneric, ///< anything else: unpack aux, call the reference evaluator

  // Binary, type-resolved.  W = bitwise-identical for i32 and ptr.
  AddF, SubF, MulF, DivF, MinF, MaxF,
  LtF, LeF, GtF, GeF, EqF, NeF,
  AddW, SubW, MulW,
  DivI, ModI, DivU, ModU,
  MinI, MaxI, MinU, MaxU,
  LtI, LeI, GtI, GeI,
  LtU, LeU, GtU, GeU,
  EqW, NeW,
  AndB, OrB, XorB, ShlB, ShrL, ShrA,
  LAndW, LOrW,
  BinGeneric,

  // Memory.
  LoadG, StoreG, LoadS, StoreS,
  AtomicAddF, AtomicAddI,

  // Control.
  Jmp, Jz, Barrier, Halt,

  // Hauberk runtime / profiler / FI library calls.
  ChkXor, ChkValidate, DupCmp, RangeCheck, EqualCheck,
  ProfileVal, CountExec, FIHook,

  Invalid,   ///< undecodable encoding (code-segment fault)
};

/// One predecoded instruction (24 bytes).  `cost`/`loop_cost` are the
/// pre-folded cycle charges; `t` is the detector value type RangeCheck and
/// ProfileVal hand to their hooks.
struct DecodedInstr {
  DecodedOp op = DecodedOp::Invalid;
  std::uint8_t t = 0;      ///< static_cast<DType>: detector value type
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t aux = 0;   ///< jump target / builtin / detector / site / packed op
  std::uint32_t imm = 0;   ///< Const bits; Select else-slot
  std::uint32_t cost = 0;      ///< cycles charged per execution
  std::uint32_t loop_cost = 0; ///< == cost when the source line is in a loop, else 0
};

/// Marker for instructions that are not sanitizer sites.
inline constexpr std::uint32_t kNoSite = 0xffffffffu;

struct DecodedProgram {
  std::vector<DecodedInstr> code;  ///< 1:1 with BytecodeProgram::code

  /// Per-instruction sanitizer site ids, 1:1 with `code`: every Barrier,
  /// LoadS and StoreS instruction gets a dense ordinal (assigned in pc
  /// order), everything else holds kNoSite.  Site ids give sanitizer
  /// reports and the barrier-deadlock diagnostic a stable, program-relative
  /// identity that survives recompilation of unrelated code (unlike raw
  /// pcs, which shift whenever instrumentation is added upstream).
  std::vector<std::uint32_t> sanitizer_sites;
  std::uint32_t num_sites = 0;          ///< total dense site ids assigned
  std::uint32_t num_barrier_sites = 0;  ///< how many of them are barriers

  [[nodiscard]] std::uint32_t site_of(std::uint32_t pc) const noexcept {
    return pc < sanitizer_sites.size() ? sanitizer_sites[pc] : kNoSite;
  }
};

/// Predecode `p` against a per-instruction cost vector (one entry per
/// instruction, as produced by the device's launch-plan analysis).  Never
/// fails: undecodable encodings become DecodedOp::Invalid, which the threaded
/// engine reports as a code-segment crash exactly like the reference
/// engine's default case.
DecodedProgram decode_program(const BytecodeProgram& p,
                              std::span<const std::uint32_t> costs);

}  // namespace hauberk::kir
