#include "kir/defuse.hpp"

#include <algorithm>
#include <cstddef>

#include "common/fnv.hpp"

namespace hauberk::kir {
namespace {

using common::fnv_mix;
using common::kFnvStandardBasis;

constexpr std::uint32_t kAllBits = 0xffffffffu;

/// Every bit at or below any set bit of m (carry propagation goes upward,
/// so observing result bit i observes operand bits 0..i).
std::uint32_t fill_down(std::uint32_t m) {
  m |= m >> 1u; m |= m >> 2u; m |= m >> 4u; m |= m >> 8u; m |= m >> 16u;
  return m;
}

/// Every bit at or above any set bit of m.
std::uint32_t fill_up(std::uint32_t m) {
  m |= m << 1u; m |= m << 2u; m |= m << 4u; m |= m << 8u; m |= m << 16u;
  return m;
}

bool is_f32(const ExprPtr& e) { return e && e->type == DType::F32; }

bool const_shift(const ExprPtr& e, std::uint32_t& amount) {
  if (!e || e->kind != ExprKind::Const) return false;
  amount = e->constant.bits & 31u;
  return true;
}

/// Structural hash of an expression with variable/parameter identities and
/// constant values erased; used for cone signatures so symmetric register
/// lanes (same computation over different inputs/offsets) hash equal.
std::uint64_t expr_shape(const ExprPtr& e) {
  if (!e) return 0x9e3779b97f4a7c15ull;
  std::uint64_t h = kFnvStandardBasis;
  h = fnv_mix(h, static_cast<std::uint64_t>(e->kind));
  h = fnv_mix(h, static_cast<std::uint64_t>(e->type));
  switch (e->kind) {
    case ExprKind::Const:
    case ExprKind::VarRef:
    case ExprKind::ParamRef:
      break;  // identity/value erased
    case ExprKind::Builtin:
      h = fnv_mix(h, static_cast<std::uint64_t>(e->builtin));
      break;
    case ExprKind::Unary:
      h = fnv_mix(h, static_cast<std::uint64_t>(e->un));
      break;
    case ExprKind::Binary:
      h = fnv_mix(h, static_cast<std::uint64_t>(e->bin));
      break;
    default:
      break;
  }
  if (e->a) h = fnv_mix(h, expr_shape(e->a));
  if (e->b) h = fnv_mix(h, expr_shape(e->b));
  if (e->c) h = fnv_mix(h, expr_shape(e->c));
  return h;
}

/// Bit positions in a small bitmask describing which observable roots a
/// variable's value reaches *directly* (folded into cone signatures).
enum RootUse : std::uint32_t {
  kRootStoreValue = 1u << 0,
  kRootAddress = 1u << 1,
  kRootCondition = 1u << 2,
  kRootLoopBound = 1u << 3,
  kRootDetector = 1u << 4,
  kRootAtomic = 1u << 5,
};

struct Builder {
  const Kernel& k;
  std::vector<VarDefUse>& vars;

  // Pass-local scratch -----------------------------------------------------
  bool changed = false;           // fixpoint dirty flag (observed + divergence)
  bool det_only = false;          // second fixpoint: detector roots only
  std::vector<std::uint32_t> root_use;           // RootUse mask per var
  std::vector<std::vector<VarId>> deps;          // def of v reads deps[v]
  std::vector<std::uint64_t> local_shape;        // per-var def shape hash
  std::vector<std::size_t> first_def_ord, first_use_ord;
  std::size_t ord = 0;            // statement pre-order counter

  explicit Builder(const Kernel& kernel, std::vector<VarDefUse>& out)
      : k(kernel), vars(out) {
    const std::size_t n = k.vars.size();
    vars.assign(n, VarDefUse{});
    for (std::size_t i = 0; i < n; ++i) vars[i].var = static_cast<VarId>(i);
    root_use.assign(n, 0);
    deps.assign(n, {});
    local_shape.assign(n, kFnvStandardBasis);
    first_def_ord.assign(n, static_cast<std::size_t>(-1));
    first_use_ord.assign(n, static_cast<std::size_t>(-1));
  }

  // --- structural pre-pass: defs/uses, deps, shapes, pre-order facts ------

  void note_def(VarId v, std::uint64_t shape_tag, const ExprPtr& reads_a,
                const ExprPtr& reads_b = nullptr, const ExprPtr& reads_c = nullptr) {
    if (v == kInvalidVar || v >= vars.size()) return;
    ++vars[v].defs;
    first_def_ord[v] = std::min(first_def_ord[v], ord);
    std::uint64_t h = fnv_mix(local_shape[v], shape_tag);
    std::vector<VarId> r;
    for (const ExprPtr* e : {&reads_a, &reads_b, &reads_c}) {
      if (*e) {
        h = fnv_mix(h, expr_shape(*e));
        collect_reads(*e, r);
      }
    }
    local_shape[v] = h;
    auto& d = deps[v];
    for (VarId u : r)
      if (std::find(d.begin(), d.end(), u) == d.end()) d.push_back(u);
  }

  void collect_reads(const ExprPtr& e, std::vector<VarId>& out) {
    if (!e) return;
    if (e->kind == ExprKind::VarRef && e->var < vars.size()) out.push_back(e->var);
    collect_reads(e->a, out);
    collect_reads(e->b, out);
    collect_reads(e->c, out);
  }

  void structure_stmt(const StmtPtr& s) {
    ++ord;
    switch (s->kind) {
      case StmtKind::Let:
      case StmtKind::Assign:
        note_def(s->var, static_cast<std::uint64_t>(s->kind), s->value);
        mark_uses(s->value, 0);
        break;
      case StmtKind::StoreGlobal:
      case StmtKind::StoreShared:
        mark_uses(s->addr, kRootAddress);
        mark_uses(s->value, kRootStoreValue);
        break;
      case StmtKind::AtomicAddGlobal:
        mark_uses(s->addr, kRootAddress);
        mark_uses(s->value, kRootAtomic);
        break;
      case StmtKind::For:
        note_def(s->var, 0x464f52ull, s->init, s->limit, s->step);
        mark_uses(s->init, kRootLoopBound);
        mark_uses(s->limit, kRootLoopBound);
        mark_uses(s->step, kRootLoopBound);
        if (s->var < vars.size()) root_use[s->var] |= kRootLoopBound;
        structure_body(s->body);
        break;
      case StmtKind::While:
        mark_uses(s->value, kRootCondition);
        structure_body(s->body);
        break;
      case StmtKind::If:
        mark_uses(s->value, kRootCondition);
        structure_body(s->body);
        structure_body(s->else_body);
        break;
      case StmtKind::ChecksumXor:
      case StmtKind::ChecksumValidate:
      case StmtKind::RangeCheck:
      case StmtKind::EqualCheck:
      case StmtKind::ProfileValue:
        mark_uses(s->value, kRootDetector);
        mark_uses(s->rhs, kRootDetector);
        break;
      case StmtKind::DupCheck:
        mark_uses(s->value, kRootDetector);
        if (s->var < vars.size()) {
          ++vars[s->var].uses;
          first_use_ord[s->var] = std::min(first_use_ord[s->var], ord);
          root_use[s->var] |= kRootDetector;
        }
        break;
      default:
        break;  // Barrier, CountExec, FIHook: no reads, no defs
    }
  }

  /// Count uses in `e`; direct VarRefs get `root`, address operands of any
  /// nested load get kRootAddress.
  void mark_uses(const ExprPtr& e, std::uint32_t root) {
    if (!e) return;
    if (e->kind == ExprKind::VarRef && e->var < vars.size()) {
      ++vars[e->var].uses;
      first_use_ord[e->var] = std::min(first_use_ord[e->var], ord);
      root_use[e->var] |= root;
      return;
    }
    if (e->kind == ExprKind::LoadGlobal || e->kind == ExprKind::LoadShared) {
      mark_uses(e->a, kRootAddress);
      return;
    }
    mark_uses(e->a, root);
    mark_uses(e->b, root);
    mark_uses(e->c, root);
  }

  void structure_body(const StmtList& body) {
    for (const StmtPtr& s : body) structure_stmt(s);
  }

  // --- observed-bits + divergence fixpoint --------------------------------

  void observe_var(VarId v, std::uint32_t m) {
    if (v == kInvalidVar || v >= vars.size() || m == 0) return;
    std::uint32_t& cur = det_only ? vars[v].detector_observed_mask : vars[v].observed_mask;
    if ((cur | m) != cur) { cur |= m; changed = true; }
  }

  void observe(const ExprPtr& e, std::uint32_t m) {
    if (!e || m == 0) return;
    switch (e->kind) {
      case ExprKind::Const:
      case ExprKind::ParamRef:
      case ExprKind::Builtin:
        return;
      case ExprKind::VarRef:
        observe_var(e->var, m);
        return;
      case ExprKind::LoadGlobal:
      case ExprKind::LoadShared:
        observe(e->a, kAllBits);  // every address bit selects a word
        return;
      case ExprKind::Unary:
        if (is_f32(e) || is_f32(e->a)) { observe(e->a, kAllBits); return; }
        switch (e->un) {
          case UnOp::BitNot: observe(e->a, m); return;
          case UnOp::Neg: observe(e->a, fill_down(m)); return;
          default: observe(e->a, kAllBits); return;
        }
      case ExprKind::Binary:
        observe_binary(e, m);
        return;
      case ExprKind::Select:
        observe(e->a, kAllBits);
        observe(e->b, m);
        observe(e->c, m);
        return;
    }
  }

  void observe_binary(const ExprPtr& e, std::uint32_t m) {
    if (is_f32(e) || is_f32(e->a) || is_f32(e->b)) {
      observe(e->a, kAllBits);
      observe(e->b, kAllBits);
      return;
    }
    std::uint32_t sh = 0;
    switch (e->bin) {
      case BinOp::BitAnd:
        if (e->b->kind == ExprKind::Const) { observe(e->a, m & e->b->constant.bits); return; }
        if (e->a->kind == ExprKind::Const) { observe(e->b, m & e->a->constant.bits); return; }
        observe(e->a, m); observe(e->b, m);
        return;
      case BinOp::BitOr:
        if (e->b->kind == ExprKind::Const) { observe(e->a, m & ~e->b->constant.bits); return; }
        if (e->a->kind == ExprKind::Const) { observe(e->b, m & ~e->a->constant.bits); return; }
        observe(e->a, m); observe(e->b, m);
        return;
      case BinOp::BitXor:
        observe(e->a, m); observe(e->b, m);
        return;
      case BinOp::Shl:
        if (const_shift(e->b, sh)) { observe(e->a, m >> sh); return; }
        observe(e->a, fill_down(m));
        observe(e->b, 31u);  // engines shift by (b & 31)
        return;
      case BinOp::Shr:
        // Conservatively assume arithmetic shift: the sign bit replicates
        // into every result bit at or above (31 - amount).
        if (const_shift(e->b, sh)) {
          std::uint32_t om = m << sh;
          if (sh != 0 && (m >> (31u - sh)) != 0) om |= 0x80000000u;
          observe(e->a, om);
          return;
        }
        observe(e->a, fill_up(m) | 0x80000000u);
        observe(e->b, 31u);
        return;
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::Mul:
        observe(e->a, fill_down(m));
        observe(e->b, fill_down(m));
        return;
      default:
        // Div/Mod/Min/Max, comparisons, logical ops: any operand bit can
        // influence the result.
        observe(e->a, kAllBits);
        observe(e->b, kAllBits);
        return;
    }
  }

  bool expr_divergent(const ExprPtr& e) const {
    if (!e) return false;
    switch (e->kind) {
      case ExprKind::Const:
      case ExprKind::ParamRef:
        return false;
      case ExprKind::Builtin:
        switch (e->builtin) {
          case BuiltinVal::BlockDimX: case BuiltinVal::BlockDimY:
          case BuiltinVal::GridDimX: case BuiltinVal::GridDimY:
            return false;
          default:
            return true;  // thread/block indices differ per (global) thread
        }
      case ExprKind::VarRef:
        return e->var < vars.size() && vars[e->var].divergent;
      case ExprKind::LoadGlobal:
      case ExprKind::LoadShared:
        return true;  // memory contents may be thread-dependent
      default:
        return expr_divergent(e->a) || expr_divergent(e->b) || expr_divergent(e->c);
    }
  }

  void taint_def(VarId v, bool div) {
    if (v == kInvalidVar || v >= vars.size() || !div) return;
    if (!vars[v].divergent) { vars[v].divergent = true; changed = true; }
  }

  /// Observation strength of non-detector roots: in the detector-only pass
  /// they observe nothing (a post-last-use flip can no longer reach them).
  [[nodiscard]] std::uint32_t root_bits() const { return det_only ? 0u : kAllBits; }

  void flow_stmt(const StmtPtr& s, bool ctx_div) {
    switch (s->kind) {
      case StmtKind::Let:
      case StmtKind::Assign:
        observe(s->value,
                s->var >= vars.size() ? kAllBits
                : det_only            ? vars[s->var].detector_observed_mask
                                      : vars[s->var].observed_mask);
        taint_def(s->var, ctx_div || expr_divergent(s->value));
        break;
      case StmtKind::StoreGlobal:
      case StmtKind::StoreShared:
      case StmtKind::AtomicAddGlobal:
        observe(s->addr, root_bits());
        observe(s->value, root_bits());
        break;
      case StmtKind::For: {
        observe(s->init, root_bits());
        observe(s->limit, root_bits());
        observe(s->step, root_bits());
        observe_var(s->var, root_bits());  // iterator steers the trip count
        const bool div = ctx_div || expr_divergent(s->init) ||
                         expr_divergent(s->limit) || expr_divergent(s->step);
        taint_def(s->var, div);
        for (const StmtPtr& b : s->body) flow_stmt(b, div);
        break;
      }
      case StmtKind::While: {
        observe(s->value, root_bits());
        const bool div = ctx_div || expr_divergent(s->value);
        for (const StmtPtr& b : s->body) flow_stmt(b, div);
        break;
      }
      case StmtKind::If: {
        observe(s->value, root_bits());
        const bool div = ctx_div || expr_divergent(s->value);
        for (const StmtPtr& b : s->body) flow_stmt(b, div);
        for (const StmtPtr& b : s->else_body) flow_stmt(b, div);
        break;
      }
      case StmtKind::DupCheck:
        observe(s->value, kAllBits);
        observe_var(s->var, kAllBits);  // compared against the recomputation
        break;
      case StmtKind::ChecksumXor:
      case StmtKind::ChecksumValidate:
      case StmtKind::RangeCheck:
      case StmtKind::EqualCheck:
      case StmtKind::ProfileValue:
        observe(s->value, kAllBits);
        observe(s->rhs, kAllBits);
        break;
      default:
        break;  // Barrier, CountExec, FIHook
    }
  }

  // --- derived closures ---------------------------------------------------

  /// Backward closure: start from vars with any root in `mask`, pull in the
  /// vars their definitions read, and set `flag`.
  template <typename Setter>
  void backward_closure(std::uint32_t mask, Setter set) {
    std::vector<char> in(vars.size(), 0);
    std::vector<VarId> work;
    for (std::size_t v = 0; v < vars.size(); ++v)
      if ((root_use[v] & mask) != 0) { in[v] = 1; work.push_back(static_cast<VarId>(v)); }
    while (!work.empty()) {
      const VarId v = work.back();
      work.pop_back();
      set(vars[v]);
      for (VarId u : deps[v])
        if (!in[u]) { in[u] = 1; work.push_back(u); }
    }
  }

  void detect_loop_carried(const StmtList& body, int loop_depth) {
    for (const StmtPtr& s : body) {
      const bool looped = loop_depth > 0 || s->kind == StmtKind::For || s->kind == StmtKind::While;
      if ((s->kind == StmtKind::Let || s->kind == StmtKind::Assign) && loop_depth > 0 &&
          s->var < vars.size()) {
        // v is loop-carried when its in-loop definition transitively reads v.
        std::vector<char> seen(vars.size(), 0);
        std::vector<VarId> work;
        collect_reads(s->value, work);
        bool self = false;
        while (!work.empty() && !self) {
          const VarId u = work.back();
          work.pop_back();
          if (seen[u]) continue;
          seen[u] = 1;
          if (u == s->var) { self = true; break; }
          for (VarId d : deps[u]) work.push_back(d);
        }
        if (self) vars[s->var].loop_carried = true;
      }
      detect_loop_carried(s->body, looped ? loop_depth + 1 : loop_depth);
      detect_loop_carried(s->else_body, looped ? loop_depth + 1 : loop_depth);
      (void)looped;
    }
  }

  void cone_signatures() {
    // Reverse def-use edges: consumers[v] = vars whose definitions read v.
    std::vector<std::vector<VarId>> consumers(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v)
      for (VarId u : deps[v]) consumers[u].push_back(static_cast<VarId>(v));

    // Weisfeiler–Lehman style iterated refinement: each round folds the
    // sorted signatures of a variable's consumers into its own, so after K
    // rounds the signature covers the depth-K forward propagation cone.
    std::vector<std::uint64_t> sig(vars.size()), next(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v)
      sig[v] = fnv_mix(fnv_mix(local_shape[v], root_use[v]),
                       static_cast<std::uint64_t>(k.vars[v].type));
    constexpr int kRounds = 8;
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t v = 0; v < vars.size(); ++v) {
        std::vector<std::uint64_t> cs;
        cs.reserve(consumers[v].size());
        for (VarId c : consumers[v]) cs.push_back(sig[c]);
        std::sort(cs.begin(), cs.end());
        std::uint64_t h = fnv_mix(sig[v], 0x57ull);
        for (std::uint64_t c : cs) h = fnv_mix(h, c);
        next[v] = h;
      }
      sig.swap(next);
    }
    for (std::size_t v = 0; v < vars.size(); ++v) vars[v].cone_sig = sig[v];
  }

  int run() {
    structure_body(k.body);
    int rounds = 0;
    do {
      changed = false;
      for (const StmtPtr& s : k.body) flow_stmt(s, false);
      ++rounds;
    } while (changed && rounds < 64);
    // Second fixpoint, seeded by detector roots only: what can a late
    // (post-last-use) flip still reach?  Divergence is already converged, so
    // only the detector_observed_mask lattice moves here.
    det_only = true;
    int det_rounds = 0;
    do {
      changed = false;
      for (const StmtPtr& s : k.body) flow_stmt(s, false);
      ++det_rounds;
    } while (changed && det_rounds < 64);
    det_only = false;
    backward_closure(kRootCondition | kRootLoopBound,
                     [](VarDefUse& f) { f.feeds_control = true; });
    backward_closure(kRootAddress, [](VarDefUse& f) { f.feeds_address = true; });
    detect_loop_carried(k.body, 0);
    for (std::size_t v = 0; v < vars.size(); ++v)
      vars[v].use_before_def =
          first_use_ord[v] < first_def_ord[v];
    cone_signatures();
    return rounds;
  }
};

}  // namespace

DefUseAnalysis::DefUseAnalysis(const Kernel& kernel) {
  Builder b(kernel, vars_);
  rounds_ = b.run();
}

}  // namespace hauberk::kir
