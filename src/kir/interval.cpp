// Interval abstract interpretation: see interval.hpp for the design notes.
#include "kir/interval.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/fnv.hpp"

namespace hauberk::kir {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kI32Min = -2147483648.0;
constexpr double kI32Max = 2147483647.0;
constexpr double kPtrMax = 4294967295.0;

[[nodiscard]] ValInterval top_f32() noexcept { return {-kInf, kInf}; }
[[nodiscard]] ValInterval top_i32() noexcept { return {kI32Min, kI32Max}; }
[[nodiscard]] ValInterval top_ptr() noexcept { return {0.0, kPtrMax}; }

/// Invariant: a *top* F32 interval is the only one that may contain NaN, so
/// every transfer that can produce NaN from non-NaN inputs must return top.
[[nodiscard]] bool is_top(const ValInterval& v, DType t) noexcept {
  return v == ValInterval::top_for(t);
}

/// Round `lo`/`hi` outward to the nearest representable float, so values the
/// simulated GPU computes in f32 cannot escape an interval derived from
/// double-precision corner math.
[[nodiscard]] ValInterval inflate_f32(ValInterval v) noexcept {
  if (v.is_empty()) return v;
  if (std::isfinite(v.lo)) v.lo = std::nextafterf(static_cast<float>(v.lo), -kInf);
  if (std::isfinite(v.hi)) v.hi = std::nextafterf(static_cast<float>(v.hi), kInf);
  return v;
}

[[nodiscard]] std::int64_t gcd_i64(std::int64_t a, std::int64_t b) noexcept {
  a = a < 0 ? -a : a;
  b = b < 0 ? -b : b;
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

[[nodiscard]] bool integral(double v) noexcept {
  return std::isfinite(v) && v == std::floor(v);
}

}  // namespace

ValInterval ValInterval::top_for(DType t) noexcept {
  switch (t) {
    case DType::F32: return top_f32();
    case DType::I32: return top_i32();
    case DType::PTR: return top_ptr();
  }
  return top_f32();
}

bool ValInterval::finite() const noexcept {
  return !is_empty() && std::isfinite(lo) && std::isfinite(hi);
}

std::string ValInterval::to_string() const {
  if (is_empty()) return "[]";
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%g, %g]", lo, hi);
  return buf;
}

ValInterval join(const ValInterval& a, const ValInterval& b) noexcept {
  if (a.is_empty()) return b;
  if (b.is_empty()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

ValInterval meet(const ValInterval& a, const ValInterval& b) noexcept {
  if (a.is_empty() || b.is_empty()) return ValInterval::empty();
  const ValInterval m{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
  return m.is_empty() ? ValInterval::empty() : m;
}

ValInterval widen(const ValInterval& prev, const ValInterval& next, DType t) noexcept {
  if (prev.is_empty()) return next;
  if (next.is_empty()) return prev;
  const ValInterval top = ValInterval::top_for(t);
  ValInterval w = join(prev, next);
  if (next.lo < prev.lo) w.lo = top.lo;
  if (next.hi > prev.hi) w.hi = top.hi;
  return w;
}

std::uint64_t IntervalEnv::digest() const noexcept {
  std::uint64_t h = common::kFnvTruncatedBasis;
  const auto mix = [&h](std::uint64_t v) { h = common::fnv1a_u64(h, v); };
  mix(block_x);
  mix(block_y);
  mix(grid_x);
  mix(grid_y);
  mix(shared_words);
  mix(global_words);
  mix(params.size());
  for (const auto& p : params) {
    mix(std::bit_cast<std::uint64_t>(p.lo));
    mix(std::bit_cast<std::uint64_t>(p.hi));
  }
  return h;
}

const char* access_kind_name(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::LoadGlobal: return "load.g";
    case AccessKind::StoreGlobal: return "store.g";
    case AccessKind::AtomicAddGlobal: return "atomic.g";
    case AccessKind::LoadShared: return "load.s";
    case AccessKind::StoreShared: return "store.s";
    case AccessKind::Barrier: return "barrier";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

namespace {

/// Affine-in-thread-index form of an I32/PTR expression: thread-symbol
/// coefficients + per-For-iterator coefficients + a thread-uniform base
/// interval.  `affine == false` is the lattice top (not linearizable).
struct AffineForm {
  bool affine = false;
  double tx = 0, ty = 0, tl = 0;
  std::map<VarId, double> iters;
  ValInterval base = ValInterval::point(0);

  [[nodiscard]] bool has_syms() const noexcept {
    return tx != 0 || ty != 0 || tl != 0 || !iters.empty();
  }
  friend bool operator==(const AffineForm& a, const AffineForm& b) noexcept {
    if (a.affine != b.affine) return false;
    if (!a.affine) return true;
    return a.tx == b.tx && a.ty == b.ty && a.tl == b.tl && a.iters == b.iters &&
           a.base == b.base;
  }
};

[[nodiscard]] AffineForm af_non() noexcept { return {}; }
[[nodiscard]] AffineForm af_base(const ValInterval& iv) noexcept {
  AffineForm f;
  f.affine = true;
  f.base = iv;
  return f;
}

[[nodiscard]] AffineForm af_join(const AffineForm& a, const AffineForm& b) noexcept {
  if (!a.affine || !b.affine) return af_non();
  if (a.tx == b.tx && a.ty == b.ty && a.tl == b.tl && a.iters == b.iters) {
    AffineForm r = a;
    r.base = join(a.base, b.base);
    return r;
  }
  return af_non();
}

[[nodiscard]] AffineForm af_add(const AffineForm& a, const AffineForm& b, bool sub) noexcept {
  if (!a.affine || !b.affine) return af_non();
  AffineForm r = a;
  const double s = sub ? -1.0 : 1.0;
  r.tx += s * b.tx;
  r.ty += s * b.ty;
  r.tl += s * b.tl;
  for (const auto& [v, c] : b.iters) {
    r.iters[v] += s * c;
    if (r.iters[v] == 0) r.iters.erase(v);
  }
  if (b.base.is_empty() || a.base.is_empty()) return af_non();
  r.base = sub ? ValInterval{a.base.lo - b.base.hi, a.base.hi - b.base.lo}
               : ValInterval{a.base.lo + b.base.lo, a.base.hi + b.base.hi};
  return r;
}

[[nodiscard]] AffineForm af_scale(const AffineForm& a, double k) noexcept {
  if (!a.affine) return af_non();
  AffineForm r = a;
  r.tx *= k;
  r.ty *= k;
  r.tl *= k;
  for (auto& [v, c] : r.iters) c *= k;
  std::erase_if(r.iters, [](const auto& p) { return p.second == 0; });
  if (k >= 0)
    r.base = {a.base.lo * k, a.base.hi * k};
  else
    r.base = {a.base.hi * k, a.base.lo * k};
  return r;
}

/// Abstract value of one expression.
struct AbsVal {
  ValInterval iv{};
  bool div = false;  ///< may differ across threads
  AffineForm af{};
};

/// Per-program-point abstract state.
struct AbsEnv {
  std::vector<ValInterval> val;
  std::vector<std::uint8_t> div;
  std::vector<AffineForm> af;

  friend bool operator==(const AbsEnv& a, const AbsEnv& b) noexcept {
    return a.val == b.val && a.div == b.div && a.af == b.af;
  }
};

}  // namespace

class IntervalInterp {
 public:
  IntervalInterp(const Kernel& k, IntervalAnalysis& out) : k_(k), out_(out) {}

  void run() {
    enumerate_stmts(k_.body, /*depth=*/0);
    AbsEnv env;
    env.val.assign(k_.vars.size(), ValInterval::empty());
    env.div.assign(k_.vars.size(), 0);
    env.af.assign(k_.vars.size(), af_non());
    exec_stmts(k_.body, std::move(env), /*div_ctx=*/false);
    flatten();
  }

 private:
  // --- enumeration: assign every access/barrier its lowering-order ordinal --
  using PhaseKey = std::pair<const Stmt*, int>;

  void add_access(AccessKind kind, const Stmt* s, int phase, int depth) {
    AccessFact f;
    f.kind = kind;
    f.stmt = s;
    f.ordinal = static_cast<int>(out_.accesses_.size());
    f.epoch = barrier_count_;
    f.in_loop = depth > 0;
    if (kind == AccessKind::Barrier) ++barrier_count_;
    sites_[{s, phase}].push_back(f.ordinal);
    out_.accesses_.push_back(std::move(f));
  }

  void enumerate_expr(const ExprPtr& e, const Stmt* s, int phase, int depth) {
    if (!e) return;
    enumerate_expr(e->a, s, phase, depth);
    enumerate_expr(e->b, s, phase, depth);
    enumerate_expr(e->c, s, phase, depth);
    if (e->kind == ExprKind::LoadGlobal) add_access(AccessKind::LoadGlobal, s, phase, depth);
    if (e->kind == ExprKind::LoadShared) add_access(AccessKind::LoadShared, s, phase, depth);
  }

  void enumerate_stmts(const StmtList& body, int depth) {
    for (const auto& s : body) enumerate_stmt(s, depth);
  }

  // Mirrors lower.cpp exactly: pre-order expression lowering, For emitting
  // init / limit / body / step, stores emitting addr, value, then the store.
  void enumerate_stmt(const StmtPtr& sp, int depth) {
    const Stmt* s = sp.get();
    switch (s->kind) {
      case StmtKind::Let:
      case StmtKind::Assign:
      case StmtKind::ChecksumXor:
      case StmtKind::DupCheck:
      case StmtKind::RangeCheck:
      case StmtKind::ProfileValue:
        enumerate_expr(s->value, s, 0, depth);
        break;
      case StmtKind::EqualCheck:
        enumerate_expr(s->value, s, 0, depth);
        enumerate_expr(s->rhs, s, 0, depth);
        break;
      case StmtKind::StoreGlobal:
      case StmtKind::StoreShared:
      case StmtKind::AtomicAddGlobal:
        enumerate_expr(s->addr, s, 0, depth);
        enumerate_expr(s->value, s, 0, depth);
        add_access(s->kind == StmtKind::StoreGlobal      ? AccessKind::StoreGlobal
                   : s->kind == StmtKind::StoreShared    ? AccessKind::StoreShared
                                                         : AccessKind::AtomicAddGlobal,
                   s, 0, depth);
        break;
      case StmtKind::Barrier:
        add_access(AccessKind::Barrier, s, 0, depth);
        break;
      case StmtKind::For:
        enumerate_expr(s->init, s, 0, depth);
        enumerate_expr(s->limit, s, 1, depth);
        enumerate_stmts(s->body, depth + 1);
        enumerate_expr(s->step, s, 2, depth);
        break;
      case StmtKind::While:
        enumerate_expr(s->value, s, 0, depth);
        enumerate_stmts(s->body, depth + 1);
        break;
      case StmtKind::If:
        enumerate_expr(s->value, s, 0, depth);
        enumerate_stmts(s->body, depth);
        enumerate_stmts(s->else_body, depth);
        break;
      case StmtKind::ChecksumValidate:
      case StmtKind::CountExec:
      case StmtKind::FIHook:
        break;
    }
  }

  // --- abstract execution ---------------------------------------------------

  struct PhaseCursor {
    const std::vector<int>* list = nullptr;
    std::size_t pos = 0;
  };

  void begin_phase(const Stmt* s, int phase) {
    const auto it = sites_.find({s, phase});
    cursor_.list = it == sites_.end() ? nullptr : &it->second;
    cursor_.pos = 0;
  }

  AccessFact& consume(AccessKind expect) {
    assert(cursor_.list && cursor_.pos < cursor_.list->size() &&
           "abstract walk out of sync with access enumeration");
    AccessFact& f = out_.accesses_[static_cast<std::size_t>((*cursor_.list)[cursor_.pos++])];
    assert(f.kind == expect);
    (void)expect;
    return f;
  }

  void record_load(AccessKind kind, const ValInterval& addr) {
    if (!record_) return;
    AccessFact& f = consume(kind);
    f.reached = true;
    f.addr = join(f.addr, addr);
    f.divergent_control = f.divergent_control || cur_div_;
  }

  void record_store(AccessKind kind, const AbsVal& addr, const AbsEnv& env) {
    AccessFact& f = consume(kind);
    f.reached = true;
    f.addr = join(f.addr, addr.iv);
    f.divergent_control = f.divergent_control || cur_div_;
    if (kind == AccessKind::StoreShared) record_footprint(f.ordinal, addr, env);
  }

  void record_footprint(int ordinal, const AbsVal& addr, const AbsEnv& env) {
    SharedStoreFootprint fp;
    fp.access = ordinal;
    AffineForm af = addr.af;
    if (af.affine && !af.has_syms() && addr.div) af = af_non();
    if (af.affine) {
      fp.affine = true;
      fp.a = af.tx + af.tl;
      fp.b = af.ty + af.tl * static_cast<double>(out_.env_.block_x);
      fp.base = af.base;
      double stride_gcd = 0, bound = 0;
      for (const auto& [v, c] : af.iters) {
        const auto it = iter_step_.find(v);
        const double st = it == iter_step_.end() ? -1.0 : it->second;
        const ValInterval& ivv = env.val[v];
        const double term_stride = std::abs(c) * st;
        if (st <= 0 || !ivv.finite() || !integral(term_stride) || term_stride == 0) {
          fp.affine = false;
          break;
        }
        const double steps = std::floor(ivv.width() / st + 1e-9);
        stride_gcd = static_cast<double>(
            gcd_i64(static_cast<std::int64_t>(stride_gcd),
                    static_cast<std::int64_t>(term_stride)));
        bound += term_stride * steps;
      }
      if (fp.affine) {
        fp.iter_stride = stride_gcd;
        fp.iter_bound = bound;
      }
      if (fp.affine && (!integral(fp.a) || !integral(fp.b) || !fp.base.finite()))
        fp.affine = false;
    }
    auto [it, inserted] = footprints_.try_emplace(ordinal, fp);
    if (inserted) return;
    SharedStoreFootprint& ex = it->second;
    if (!ex.affine || !fp.affine || ex.a != fp.a || ex.b != fp.b) {
      ex.affine = false;
      return;
    }
    ex.base = join(ex.base, fp.base);
    ex.iter_stride = static_cast<double>(
        gcd_i64(static_cast<std::int64_t>(ex.iter_stride),
                static_cast<std::int64_t>(fp.iter_stride)));
    ex.iter_bound = std::max(ex.iter_bound, fp.iter_bound);
  }

  // --- expression evaluation ------------------------------------------------

  AbsVal eval(const ExprPtr& e, AbsEnv& env) {
    switch (e->kind) {
      case ExprKind::Const: {
        const double v = e->constant.as_double();
        return {ValInterval::point(v), false, af_base(ValInterval::point(v))};
      }
      case ExprKind::VarRef: {
        ValInterval iv = env.val[e->var];
        if (iv.is_empty()) iv = ValInterval::top_for(e->type);
        AbsVal r{iv, env.div[e->var] != 0, env.af[e->var]};
        if (r.af.affine && !r.af.has_syms()) {
          if (r.div)
            r.af = af_non();
          else
            r.af.base = iv;  // keep the uniform base as tight as the interval
        }
        return r;
      }
      case ExprKind::ParamRef: {
        ValInterval iv = e->param < out_.env_.params.size() &&
                                 !out_.env_.params[e->param].is_empty()
                             ? out_.env_.params[e->param]
                             : ValInterval::top_for(e->type);
        return {iv, false, af_base(iv)};
      }
      case ExprKind::Builtin: return eval_builtin(e->builtin);
      case ExprKind::LoadGlobal:
      case ExprKind::LoadShared: {
        const AbsVal a = eval(e->a, env);
        record_load(e->kind == ExprKind::LoadGlobal ? AccessKind::LoadGlobal
                                                    : AccessKind::LoadShared,
                    a.iv);
        // A uniform address yields a uniform value (all threads read the same
        // word); a divergent address yields a divergent value.
        return {ValInterval::top_for(e->type), a.div, af_non()};
      }
      case ExprKind::Unary: return eval_unary(e, env);
      case ExprKind::Binary: return eval_binary(e, env);
      case ExprKind::Select: {
        const AbsVal c = eval(e->a, env);
        const AbsVal t = eval(e->b, env);
        const AbsVal f = eval(e->c, env);
        const bool def_true = !c.iv.is_empty() && !c.iv.contains(0.0);
        const bool def_false = c.iv == ValInterval::point(0.0);
        AbsVal r;
        if (def_true)
          r = t;
        else if (def_false)
          r = f;
        else {
          r.iv = join(t.iv, f.iv);
          r.af = af_join(t.af, f.af);
        }
        r.div = r.div || c.div || t.div || f.div;
        if (c.div) r.af = af_non();
        return r;
      }
    }
    return {ValInterval::top_for(e->type), true, af_non()};
  }

  AbsVal eval_builtin(BuiltinVal b) const {
    const auto& ev = out_.env_;
    const double bx = ev.block_x, by = ev.block_y, gx = ev.grid_x, gy = ev.grid_y;
    AbsVal r;
    r.af = af_non();
    switch (b) {
      case BuiltinVal::ThreadIdxX:
        r = {{0, bx - 1}, true, {}};
        r.af.affine = true;
        r.af.tx = 1;
        r.af.base = ValInterval::point(0);
        return r;
      case BuiltinVal::ThreadIdxY:
        r = {{0, by - 1}, true, {}};
        r.af.affine = true;
        r.af.ty = 1;
        r.af.base = ValInterval::point(0);
        return r;
      case BuiltinVal::ThreadLinear:
        r = {{0, bx * by * gx * gy - 1}, true, {}};
        r.af.affine = true;
        r.af.tl = 1;
        // The per-block offset is thread-uniform; footprint deltas are
        // intra-block, so only the local part matters and the base may span
        // every block's offset.
        r.af.base = {0, bx * by * (gx * gy - 1)};
        return r;
      case BuiltinVal::BlockIdxX: return {{0, gx - 1}, false, af_base({0, gx - 1})};
      case BuiltinVal::BlockIdxY: return {{0, gy - 1}, false, af_base({0, gy - 1})};
      case BuiltinVal::BlockDimX:
        return {ValInterval::point(bx), false, af_base(ValInterval::point(bx))};
      case BuiltinVal::BlockDimY:
        return {ValInterval::point(by), false, af_base(ValInterval::point(by))};
      case BuiltinVal::GridDimX:
        return {ValInterval::point(gx), false, af_base(ValInterval::point(gx))};
      case BuiltinVal::GridDimY:
        return {ValInterval::point(gy), false, af_base(ValInterval::point(gy))};
    }
    return {top_i32(), true, af_non()};
  }

  AbsVal eval_unary(const ExprPtr& e, AbsEnv& env) {
    const AbsVal a = eval(e->a, env);
    const ValInterval& A = a.iv;
    const DType rt = e->type;
    ValInterval r = ValInterval::top_for(rt);
    const bool a_top_f = e->a->type == DType::F32 && is_top(A, DType::F32);
    switch (e->un) {
      case UnOp::Neg:
        if (rt == DType::F32) {
          if (!a_top_f) r = {-A.hi, -A.lo};
        } else if (A.lo > kI32Min) {
          r = {-A.hi, -A.lo};
        }
        break;
      case UnOp::LogicalNot:
        if (A == ValInterval::point(0.0))
          r = ValInterval::point(1.0);
        else if (!A.contains(0.0) && !a_top_f)
          r = ValInterval::point(0.0);
        else
          r = {0, 1};
        break;
      case UnOp::BitNot:
        if (A.finite()) r = {-A.hi - 1, -A.lo - 1};
        break;
      case UnOp::Sqrt:
        if (!a_top_f && A.lo >= 0) r = inflate_f32({std::sqrt(A.lo), std::sqrt(A.hi)});
        break;
      case UnOp::Rsqrt:
        if (!a_top_f && A.lo > 0 && std::isfinite(A.lo))
          r = inflate_f32({1.0 / std::sqrt(A.hi), 1.0 / std::sqrt(A.lo)});
        break;
      case UnOp::Abs:
        if (rt == DType::F32 && !a_top_f) {
          r = A.lo >= 0 ? A : (A.hi <= 0 ? ValInterval{-A.hi, -A.lo}
                                         : ValInterval{0, std::max(-A.lo, A.hi)});
        } else if (rt == DType::I32 && A.lo > kI32Min) {
          r = A.lo >= 0 ? A : (A.hi <= 0 ? ValInterval{-A.hi, -A.lo}
                                         : ValInterval{0, std::max(-A.lo, A.hi)});
        }
        break;
      case UnOp::Exp:
        if (!a_top_f) r = inflate_f32({std::exp(A.lo), std::exp(A.hi)});
        break;
      case UnOp::Log:
        if (!a_top_f && A.lo > 0) r = inflate_f32({std::log(A.lo), std::log(A.hi)});
        break;
      case UnOp::Sin:
      case UnOp::Cos:
        if (!a_top_f && A.finite()) r = {-1, 1};
        break;
      case UnOp::Floor:
        if (!a_top_f) r = {std::floor(A.lo), std::floor(A.hi)};
        break;
      case UnOp::CastF32:
        r = inflate_f32(A);
        break;
      case UnOp::CastI32:
        // Saturating truncation; NaN -> 0 is only possible from a top input,
        // and top I32 contains 0.
        if (!a_top_f) {
          const double lo = std::trunc(std::clamp(A.lo, kI32Min, kI32Max));
          const double hi = std::trunc(std::clamp(A.hi, kI32Min, kI32Max));
          r = {lo, hi};
        }
        break;
    }
    AffineForm af = af_non();
    if (e->un == UnOp::Neg && rt != DType::F32)
      af = af_scale(a.af, -1.0);
    else if (a.af.affine && !a.af.has_syms() && !a.div)
      af = af_base(r);
    return {r, a.div, af};
  }

  AbsVal eval_binary(const ExprPtr& e, AbsEnv& env) {
    const AbsVal a = eval(e->a, env);
    const AbsVal b = eval(e->b, env);
    const DType rt = e->type;
    ValInterval r = binop_interval(e->bin, rt, a.iv, b.iv, e->a->type, e->b->type);
    AffineForm af = af_non();
    const bool int_like = rt != DType::F32;
    switch (e->bin) {
      case BinOp::Add:
        if (int_like) af = af_add(a.af, b.af, /*sub=*/false);
        break;
      case BinOp::Sub:
        if (int_like) af = af_add(a.af, b.af, /*sub=*/true);
        break;
      case BinOp::Mul:
        if (int_like && a.af.affine && b.af.affine) {
          if (!a.af.has_syms() && a.af.base.is_point())
            af = af_scale(b.af, a.af.base.lo);
          else if (!b.af.has_syms() && b.af.base.is_point())
            af = af_scale(a.af, b.af.base.lo);
        }
        break;
      default: break;
    }
    const bool div = a.div || b.div;
    if (!af.affine && a.af.affine && b.af.affine && !a.af.has_syms() && !b.af.has_syms() &&
        !div)
      af = af_base(r);
    // Wrapped / widened results lose the linear form.
    if (af.affine && af.has_syms() && is_top(r, rt)) af = af_non();
    return {r, div, af};
  }

  ValInterval binop_interval(BinOp op, DType rt, const ValInterval& A, const ValInterval& B,
                             DType at, DType bt) const {
    if (A.is_empty() || B.is_empty()) return ValInterval::empty();
    const bool a_top_f = at == DType::F32 && is_top(A, DType::F32);
    const bool b_top_f = bt == DType::F32 && is_top(B, DType::F32);
    const ValInterval top = ValInterval::top_for(rt);
    switch (op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::Mul:
        if (rt == DType::F32) {
          if (a_top_f || b_top_f) return top;
          return f_corners(op, A, B);
        }
        return i_corners(op, A, B, rt);
      case BinOp::Div:
        if (rt == DType::F32) {
          if (a_top_f || b_top_f || B.contains(0.0)) return top;
          return f_corners(op, A, B);
        }
        if (B.contains(0.0)) return top;
        {
          const double c[4] = {A.lo / B.lo, A.lo / B.hi, A.hi / B.lo, A.hi / B.hi};
          double lo = c[0], hi = c[0];
          for (double v : c) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          if (!std::isfinite(lo) || !std::isfinite(hi)) return top;
          return {std::floor(lo), std::ceil(hi)};
        }
      case BinOp::Mod: {
        if (rt == DType::F32 || B.contains(0.0) || !B.finite()) return top;
        const double m = std::max(std::abs(B.lo), std::abs(B.hi)) - 1;
        double lo = -m, hi = m;
        if (A.lo >= 0) lo = 0;
        if (A.hi <= 0) hi = 0;
        if (A.finite()) {
          lo = std::max(lo, std::min(A.lo, 0.0));
          hi = std::min(hi, std::max(A.hi, 0.0));
        }
        return {lo, hi};
      }
      case BinOp::Min:
        if (a_top_f || b_top_f) return top;
        return {std::min(A.lo, B.lo), std::min(A.hi, B.hi)};
      case BinOp::Max:
        if (a_top_f || b_top_f) return top;
        return {std::max(A.lo, B.lo), std::max(A.hi, B.hi)};
      case BinOp::BitAnd:
        if (A.lo >= 0 && B.lo >= 0 && A.finite() && B.finite())
          return {0, std::min(A.hi, B.hi)};
        return top;
      case BinOp::BitOr:
        if (A.lo >= 0 && B.lo >= 0 && A.finite() && B.finite())
          return {std::max(A.lo, B.lo), pow2_mask(std::max(A.hi, B.hi))};
        return top;
      case BinOp::BitXor:
        if (A.lo >= 0 && B.lo >= 0 && A.finite() && B.finite())
          return {0, pow2_mask(std::max(A.hi, B.hi))};
        return top;
      case BinOp::Shl: {
        if (!A.finite() || !B.finite() || B.lo < 0 || B.hi > 31) return top;
        double lo = kInf, hi = -kInf;
        for (double bb : {B.lo, B.hi})
          for (double aa : {A.lo, A.hi}) {
            const double v = aa * std::exp2(std::floor(bb));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        if (lo < kI32Min || hi > kI32Max) return top;
        return {lo, hi};
      }
      case BinOp::Shr: {
        if (!A.finite() || !B.finite() || B.lo < 0 || B.hi > 31) return top;
        if (rt == DType::PTR && A.lo < 0) return top;
        double lo = kInf, hi = -kInf;
        for (double bb : {B.lo, B.hi})
          for (double aa : {A.lo, A.hi}) {
            const double v = std::floor(aa / std::exp2(std::floor(bb)));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        return {lo, hi};
      }
      case BinOp::Lt: return cmp_interval(A.hi < B.lo, A.lo >= B.hi, a_top_f || b_top_f);
      case BinOp::Le: return cmp_interval(A.hi <= B.lo, A.lo > B.hi, a_top_f || b_top_f);
      case BinOp::Gt: return cmp_interval(A.lo > B.hi, A.hi <= B.lo, a_top_f || b_top_f);
      case BinOp::Ge: return cmp_interval(A.lo >= B.hi, A.hi < B.lo, a_top_f || b_top_f);
      case BinOp::Eq:
        return cmp_interval(A.is_point() && B.is_point() && A.lo == B.lo && !a_top_f,
                            meet(A, B).is_empty(), a_top_f || b_top_f);
      case BinOp::Ne:
        return cmp_interval(meet(A, B).is_empty(),
                            A.is_point() && B.is_point() && A.lo == B.lo && !a_top_f,
                            a_top_f || b_top_f);
      case BinOp::LogicalAnd: {
        const bool def_t = !A.contains(0.0) && !B.contains(0.0) && !a_top_f && !b_top_f;
        const bool def_f = A == ValInterval::point(0.0) || B == ValInterval::point(0.0);
        return cmp_interval(def_t, def_f, false);
      }
      case BinOp::LogicalOr: {
        const bool def_t = (!A.contains(0.0) && !a_top_f) || (!B.contains(0.0) && !b_top_f);
        const bool def_f =
            A == ValInterval::point(0.0) && B == ValInterval::point(0.0);
        return cmp_interval(def_t, def_f, false);
      }
    }
    return top;
  }

  /// Comparison result: a NaN-capable operand (top f32) can always make the
  /// comparison false, so `def_true` must not be claimed then.
  static ValInterval cmp_interval(bool def_true, bool def_false, bool maybe_nan) {
    if (def_true && !maybe_nan) return ValInterval::point(1.0);
    if (def_false) return ValInterval::point(0.0);
    return {0, 1};
  }

  static ValInterval f_corners(BinOp op, const ValInterval& A, const ValInterval& B) {
    double lo = kInf, hi = -kInf;
    for (double aa : {A.lo, A.hi})
      for (double bb : {B.lo, B.hi}) {
        double v = 0;
        switch (op) {
          case BinOp::Add: v = aa + bb; break;
          case BinOp::Sub: v = aa - bb; break;
          case BinOp::Mul: v = aa * bb; break;
          case BinOp::Div: v = aa / bb; break;
          default: return top_f32();
        }
        if (std::isnan(v)) return top_f32();
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    return inflate_f32({lo, hi});
  }

  /// i32/ptr corner math in int64 (products of 32-bit bounds need 62 bits,
  /// which double cannot hold exactly); any corner outside the type range
  /// wraps at run time, so the result widens to the type top.
  static ValInterval i_corners(BinOp op, const ValInterval& A, const ValInterval& B,
                               DType rt) {
    if (!A.finite() || !B.finite()) return ValInterval::top_for(rt);
    const auto al = static_cast<std::int64_t>(A.lo), ah = static_cast<std::int64_t>(A.hi);
    const auto bl = static_cast<std::int64_t>(B.lo), bh = static_cast<std::int64_t>(B.hi);
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (std::int64_t aa : {al, ah})
      for (std::int64_t bb : {bl, bh}) {
        std::int64_t v = 0;
        switch (op) {
          case BinOp::Add: v = aa + bb; break;
          case BinOp::Sub: v = aa - bb; break;
          case BinOp::Mul: v = aa * bb; break;
          default: return ValInterval::top_for(rt);
        }
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    const ValInterval top = ValInterval::top_for(rt);
    if (static_cast<double>(lo) < top.lo || static_cast<double>(hi) > top.hi) return top;
    return {static_cast<double>(lo), static_cast<double>(hi)};
  }

  /// Smallest 2^k - 1 covering v (for bit-or/xor upper bounds).
  static double pow2_mask(double v) {
    std::uint64_t x = v <= 0 ? 0 : static_cast<std::uint64_t>(v);
    x |= x >> 1;
    x |= x >> 2;
    x |= x >> 4;
    x |= x >> 8;
    x |= x >> 16;
    x |= x >> 32;
    return static_cast<double>(x);
  }

  // --- branch refinement ----------------------------------------------------

  AbsVal eval_quiet(const ExprPtr& e, AbsEnv& env) {
    const bool saved = record_;
    record_ = false;
    AbsVal r = eval(e, env);
    record_ = saved;
    return r;
  }

  static BinOp flip_cmp(BinOp op) {
    switch (op) {
      case BinOp::Lt: return BinOp::Gt;
      case BinOp::Le: return BinOp::Ge;
      case BinOp::Gt: return BinOp::Lt;
      case BinOp::Ge: return BinOp::Le;
      default: return op;
    }
  }

  void refine_env(AbsEnv& env, const ExprPtr& cond, bool taken) {
    if (!cond) return;
    if (cond->kind == ExprKind::Unary && cond->un == UnOp::LogicalNot) {
      refine_env(env, cond->a, !taken);
      return;
    }
    if (cond->kind != ExprKind::Binary) return;
    if (cond->bin == BinOp::LogicalAnd && taken) {
      refine_env(env, cond->a, true);
      refine_env(env, cond->b, true);
      return;
    }
    if (cond->bin == BinOp::LogicalOr && !taken) {
      refine_env(env, cond->a, false);
      refine_env(env, cond->b, false);
      return;
    }
    switch (cond->bin) {
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne: break;
      default: return;
    }
    if (cond->a->kind == ExprKind::VarRef)
      refine_cmp(env, cond->a->var, cond->bin, eval_quiet(cond->b, env).iv, taken);
    else if (cond->b->kind == ExprKind::VarRef)
      refine_cmp(env, cond->b->var, flip_cmp(cond->bin), eval_quiet(cond->a, env).iv,
                 taken);
  }

  void refine_cmp(AbsEnv& env, VarId v, BinOp op, const ValInterval& B, bool taken) {
    if (B.is_empty()) return;
    const DType vt = k_.vars[v].type;
    // In the not-taken branch of an f32 comparison the negated relation does
    // not hold for NaN, so only the taken direction may refine floats.
    if (!taken) {
      if (vt == DType::F32) return;
      switch (op) {
        case BinOp::Lt: op = BinOp::Ge; break;
        case BinOp::Le: op = BinOp::Gt; break;
        case BinOp::Gt: op = BinOp::Le; break;
        case BinOp::Ge: op = BinOp::Lt; break;
        case BinOp::Eq: op = BinOp::Ne; break;
        case BinOp::Ne: op = BinOp::Eq; break;
        default: return;
      }
    }
    ValInterval cur = env.val[v];
    if (cur.is_empty()) cur = ValInterval::top_for(vt);
    const double adj = vt == DType::F32 ? 0.0 : 1.0;
    switch (op) {
      case BinOp::Lt:
        if (std::isfinite(B.hi)) cur.hi = std::min(cur.hi, B.hi - adj);
        break;
      case BinOp::Le: cur.hi = std::min(cur.hi, B.hi); break;
      case BinOp::Gt:
        if (std::isfinite(B.lo)) cur.lo = std::max(cur.lo, B.lo + adj);
        break;
      case BinOp::Ge: cur.lo = std::max(cur.lo, B.lo); break;
      case BinOp::Eq:
        if (!(vt == DType::F32 && is_top(B, DType::F32))) cur = meet(cur, B);
        break;
      default: return;
    }
    if (cur.is_empty()) return;  // contradictory branch: keep the old state
    env.val[v] = cur;
  }

  // --- statements -----------------------------------------------------------

  static AbsEnv join_env(const AbsEnv& a, const AbsEnv& b) {
    AbsEnv r = a;
    for (std::size_t i = 0; i < r.val.size(); ++i) {
      r.val[i] = join(a.val[i], b.val[i]);
      r.div[i] = a.div[i] | b.div[i];
      if (a.val[i].is_empty())
        r.af[i] = b.af[i];
      else if (b.val[i].is_empty())
        r.af[i] = a.af[i];
      else
        r.af[i] = af_join(a.af[i], b.af[i]);
    }
    return r;
  }

  AbsEnv widen_env(const AbsEnv& prev, const AbsEnv& next) const {
    AbsEnv r = next;
    for (std::size_t i = 0; i < r.val.size(); ++i)
      r.val[i] = widen(prev.val[i], next.val[i], k_.vars[i].type);
    return r;
  }

  AbsEnv exec_stmts(const StmtList& body, AbsEnv env, bool div_ctx) {
    for (const auto& s : body) env = exec_stmt(s, std::move(env), div_ctx);
    return env;
  }

  void define(AbsEnv& env, VarId v, const AbsVal& val, bool div_ctx) {
    env.val[v] = val.iv;
    env.div[v] = val.div || div_ctx;
    env.af[v] = div_ctx && !val.af.has_syms() ? af_non() : val.af;
    out_.var_summary_[v] = join(out_.var_summary_[v], val.iv);
    out_.var_divergent_[v] =
        static_cast<std::uint8_t>(out_.var_divergent_[v] | env.div[v]);
  }

  AbsEnv exec_stmt(const StmtPtr& sp, AbsEnv env, bool div_ctx) {
    const Stmt* s = sp.get();
    cur_div_ = div_ctx;
    switch (s->kind) {
      case StmtKind::Let:
      case StmtKind::Assign: {
        begin_phase(s, 0);
        const AbsVal v = eval(s->value, env);
        define(env, s->var, v, div_ctx);
        return env;
      }
      case StmtKind::StoreGlobal:
      case StmtKind::StoreShared:
      case StmtKind::AtomicAddGlobal: {
        begin_phase(s, 0);
        const AbsVal addr = eval(s->addr, env);
        (void)eval(s->value, env);
        record_store(s->kind == StmtKind::StoreGlobal      ? AccessKind::StoreGlobal
                     : s->kind == StmtKind::StoreShared    ? AccessKind::StoreShared
                                                           : AccessKind::AtomicAddGlobal,
                     addr, env);
        return env;
      }
      case StmtKind::Barrier: {
        begin_phase(s, 0);
        AccessFact& f = consume(AccessKind::Barrier);
        f.reached = true;
        f.divergent_control = f.divergent_control || div_ctx;
        return env;
      }
      case StmtKind::For: return exec_for(sp, std::move(env), div_ctx);
      case StmtKind::While: return exec_while(sp, std::move(env), div_ctx);
      case StmtKind::If: return exec_if(sp, std::move(env), div_ctx);
      case StmtKind::ChecksumXor:
      case StmtKind::DupCheck: {
        begin_phase(s, 0);
        (void)eval(s->value, env);
        return env;
      }
      case StmtKind::RangeCheck:
      case StmtKind::ProfileValue: {
        begin_phase(s, 0);
        const AbsVal v = eval(s->value, env);
        auto [it, inserted] = detector_map_.try_emplace(s->detector_id);
        DetectorValueFact& d = it->second;
        if (inserted) {
          d.detector = s->detector_id;
          d.label = s->label;
          d.type = s->value->type;
        }
        d.value = join(d.value, v.iv);
        return env;
      }
      case StmtKind::EqualCheck: {
        begin_phase(s, 0);
        (void)eval(s->value, env);
        (void)eval(s->rhs, env);
        return env;
      }
      case StmtKind::ChecksumValidate:
      case StmtKind::CountExec:
      case StmtKind::FIHook: return env;
    }
    return env;
  }

  AbsEnv exec_for(const StmtPtr& sp, AbsEnv env, bool div_ctx) {
    const Stmt* s = sp.get();
    const VarId it = s->var;
    const DType it_t = k_.vars[it].type;
    begin_phase(s, 0);
    cur_div_ = div_ctx;
    const AbsVal init = eval(s->init, env);
    define(env, it, init, div_ctx);
    const bool loop_div = div_ctx || init.div;
    const double step_const =
        s->step && s->step->kind == ExprKind::Const ? s->step->constant.as_double() : -1.0;

    AbsEnv head = env;
    ValInterval lim_acc = ValInterval::empty();
    ValInterval step_acc = ValInterval::empty();
    int rounds = 0;
    for (;;) {
      AbsEnv body_in = head;
      begin_phase(s, 1);
      cur_div_ = loop_div;
      const AbsVal lim = eval(s->limit, body_in);
      lim_acc = join(lim_acc, lim.iv);
      const bool body_div = loop_div || lim.div;

      // Refine the iterator to [.., limit) for the body.
      ValInterval itv = body_in.val[it];
      if (!lim.iv.is_empty() && std::isfinite(lim.iv.hi))
        itv.hi = std::min(itv.hi, lim.iv.hi - (it_t == DType::F32 ? 0.0 : 1.0));
      if (itv.is_empty()) break;  // the loop body is unreachable from here
      body_in.val[it] = itv;
      out_.var_summary_[it] = join(out_.var_summary_[it], itv);
      AffineForm sym;
      sym.affine = true;
      sym.iters[it] = 1.0;
      sym.base = ValInterval::point(0);
      body_in.af[it] = sym;
      iter_step_[it] = step_const;

      AbsEnv out = exec_stmts(s->body, std::move(body_in), body_div);
      begin_phase(s, 2);
      cur_div_ = body_div;
      const AbsVal stp = eval(s->step, out);
      step_acc = join(step_acc, stp.iv);
      out.val[it] = binop_interval(BinOp::Add, it_t, out.val[it], stp.iv, it_t, it_t);
      out.div[it] = static_cast<std::uint8_t>(out.div[it] | (stp.div || body_div));
      out.af[it] = af_non();
      out_.var_summary_[it] = join(out_.var_summary_[it], out.val[it]);

      AbsEnv nh = join_env(head, out);
      if (nh == head) break;
      head = ++rounds >= 2 ? widen_env(head, nh) : std::move(nh);
      if (rounds > 128) break;  // safety net; widening converges long before
    }
    iter_step_.erase(it);
    env = std::move(head);
    env.af[it] = af_non();
    // Exit bound: the first iterator value >= limit is at most
    // limit.hi - 1 + step.hi (or init if the loop never ran); recover it even
    // when widening topped the loop-head interval.
    if (!env.val[it].is_empty() && step_acc.lo >= 1 && lim_acc.finite() &&
        std::isfinite(step_acc.hi)) {
      const double exit_hi =
          std::max(init.iv.hi, lim_acc.hi - 1 + step_acc.hi);
      env.val[it].hi = std::min(env.val[it].hi, exit_hi);
    }
    out_.var_summary_[it] = join(out_.var_summary_[it], env.val[it]);
    return env;
  }

  AbsEnv exec_while(const StmtPtr& sp, AbsEnv env, bool div_ctx) {
    const Stmt* s = sp.get();
    AbsEnv head = std::move(env);
    int rounds = 0;
    for (;;) {
      AbsEnv body_in = head;
      begin_phase(s, 0);
      cur_div_ = div_ctx;
      const AbsVal cond = eval(s->value, body_in);
      if (cond.iv == ValInterval::point(0.0)) break;  // definitely exits
      const bool body_div = div_ctx || cond.div;
      refine_env(body_in, s->value, /*taken=*/true);
      AbsEnv out = exec_stmts(s->body, std::move(body_in), body_div);
      AbsEnv nh = join_env(head, out);
      if (nh == head) break;
      head = ++rounds >= 2 ? widen_env(head, nh) : std::move(nh);
      if (rounds > 128) break;
    }
    return head;
  }

  AbsEnv exec_if(const StmtPtr& sp, AbsEnv env, bool div_ctx) {
    const Stmt* s = sp.get();
    begin_phase(s, 0);
    cur_div_ = div_ctx;
    const AbsVal cond = eval(s->value, env);
    const bool branch_div = div_ctx || cond.div;
    const bool maybe_true = !(cond.iv == ValInterval::point(0.0)) && !cond.iv.is_empty();
    const bool maybe_false = cond.iv.is_empty() || cond.iv.contains(0.0) ||
                             (s->value->type == DType::F32 && is_top(cond.iv, DType::F32));
    if (maybe_true && !maybe_false) {
      AbsEnv t = env;
      refine_env(t, s->value, true);
      return exec_stmts(s->body, std::move(t), branch_div);
    }
    if (maybe_false && !maybe_true)
      return exec_stmts(s->else_body, std::move(env), branch_div);
    AbsEnv t = env, f = std::move(env);
    refine_env(t, s->value, true);
    refine_env(f, s->value, false);
    t = exec_stmts(s->body, std::move(t), branch_div);
    f = exec_stmts(s->else_body, std::move(f), branch_div);
    return join_env(t, f);
  }

  void flatten() {
    for (auto& [id, fact] : detector_map_) out_.detectors_.push_back(std::move(fact));
    for (auto& [ord, fp] : footprints_) out_.shared_stores_.push_back(fp);
  }

  const Kernel& k_;
  IntervalAnalysis& out_;
  std::map<PhaseKey, std::vector<int>> sites_;
  int barrier_count_ = 0;
  PhaseCursor cursor_;
  bool record_ = true;
  bool cur_div_ = false;
  std::map<VarId, double> iter_step_;  ///< constant step of each open For
  std::map<int, DetectorValueFact> detector_map_;
  std::map<int, SharedStoreFootprint> footprints_;
};

IntervalAnalysis::IntervalAnalysis(const Kernel& kernel, const IntervalEnv& env)
    : env_(env) {
  if (env_.block_x == 0) env_.block_x = 1;
  if (env_.block_y == 0) env_.block_y = 1;
  if (env_.grid_x == 0) env_.grid_x = 1;
  if (env_.grid_y == 0) env_.grid_y = 1;
  shared_words_ = env_.shared_words != 0 ? env_.shared_words : kernel.shared_mem_words;
  var_summary_.assign(kernel.vars.size(), ValInterval::empty());
  var_divergent_.assign(kernel.vars.size(), 0);
  IntervalInterp interp(kernel, *this);
  interp.run();
}

std::vector<std::int64_t> access_pcs(const BytecodeProgram& p) {
  std::vector<std::int64_t> pcs;
  for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
    switch (p.code[pc].op) {
      case OpCode::LoadG:
      case OpCode::StoreG:
      case OpCode::LoadS:
      case OpCode::StoreS:
      case OpCode::AtomicAddG:
      case OpCode::Barrier: pcs.push_back(static_cast<std::int64_t>(pc)); break;
      default: break;
    }
  }
  return pcs;
}

}  // namespace hauberk::kir
