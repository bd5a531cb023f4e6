// Lossless kernel serializer (serialize_kernel / parse_kernel).
//
// The format is a flat s-expression over fat nodes: every Expr and Stmt
// field is emitted positionally, whether or not the node's kind uses it.
// That makes the writer and reader trivially symmetric and immune to the
// "printer dropped a field the lowering reads" class of round-trip bug —
// there is no per-kind field selection to get wrong.  Value payloads are
// written as raw 32-bit bit patterns (floats never go through decimal),
// and names/labels are quoted with C-style escapes.  The lexical dialect,
// the nesting cap and the error form are common/sexpr.hpp's.
#include <cstdint>
#include <string>

#include "common/sexpr.hpp"
#include "kir/printer.hpp"

namespace hauberk::kir {

namespace {

namespace sexpr = common::sexpr;
using sexpr::Tok;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// One positional integer field: a space, then the decimal value.
void put(std::string& out, std::int64_t v) {
  out += ' ';
  out += std::to_string(v);
}

template <typename E>
std::int64_t u(E v) {
  return static_cast<std::int64_t>(static_cast<std::uint32_t>(v));
}

void write_expr(std::string& out, const ExprPtr& e) {
  if (!e) {
    out += " _";
    return;
  }
  out += " (e";
  put(out, u(e->kind));
  put(out, u(e->type));
  put(out, u(e->constant.type));
  put(out, e->constant.bits);
  put(out, e->var);
  put(out, e->param);
  put(out, u(e->builtin));
  put(out, u(e->un));
  put(out, u(e->bin));
  write_expr(out, e->a);
  write_expr(out, e->b);
  write_expr(out, e->c);
  out += ')';
}

void write_stmts(std::string& out, const StmtList& body);

void write_stmt(std::string& out, const StmtPtr& s) {
  out += " (s";
  put(out, u(s->kind));
  put(out, s->var);
  put(out, s->detector_id);
  put(out, s->site);
  put(out, u(s->hw));
  put(out, s->loop_id);
  put(out, s->extra_flags);
  put(out, s->hauberk_internal ? 1 : 0);
  put(out, s->fi_dead_window ? 1 : 0);
  out += ' ';
  sexpr::write_string(out, s->label);
  write_expr(out, s->value);
  write_expr(out, s->addr);
  write_expr(out, s->rhs);
  write_expr(out, s->init);
  write_expr(out, s->limit);
  write_expr(out, s->step);
  write_stmts(out, s->body);
  write_stmts(out, s->else_body);
  out += ')';
}

void write_stmts(std::string& out, const StmtList& body) {
  out += " (";
  for (const auto& s : body) write_stmt(out, s);
  out += ')';
}

// ---------------------------------------------------------------------------
// Reader (recursion is bounded by the reader's nesting cap)
// ---------------------------------------------------------------------------

std::uint32_t read_u32(sexpr::Reader& r, const char* what) {
  return static_cast<std::uint32_t>(r.integer(0, UINT32_MAX, what));
}

template <typename E>
E read_enum(sexpr::Reader& r, E max, const char* what) {
  return static_cast<E>(r.integer(0, u(max), what));
}

ExprPtr read_expr(sexpr::Reader& r) {
  if (r.accept_atom("_")) return nullptr;
  r.expect(Tok::LParen, "expected expression");
  r.expect_atom("e");
  auto e = std::make_shared<Expr>();
  e->kind = read_enum(r, ExprKind::Select, "ExprKind");
  e->type = read_enum(r, DType::PTR, "DType");
  e->constant.type = read_enum(r, DType::PTR, "DType");
  e->constant.bits = read_u32(r, "constant bits");
  e->var = read_u32(r, "var");
  e->param = read_u32(r, "param");
  e->builtin = read_enum(r, BuiltinVal::ThreadLinear, "BuiltinVal");
  e->un = read_enum(r, UnOp::CastI32, "UnOp");
  e->bin = read_enum(r, BinOp::LogicalOr, "BinOp");
  e->a = read_expr(r);
  e->b = read_expr(r);
  e->c = read_expr(r);
  r.expect(Tok::RParen, "expected ')' closing expression");
  return e;
}

StmtList read_stmts(sexpr::Reader& r);

StmtPtr read_stmt(sexpr::Reader& r) {
  r.expect_atom("s");
  auto s = std::make_shared<Stmt>();
  s->kind = read_enum(r, StmtKind::FIHook, "StmtKind");
  s->var = read_u32(r, "var");
  s->detector_id = static_cast<int>(r.integer(INT32_MIN, INT32_MAX, "detector id"));
  s->site = read_u32(r, "site");
  s->hw = read_enum(r, HwComponent::Memory, "HwComponent");
  s->loop_id = read_u32(r, "loop id");
  s->extra_flags = static_cast<std::uint8_t>(r.integer(0, 0xff, "extra_flags"));
  s->hauberk_internal = read_u32(r, "internal flag") != 0;
  s->fi_dead_window = read_u32(r, "dead-window flag") != 0;
  s->label = r.string("label");
  s->value = read_expr(r);
  s->addr = read_expr(r);
  s->rhs = read_expr(r);
  s->init = read_expr(r);
  s->limit = read_expr(r);
  s->step = read_expr(r);
  s->body = read_stmts(r);
  s->else_body = read_stmts(r);
  r.expect(Tok::RParen, "expected ')' closing statement");
  return s;
}

StmtList read_stmts(sexpr::Reader& r) {
  r.expect(Tok::LParen, "expected statement list");
  StmtList out;
  while (!r.accept(Tok::RParen)) {
    r.expect(Tok::LParen, "expected statement");
    out.push_back(read_stmt(r));
  }
  return out;
}

}  // namespace

std::string serialize_kernel(const Kernel& k) {
  std::string out = "(kernel ";
  sexpr::write_string(out, k.name);
  put(out, k.shared_mem_words);
  put(out, k.num_loops);
  out += "\n (params";
  for (const auto& p : k.params) {
    out += " (";
    sexpr::write_string(out, p.name);
    put(out, u(p.type));
    out += ')';
  }
  out += ")\n (vars";
  for (const auto& v : k.vars) {
    out += " (";
    sexpr::write_string(out, v.name);
    put(out, u(v.type));
    put(out, v.scatter_shadow ? 1 : 0);
    out += ')';
  }
  out += ")\n";
  write_stmts(out, k.body);
  out += ")\n";
  return out;
}

Kernel parse_kernel(const std::string& text) {
  sexpr::Reader r(text, "kir::parse_kernel: ");
  Kernel k;
  r.expect(Tok::LParen, "expected '('");
  r.expect_atom("kernel");
  k.name = r.string("kernel name");
  k.shared_mem_words = read_u32(r, "shared_mem_words");
  k.num_loops = read_u32(r, "num_loops");
  r.expect(Tok::LParen, "expected '(params ...)'");
  r.expect_atom("params");
  while (r.accept(Tok::LParen)) {
    KernelParam p;
    p.name = r.string("param name");
    p.type = read_enum(r, DType::PTR, "DType");
    r.expect(Tok::RParen, "expected ')' closing param");
    k.params.push_back(std::move(p));
  }
  r.expect(Tok::RParen, "expected ')' closing params");
  r.expect(Tok::LParen, "expected '(vars ...)'");
  r.expect_atom("vars");
  while (r.accept(Tok::LParen)) {
    VarInfo v;
    v.name = r.string("var name");
    v.type = read_enum(r, DType::PTR, "DType");
    v.scatter_shadow = read_u32(r, "scatter_shadow") != 0;
    r.expect(Tok::RParen, "expected ')' closing var");
    k.vars.push_back(std::move(v));
  }
  r.expect(Tok::RParen, "expected ')' closing vars");
  k.body = read_stmts(r);
  r.expect(Tok::RParen, "expected ')' closing kernel");
  r.expect_end("trailing garbage after kernel");
  return k;
}

}  // namespace hauberk::kir
