// Lossless kernel serializer (serialize_kernel / parse_kernel).
//
// The format is a flat s-expression over fat nodes: every Expr and Stmt
// field is emitted positionally, whether or not the node's kind uses it.
// That makes the writer and reader trivially symmetric and immune to the
// "printer dropped a field the lowering reads" class of round-trip bug —
// there is no per-kind field selection to get wrong.  Value payloads are
// written as raw 32-bit bit patterns (floats never go through decimal),
// and names/labels are quoted with C-style escapes.
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "kir/printer.hpp"

namespace hauberk::kir {

namespace {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void write_u32(std::string& out, std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u", v);
  out += buf;
}

void write_i32(std::string& out, std::int32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", v);
  out += buf;
}

void write_expr(std::string& out, const ExprPtr& e) {
  if (!e) {
    out += " _";
    return;
  }
  out += " (e ";
  write_u32(out, static_cast<std::uint32_t>(e->kind));
  out += ' ';
  write_u32(out, static_cast<std::uint32_t>(e->type));
  out += ' ';
  write_u32(out, static_cast<std::uint32_t>(e->constant.type));
  out += ' ';
  write_u32(out, e->constant.bits);
  out += ' ';
  write_u32(out, e->var);
  out += ' ';
  write_u32(out, e->param);
  out += ' ';
  write_u32(out, static_cast<std::uint32_t>(e->builtin));
  out += ' ';
  write_u32(out, static_cast<std::uint32_t>(e->un));
  out += ' ';
  write_u32(out, static_cast<std::uint32_t>(e->bin));
  write_expr(out, e->a);
  write_expr(out, e->b);
  write_expr(out, e->c);
  out += ')';
}

void write_stmts(std::string& out, const StmtList& body);

void write_stmt(std::string& out, const StmtPtr& s) {
  out += " (s ";
  write_u32(out, static_cast<std::uint32_t>(s->kind));
  out += ' ';
  write_u32(out, s->var);
  out += ' ';
  write_i32(out, s->detector_id);
  out += ' ';
  write_u32(out, s->site);
  out += ' ';
  write_u32(out, static_cast<std::uint32_t>(s->hw));
  out += ' ';
  write_u32(out, s->loop_id);
  out += ' ';
  write_u32(out, s->extra_flags);
  out += ' ';
  write_u32(out, s->hauberk_internal ? 1 : 0);
  out += ' ';
  write_u32(out, s->fi_dead_window ? 1 : 0);
  out += ' ';
  write_string(out, s->label);
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
// Reader
// ---------------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  /// True (and consumed) when the next token starts with `c`.
  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_tag(const char* tag) {
    skip_ws();
    for (const char* t = tag; *t; ++t) {
      if (pos_ >= text_.size() || text_[pos_] != *t)
        fail(std::string("expected tag '") + tag + "'");
      ++pos_;
    }
  }

  std::uint32_t read_u32() {
    const auto [v, neg] = read_digits();
    if (neg) fail("unexpected negative integer");
    return static_cast<std::uint32_t>(v);
  }

  std::int32_t read_i32() {
    const auto [v, neg] = read_digits();
    return neg ? -static_cast<std::int32_t>(v) : static_cast<std::int32_t>(v);
  }

  std::string read_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("truncated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: fail("unknown escape");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("kir::parse_kernel: " + why + " at offset " +
                             std::to_string(pos_));
  }

  /// Nesting limit for the recursive descent: every expression and statement
  /// level counts one.  The deepest kernel the 12 workloads and the 216
  /// translator configurations produce nests 15 levels, so this leaves over
  /// two orders of magnitude of headroom while keeping hostile input (a
  /// 100k-deep expression) from overflowing the stack.
  static constexpr std::size_t kMaxNesting = 4096;

  /// RAII nesting level; throws past kMaxNesting.
  class Nest {
   public:
    explicit Nest(Reader& r) : r_(r) {
      if (r_.depth_ == kMaxNesting)
        r_.fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
      ++r_.depth_;
    }
    ~Nest() { --r_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Reader& r_;
  };

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t'))
      ++pos_;
  }

  struct Digits {
    std::uint64_t value;
    bool negative;
  };
  Digits read_digits() {
    skip_ws();
    bool neg = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      neg = true;
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
      fail("expected integer");
    std::uint64_t v = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      if (v > 0xffffffffull) fail("integer out of range");
      ++pos_;
    }
    return {v, neg};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

template <typename E>
E read_enum(Reader& r, std::uint32_t max, const char* what) {
  const std::uint32_t v = r.read_u32();
  if (v > max) r.fail(std::string("out-of-range ") + what);
  return static_cast<E>(v);
}

ExprPtr read_expr(Reader& r) {
  if (r.accept('_')) return nullptr;
  const Reader::Nest nest(r);
  r.expect('(');
  r.expect_tag("e");
  auto e = std::make_shared<Expr>();
  e->kind = read_enum<ExprKind>(r, static_cast<std::uint32_t>(ExprKind::Select), "ExprKind");
  e->type = read_enum<DType>(r, static_cast<std::uint32_t>(DType::PTR), "DType");
  e->constant.type = read_enum<DType>(r, static_cast<std::uint32_t>(DType::PTR), "DType");
  e->constant.bits = r.read_u32();
  e->var = r.read_u32();
  e->param = r.read_u32();
  e->builtin =
      read_enum<BuiltinVal>(r, static_cast<std::uint32_t>(BuiltinVal::ThreadLinear), "BuiltinVal");
  e->un = read_enum<UnOp>(r, static_cast<std::uint32_t>(UnOp::CastI32), "UnOp");
  e->bin = read_enum<BinOp>(r, static_cast<std::uint32_t>(BinOp::LogicalOr), "BinOp");
  e->a = read_expr(r);
  e->b = read_expr(r);
  e->c = read_expr(r);
  r.expect(')');
  return e;
}

StmtList read_stmts(Reader& r);

StmtPtr read_stmt(Reader& r) {
  const Reader::Nest nest(r);
  r.expect_tag("s");
  auto s = std::make_shared<Stmt>();
  s->kind = read_enum<StmtKind>(r, static_cast<std::uint32_t>(StmtKind::FIHook), "StmtKind");
  s->var = r.read_u32();
  s->detector_id = r.read_i32();
  s->site = r.read_u32();
  s->hw = read_enum<HwComponent>(r, static_cast<std::uint32_t>(HwComponent::Memory),
                                 "HwComponent");
  s->loop_id = r.read_u32();
  const std::uint32_t flags = r.read_u32();
  if (flags > 0xffu) r.fail("extra_flags out of range");
  s->extra_flags = static_cast<std::uint8_t>(flags);
  s->hauberk_internal = r.read_u32() != 0;
  s->fi_dead_window = r.read_u32() != 0;
  s->label = r.read_string();
  s->value = read_expr(r);
  s->addr = read_expr(r);
  s->rhs = read_expr(r);
  s->init = read_expr(r);
  s->limit = read_expr(r);
  s->step = read_expr(r);
  s->body = read_stmts(r);
  s->else_body = read_stmts(r);
  r.expect(')');
  return s;
}

StmtList read_stmts(Reader& r) {
  r.expect('(');
  StmtList out;
  while (!r.accept(')')) {
    r.expect('(');
    out.push_back(read_stmt(r));
  }
  return out;
}

}  // namespace

std::string serialize_kernel(const Kernel& k) {
  std::string out = "(kernel ";
  write_string(out, k.name);
  out += ' ';
  write_u32(out, k.shared_mem_words);
  out += ' ';
  write_u32(out, k.num_loops);
  out += "\n (params";
  for (const auto& p : k.params) {
    out += " (";
    write_string(out, p.name);
    out += ' ';
    write_u32(out, static_cast<std::uint32_t>(p.type));
    out += ')';
  }
  out += ")\n (vars";
  for (const auto& v : k.vars) {
    out += " (";
    write_string(out, v.name);
    out += ' ';
    write_u32(out, static_cast<std::uint32_t>(v.type));
    out += ' ';
    write_u32(out, v.scatter_shadow ? 1 : 0);
    out += ')';
  }
  out += ")\n";
  write_stmts(out, k.body);
  out += ")\n";
  return out;
}

Kernel parse_kernel(const std::string& text) {
  Reader r(text);
  Kernel k;
  r.expect('(');
  r.expect_tag("kernel");
  k.name = r.read_string();
  k.shared_mem_words = r.read_u32();
  k.num_loops = r.read_u32();
  r.expect('(');
  r.expect_tag("params");
  while (r.accept('(')) {
    KernelParam p;
    p.name = r.read_string();
    p.type = read_enum<DType>(r, static_cast<std::uint32_t>(DType::PTR), "DType");
    r.expect(')');
    k.params.push_back(std::move(p));
  }
  r.expect(')');
  r.expect('(');
  r.expect_tag("vars");
  while (r.accept('(')) {
    VarInfo v;
    v.name = r.read_string();
    v.type = read_enum<DType>(r, static_cast<std::uint32_t>(DType::PTR), "DType");
    v.scatter_shadow = r.read_u32() != 0;
    r.expect(')');
    k.vars.push_back(std::move(v));
  }
  r.expect(')');
  k.body = read_stmts(r);
  r.expect(')');
  return k;
}

}  // namespace hauberk::kir
