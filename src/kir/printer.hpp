// Pretty-printers for kernels and loop dataflow graphs, plus the lossless
// kernel serializer.
//
// `print_kernel` renders the AST in a C-like syntax so instrumented kernels
// can be inspected (the analogue of reading the Hauberk translator's output
// source).  `print_loop_dataflow` renders the Fig. 9 style graph with the
// cumulative backward dataflow dependency of every node.
//
// `serialize_kernel` / `parse_kernel` are the round-trip pair: every AST
// field is written out (Value payloads as exact bit patterns, labels and
// names escaped), so lowering the parsed kernel yields a bytecode program
// bit-identical to lowering the original — `kir::program_digest` is the
// equality oracle the round-trip tests pin on.  The text is the strict
// s-expression dialect plans share (common/sexpr.hpp).
#pragma once

#include <string>

#include "kir/analysis.hpp"
#include "kir/ast.hpp"

namespace hauberk::kir {

std::string print_expr(const ExprPtr& e, const Kernel& k);
std::string print_kernel(const Kernel& k);
std::string print_loop_dataflow(const Kernel& k, const LoopDataflow& df);

/// Lossless s-expression rendering of a kernel (machine format, not the
/// human-readable print_kernel syntax).
[[nodiscard]] std::string serialize_kernel(const Kernel& k);

/// Inverse of serialize_kernel.  Throws std::runtime_error
/// "kir::parse_kernel: <why> at offset <n>" on malformed input (truncated
/// stream, unknown tags, out-of-range fields, trailing bytes, CR bytes,
/// nesting deeper than common::sexpr::kMaxNesting).
[[nodiscard]] Kernel parse_kernel(const std::string& text);

}  // namespace hauberk::kir
