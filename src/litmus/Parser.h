//===--- Parser.h - C litmus test parser ------------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the herd-style C litmus format used throughout the paper
/// (Fig. 1, 7, 9, 10, 11):
///
/// \code
///   C MP+fences
///   { *x = 0; *y = 0; }
///   #define relaxed memory_order_relaxed
///   void P0(atomic_int* y, atomic_int* x) {
///     atomic_store_explicit(x, 1, relaxed);
///     atomic_thread_fence(memory_order_release);
///     int r0 = atomic_load_explicit(y, relaxed);
///     if (r0) { *y = 1; }
///   }
///   exists (P0:r0=1 /\ y=2)
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_LITMUS_PARSER_H
#define TELECHAT_LITMUS_PARSER_H

#include "litmus/Ast.h"
#include "support/Error.h"

#include <string_view>

namespace telechat {

/// Parses a C litmus test; on failure, the error message includes the
/// line number.
ErrorOr<LitmusTest> parseLitmusC(std::string_view Text);

/// Parses a standalone final condition ("exists (P0:r0=1 /\ [x]=2:1)"),
/// as used by assembly litmus tests. Wide values spell as "hi:lo".
/// Errors count lines from \p FirstLine, the file line \p Text starts on.
ErrorOr<FinalCond> parseFinalCondition(std::string_view Text,
                                       unsigned FirstLine = 1);

} // namespace telechat

#endif // TELECHAT_LITMUS_PARSER_H
