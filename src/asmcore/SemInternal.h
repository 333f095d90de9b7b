//===--- SemInternal.h - Per-ISA semantics factories ------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private header: factories for the per-ISA semantics singletons plus
/// small helpers shared by the Sem*.cpp files.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_ASMCORE_SEMINTERNAL_H
#define TELECHAT_ASMCORE_SEMINTERNAL_H

#include "asmcore/Semantics.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>

namespace telechat {

const InstSemantics &aarch64Semantics();
const InstSemantics &armv7Semantics();
const InstSemantics &x86Semantics();
const InstSemantics &riscvSemantics();
const InstSemantics &ppcSemantics();
const InstSemantics &mipsSemantics();

namespace semdetail {

/// \p C in lowercase, as canonReg folds it.
inline char lowerChar(char C) {
  return char(tolower(static_cast<unsigned char>(C)));
}

/// True when \p Tok, ignoring case, is one of the lowercase \p Names.
inline bool isOneOf(std::string_view Tok,
                    std::initializer_list<std::string_view> Names) {
  for (std::string_view N : Names)
    if (N.size() == Tok.size() &&
        std::equal(N.begin(), N.end(), Tok.begin(),
                   [](char A, char B) { return A == lowerChar(B); }))
      return true;
  return false;
}

/// True when \p Tok has a character at \p From and only digits from there.
inline bool digitsFrom(std::string_view Tok, size_t From) {
  if (From >= Tok.size())
    return false;
  for (size_t I = From; I != Tok.size(); ++I)
    if (!isdigit(static_cast<unsigned char>(Tok[I])))
      return false;
  return true;
}

/// Emits a plain load op.
inline SimOp makeLoad(std::string Dst, SimAddr Addr,
                      std::set<std::string> Tags = {}) {
  SimOp Op;
  Op.K = SimOp::Kind::Load;
  Op.Dst = std::move(Dst);
  Op.Addr = std::move(Addr);
  Op.Tags = std::move(Tags);
  return Op;
}

/// Emits a plain store op.
inline SimOp makeStore(SimAddr Addr, Expr Val,
                       std::set<std::string> Tags = {}) {
  SimOp Op;
  Op.K = SimOp::Kind::Store;
  Op.Addr = std::move(Addr);
  Op.Val = std::move(Val);
  Op.WTags = std::move(Tags);
  return Op;
}

/// Emits a fence op.
inline SimOp makeFence(std::set<std::string> Tags) {
  SimOp Op;
  Op.K = SimOp::Kind::Fence;
  Op.Tags = std::move(Tags);
  return Op;
}

/// Emits a register assignment.
inline SimOp makeAssign(std::string Dst, Expr Val) {
  SimOp Op;
  Op.K = SimOp::Kind::Assign;
  Op.Dst = std::move(Dst);
  Op.Val = std::move(Val);
  return Op;
}

} // namespace semdetail
} // namespace telechat

#endif // TELECHAT_ASMCORE_SEMINTERNAL_H
