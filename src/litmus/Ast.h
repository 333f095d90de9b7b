//===--- Ast.h - C/C++ litmus test AST --------------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax of C/C++ litmus tests (paper §II-A): a fixed initial
/// state, a concurrent program, and a predicate over the final state. The
/// statement language covers exactly the constructs of Table III: atomic
/// operations, non-atomic operations, fences, control flow and straight-line
/// code, over signed/unsigned integers of 8..128 bits.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_LITMUS_AST_H
#define TELECHAT_LITMUS_AST_H

#include "litmus/MemOrder.h"
#include "litmus/Predicate.h"
#include "litmus/Value.h"

#include <string>
#include <vector>

namespace telechat {

/// Thread-local expression: immediates, registers, and the arithmetic used
/// to build data dependencies (r0+1, r0^r0, ...).
struct Expr {
  enum class Kind { Imm, Reg, Add, Sub, Xor, And } K = Kind::Imm;

  Value Imm;           ///< Kind::Imm payload.
  std::string RegName; ///< Kind::Reg payload.
  std::vector<Expr> Ops; ///< Binary kinds: exactly two operands.

  static Expr imm(Value V) {
    Expr E;
    E.K = Kind::Imm;
    E.Imm = V;
    return E;
  }
  static Expr reg(std::string Name) {
    Expr E;
    E.K = Kind::Reg;
    E.RegName = std::move(Name);
    return E;
  }
  static Expr binary(Kind K, Expr L, Expr R) {
    Expr E;
    E.K = K;
    E.Ops.push_back(std::move(L));
    E.Ops.push_back(std::move(R));
    return E;
  }

  /// Registers read by this expression, appended to \p Out.
  void collectRegs(std::vector<std::string> &Out) const;

  bool operator==(const Expr &) const = default;
};

/// Read-modify-write flavours supported by the compiler under test.
enum class RmwKind {
  Xchg,     ///< atomic_exchange_explicit
  FetchAdd, ///< atomic_fetch_add_explicit
  FetchSub, ///< atomic_fetch_sub_explicit
};

/// A single statement in a litmus thread.
struct Stmt {
  enum class Kind {
    Load,        ///< Dst = load Loc (atomic iff Order != NA)
    Store,       ///< store Loc, Val
    Fence,       ///< atomic_thread_fence(Order)
    Rmw,         ///< Dst = rmw Loc op Val
    If,          ///< if (Cond) Then else Else
    LocalAssign, ///< Dst = Val (pure thread-local computation)
  };

  Kind K = Kind::Load;
  std::string Dst;       ///< Load / Rmw / LocalAssign destination register.
  std::string Loc;       ///< Load / Store / Rmw location symbol.
  MemOrder Order = MemOrder::NA; ///< NA means a plain (non-atomic) access.
  Expr Val;              ///< Store value / Rmw operand / LocalAssign rhs.
  RmwKind Rmw = RmwKind::Xchg;
  bool DstUsedNowhere = false; ///< Set by analyses: result is dead.
  Expr Cond;                   ///< If condition (nonzero taken).
  std::vector<Stmt> Then;
  std::vector<Stmt> Else;

  static Stmt load(std::string Dst, std::string Loc, MemOrder O);
  static Stmt store(std::string Loc, Expr V, MemOrder O);
  static Stmt store(std::string Loc, Value V, MemOrder O) {
    return store(std::move(Loc), Expr::imm(V), O);
  }
  static Stmt fence(MemOrder O);
  static Stmt rmw(RmwKind K, std::string Dst, std::string Loc, Expr V,
                  MemOrder O);
  static Stmt localAssign(std::string Dst, Expr V);
  static Stmt ifNonZero(Expr Cond, std::vector<Stmt> Then,
                        std::vector<Stmt> Else = {});

  bool operator==(const Stmt &) const = default;
};

/// A shared memory location declaration from the initial state.
struct LocDecl {
  std::string Name;
  IntType Type{32, true};
  bool Atomic = true;
  bool Const = false; ///< Read-only data; writes are const violations.
  Value Init;

  bool operator==(const LocDecl &) const = default;
};

/// One thread of the concurrent program.
struct Thread {
  std::string Name; ///< "P0", "P1", ...
  std::vector<Stmt> Body;

  bool operator==(const Thread &) const = default;
};

/// A complete C/C++ litmus test.
struct LitmusTest {
  std::string Name;
  std::vector<LocDecl> Locations;
  std::vector<Thread> Threads;
  FinalCond Final;

  const LocDecl *findLocation(const std::string &Name) const;
  LocDecl *findLocation(const std::string &Name);

  /// Structural sanity checks: registers defined before use, locations
  /// declared, thread names unique. Returns an error message or "".
  std::string validate() const;

  /// Structural identity, names included.
  bool operator==(const LitmusTest &) const = default;
};

/// Visits all statements of a body including nested branches.
void forEachStmt(const std::vector<Stmt> &Body,
                 const std::function<void(const Stmt &)> &Fn);

/// Registers whose values a thread assigns anywhere.
std::vector<std::string> assignedRegisters(const Thread &T);

} // namespace telechat

#endif // TELECHAT_LITMUS_AST_H
