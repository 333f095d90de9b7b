//===--- Ast.h - Cat model language AST -------------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the subset of the Cat language (Alglave, Cousot, Maranget:
/// "Syntax and semantics of the weak consistency model specification
/// language cat") used by the models in src/models. Memory models are
/// *data* in this repository: Télétchat is parameterised over source and
/// architecture models exactly as the paper requires (property 2).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CAT_AST_H
#define TELECHAT_CAT_AST_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace telechat {

struct CatProgram; // cat/Eval.cpp: a model compiled for CatEvaluator.

/// An expression over relations and event sets.
struct CatExpr {
  enum class Kind {
    Id,       ///< Identifier (let-bound, builtin, or event tag set).
    Zero,     ///< "0": the empty relation.
    Union,    ///< e | e (on two relations or two sets)
    Seq,      ///< e ; e
    Diff,     ///< e \ e
    Inter,    ///< e & e
    Cross,    ///< S * S  (cartesian product of sets)
    Inverse,  ///< e^-1
    Plus,     ///< e^+
    Star,     ///< e^*
    Opt,      ///< e?
    Bracket,  ///< [S]: identity relation on a set
    Domain,   ///< domain(e)
    Range,    ///< range(e)
    FenceRel, ///< fencerel(S) = po; [S]; po
  };

  Kind K = Kind::Zero;
  std::string Name;          ///< Kind::Id payload.
  std::vector<CatExpr> Ops;  ///< Sub-expressions.
  unsigned Line = 0;         ///< For diagnostics.
};

/// One binding of a let / let rec group.
struct CatBinding {
  std::string Name;
  CatExpr Body;
};

/// A model requirement or flag.
struct CatCheck {
  enum class Test { Acyclic, Irreflexive, Empty } T = Test::Acyclic;
  bool Negated = false; ///< "~empty" etc.
  bool IsFlag = false;  ///< "flag ...": fires a named flag instead of
                        ///< forbidding the execution.
  CatExpr E;
  std::string Name; ///< "as <name>"; synthesised when absent.
};

/// A top-level statement.
struct CatStmt {
  enum class Kind { Let, LetRec, Check } K = Kind::Let;
  std::vector<CatBinding> Bindings; ///< Let / LetRec.
  CatCheck Check;                   ///< Check.
};

/// Holds a model's compiled program. The first CatEvaluator built on the
/// model compiles it under the lock; every later one shares it. A copy of
/// a model starts without a program, so a copy may be edited before it
/// is first evaluated. A model must not be edited after that.
struct CatProgramSlot {
  CatProgramSlot() = default;
  CatProgramSlot(const CatProgramSlot &) {}
  CatProgramSlot &operator=(const CatProgramSlot &) {
    std::lock_guard<std::mutex> Lock(M);
    Program.reset();
    return *this;
  }

  std::mutex M;
  std::shared_ptr<const CatProgram> Program;
};

/// A parsed model.
struct CatModel {
  std::string Name;
  std::vector<CatStmt> Stmts;
  mutable CatProgramSlot Compiled; ///< See CatProgramSlot.
};

} // namespace telechat

#endif // TELECHAT_CAT_AST_H
