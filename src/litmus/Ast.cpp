//===--- Ast.cpp - C/C++ litmus test AST ----------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "litmus/Ast.h"

#include "litmus/Arch.h"
#include "support/Limits.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace telechat;

std::string telechat::archName(Arch A) {
  switch (A) {
  case Arch::AArch64:
    return "Armv8 AArch64 (64-bit)";
  case Arch::Armv7:
    return "Armv7-a (32-bit)";
  case Arch::X86_64:
    return "Intel x86-64 (64-bit)";
  case Arch::RiscV:
    return "RISC-V (64-bit)";
  case Arch::Ppc:
    return "IBM PowerPC (64-bit)";
  case Arch::Mips:
    return "MIPS (64-bit)";
  }
  return "unknown";
}

void Expr::collectRegs(std::vector<std::string> &Out) const {
  switch (K) {
  case Kind::Imm:
    return;
  case Kind::Reg:
    Out.push_back(RegName);
    return;
  case Kind::Add:
  case Kind::Sub:
  case Kind::Xor:
  case Kind::And:
    for (const Expr &Op : Ops)
      Op.collectRegs(Out);
    return;
  }
}

Stmt Stmt::load(std::string Dst, std::string Loc, MemOrder O) {
  Stmt S;
  S.K = Kind::Load;
  S.Dst = std::move(Dst);
  S.Loc = std::move(Loc);
  S.Order = O;
  return S;
}

Stmt Stmt::store(std::string Loc, Expr V, MemOrder O) {
  Stmt S;
  S.K = Kind::Store;
  S.Loc = std::move(Loc);
  S.Val = std::move(V);
  S.Order = O;
  return S;
}

Stmt Stmt::fence(MemOrder O) {
  Stmt S;
  S.K = Kind::Fence;
  S.Order = O;
  return S;
}

Stmt Stmt::rmw(RmwKind K, std::string Dst, std::string Loc, Expr V,
               MemOrder O) {
  Stmt S;
  S.K = Kind::Rmw;
  S.Rmw = K;
  S.Dst = std::move(Dst);
  S.Loc = std::move(Loc);
  S.Val = std::move(V);
  S.Order = O;
  return S;
}

Stmt Stmt::localAssign(std::string Dst, Expr V) {
  Stmt S;
  S.K = Kind::LocalAssign;
  S.Dst = std::move(Dst);
  S.Val = std::move(V);
  return S;
}

Stmt Stmt::ifNonZero(Expr Cond, std::vector<Stmt> Then,
                     std::vector<Stmt> Else) {
  Stmt S;
  S.K = Kind::If;
  S.Cond = std::move(Cond);
  S.Then = std::move(Then);
  S.Else = std::move(Else);
  return S;
}

const LocDecl *LitmusTest::findLocation(const std::string &Name) const {
  for (const LocDecl &L : Locations)
    if (L.Name == Name)
      return &L;
  return nullptr;
}

LocDecl *LitmusTest::findLocation(const std::string &Name) {
  for (LocDecl &L : Locations)
    if (L.Name == Name)
      return &L;
  return nullptr;
}

void telechat::forEachStmt(const std::vector<Stmt> &Body,
                           const std::function<void(const Stmt &)> &Fn) {
  for (const Stmt &S : Body) {
    Fn(S);
    if (S.K == Stmt::Kind::If) {
      forEachStmt(S.Then, Fn);
      forEachStmt(S.Else, Fn);
    }
  }
}

std::vector<std::string> telechat::assignedRegisters(const Thread &T) {
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  forEachStmt(T.Body, [&](const Stmt &S) {
    if (S.Dst.empty() || Seen.count(S.Dst))
      return;
    Seen.insert(S.Dst);
    Out.push_back(S.Dst);
  });
  return Out;
}

namespace {

/// Validation walker: checks register def-before-use and location refs,
/// and counts tree depth as the wire decoder does (decodeLitmusTest): a
/// thread's statements sit at depth 0, a statement's expressions and
/// nested statements one level below it, the final predicate's root at 0,
/// and no node may sit deeper than MaxTreeDepth.
class Validator {
public:
  Validator(const LitmusTest &T) : Test(T) {}

  std::string run() {
    std::set<std::string> Names;
    for (const Thread &T : Test.Threads) {
      if (!Names.insert(T.Name).second)
        return "duplicate thread name " + T.Name;
      Defined.clear();
      if (std::string E = checkBody(T.Body, T.Name, 0); !E.empty())
        return E;
    }
    if (!fits(Test.Final.P, 0))
      return strFormat("final condition nests deeper than %u levels",
                       MaxTreeDepth);
    return "";
  }

private:
  static std::string tooDeep(const std::string &ThreadName) {
    return strFormat("thread %s nests deeper than %u levels",
                     ThreadName.c_str(), MaxTreeDepth);
  }

  /// Whether \p P, its root at \p Depth, has no node below MaxTreeDepth.
  static bool fits(const Predicate &P, unsigned Depth) {
    if (Depth > MaxTreeDepth)
      return false;
    for (const Predicate &Op : P.Ops)
      if (!fits(Op, Depth + 1))
        return false;
    return true;
  }

  /// Checks \p E, its root at \p Depth: its depth, and when \p Reads,
  /// that the registers it reads are defined.
  std::string checkExpr(const Expr &E, unsigned Depth, bool Reads,
                        const std::string &ThreadName) {
    if (Depth > MaxTreeDepth)
      return tooDeep(ThreadName);
    if (Reads && E.K == Expr::Kind::Reg && !Defined.count(E.RegName))
      return "thread " + ThreadName + " reads undefined register " +
             E.RegName;
    bool Binary = E.K != Expr::Kind::Imm && E.K != Expr::Kind::Reg;
    for (const Expr &Op : E.Ops)
      if (std::string Err = checkExpr(Op, Depth + 1, Reads && Binary,
                                      ThreadName);
          !Err.empty())
        return Err;
    return "";
  }

  std::string checkBody(const std::vector<Stmt> &Body,
                        const std::string &ThreadName, unsigned Depth) {
    for (const Stmt &S : Body) {
      bool Access = S.K == Stmt::Kind::Load || S.K == Stmt::Kind::Rmw ||
                    S.K == Stmt::Kind::Store;
      if (Access && !Test.findLocation(S.Loc))
        return "thread " + ThreadName + " accesses undeclared location " +
               S.Loc;
      // Every statement carries both expressions, read or not, so a
      // statement deeper than the limit fails here too.
      bool ReadsVal = S.K == Stmt::Kind::Rmw || S.K == Stmt::Kind::Store ||
                      S.K == Stmt::Kind::LocalAssign;
      if (std::string E = checkExpr(S.Val, Depth + 1, ReadsVal, ThreadName);
          !E.empty())
        return E;
      if (std::string E = checkExpr(S.Cond, Depth + 1,
                                    S.K == Stmt::Kind::If, ThreadName);
          !E.empty())
        return E;
      if (S.K == Stmt::Kind::Load || S.K == Stmt::Kind::Rmw ||
          S.K == Stmt::Kind::LocalAssign)
        Defined.insert(S.Dst);
      // Registers defined on both arms stay defined; defined on one arm
      // may be read later only if the herd zero-init convention applies.
      // We accept one-arm definitions (herd does too).
      if (std::string E = checkBody(S.Then, ThreadName, Depth + 1); !E.empty())
        return E;
      if (std::string E = checkBody(S.Else, ThreadName, Depth + 1); !E.empty())
        return E;
    }
    return "";
  }

  const LitmusTest &Test;
  std::set<std::string> Defined;
};

} // namespace

std::string LitmusTest::validate() const { return Validator(*this).run(); }
