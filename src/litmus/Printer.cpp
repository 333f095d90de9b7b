//===--- Printer.cpp - C litmus test printer ------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "litmus/Printer.h"

#include "support/StringUtils.h"

using namespace telechat;

std::string telechat::printExpr(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::Imm:
    return E.Imm.toString();
  case Expr::Kind::Reg:
    return E.RegName;
  case Expr::Kind::Add:
    return "(" + printExpr(E.Ops[0]) + " + " + printExpr(E.Ops[1]) + ")";
  case Expr::Kind::Sub:
    return "(" + printExpr(E.Ops[0]) + " - " + printExpr(E.Ops[1]) + ")";
  case Expr::Kind::Xor:
    return "(" + printExpr(E.Ops[0]) + " ^ " + printExpr(E.Ops[1]) + ")";
  case Expr::Kind::And:
    return "(" + printExpr(E.Ops[0]) + " & " + printExpr(E.Ops[1]) + ")";
  }
  return "0";
}

namespace {

/// C11 spelling of an atomic location's type. Widths are part of a
/// test's identity (stores truncate to the declared type), so the
/// printed form must not collapse them: diy-gen output is the corpus
/// interchange format and canonical identity (litmus/Canon.h) keys off
/// this text.
std::string atomicCName(IntType Ty) {
  switch (Ty.Bits) {
  case 8:
    return Ty.Signed ? "atomic_char" : "atomic_uchar";
  case 16:
    return Ty.Signed ? "atomic_short" : "atomic_ushort";
  case 32:
    return Ty.Signed ? "atomic_int" : "atomic_uint";
  case 64:
    return Ty.Signed ? "atomic_long" : "atomic_ulong";
  case 128:
    return Ty.Signed ? "atomic_int128" : "atomic_uint128";
  }
  return "atomic_int";
}

void printStmt(const Stmt &S, unsigned Indent, std::string &Out) {
  std::string Pad(Indent, ' ');
  switch (S.K) {
  case Stmt::Kind::Load:
    if (S.Order == MemOrder::NA) {
      Out += strFormat("%sint %s = *%s;\n", Pad.c_str(), S.Dst.c_str(),
                       S.Loc.c_str());
    } else {
      Out += strFormat("%sint %s = atomic_load_explicit(%s, %s);\n",
                       Pad.c_str(), S.Dst.c_str(), S.Loc.c_str(),
                       memOrderName(S.Order).c_str());
    }
    return;
  case Stmt::Kind::Store:
    if (S.Order == MemOrder::NA) {
      Out += strFormat("%s*%s = %s;\n", Pad.c_str(), S.Loc.c_str(),
                       printExpr(S.Val).c_str());
    } else {
      Out += strFormat("%satomic_store_explicit(%s, %s, %s);\n", Pad.c_str(),
                       S.Loc.c_str(), printExpr(S.Val).c_str(),
                       memOrderName(S.Order).c_str());
    }
    return;
  case Stmt::Kind::Fence:
    Out += strFormat("%satomic_thread_fence(%s);\n", Pad.c_str(),
                     memOrderName(S.Order).c_str());
    return;
  case Stmt::Kind::Rmw: {
    const char *Fn = S.Rmw == RmwKind::Xchg ? "atomic_exchange_explicit"
                     : S.Rmw == RmwKind::FetchAdd
                         ? "atomic_fetch_add_explicit"
                         : "atomic_fetch_sub_explicit";
    // A herd test may discard the result (paper Fig. 1): no register.
    std::string Dst = S.Dst.empty() ? "" : "int " + S.Dst + " = ";
    Out += strFormat("%s%s%s(%s, %s, %s);\n", Pad.c_str(), Dst.c_str(), Fn,
                     S.Loc.c_str(), printExpr(S.Val).c_str(),
                     memOrderName(S.Order).c_str());
    return;
  }
  case Stmt::Kind::LocalAssign:
    Out += strFormat("%sint %s = %s;\n", Pad.c_str(), S.Dst.c_str(),
                     printExpr(S.Val).c_str());
    return;
  case Stmt::Kind::If:
    Out += strFormat("%sif (%s) {\n", Pad.c_str(), printExpr(S.Cond).c_str());
    for (const Stmt &Sub : S.Then)
      printStmt(Sub, Indent + 2, Out);
    if (!S.Else.empty()) {
      Out += Pad + "} else {\n";
      for (const Stmt &Sub : S.Else)
        printStmt(Sub, Indent + 2, Out);
    }
    Out += Pad + "}\n";
    return;
  }
}

} // namespace

std::string telechat::printLitmusC(const LitmusTest &Test) {
  std::string Out = "C " + Test.Name + "\n{ ";
  for (const LocDecl &L : Test.Locations) {
    if (L.Const)
      Out += "const ";
    if (!(L.Type == IntType{32, true}) || !L.Atomic)
      Out += (L.Atomic ? atomicCName(L.Type) : L.Type.cName()) + " ";
    Out += strFormat("*%s = %s; ", L.Name.c_str(), L.Init.toString().c_str());
  }
  Out += "}\n";
  for (const Thread &T : Test.Threads) {
    // Every thread takes all locations as parameters, like the paper's
    // examples.
    std::vector<std::string> Params;
    for (const LocDecl &L : Test.Locations)
      Params.push_back((L.Atomic ? "atomic_int* " : "int* ") + L.Name);
    Out += strFormat("void %s(%s) {\n", T.Name.c_str(),
                     joinStrings(Params, ", ").c_str());
    for (const Stmt &S : T.Body)
      printStmt(S, 2, Out);
    Out += "}\n";
  }
  Out += Test.Final.toString() + "\n";
  return Out;
}
