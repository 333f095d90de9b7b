//===--- Semantics.cpp - Shared lowering driver ---------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "asmcore/Semantics.h"

#include "asmcore/SemInternal.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>

using namespace telechat;

InstSemantics::~InstSemantics() = default;

std::string InstSemantics::canonReg(const std::string &R) const { return R; }

namespace {

/// DFS path enumerator over an AsmThread's CFG.
class PathEnumerator {
public:
  PathEnumerator(const AsmThread &T, const InstSemantics &Sem,
                 unsigned Unroll)
      : T(T), Sem(Sem), Unroll(Unroll) {}

  ErrorOr<std::vector<SimPath>> run() {
    SimPath Entry;
    for (const auto &[Reg, Sym] : T.InitRegs) {
      SimOp Op;
      Op.K = SimOp::Kind::AddrOf;
      Op.Dst = Sem.canonReg(Reg);
      Op.Sym = Sym;
      Entry.Ops.push_back(std::move(Op));
    }
    std::map<std::pair<unsigned, unsigned>, unsigned> BackEdgeCount;
    if (std::string E = walk(0, std::move(Entry), BackEdgeCount);
        !E.empty())
      return makeError(E);
    if (Paths.empty())
      Paths.push_back(SimPath());
    return std::move(Paths);
  }

private:
  std::string walk(unsigned Pc, SimPath Current,
                   std::map<std::pair<unsigned, unsigned>, unsigned>
                       BackEdgeCount) {
    if (Paths.size() > 4096)
      return "path explosion in assembly thread " + T.Name;
    while (true) {
      if (Pc >= T.Code.size()) {
        Paths.push_back(std::move(Current));
        return "";
      }
      const AsmInst &I = T.Code[Pc];
      std::string Err;
      LowerStep Step = Sem.lower(I, Current.Ops, Err);
      if (!Err.empty())
        return T.Name + ": " + Err;
      switch (Step.K) {
      case LowerStep::Kind::Fallthrough:
        ++Pc;
        continue;
      case LowerStep::Kind::Ret:
        Paths.push_back(std::move(Current));
        return "";
      case LowerStep::Kind::Goto: {
        auto It = T.Labels.find(Step.Target);
        if (It == T.Labels.end())
          return T.Name + ": undefined label " + Step.Target;
        unsigned Target = It->second;
        if (Target <= Pc) {
          auto &Count = BackEdgeCount[{Pc, Target}];
          if (Count >= Unroll) {
            // Unroll budget exhausted: abandon this path.
            return "";
          }
          ++Count;
        }
        Pc = Target;
        continue;
      }
      case LowerStep::Kind::CondGoto: {
        auto It = T.Labels.find(Step.Target);
        if (It == T.Labels.end())
          return T.Name + ": undefined label " + Step.Target;
        unsigned Target = It->second;
        // Taken branch.
        {
          bool Budget = true;
          auto Counts = BackEdgeCount;
          if (Target <= Pc) {
            auto &Count = Counts[{Pc, Target}];
            if (Count >= Unroll)
              Budget = false;
            else
              ++Count;
          }
          if (Budget) {
            SimPath Taken = Current;
            SimOp C;
            C.K = SimOp::Kind::Constraint;
            C.Val = Step.Cond;
            C.ConstraintNonZero = Step.TakenIfNonZero;
            Taken.Ops.push_back(std::move(C));
            if (std::string E = walk(Target, std::move(Taken), Counts);
                !E.empty())
              return E;
          }
        }
        // Fall-through.
        SimOp C;
        C.K = SimOp::Kind::Constraint;
        C.Val = Step.Cond;
        C.ConstraintNonZero = !Step.TakenIfNonZero;
        Current.Ops.push_back(std::move(C));
        ++Pc;
        continue;
      }
      }
    }
  }

  const AsmThread &T;
  const InstSemantics &Sem;
  unsigned Unroll;
  std::vector<SimPath> Paths;
};

} // namespace

ErrorOr<std::vector<SimPath>>
telechat::enumerateAsmPaths(const AsmThread &T, const InstSemantics &Sem,
                            unsigned Unroll) {
  return PathEnumerator(T, Sem, Unroll).run();
}

const InstSemantics &telechat::instSemantics(Arch A) {
  switch (A) {
  case Arch::AArch64:
    return aarch64Semantics();
  case Arch::Armv7:
    return armv7Semantics();
  case Arch::X86_64:
    return x86Semantics();
  case Arch::RiscV:
    return riscvSemantics();
  case Arch::Ppc:
    return ppcSemantics();
  case Arch::Mips:
    return mipsSemantics();
  }
  return aarch64Semantics();
}

ErrorOr<SimProgram> telechat::lowerAsmTest(const AsmLitmusTest &Test) {
  const InstSemantics &Sem = instSemantics(Test.TargetArch);
  SimProgram P;
  P.Name = Test.Name;
  P.Final = Test.Final;
  P.Locations = Test.Locations;
  // Every address taken must name a declared location: the simulator
  // gives addresses to declared locations only.
  auto Undeclared = [&](const std::string &Where, const std::string &Sym) {
    return makeError(Where + ": address of undeclared location '" + Sym +
                     "'");
  };
  for (const SimLoc &L : P.Locations)
    if (!L.InitAddrOf.empty() && !P.findLocation(L.InitAddrOf))
      return Undeclared("initial value of " + L.Name, L.InitAddrOf);
  std::vector<std::string> Keys;
  Test.Final.P.collectKeys(Keys);
  for (const AsmThread &T : Test.Threads) {
    ErrorOr<std::vector<SimPath>> Paths = enumerateAsmPaths(T, Sem);
    if (!Paths)
      return makeError(Paths.error());
    for (const SimPath &Path : *Paths)
      for (const SimOp &Op : Path.Ops)
        if (Op.K == SimOp::Kind::AddrOf && !P.findLocation(Op.Sym))
          return Undeclared(T.Name, Op.Sym);
    SimThread ST;
    ST.Name = T.Name;
    ST.Paths = std::move(*Paths);
    std::string Prefix = T.Name + ":";
    for (const std::string &Key : Keys)
      if (Key.rfind(Prefix, 0) == 0)
        ST.Observed.emplace_back(Sem.canonReg(Key.substr(Prefix.size())),
                                 Key);
    P.Threads.push_back(std::move(ST));
  }
  for (const std::string &Key : Keys)
    if (Key.size() > 2 && Key.front() == '[' && Key.back() == ']')
      P.ObservedLocs.push_back(Key.substr(1, Key.size() - 2));
  std::sort(P.ObservedLocs.begin(), P.ObservedLocs.end());
  P.ObservedLocs.erase(
      std::unique(P.ObservedLocs.begin(), P.ObservedLocs.end()),
      P.ObservedLocs.end());
  return P;
}
