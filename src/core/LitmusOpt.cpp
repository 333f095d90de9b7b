//===--- LitmusOpt.cpp - s2l litmus-test optimisation ---------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "core/LitmusOpt.h"

#include "asmcore/Semantics.h"

#include <algorithm>
#include <set>

using namespace telechat;

namespace {

/// Removes the instructions at the marked indices, remapping labels.
void eraseMarked(AsmThread &T, const std::vector<bool> &Remove) {
  std::vector<unsigned> NewIndex(T.Code.size() + 1, 0);
  unsigned Next = 0;
  for (unsigned I = 0; I != T.Code.size(); ++I) {
    NewIndex[I] = Next;
    if (!Remove[I])
      ++Next;
  }
  NewIndex[T.Code.size()] = Next;
  std::vector<AsmInst> Kept;
  Kept.reserve(Next);
  for (unsigned I = 0; I != T.Code.size(); ++I)
    if (!Remove[I])
      Kept.push_back(std::move(T.Code[I]));
  T.Code = std::move(Kept);
  for (auto &[Label, Idx] : T.Labels)
    Idx = NewIndex[Idx];
}

/// `adrp xN, :got:x; ldr xN, [xN, :got_lo12:x]`: loads &x into xN.
bool isGotLoad(const AsmInst &A, const AsmInst &B) {
  return A.Mnemonic == "adrp" && A.Ops.size() == 2 &&
         A.Ops[1].Modifier == "got" && B.Mnemonic == "ldr" &&
         B.Ops.size() == 2 && B.Ops[1].K == AsmOperand::Kind::Mem &&
         B.Ops[1].Modifier == "got_lo12" && A.Ops[0].Reg == B.Ops[0].Reg &&
         B.Ops[1].Reg == A.Ops[0].Reg;
}

/// Pass 1: GOT-load collapse (AArch64). A pair becomes the initial value
/// `Pk:xN = &x` only when no earlier instruction of the thread names xN
/// in any width: the initial value holds from the start, so an earlier
/// use or write of the register would see the address too early, or
/// overwrite it before the pair's uses.
unsigned collapseGotLoads(AsmThread &T) {
  const InstSemantics &Sem = instSemantics(Arch::AArch64);
  // The register spellings named so far and canonReg of each: a thread
  // spells few registers, so each is canonicalised once.
  std::vector<std::string> Spelled, Named;
  auto NamedBefore = [&](const std::string &Reg) {
    return std::find(Named.begin(), Named.end(), Sem.canonReg(Reg)) !=
           Named.end();
  };
  std::vector<bool> Remove(T.Code.size(), false);
  unsigned Removed = 0;
  for (unsigned I = 0; I != T.Code.size(); ++I) {
    const AsmInst &A = T.Code[I];
    if (I + 1 != T.Code.size() && isGotLoad(A, T.Code[I + 1]) &&
        !NamedBefore(A.Ops[0].Reg)) {
      T.InitRegs.emplace_back(A.Ops[0].Reg, A.Ops[1].Sym);
      Remove[I] = Remove[I + 1] = true;
      Removed += 2;
    }
    for (const AsmOperand &O : A.Ops)
      if (!O.Reg.empty() &&
          std::find(Spelled.begin(), Spelled.end(), O.Reg) == Spelled.end()) {
        Spelled.push_back(O.Reg);
        Named.push_back(Sem.canonReg(O.Reg));
      }
  }
  if (Removed)
    eraseMarked(T, Remove);
  return Removed;
}

/// Pass 2: stack scaffolding and NOP removal.
unsigned removeScaffolding(AsmThread &T) {
  std::vector<bool> Remove(T.Code.size(), false);
  unsigned Removed = 0;
  for (unsigned I = 0; I != T.Code.size(); ++I) {
    const AsmInst &Inst = T.Code[I];
    bool StackAccess = false;
    for (const AsmOperand &O : Inst.Ops)
      if (O.K == AsmOperand::Kind::Mem && (O.Reg == "sp" || O.Reg == "rsp"))
        StackAccess = true;
    if (StackAccess || Inst.Mnemonic == "nop") {
      Remove[I] = true;
      ++Removed;
    }
  }
  if (Removed)
    eraseMarked(T, Remove);
  // Drop the stack-pointer initial assignment.
  for (size_t I = 0; I != T.InitRegs.size();) {
    if (T.InitRegs[I].first == "sp")
      T.InitRegs.erase(T.InitRegs.begin() + I);
    else
      ++I;
  }
  return Removed;
}

} // namespace

AsmLitmusTest telechat::optimiseAsmLitmus(AsmLitmusTest Out,
                                          S2LStats *Stats) {
  unsigned RemovedInsts = 0;
  for (AsmThread &T : Out.Threads) {
    if (Out.TargetArch == Arch::AArch64)
      RemovedInsts += collapseGotLoads(T);
    RemovedInsts += removeScaffolding(T);
  }
  // Pass 3: drop synthetic locations that no instruction or register
  // initialisation references any more. A GOT operand left in the code
  // (a pair pass 1 kept) references the slot got.<sym>.
  std::set<std::string> Referenced;
  for (const AsmThread &T : Out.Threads) {
    for (const auto &[Reg, Sym] : T.InitRegs)
      Referenced.insert(Sym);
    for (const AsmInst &I : T.Code)
      for (const AsmOperand &O : I.Ops) {
        if (O.Modifier == "got" || O.Modifier == "got_lo12")
          Referenced.insert("got." + O.Sym);
        if (!O.Sym.empty())
          Referenced.insert(O.Sym);
      }
  }
  unsigned RemovedLocs = 0;
  std::vector<SimLoc> Kept;
  for (SimLoc &L : Out.Locations) {
    bool Synthetic = L.Name.rfind("got.", 0) == 0 ||
                     L.Name.rfind("stack.", 0) == 0;
    if (Synthetic && !Referenced.count(L.Name)) {
      ++RemovedLocs;
      continue;
    }
    Kept.push_back(std::move(L));
  }
  Out.Locations = std::move(Kept);
  if (Stats) {
    Stats->RemovedInstructions += RemovedInsts;
    Stats->RemovedLocations += RemovedLocs;
  }
  return Out;
}
