//===--- AsmPrinter.cpp - Assembly litmus test printer --------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "asmcore/AsmPrinter.h"

#include <algorithm>
#include <charconv>
#include <type_traits>

using namespace telechat;

namespace {

/// Appends each part to \p Out: text as it is, integers in decimal.
/// Everything the printer writes goes through here, into one buffer.
template <typename... Parts> void append(std::string &Out, const Parts &...P) {
  auto Put = [&Out](const auto &Part) {
    using T = std::decay_t<decltype(Part)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      char Buf[24];
      Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Part).ptr);
    } else {
      Out += Part;
    }
  };
  (Put(P), ...);
}

bool isArmFamily(Arch A) {
  return A == Arch::AArch64 || A == Arch::Armv7 || A == Arch::X86_64;
}

void printSym(std::string &Out, Arch A, const AsmOperand &O) {
  if (O.Modifier.empty())
    return append(Out, O.Sym);
  switch (A) {
  case Arch::AArch64:
  case Arch::Armv7:
    return append(Out, ':', O.Modifier, ':', O.Sym);
  case Arch::RiscV:
  case Arch::Mips:
    return append(Out, '%', O.Modifier, '(', O.Sym, ')');
  case Arch::Ppc:
    return append(Out, O.Sym, '@', O.Modifier);
  case Arch::X86_64:
    return append(Out, O.Sym);
  }
}

void printOperand(std::string &Out, Arch A, const AsmOperand &O) {
  switch (O.K) {
  case AsmOperand::Kind::Reg:
    return append(Out, O.Reg);
  case AsmOperand::Kind::Imm:
    if (A == Arch::AArch64 || A == Arch::Armv7)
      return append(Out, '#', O.Imm);
    return append(Out, O.Imm);
  case AsmOperand::Kind::Sym:
    return printSym(Out, A, O);
  case AsmOperand::Kind::Label:
    return append(Out, O.Sym);
  case AsmOperand::Kind::Mem:
    if (A == Arch::X86_64) {
      if (!O.Sym.empty())
        return append(Out, "[rip+", O.Sym, ']');
      if (O.Imm)
        return append(Out, '[', O.Reg, '+', O.Imm, ']');
      return append(Out, '[', O.Reg, ']');
    }
    if (isArmFamily(A)) {
      if (!O.Sym.empty()) // [x8, :got_lo12:x]
        return append(Out, '[', O.Reg, ", :", O.Modifier, ':', O.Sym, ']');
      if (O.Imm)
        return append(Out, '[', O.Reg, ", #", O.Imm, ']');
      return append(Out, '[', O.Reg, ']');
    }
    // RISC-V / PPC / MIPS: off(base).
    if (O.Imm)
      return append(Out, O.Imm, '(', O.Reg, ')');
    return append(Out, '(', O.Reg, ')');
  }
  append(Out, '?');
}

void printInst(std::string &Out, Arch A, const AsmInst &I) {
  // The "lock." pseudo-prefix prints as a real prefix.
  if (I.Mnemonic.rfind("lock.", 0) == 0)
    append(Out, "lock ", std::string_view(I.Mnemonic).substr(5));
  else
    append(Out, I.Mnemonic);
  for (size_t J = 0; J != I.Ops.size(); ++J) {
    append(Out, J ? ", " : " ");
    printOperand(Out, A, I.Ops[J]);
  }
}

const char *archToken(Arch A) {
  switch (A) {
  case Arch::AArch64:
    return "AArch64";
  case Arch::Armv7:
    return "ARMv7";
  case Arch::X86_64:
    return "X86_64";
  case Arch::RiscV:
    return "RISCV";
  case Arch::Ppc:
    return "PPC";
  case Arch::Mips:
    return "MIPS";
  }
  return "AArch64";
}

} // namespace

std::string telechat::printAsmInst(Arch A, const AsmInst &I) {
  std::string Out;
  printInst(Out, A, I);
  return Out;
}

std::string telechat::printAsmLitmus(const AsmLitmusTest &Test) {
  std::string Out;
  append(Out, archToken(Test.TargetArch), ' ', Test.Name, "\n{\n");
  for (const SimLoc &L : Test.Locations) {
    append(Out, "  ");
    if (L.Const)
      append(Out, "const ");
    if (!(L.Type == IntType{32, true}))
      append(Out, L.Type.cName(), ' ');
    if (!L.InitAddrOf.empty())
      append(Out, L.Name, " = &", L.InitAddrOf, ";\n");
    else
      append(Out, L.Name, " = ", L.Init.toString(), ";\n");
  }
  for (const AsmThread &T : Test.Threads)
    for (const auto &[Reg, Sym] : T.InitRegs)
      append(Out, "  ", T.Name, ':', Reg, " = &", Sym, ";\n");
  append(Out, "}\n");
  std::vector<std::pair<unsigned, const std::string *>> LabelsAt;
  for (const AsmThread &T : Test.Threads) {
    append(Out, T.Name, " {\n");
    // Labels by instruction index; labels at one index keep their name
    // order. A label past the end of the code is not printed.
    LabelsAt.clear();
    for (const auto &[Label, Idx] : T.Labels)
      LabelsAt.emplace_back(Idx, &Label);
    std::stable_sort(LabelsAt.begin(), LabelsAt.end(),
                     [](const auto &A, const auto &B) {
                       return A.first < B.first;
                     });
    auto Label = LabelsAt.begin();
    for (unsigned I = 0; I <= T.Code.size(); ++I) {
      for (; Label != LabelsAt.end() && Label->first == I; ++Label)
        append(Out, *Label->second, ":\n");
      if (I == T.Code.size())
        break;
      append(Out, "  ");
      printInst(Out, Test.TargetArch, T.Code[I]);
      append(Out, '\n');
    }
    append(Out, "}\n");
  }
  append(Out, Test.Final.toString(), '\n');
  return Out;
}
