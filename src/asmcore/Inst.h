//===--- Inst.h - Assembly instruction representation -----------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A target-neutral assembly instruction representation shared by the six
/// ISAs. Operand kinds cover what the mini-compiler emits and the s2l
/// parser accepts; per-ISA *meaning* lives in asmcore/Sem*.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_ASMCORE_INST_H
#define TELECHAT_ASMCORE_INST_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace telechat {

/// One operand of an assembly instruction.
struct AsmOperand {
  enum class Kind {
    Reg,   ///< Machine register.
    Imm,   ///< Integer immediate.
    Sym,   ///< Symbol reference, possibly with a relocation modifier
           ///< (:lo12:, %hi(), @ha, :got:, ...). Also barrier/fence
           ///< keywords like "ish" or "rw".
    Mem,   ///< Memory operand: base register + offset, or rip+symbol.
    Label, ///< Branch target.
  };

  Kind K = Kind::Reg;
  std::string Reg;      ///< Reg; Mem base register.
  int64_t Imm = 0;      ///< Imm; Mem byte offset.
  std::string Sym;      ///< Sym; Mem rip-relative symbol; Label name.
  std::string Modifier; ///< Relocation modifier ("lo12", "got", "hi", ...).

  static AsmOperand reg(std::string R) {
    AsmOperand O;
    O.K = Kind::Reg;
    O.Reg = std::move(R);
    return O;
  }
  static AsmOperand imm(int64_t I) {
    AsmOperand O;
    O.K = Kind::Imm;
    O.Imm = I;
    return O;
  }
  static AsmOperand sym(std::string S, std::string Mod = "") {
    AsmOperand O;
    O.K = Kind::Sym;
    O.Sym = std::move(S);
    O.Modifier = std::move(Mod);
    return O;
  }
  static AsmOperand mem(std::string Base, int64_t Off = 0) {
    AsmOperand O;
    O.K = Kind::Mem;
    O.Reg = std::move(Base);
    O.Imm = Off;
    return O;
  }
  static AsmOperand memSym(std::string Base, std::string Sym) {
    AsmOperand O;
    O.K = Kind::Mem;
    O.Reg = std::move(Base);
    O.Sym = std::move(Sym);
    return O;
  }
  static AsmOperand label(std::string L) {
    AsmOperand O;
    O.K = Kind::Label;
    O.Sym = std::move(L);
    return O;
  }

  bool operator==(const AsmOperand &) const = default;
};

/// One instruction: lowercase mnemonic (suffixes included, e.g.
/// "amoadd.w.aqrl") plus operands.
struct AsmInst {
  std::string Mnemonic;
  std::vector<AsmOperand> Ops;

  AsmInst() = default;
  AsmInst(std::string M, std::vector<AsmOperand> O)
      : Mnemonic(std::move(M)), Ops(std::move(O)) {}

  bool operator==(const AsmInst &) const = default;
};

/// A thread of compiled code.
struct AsmThread {
  std::string Name;                       ///< "P0", "P1", ...
  std::vector<AsmInst> Code;
  std::map<std::string, unsigned> Labels; ///< label -> instruction index.
  /// Registers pre-assigned to location addresses in the litmus initial
  /// state (herd-style "0:X1=x").
  std::vector<std::pair<std::string, std::string>> InitRegs;

  bool operator==(const AsmThread &) const = default;
};

} // namespace telechat

#endif // TELECHAT_ASMCORE_INST_H
