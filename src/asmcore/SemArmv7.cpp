//===--- SemArmv7.cpp - Armv7-A instruction semantics ---------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Armv7 has no acquire/release instructions; compilers emit DMB around
/// accesses. Address materialisation is MOVW/MOVT; atomics are
/// LDREX/STREX loops. Condition flags are modelled as the pseudo-register
/// "flags" (the generated code only compares against zero).
///
//===----------------------------------------------------------------------===//

#include "asmcore/SemInternal.h"

#include <cctype>

using namespace telechat;
using namespace telechat::semdetail;

namespace {

class Armv7Semantics final : public InstSemantics {
public:
  std::string canonReg(const std::string &R) const override {
    std::string L;
    for (char C : R)
      L += char(tolower(static_cast<unsigned char>(C)));
    return L;
  }

  bool isRegisterName(std::string_view Tok) const override {
    if (isOneOf(Tok, {"sp", "lr", "pc", "fp", "ip"}))
      return true;
    return !Tok.empty() && lowerChar(Tok[0]) == 'r' && digitsFrom(Tok, 1);
  }

  LowerStep lower(const AsmInst &I, std::vector<SimOp> &Ops,
                  std::string &Err) const override {
    const std::string &M = I.Mnemonic;
    LowerStep Step;
    auto RegExpr = [&](const AsmOperand &O) {
      return Expr::reg(canonReg(O.Reg));
    };
    auto MemAddr = [&](const AsmOperand &O) {
      return SimAddr::dynamicReg(canonReg(O.Reg), O.Imm);
    };
    auto ImmOrReg = [&](const AsmOperand &O) {
      return O.K == AsmOperand::Kind::Imm
                 ? Expr::imm(Value(uint64_t(O.Imm)))
                 : RegExpr(O);
    };

    if (M == "movw") {
      // movw rd, :lower16:sym -> the low half of the address; we model
      // the full materialisation here and make movt a no-op refinement.
      SimOp Op;
      Op.K = SimOp::Kind::AddrOf;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Op.Sym = I.Ops[1].Sym;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "movt") {
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg),
                               Expr::binary(Expr::Kind::Add,
                                            RegExpr(I.Ops[0]),
                                            Expr::imm(Value()))));
      return Step;
    }
    if (M == "mov") {
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg), ImmOrReg(I.Ops[1])));
      return Step;
    }
    if (M == "add" || M == "sub" || M == "eor" || M == "and") {
      Expr::Kind K = M == "add"   ? Expr::Kind::Add
                     : M == "sub" ? Expr::Kind::Sub
                     : M == "eor" ? Expr::Kind::Xor
                                  : Expr::Kind::And;
      Ops.push_back(makeAssign(
          canonReg(I.Ops[0].Reg),
          Expr::binary(K, RegExpr(I.Ops[1]), ImmOrReg(I.Ops[2]))));
      return Step;
    }
    if (M == "ldr" || M == "ldrb" || M == "ldrh") {
      Ops.push_back(makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1])));
      return Step;
    }
    if (M == "str" || M == "strb" || M == "strh") {
      Ops.push_back(makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0])));
      return Step;
    }
    if (M == "ldrex") {
      SimOp Op = makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1]), {"X"});
      Op.Exclusive = true;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "strex") {
      SimOp Op = makeStore(MemAddr(I.Ops[2]), RegExpr(I.Ops[1]), {"X"});
      Op.Exclusive = true;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "dmb") {
      Ops.push_back(makeFence({"DMB"}));
      return Step;
    }
    if (M == "dsb") {
      Ops.push_back(makeFence({"DSB"}));
      return Step;
    }
    if (M == "isb") {
      Ops.push_back(makeFence({"ISB"}));
      return Step;
    }
    if (M == "cmp") {
      Ops.push_back(makeAssign("flags",
                               Expr::binary(Expr::Kind::Sub,
                                            RegExpr(I.Ops[0]),
                                            ImmOrReg(I.Ops[1]))));
      return Step;
    }
    if (M == "bne" || M == "beq") {
      Step.K = LowerStep::Kind::CondGoto;
      Step.Target = I.Ops[0].Sym;
      Step.Cond = Expr::reg("flags");
      Step.TakenIfNonZero = M == "bne";
      return Step;
    }
    if (M == "b") {
      Step.K = LowerStep::Kind::Goto;
      Step.Target = I.Ops[0].Sym;
      return Step;
    }
    if (M == "bx") { // bx lr
      Step.K = LowerStep::Kind::Ret;
      return Step;
    }
    if (M == "nop")
      return Step;

    Err = "armv7: unsupported instruction '" + M + "'";
    return Step;
  }
};

} // namespace

const InstSemantics &telechat::armv7Semantics() {
  static Armv7Semantics Sem;
  return Sem;
}
