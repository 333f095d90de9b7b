//===--- SemPpc.cpp - IBM PowerPC instruction semantics -------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PowerPC subset: LIS/ADDI address materialisation, LWZ/STW accesses,
/// SYNC/LWSYNC/ISYNC fences, LWARX/STWCX. reservations. STWCX. writes its
/// success bit into the modelled "cr0" pseudo-register (0 = success here,
/// so the retry BNE falls through, matching herd's success assumption).
///
//===----------------------------------------------------------------------===//

#include "asmcore/SemInternal.h"

#include <cctype>

using namespace telechat;
using namespace telechat::semdetail;

namespace {

class PpcSemantics final : public InstSemantics {
public:
  std::string canonReg(const std::string &R) const override {
    std::string L;
    for (char C : R)
      L += char(tolower(static_cast<unsigned char>(C)));
    return L;
  }

  bool isRegisterName(std::string_view Tok) const override {
    if (Tok.size() < 2)
      return false;
    if (lowerChar(Tok[0]) == 'r')
      return digitsFrom(Tok, 1);
    return lowerChar(Tok[0]) == 'c' && lowerChar(Tok[1]) == 'r' &&
           digitsFrom(Tok, 2);
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

    if (M == "lis") {
      SimOp Op;
      Op.K = SimOp::Kind::AddrOf;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Op.Sym = I.Ops[1].Sym;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "addi") {
      Expr Rhs = I.Ops[2].K == AsmOperand::Kind::Sym ? Expr::imm(Value())
                                                     : ImmOrReg(I.Ops[2]);
      Ops.push_back(makeAssign(
          canonReg(I.Ops[0].Reg),
          Expr::binary(Expr::Kind::Add, RegExpr(I.Ops[1]), std::move(Rhs))));
      return Step;
    }
    if (M == "li") {
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg), ImmOrReg(I.Ops[1])));
      return Step;
    }
    if (M == "mr") {
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg), RegExpr(I.Ops[1])));
      return Step;
    }
    if (M == "add" || M == "xor") {
      Ops.push_back(makeAssign(
          canonReg(I.Ops[0].Reg),
          Expr::binary(M == "add" ? Expr::Kind::Add : Expr::Kind::Xor,
                       RegExpr(I.Ops[1]), ImmOrReg(I.Ops[2]))));
      return Step;
    }
    if (M == "subf") {
      // subf rd, ra, rb = rb - ra.
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg),
                               Expr::binary(Expr::Kind::Sub,
                                            RegExpr(I.Ops[2]),
                                            RegExpr(I.Ops[1]))));
      return Step;
    }
    if (M == "lwz" || M == "ld" || M == "lbz" || M == "lhz") {
      Ops.push_back(makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1])));
      return Step;
    }
    if (M == "stw" || M == "std" || M == "stb" || M == "sth") {
      Ops.push_back(makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0])));
      return Step;
    }
    if (M == "sync") {
      Ops.push_back(makeFence({"SYNC"}));
      return Step;
    }
    if (M == "lwsync") {
      Ops.push_back(makeFence({"LWSYNC"}));
      return Step;
    }
    if (M == "isync") {
      Ops.push_back(makeFence({"ISYNC"}));
      return Step;
    }
    if (M == "lwarx" || M == "ldarx") {
      // lwarx rt, ra, rb with ra = 0: address in rb.
      SimOp Op = makeLoad(canonReg(I.Ops[0].Reg),
                          SimAddr::dynamicReg(canonReg(I.Ops[2].Reg)),
                          {"X"});
      Op.Exclusive = true;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "stwcx." || M == "stdcx.") {
      SimOp Op = makeStore(SimAddr::dynamicReg(canonReg(I.Ops[2].Reg)),
                           RegExpr(I.Ops[0]), {"X"});
      Op.Exclusive = true;
      Op.Dst = "cr0"; // 0 = success; retry bne falls through
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "cmpwi" || M == "cmpdi") {
      Ops.push_back(makeAssign("cr0",
                               Expr::binary(Expr::Kind::Sub,
                                            RegExpr(I.Ops[0]),
                                            ImmOrReg(I.Ops[1]))));
      return Step;
    }
    if (M == "bne" || M == "bne-" || M == "beq" || M == "beq-") {
      Step.K = LowerStep::Kind::CondGoto;
      Step.Target = I.Ops[0].Sym;
      Step.Cond = Expr::reg("cr0");
      Step.TakenIfNonZero = M[1] == 'n';
      return Step;
    }
    if (M == "b") {
      Step.K = LowerStep::Kind::Goto;
      Step.Target = I.Ops[0].Sym;
      return Step;
    }
    if (M == "blr") {
      Step.K = LowerStep::Kind::Ret;
      return Step;
    }
    if (M == "nop")
      return Step;

    Err = "ppc: unsupported instruction '" + M + "'";
    return Step;
  }
};

} // namespace

const InstSemantics &telechat::ppcSemantics() {
  static PpcSemantics Sem;
  return Sem;
}
