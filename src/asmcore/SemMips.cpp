//===--- SemMips.cpp - MIPS64 instruction semantics -----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MIPS64 subset: LUI/DADDIU address materialisation, LW/SW accesses,
/// SYNC barriers, LL/SC reservations (SC writes 1 on success, unlike
/// Arm/RISC-V), and branch delay slots filled with NOPs -- GCC refuses to
/// fill them with atomic accesses, the missed optimisation the paper
/// reported as bug [40].
///
//===----------------------------------------------------------------------===//

#include "asmcore/SemInternal.h"

#include <cctype>

using namespace telechat;
using namespace telechat::semdetail;

namespace {

class MipsSemantics final : public InstSemantics {
public:
  std::string canonReg(const std::string &R) const override {
    std::string L;
    for (char C : R)
      L += char(tolower(static_cast<unsigned char>(C)));
    if (!L.empty() && L[0] == '$')
      L = L.substr(1);
    if (L == "zero")
      return "";
    return L;
  }

  bool isRegisterName(std::string_view Tok) const override {
    // As canonReg spells it: one '$' goes, and "zero" becomes "", which
    // names no register here.
    if (!Tok.empty() && Tok[0] == '$')
      Tok.remove_prefix(1);
    if (isOneOf(Tok, {"ra", "sp", "gp", "fp", "at"}))
      return true;
    char C0 = Tok.empty() ? 0 : lowerChar(Tok[0]);
    return (C0 == 'v' || C0 == 'a' || C0 == 't' || C0 == 's' || C0 == 'k') &&
           digitsFrom(Tok, 1);
  }

  LowerStep lower(const AsmInst &I, std::vector<SimOp> &Ops,
                  std::string &Err) const override {
    const std::string &M = I.Mnemonic;
    LowerStep Step;
    auto RegExpr = [&](const AsmOperand &O) {
      std::string R = canonReg(O.Reg);
      return R.empty() ? Expr::imm(Value()) : Expr::reg(R);
    };
    auto MemAddr = [&](const AsmOperand &O) {
      return SimAddr::dynamicReg(canonReg(O.Reg), O.Imm);
    };
    auto ImmOrReg = [&](const AsmOperand &O) {
      return O.K == AsmOperand::Kind::Imm
                 ? Expr::imm(Value(uint64_t(O.Imm)))
                 : RegExpr(O);
    };

    if (M == "lui") {
      SimOp Op;
      Op.K = SimOp::Kind::AddrOf;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Op.Sym = I.Ops[1].Sym;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "daddiu" || M == "addiu") {
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
    if (M == "move") {
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg), RegExpr(I.Ops[1])));
      return Step;
    }
    if (M == "addu" || M == "daddu" || M == "xor" || M == "subu") {
      Expr::Kind K = M == "xor"    ? Expr::Kind::Xor
                     : M == "subu" ? Expr::Kind::Sub
                                   : Expr::Kind::Add;
      Ops.push_back(makeAssign(
          canonReg(I.Ops[0].Reg),
          Expr::binary(K, RegExpr(I.Ops[1]), ImmOrReg(I.Ops[2]))));
      return Step;
    }
    if (M == "lw" || M == "ld" || M == "lb" || M == "lh" || M == "lbu" ||
        M == "lhu") {
      Ops.push_back(makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1])));
      return Step;
    }
    if (M == "sw" || M == "sd" || M == "sb" || M == "sh") {
      Ops.push_back(makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0])));
      return Step;
    }
    if (M == "sync") {
      Ops.push_back(makeFence({"SYNC"}));
      return Step;
    }
    if (M == "ll" || M == "lld") {
      SimOp Op = makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1]), {"X"});
      Op.Exclusive = true;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "sc" || M == "scd") {
      SimOp Op = makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0]), {"X"});
      Op.Exclusive = true;
      Op.Dst = canonReg(I.Ops[0].Reg); // rt doubles as status
      Op.StatusSuccess = 1;            // MIPS: 1 = success
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "bnez" || M == "beqz") {
      Step.K = LowerStep::Kind::CondGoto;
      Step.Target = I.Ops[1].Sym;
      Step.Cond = RegExpr(I.Ops[0]);
      Step.TakenIfNonZero = M == "bnez";
      return Step;
    }
    if (M == "b" || M == "j") {
      Step.K = LowerStep::Kind::Goto;
      Step.Target = I.Ops[0].Sym;
      return Step;
    }
    if (M == "jr") {
      Step.K = LowerStep::Kind::Ret;
      return Step;
    }
    if (M == "nop")
      return Step;

    Err = "mips: unsupported instruction '" + M + "'";
    return Step;
  }
};

} // namespace

const InstSemantics &telechat::mipsSemantics() {
  static MipsSemantics Sem;
  return Sem;
}
