//===--- SemRiscV.cpp - RISC-V RV64 instruction semantics -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RV64 subset: LUI/ADDI address materialisation, LW/SW accesses, FENCE
/// with predecessor/successor sets (tags FENCE.RW.RW etc. consumed by
/// riscv.cat), LR/SC exclusives and AMOs with aq/rl annotations (tags
/// AQ/RL).
///
//===----------------------------------------------------------------------===//

#include "asmcore/SemInternal.h"

#include "support/StringUtils.h"

#include <cctype>

using namespace telechat;
using namespace telechat::semdetail;

namespace {

class RiscVSemantics final : public InstSemantics {
public:
  std::string canonReg(const std::string &R) const override {
    std::string L;
    for (char C : R)
      L += char(tolower(static_cast<unsigned char>(C)));
    if (L == "zero" || L == "x0")
      return "";
    return L;
  }

  bool isRegisterName(std::string_view Tok) const override {
    if (isOneOf(Tok, {"zero", "ra", "sp", "gp", "tp", "fp"}))
      return true;
    char C0 = Tok.empty() ? 0 : lowerChar(Tok[0]);
    return (C0 == 'x' || C0 == 'a' || C0 == 't' || C0 == 's') &&
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

    if (M == "lui" || M == "la") {
      SimOp Op;
      Op.K = SimOp::Kind::AddrOf;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Op.Sym = I.Ops[1].Sym;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "addi" || M == "addiw") {
      // addi rd, rs, %lo(sym) refines the address: +0.
      Expr Rhs = I.Ops[2].K == AsmOperand::Kind::Sym
                     ? Expr::imm(Value())
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
    if (M == "mv") {
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg), RegExpr(I.Ops[1])));
      return Step;
    }
    if (M == "add" || M == "xor" || M == "sub") {
      Expr::Kind K = M == "add"   ? Expr::Kind::Add
                     : M == "sub" ? Expr::Kind::Sub
                                  : Expr::Kind::Xor;
      Ops.push_back(makeAssign(
          canonReg(I.Ops[0].Reg),
          Expr::binary(K, RegExpr(I.Ops[1]), ImmOrReg(I.Ops[2]))));
      return Step;
    }
    if (M == "lw" || M == "ld" || M == "lb" || M == "lh" || M == "lbu" ||
        M == "lhu" || M == "lwu") {
      Ops.push_back(makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1])));
      return Step;
    }
    if (M == "sw" || M == "sd" || M == "sb" || M == "sh") {
      Ops.push_back(makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0])));
      return Step;
    }
    if (M == "fence") {
      // fence pred, succ -> tag FENCE.<PRED>.<SUCC>.
      auto Upper = [](const std::string &S) {
        std::string Out;
        for (char C : S)
          Out += char(toupper(static_cast<unsigned char>(C)));
        return Out;
      };
      Ops.push_back(makeFence(
          {"FENCE." + Upper(I.Ops[0].Sym) + "." + Upper(I.Ops[1].Sym)}));
      return Step;
    }
    // lr.w[.aq|.aqrl] rd, (rs)
    if (M.rfind("lr.", 0) == 0) {
      SimOp Op = makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1]), {"X"});
      Op.Exclusive = true;
      if (M.find(".aq") != std::string::npos)
        Op.Tags.insert("AQ");
      Ops.push_back(std::move(Op));
      return Step;
    }
    // sc.w[.rl|.aqrl] rd, rs2, (rs1)
    if (M.rfind("sc.", 0) == 0) {
      SimOp Op = makeStore(MemAddr(I.Ops[2]), RegExpr(I.Ops[1]), {"X"});
      Op.Exclusive = true;
      Op.Dst = canonReg(I.Ops[0].Reg); // 0 = success
      if (M.find("rl") != std::string::npos)
        Op.WTags.insert("RL");
      Ops.push_back(std::move(Op));
      return Step;
    }
    // amoadd.w / amoswap.w with .aq/.rl/.aqrl: amo rd, rs2, (rs1)
    if (M.rfind("amo", 0) == 0) {
      SimOp Op;
      Op.K = SimOp::Kind::Rmw;
      Op.RmwOp = M.rfind("amoswap", 0) == 0 ? SimOp::RmwOpKind::Xchg
                                            : SimOp::RmwOpKind::Add;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Op.Val = RegExpr(I.Ops[1]);
      Op.Addr = MemAddr(I.Ops[2]);
      Op.Tags = {"X"};
      Op.WTags = {"X"};
      // RVWMO: aq/rl on an AMO annotate the whole instruction, i.e. both
      // of its memory operations.
      bool Aq = M.find("aq") != std::string::npos;
      bool Rl = M.find("rl") != std::string::npos;
      if (Aq) {
        Op.Tags.insert("AQ");
        Op.WTags.insert("AQ");
      }
      if (Rl) {
        Op.Tags.insert("RL");
        Op.WTags.insert("RL");
      }
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
    if (M == "j") {
      Step.K = LowerStep::Kind::Goto;
      Step.Target = I.Ops[0].Sym;
      return Step;
    }
    if (M == "ret" || M == "jr") {
      Step.K = LowerStep::Kind::Ret;
      return Step;
    }
    if (M == "nop")
      return Step;

    Err = "riscv: unsupported instruction '" + M + "'";
    return Step;
  }
};

} // namespace

const InstSemantics &telechat::riscvSemantics() {
  static RiscVSemantics Sem;
  return Sem;
}
