//===--- SemAArch64.cpp - Armv8 AArch64 instruction semantics -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event semantics for the AArch64 subset emitted by the mini-compiler:
/// plain/acquire/release accesses (LDR/LDAR/LDAPR/STR/STLR), exclusives
/// (LDXR/LDAXR/STXR/STLXR and the 128-bit LDXP/STXP pairs), LSE atomics
/// (SWP*/LDADD*/STADD*), barriers (DMB ISH/ISHLD/ISHST, ISB), address
/// materialisation (ADRP/ADD, GOT loads) and branches (CBZ/CBNZ/B/RET).
///
/// ST-form LSE atomics and LDADD-to-XZR produce NORET reads: per the Arm
/// ARM discussion cited by the paper ([33], [34]), their reads are not
/// ordered by DMB LD barriers -- the mechanism behind Fig. 10's Heisenbug.
///
//===----------------------------------------------------------------------===//

#include "asmcore/SemInternal.h"

#include <cctype>

using namespace telechat;
using namespace telechat::semdetail;

namespace {

class AArch64Semantics final : public InstSemantics {
public:
  std::string canonReg(const std::string &R) const override {
    std::string L;
    for (char C : R)
      L += char(tolower(static_cast<unsigned char>(C)));
    if (L == "xzr" || L == "wzr")
      return ""; // zero register: reads as 0, writes discarded
    if (!L.empty() && (L[0] == 'w' || L[0] == 'x') && L.size() > 1 &&
        isdigit(static_cast<unsigned char>(L[1])))
      return "x" + L.substr(1);
    return L; // sp, named regs
  }

  bool isRegisterName(std::string_view Tok) const override {
    if (isOneOf(Tok, {"sp", "xzr", "wzr", "fp", "lr"}))
      return true;
    char C0 = Tok.empty() ? 0 : lowerChar(Tok[0]);
    return (C0 == 'w' || C0 == 'x') && digitsFrom(Tok, 1);
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

    // Address materialisation.
    if (M == "adrp") {
      // adrp xd, sym  |  adrp xd, :got:sym (GOT slot address)
      SimOp Op;
      Op.K = SimOp::Kind::AddrOf;
      Op.Dst = canonReg(I.Ops[0].Reg);
      Op.Sym = I.Ops[1].Modifier == "got" ? "got." + I.Ops[1].Sym
                                          : I.Ops[1].Sym;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "add" || M == "sub") {
      // add xd, xn, #imm | add xd, xn, :lo12:sym (page offset: +0)
      int64_t Imm = 0;
      if (I.Ops[2].K == AsmOperand::Kind::Imm)
        Imm = M == "sub" ? -I.Ops[2].Imm : I.Ops[2].Imm;
      if (I.Ops[2].K == AsmOperand::Kind::Reg) {
        Ops.push_back(makeAssign(
            canonReg(I.Ops[0].Reg),
            Expr::binary(M == "sub" ? Expr::Kind::Sub : Expr::Kind::Add,
                         RegExpr(I.Ops[1]), RegExpr(I.Ops[2]))));
        return Step;
      }
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg),
                               Expr::binary(Expr::Kind::Add,
                                            RegExpr(I.Ops[1]),
                                            Expr::imm(Value(Imm)))));
      return Step;
    }
    if (M == "mov") {
      Expr V = I.Ops[1].K == AsmOperand::Kind::Imm
                   ? Expr::imm(Value(uint64_t(I.Ops[1].Imm)))
                   : RegExpr(I.Ops[1]);
      std::string Dst = canonReg(I.Ops[0].Reg);
      if (!Dst.empty())
        Ops.push_back(makeAssign(Dst, std::move(V)));
      return Step;
    }
    if (M == "eor" || M == "and") {
      Ops.push_back(makeAssign(
          canonReg(I.Ops[0].Reg),
          Expr::binary(M == "eor" ? Expr::Kind::Xor : Expr::Kind::And,
                       RegExpr(I.Ops[1]),
                       I.Ops[2].K == AsmOperand::Kind::Imm
                           ? Expr::imm(Value(uint64_t(I.Ops[2].Imm)))
                           : RegExpr(I.Ops[2]))));
      return Step;
    }

    // Loads.
    if (M == "ldr" || M == "ldrb" || M == "ldrh") {
      Ops.push_back(makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1])));
      return Step;
    }
    if (M == "ldar") {
      Ops.push_back(
          makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1]), {"A"}));
      return Step;
    }
    if (M == "ldapr") {
      Ops.push_back(
          makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1]), {"Q"}));
      return Step;
    }
    if (M == "ldxr" || M == "ldaxr") {
      SimOp Op = makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1]), {"X"});
      if (M == "ldaxr")
        Op.Tags.insert("A");
      Op.Exclusive = true;
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "ldxp" || M == "ldaxp" || M == "ldp") {
      SimOp Op = makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[2]));
      Op.Dst2 = canonReg(I.Ops[1].Reg);
      Op.Is128 = true;
      if (M != "ldp") {
        Op.Exclusive = true;
        Op.Tags.insert("X");
      }
      if (M == "ldaxp")
        Op.Tags.insert("A");
      Ops.push_back(std::move(Op));
      return Step;
    }

    // Stores.
    if (M == "str" || M == "strb" || M == "strh") {
      Ops.push_back(makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0])));
      return Step;
    }
    if (M == "stlr") {
      Ops.push_back(makeStore(MemAddr(I.Ops[1]), RegExpr(I.Ops[0]), {"L"}));
      return Step;
    }
    if (M == "stxr" || M == "stlxr") {
      SimOp Op = makeStore(MemAddr(I.Ops[2]), RegExpr(I.Ops[1]), {"X"});
      if (M == "stlxr")
        Op.WTags.insert("L");
      Op.Exclusive = true;
      Op.Dst = canonReg(I.Ops[0].Reg); // status register, success = 0
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "stxp" || M == "stlxp" || M == "stp") {
      bool Exclusive = M != "stp";
      unsigned Base = Exclusive ? 1 : 0;
      SimOp Op = makeStore(MemAddr(I.Ops[Base + 2]), RegExpr(I.Ops[Base]));
      Op.ValHi = RegExpr(I.Ops[Base + 1]);
      Op.Is128 = true;
      if (Exclusive) {
        Op.Exclusive = true;
        Op.WTags.insert("X");
        Op.Dst = canonReg(I.Ops[0].Reg);
      }
      if (M == "stlxp")
        Op.WTags.insert("L");
      Ops.push_back(std::move(Op));
      return Step;
    }

    // LSE atomics: swp/ldadd families plus ST forms.
    auto LseTags = [&](const std::string &Suffix, SimOp &Op) {
      if (Suffix == "a" || Suffix == "al")
        Op.Tags.insert("A");
      if (Suffix == "l" || Suffix == "al")
        Op.WTags.insert("L");
    };
    auto LseRmw = [&](SimOp::RmwOpKind K, const std::string &Suffix,
                      bool StForm) {
      SimOp Op;
      Op.K = SimOp::Kind::Rmw;
      Op.RmwOp = K;
      Op.Val = RegExpr(I.Ops[0]);
      if (StForm) {
        Op.Addr = MemAddr(I.Ops[1]);
        Op.NoRet = true;
      } else {
        Op.Dst = canonReg(I.Ops[1].Reg);
        Op.Addr = MemAddr(I.Ops[2]);
        // LDADD/SWP to the zero register aliases the ST form: the read
        // is not register-visible (dead-register-definitions pass).
        if (Op.Dst.empty())
          Op.NoRet = true;
      }
      LseTags(Suffix, Op);
      Ops.push_back(std::move(Op));
    };
    for (const char *Base : {"swp", "ldadd", "ldsub"}) {
      std::string B = Base;
      if (M.rfind(B, 0) == 0 && M.size() - B.size() <= 2) {
        std::string Suffix = M.substr(B.size());
        if (Suffix.empty() || Suffix == "a" || Suffix == "l" ||
            Suffix == "al") {
          LseRmw(B == "swp"     ? SimOp::RmwOpKind::Xchg
                 : B == "ldadd" ? SimOp::RmwOpKind::Add
                                : SimOp::RmwOpKind::Sub,
                 Suffix, /*StForm=*/false);
          return Step;
        }
      }
    }
    for (const char *Base : {"stadd", "stsub"}) {
      std::string B = Base;
      if (M.rfind(B, 0) == 0 && M.size() - B.size() <= 1) {
        std::string Suffix = M.substr(B.size());
        if (Suffix.empty() || Suffix == "l") {
          LseRmw(B == "stadd" ? SimOp::RmwOpKind::Add
                              : SimOp::RmwOpKind::Sub,
                 Suffix, /*StForm=*/true);
          return Step;
        }
      }
    }

    // Barriers.
    if (M == "dmb") {
      const std::string &Kind = I.Ops[0].Sym;
      std::string Tag = Kind == "ishld"   ? "DMB.ISHLD"
                        : Kind == "ishst" ? "DMB.ISHST"
                                          : "DMB.ISH";
      Ops.push_back(makeFence({Tag}));
      return Step;
    }
    if (M == "isb") {
      Ops.push_back(makeFence({"ISB"}));
      return Step;
    }

    // Control flow.
    if (M == "cbnz" || M == "cbz") {
      Step.K = LowerStep::Kind::CondGoto;
      Step.Target = I.Ops[1].Sym;
      Step.Cond = RegExpr(I.Ops[0]);
      Step.TakenIfNonZero = M == "cbnz";
      return Step;
    }
    if (M == "b") {
      Step.K = LowerStep::Kind::Goto;
      Step.Target = I.Ops[0].Sym;
      return Step;
    }
    if (M == "ret") {
      Step.K = LowerStep::Kind::Ret;
      return Step;
    }
    if (M == "nop")
      return Step;

    Err = "aarch64: unsupported instruction '" + M + "'";
    return Step;
  }
};

} // namespace

const InstSemantics &telechat::aarch64Semantics() {
  static AArch64Semantics Sem;
  return Sem;
}
