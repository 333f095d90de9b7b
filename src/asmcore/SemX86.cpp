//===--- SemX86.cpp - Intel x86-64 instruction semantics ------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// x86-64 (Intel syntax subset): MOV loads/stores are RIP-relative and
/// therefore *statically addressed* -- x86 tests never suffer the dynamic
/// address explosion. MFENCE and LOCK-prefixed RMWs restore store-load
/// ordering; events of locked instructions carry the LOCK tag consumed by
/// x86tso.cat. Flags are the pseudo-register "flags".
///
//===----------------------------------------------------------------------===//

#include "asmcore/SemInternal.h"

#include <cctype>
#include <set>

using namespace telechat;
using namespace telechat::semdetail;

namespace {

class X86Semantics final : public InstSemantics {
public:
  std::string canonReg(const std::string &R) const override {
    std::string L;
    for (char C : R)
      L += char(tolower(static_cast<unsigned char>(C)));
    // 32-bit aliases: eax -> rax, r8d -> r8.
    static const std::set<std::string> Named = {"ax", "bx", "cx", "dx",
                                                "si", "di", "bp", "sp"};
    if (L.size() == 3 && L[0] == 'e' && Named.count(L.substr(1)))
      return "r" + L.substr(1);
    if (L.size() >= 2 && L[0] == 'r' && (L.back() == 'd' || L.back() == 'w') &&
        isdigit(static_cast<unsigned char>(L[1])))
      return L.substr(0, L.size() - 1);
    return L;
  }

  bool isRegisterName(std::string_view Tok) const override {
    if (isOneOf(Tok, {"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
                      "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp",
                      "rip"}))
      return true;
    return Tok.size() >= 2 && lowerChar(Tok[0]) == 'r' &&
           isdigit(static_cast<unsigned char>(Tok[1]));
  }

  LowerStep lower(const AsmInst &I, std::vector<SimOp> &Ops,
                  std::string &Err) const override {
    const std::string &M = I.Mnemonic;
    LowerStep Step;
    auto RegExpr = [&](const AsmOperand &O) {
      return Expr::reg(canonReg(O.Reg));
    };
    auto MemAddr = [&](const AsmOperand &O) {
      if (!O.Sym.empty())
        return SimAddr::staticSym(O.Sym); // [rip+sym]
      return SimAddr::dynamicReg(canonReg(O.Reg), O.Imm);
    };
    auto ImmOrReg = [&](const AsmOperand &O) {
      return O.K == AsmOperand::Kind::Imm
                 ? Expr::imm(Value(uint64_t(O.Imm)))
                 : RegExpr(O);
    };

    if (M == "mov") {
      if (I.Ops[0].K == AsmOperand::Kind::Mem) {
        Ops.push_back(makeStore(MemAddr(I.Ops[0]), ImmOrReg(I.Ops[1])));
        return Step;
      }
      if (I.Ops[1].K == AsmOperand::Kind::Mem) {
        Ops.push_back(makeLoad(canonReg(I.Ops[0].Reg), MemAddr(I.Ops[1])));
        return Step;
      }
      Ops.push_back(makeAssign(canonReg(I.Ops[0].Reg), ImmOrReg(I.Ops[1])));
      return Step;
    }
    if (M == "mfence") {
      Ops.push_back(makeFence({"MFENCE"}));
      return Step;
    }
    if (M == "xchg" || M == "lock.xchg") {
      // xchg reg, [mem] (implicitly locked): reg <- old, [mem] <- reg.
      unsigned RegIdx = I.Ops[0].K == AsmOperand::Kind::Reg ? 0 : 1;
      unsigned MemIdx = 1 - RegIdx;
      SimOp Op;
      Op.K = SimOp::Kind::Rmw;
      Op.RmwOp = SimOp::RmwOpKind::Xchg;
      Op.Dst = canonReg(I.Ops[RegIdx].Reg);
      Op.Val = RegExpr(I.Ops[RegIdx]);
      Op.Addr = MemAddr(I.Ops[MemIdx]);
      Op.Tags = {"LOCK"};
      Op.WTags = {"LOCK"};
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "lock.xadd") {
      // lock xadd [mem], reg: reg <- old, [mem] <- old + reg.
      SimOp Op;
      Op.K = SimOp::Kind::Rmw;
      Op.RmwOp = SimOp::RmwOpKind::Add;
      Op.Dst = canonReg(I.Ops[1].Reg);
      Op.Val = RegExpr(I.Ops[1]);
      Op.Addr = MemAddr(I.Ops[0]);
      Op.Tags = {"LOCK"};
      Op.WTags = {"LOCK"};
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "lock.add") {
      // lock add [mem], reg/imm: no result register (ST-form analogue).
      SimOp Op;
      Op.K = SimOp::Kind::Rmw;
      Op.RmwOp = SimOp::RmwOpKind::Add;
      Op.Val = ImmOrReg(I.Ops[1]);
      Op.Addr = MemAddr(I.Ops[0]);
      Op.Tags = {"LOCK"};
      Op.WTags = {"LOCK"};
      Ops.push_back(std::move(Op));
      return Step;
    }
    if (M == "test" || M == "cmp") {
      Expr Flags = M == "test"
                       ? RegExpr(I.Ops[0])
                       : Expr::binary(Expr::Kind::Sub, RegExpr(I.Ops[0]),
                                      ImmOrReg(I.Ops[1]));
      Ops.push_back(makeAssign("flags", std::move(Flags)));
      return Step;
    }
    if (M == "jne" || M == "je") {
      Step.K = LowerStep::Kind::CondGoto;
      Step.Target = I.Ops[0].Sym;
      Step.Cond = Expr::reg("flags");
      Step.TakenIfNonZero = M == "jne";
      return Step;
    }
    if (M == "jmp") {
      Step.K = LowerStep::Kind::Goto;
      Step.Target = I.Ops[0].Sym;
      return Step;
    }
    if (M == "ret") {
      Step.K = LowerStep::Kind::Ret;
      return Step;
    }
    if (M == "add" || M == "xor" || M == "sub") {
      Expr::Kind K = M == "add"   ? Expr::Kind::Add
                     : M == "sub" ? Expr::Kind::Sub
                                  : Expr::Kind::Xor;
      Ops.push_back(
          makeAssign(canonReg(I.Ops[0].Reg),
                     Expr::binary(K, RegExpr(I.Ops[0]), ImmOrReg(I.Ops[1]))));
      return Step;
    }
    if (M == "nop")
      return Step;

    Err = "x86: unsupported instruction '" + M + "'";
    return Step;
  }
};

} // namespace

const InstSemantics &telechat::x86Semantics() {
  static X86Semantics Sem;
  return Sem;
}
