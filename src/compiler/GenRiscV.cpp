//===--- GenRiscV.cpp - RISC-V RV64 code generation -----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RV64 mapping. LLVM uses the per-order fences of the A-extension
/// mapping table (fence r,rw / fence rw,w); GCC conservatively emits full
/// fence rw,rw everywhere -- the asymmetry behind Table IV's much larger
/// RISC-V negative-difference count for GCC.
///
//===----------------------------------------------------------------------===//

#include "compiler/TargetGen.h"

#include "support/StringUtils.h"

using namespace telechat;

namespace {

class RiscVGen final : public TargetGen {
  std::string valueReg(unsigned I) const override {
    return strFormat("a%u", I % 8);
  }

  void epilogue() override { emit("ret"); }

  std::string addrReg(const std::string &Loc) override {
    auto It = AddrCache.find(Loc);
    if (It != AddrCache.end())
      return It->second;
    std::string R = strFormat("t%zu", AddrCache.size() % 7);
    emit("lui", {AsmOperand::reg(R), AsmOperand::sym(Loc, "hi")});
    emit("addi", {AsmOperand::reg(R), AsmOperand::reg(R),
                  AsmOperand::sym(Loc, "lo")});
    AddrCache[Loc] = R;
    return R;
  }

  void movImm(const std::string &Dst, Value V) override {
    emit("li", {AsmOperand::reg(Dst), AsmOperand::imm(int64_t(V.Lo))});
  }
  void movReg(const std::string &Dst, const std::string &Src) override {
    emit("mv", {AsmOperand::reg(Dst), AsmOperand::reg(Src)});
  }
  void binOp(Expr::Kind K, const std::string &Dst, const std::string &A,
             const std::string &B) override {
    const char *M = K == Expr::Kind::Add   ? "add"
                    : K == Expr::Kind::Sub ? "sub"
                                           : "xor";
    emit(M, {AsmOperand::reg(Dst), AsmOperand::reg(A), AsmOperand::reg(B)});
  }

  void emitFence(const char *Pred, const char *Succ) {
    bool Strong = profile().Compiler == CompilerKind::Gcc;
    emit("fence", {AsmOperand::sym(Strong ? "rw" : Pred),
                   AsmOperand::sym(Strong ? "rw" : Succ)});
  }

  void load(MemOrder O, const std::string &Dst,
            const std::string &Addr) override {
    if (O == MemOrder::SeqCst)
      emitFence("rw", "rw");
    emit("lw", {AsmOperand::reg(Dst), AsmOperand::mem(Addr)});
    if (isAcquire(O) || O == MemOrder::SeqCst)
      emitFence("r", "rw");
  }

  void store(MemOrder O, const std::string &ValReg,
             const std::string &Addr) override {
    if (isRelease(O))
      emitFence("rw", "w");
    emit("sw", {AsmOperand::reg(ValReg), AsmOperand::mem(Addr)});
    if (O == MemOrder::SeqCst)
      emitFence("rw", "rw");
  }

  void fence(MemOrder O) override {
    if (O == MemOrder::Acquire || O == MemOrder::Consume) {
      emitFence("r", "rw");
      return;
    }
    if (O == MemOrder::Release) {
      emitFence("rw", "w");
      return;
    }
    emitFence("rw", "rw");
  }

  void rmw(RmwKind K, MemOrder O, const std::string &Dst,
           const std::string &OperandReg, const std::string &Addr) override {
    std::string Suffix;
    if (isAcquire(O) && isRelease(O))
      Suffix = ".aqrl";
    else if (isAcquire(O))
      Suffix = ".aq";
    else if (isRelease(O))
      Suffix = ".rl";
    std::string Base = K == RmwKind::Xchg ? "amoswap.w" : "amoadd.w";
    std::string Op = OperandReg;
    if (K == RmwKind::FetchSub) {
      // amoadd with negated operand.
      std::string Neg = freshReg();
      emit("li", {AsmOperand::reg(Neg), AsmOperand::imm(0)});
      emit("sub",
           {AsmOperand::reg(Neg), AsmOperand::reg(Neg), AsmOperand::reg(Op)});
      Op = Neg;
    }
    emit(Base + Suffix,
         {AsmOperand::reg(Dst.empty() ? "zero" : Dst), AsmOperand::reg(Op),
          AsmOperand::mem(Addr)});
  }

  void condBranchIfZero(const std::string &Reg,
                        const std::string &Label) override {
    emit("beqz", {AsmOperand::reg(Reg), AsmOperand::label(Label)});
  }

  void jump(const std::string &Label) override {
    emit("j", {AsmOperand::label(Label)});
  }
};

} // namespace

std::unique_ptr<TargetGen> telechat::makeRiscVGen() {
  return std::make_unique<RiscVGen>();
}
