//===--- GenMips.cpp - MIPS64 code generation -----------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MIPS64 mapping: SYNC around ordered accesses and LL/SC loops. Branch
/// delay slots after the retry branch are filled with NOP because "atomic
/// data is considered volatile for practical reasons" (GCC maintainers,
/// paper §IV-C [40]); the MipsFillAtomicDelaySlots flag emits the
/// proposed optimisation instead, hoisting the delay-slot instruction.
///
//===----------------------------------------------------------------------===//

#include "compiler/TargetGen.h"

#include "support/StringUtils.h"

using namespace telechat;

namespace {

class MipsGen final : public TargetGen {
  std::string valueReg(unsigned I) const override {
    return strFormat("t%u", I % 8);
  }

  void epilogue() override {
    emit("jr", {AsmOperand::reg("ra")});
    emit("nop"); // unfillable delay slot after the return
  }

  std::string addrReg(const std::string &Loc) override {
    auto It = AddrCache.find(Loc);
    if (It != AddrCache.end())
      return It->second;
    std::string R = strFormat("s%zu", AddrCache.size() % 8);
    emit("lui", {AsmOperand::reg(R), AsmOperand::sym(Loc, "hi")});
    emit("daddiu",
         {AsmOperand::reg(R), AsmOperand::reg(R), AsmOperand::sym(Loc, "lo")});
    AddrCache[Loc] = R;
    return R;
  }

  void movImm(const std::string &Dst, Value V) override {
    emit("li", {AsmOperand::reg(Dst), AsmOperand::imm(int64_t(V.Lo))});
  }
  void movReg(const std::string &Dst, const std::string &Src) override {
    emit("move", {AsmOperand::reg(Dst), AsmOperand::reg(Src)});
  }
  void binOp(Expr::Kind K, const std::string &Dst, const std::string &A,
             const std::string &B) override {
    emit(K == Expr::Kind::Xor ? "xor" : "addu",
         {AsmOperand::reg(Dst), AsmOperand::reg(A), AsmOperand::reg(B)});
  }

  void load(MemOrder O, const std::string &Dst,
            const std::string &Addr) override {
    if (O == MemOrder::SeqCst)
      emit("sync");
    emit("lw", {AsmOperand::reg(Dst), AsmOperand::mem(Addr)});
    if (isAcquire(O) || O == MemOrder::SeqCst)
      emit("sync");
  }

  void store(MemOrder O, const std::string &ValReg,
             const std::string &Addr) override {
    if (isRelease(O) || O == MemOrder::SeqCst)
      emit("sync");
    emit("sw", {AsmOperand::reg(ValReg), AsmOperand::mem(Addr)});
    if (O == MemOrder::SeqCst)
      emit("sync");
  }

  void fence(MemOrder) override { emit("sync"); }

  void rmw(RmwKind K, MemOrder O, const std::string &Dst,
           const std::string &OperandReg, const std::string &Addr) override {
    if (isRelease(O) || O == MemOrder::SeqCst)
      emit("sync");
    std::string Old = Dst.empty() ? freshReg() : Dst;
    std::string New = freshReg();
    std::string Tmp = freshReg();
    std::string L = newLabel();
    defineLabel(L);
    emit("ll", {AsmOperand::reg(Old), AsmOperand::mem(Addr)});
    switch (K) {
    case RmwKind::Xchg:
      emit("move", {AsmOperand::reg(New), AsmOperand::reg(OperandReg)});
      break;
    case RmwKind::FetchAdd:
      emit("addu", {AsmOperand::reg(New), AsmOperand::reg(Old),
                    AsmOperand::reg(OperandReg)});
      break;
    case RmwKind::FetchSub:
      emit("subu", {AsmOperand::reg(New), AsmOperand::reg(Old),
                    AsmOperand::reg(OperandReg)});
      break;
    }
    // SC clobbers its value register with the status bit; copy first.
    bool FillSlot = profile().Bugs.MipsFillAtomicDelaySlots;
    if (!FillSlot)
      emit("move", {AsmOperand::reg(Tmp), AsmOperand::reg(New)});
    emit("sc", {AsmOperand::reg(FillSlot ? New : Tmp),
                AsmOperand::mem(Addr)});
    emit("beqz", {AsmOperand::reg(FillSlot ? New : Tmp),
                  AsmOperand::label(L)});
    if (FillSlot) {
      // Proposed optimisation (GCC PR 110573): fill the delay slot with
      // the value copy instead of a NOP.
      emit("move", {AsmOperand::reg(Tmp), AsmOperand::reg(New)});
    } else {
      emit("nop"); // delay slot: atomics may not inhabit it
    }
    if (isAcquire(O) || O == MemOrder::SeqCst)
      emit("sync");
  }

  void condBranchIfZero(const std::string &Reg,
                        const std::string &Label) override {
    emit("beqz", {AsmOperand::reg(Reg), AsmOperand::label(Label)});
    emit("nop"); // delay slot
  }

  void jump(const std::string &Label) override {
    emit("b", {AsmOperand::label(Label)});
    emit("nop"); // delay slot
  }
};

} // namespace

std::unique_ptr<TargetGen> telechat::makeMipsGen() {
  return std::make_unique<MipsGen>();
}
