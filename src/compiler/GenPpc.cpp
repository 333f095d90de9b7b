//===--- GenPpc.cpp - IBM PowerPC code generation -------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PowerPC mapping: lwsync for acquire/release, sync for seq_cst, and
/// LWARX/STWCX. reservation loops for RMWs (sync/lwsync before, isync
/// after, per the standard Power mapping).
///
//===----------------------------------------------------------------------===//

#include "compiler/TargetGen.h"

#include "support/StringUtils.h"

using namespace telechat;

namespace {

class PpcGen final : public TargetGen {
  std::string valueReg(unsigned I) const override {
    return strFormat("r%u", 3 + I % 10);
  }

  void epilogue() override { emit("blr"); }

  std::string addrReg(const std::string &Loc) override {
    auto It = AddrCache.find(Loc);
    if (It != AddrCache.end())
      return It->second;
    std::string R = strFormat("r%zu", 20 + AddrCache.size() % 8);
    emit("lis", {AsmOperand::reg(R), AsmOperand::sym(Loc, "ha")});
    emit("addi",
         {AsmOperand::reg(R), AsmOperand::reg(R), AsmOperand::sym(Loc, "l")});
    AddrCache[Loc] = R;
    return R;
  }

  void movImm(const std::string &Dst, Value V) override {
    emit("li", {AsmOperand::reg(Dst), AsmOperand::imm(int64_t(V.Lo))});
  }
  void movReg(const std::string &Dst, const std::string &Src) override {
    emit("mr", {AsmOperand::reg(Dst), AsmOperand::reg(Src)});
  }
  void binOp(Expr::Kind K, const std::string &Dst, const std::string &A,
             const std::string &B) override {
    emit(K == Expr::Kind::Add ? "add" : "xor",
         {AsmOperand::reg(Dst), AsmOperand::reg(A), AsmOperand::reg(B)});
  }

  void load(MemOrder O, const std::string &Dst,
            const std::string &Addr) override {
    if (O == MemOrder::SeqCst)
      emit("sync");
    emit("lwz", {AsmOperand::reg(Dst), AsmOperand::mem(Addr)});
    if (isAcquire(O) || O == MemOrder::SeqCst)
      emit("lwsync");
  }

  void store(MemOrder O, const std::string &ValReg,
             const std::string &Addr) override {
    if (O == MemOrder::SeqCst)
      emit("sync");
    else if (isRelease(O))
      emit("lwsync");
    emit("stw", {AsmOperand::reg(ValReg), AsmOperand::mem(Addr)});
  }

  void fence(MemOrder O) override {
    emit(O == MemOrder::SeqCst ? "sync" : "lwsync");
  }

  void rmw(RmwKind K, MemOrder O, const std::string &Dst,
           const std::string &OperandReg, const std::string &Addr) override {
    if (O == MemOrder::SeqCst)
      emit("sync");
    else if (isRelease(O))
      emit("lwsync");
    std::string Old = Dst.empty() ? freshReg() : Dst;
    std::string New = freshReg();
    std::string L = newLabel();
    defineLabel(L);
    emit("lwarx", {AsmOperand::reg(Old), AsmOperand::imm(0),
                   AsmOperand::reg(Addr)});
    switch (K) {
    case RmwKind::Xchg:
      emit("mr", {AsmOperand::reg(New), AsmOperand::reg(OperandReg)});
      break;
    case RmwKind::FetchAdd:
      emit("add", {AsmOperand::reg(New), AsmOperand::reg(Old),
                   AsmOperand::reg(OperandReg)});
      break;
    case RmwKind::FetchSub:
      // subf rd, ra, rb computes rb - ra.
      emit("subf", {AsmOperand::reg(New), AsmOperand::reg(OperandReg),
                    AsmOperand::reg(Old)});
      break;
    }
    emit("stwcx.", {AsmOperand::reg(New), AsmOperand::imm(0),
                    AsmOperand::reg(Addr)});
    emit("bne-", {AsmOperand::label(L)});
    if (isAcquire(O) || O == MemOrder::SeqCst)
      emit("isync");
  }

  void condBranchIfZero(const std::string &Reg,
                        const std::string &Label) override {
    emit("cmpwi", {AsmOperand::reg(Reg), AsmOperand::imm(0)});
    emit("beq", {AsmOperand::label(Label)});
  }

  void jump(const std::string &Label) override {
    emit("b", {AsmOperand::label(Label)});
  }
};

} // namespace

std::unique_ptr<TargetGen> telechat::makePpcGen() {
  return std::make_unique<PpcGen>();
}
