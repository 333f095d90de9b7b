//===--- archmodels_test.cpp - Architecture model validation --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the six architecture models against hand-written assembly
/// litmus tests: for each ISA, the canonical relaxed behaviours must be
/// allowed and the canonical fence/ordering idioms must forbid them.
/// These pin the Cat models the way herd's architecture test banks do.
///
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"
#include "asmcore/Semantics.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace telechat;

namespace {

struct ArchCase {
  const char *Name;
  const char *Text;
  bool WitnessAllowed;
};

bool witness(const ArchCase &C) {
  ErrorOr<AsmLitmusTest> T = parseAsmLitmus(C.Text);
  EXPECT_TRUE(T.hasValue()) << (T.hasValue() ? "" : T.error());
  ErrorOr<SimProgram> P = lowerAsmTest(*T);
  EXPECT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error());
  SimResult R = simulateProgram(*P, archModelName(T->TargetArch));
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.TimedOut);
  return finalConditionHolds(*P, R);
}

const ArchCase Cases[] = {
    // --- AArch64 ---
    {"a64_mp_plain_allowed", R"(AArch64 mp
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  str w2, [x0]
  str w2, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  ldr w3, [x0]
  ret
}
exists (P1:X2=1 /\ P1:X3=0)
)",
     true},
    {"a64_mp_dmb_forbidden", R"(AArch64 mpdmb
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  str w2, [x0]
  dmb ish
  str w2, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  dmb ish
  ldr w3, [x0]
  ret
}
exists (P1:X2=1 /\ P1:X3=0)
)",
     false},
    {"a64_mp_relacq_forbidden", R"(AArch64 mpra
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  str w2, [x0]
  stlr w2, [x1]
  ret
}
P1 {
  ldar w2, [x1]
  ldr w3, [x0]
  ret
}
exists (P1:X2=1 /\ P1:X3=0)
)",
     false},
    {"a64_lb_plain_allowed", R"(AArch64 lb
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  ldr w2, [x0]
  mov w3, #1
  str w3, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  mov w3, #1
  str w3, [x0]
  ret
}
exists (P0:X2=1 /\ P1:X2=1)
)",
     true},
    {"a64_lb_data_forbidden", R"(AArch64 lbdata
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  ldr w2, [x0]
  eor w3, w2, w2
  add w3, w3, #1
  str w3, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  eor w3, w2, w2
  add w3, w3, #1
  str w3, [x0]
  ret
}
exists (P0:X2=1 /\ P1:X2=1)
)",
     false},
    {"a64_lb_ctrl_forbidden", R"(AArch64 lbctrl
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  ldr w2, [x0]
  cbnz w2, .L0
.L0:
  mov w3, #1
  str w3, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  cbnz w2, .L1
.L1:
  mov w3, #1
  str w3, [x0]
  ret
}
exists (P0:X2=1 /\ P1:X2=1)
)",
     false},
    {"a64_sb_dmb_forbidden", R"(AArch64 sbdmb
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  str w2, [x0]
  dmb ish
  ldr w3, [x1]
  ret
}
P1 {
  mov w2, #1
  str w2, [x1]
  dmb ish
  ldr w3, [x0]
  ret
}
exists (P0:X3=0 /\ P1:X3=0)
)",
     false},
    {"a64_sb_dmbld_insufficient", R"(AArch64 sbld
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  str w2, [x0]
  dmb ishld
  ldr w3, [x1]
  ret
}
P1 {
  mov w2, #1
  str w2, [x1]
  dmb ishld
  ldr w3, [x0]
  ret
}
exists (P0:X3=0 /\ P1:X3=0)
)",
     true},
    {"a64_stlr_ldar_sb_forbidden", R"(AArch64 sbra
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  stlr w2, [x0]
  ldar w3, [x1]
  ret
}
P1 {
  mov w2, #1
  stlr w2, [x1]
  ldar w3, [x0]
  ret
}
exists (P0:X3=0 /\ P1:X3=0)
)",
     false},
    {"a64_stlr_ldapr_sb_allowed", R"(AArch64 sbpc
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  stlr w2, [x0]
  ldapr w3, [x1]
  ret
}
P1 {
  mov w2, #1
  stlr w2, [x1]
  ldapr w3, [x0]
  ret
}
exists (P0:X3=0 /\ P1:X3=0)
)",
     true},
    // Value resolution through branches and pointers: each case pins
    // one edge or location the sweep derives per rf assignment.
    // ctrl reaches the ISB: ctrl; [ISB]; po; [R] orders the two loads.
    {"a64_mp_dmb_ctrlisb_forbidden", R"(AArch64 mpdmbctrlisb
{ x = 0; y = 0; P0:x0 = &x; P0:x1 = &y; P1:x0 = &x; P1:x1 = &y; }
P0 {
  mov w2, #1
  str w2, [x0]
  dmb ish
  str w2, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  cbnz w2, .L0
.L0:
  isb
  ldr w3, [x0]
  ret
}
exists (P1:X2=1 /\ P1:X3=0)
)",
     false},
    // The second load's base is loaded from memory (a dynamic address)
    // and carries an addr dependency on the first load through eor.
    {"a64_mp_dmb_addr_dynamic_base_forbidden", R"(AArch64 mpdmbaddrdyn
{ x = 0; y = 0; px = &x; P0:x0 = &x; P0:x1 = &y; P1:x1 = &y; P1:x6 = &px; }
P0 {
  mov w2, #1
  str w2, [x0]
  dmb ish
  str w2, [x1]
  ret
}
P1 {
  ldr w2, [x1]
  ldr x5, [x6]
  eor w4, w2, w2
  add x5, x5, x4
  ldr w3, [x5]
  ret
}
exists (P1:X2=1 /\ P1:X3=0)
)",
     false},
    // Two stores through one loaded pointer: the offset makes the second
    // a distinct location, so a keeps the first store's value.
    {"a64_dynamic_offset_is_another_location", R"(AArch64 dynoff
{ a = 0; pa = &a; P0:x6 = &pa; }
P0 {
  ldr x5, [x6]
  mov w2, #1
  str w2, [x5]
  mov w3, #2
  str w3, [x5, #4]
  ret
}
exists (a=2)
)",
     false},
    // --- Armv7 ---
    {"v7_mp_dmb_forbidden", R"(ARMv7 v7mp
{ x = 0; y = 0; P0:r0 = &x; P0:r1 = &y; P1:r0 = &x; P1:r1 = &y; }
P0 {
  mov r2, #1
  str r2, [r0]
  dmb ish
  str r2, [r1]
  bx lr
}
P1 {
  ldr r2, [r1]
  dmb ish
  ldr r3, [r0]
  bx lr
}
exists (P1:r2=1 /\ P1:r3=0)
)",
     false},
    {"v7_mp_plain_allowed", R"(ARMv7 v7mpp
{ x = 0; y = 0; P0:r0 = &x; P0:r1 = &y; P1:r0 = &x; P1:r1 = &y; }
P0 {
  mov r2, #1
  str r2, [r0]
  str r2, [r1]
  bx lr
}
P1 {
  ldr r2, [r1]
  ldr r3, [r0]
  bx lr
}
exists (P1:r2=1 /\ P1:r3=0)
)",
     true},
    // --- x86-64 ---
    {"x86_sb_allowed", R"(X86_64 xsb
{ x = 0; y = 0; }
P0 {
  mov eax, 1
  mov [rip+x], eax
  mov ebx, [rip+y]
  ret
}
P1 {
  mov eax, 1
  mov [rip+y], eax
  mov ebx, [rip+x]
  ret
}
exists (P0:rbx=0 /\ P1:rbx=0)
)",
     true},
    {"x86_sb_mfence_forbidden", R"(X86_64 xsbf
{ x = 0; y = 0; }
P0 {
  mov eax, 1
  mov [rip+x], eax
  mfence
  mov ebx, [rip+y]
  ret
}
P1 {
  mov eax, 1
  mov [rip+y], eax
  mfence
  mov ebx, [rip+x]
  ret
}
exists (P0:rbx=0 /\ P1:rbx=0)
)",
     false},
    {"x86_mp_plain_forbidden", R"(X86_64 xmp
{ x = 0; y = 0; }
P0 {
  mov eax, 1
  mov [rip+x], eax
  mov [rip+y], eax
  ret
}
P1 {
  mov eax, [rip+y]
  mov ebx, [rip+x]
  ret
}
exists (P1:rax=1 /\ P1:rbx=0)
)",
     false},
    {"x86_locked_rmw_orders", R"(X86_64 xrmw
{ x = 0; y = 0; }
P0 {
  mov eax, 1
  mov [rip+x], eax
  mov ecx, 0
  lock xadd [rip+y], ecx
  ret
}
P1 {
  mov eax, 1
  mov [rip+y], eax
  mov ebx, [rip+x]
  ret
}
exists (P0:rcx=1 /\ P1:rbx=0)
)",
     true},
    // --- RISC-V ---
    {"rv_mp_fences_forbidden", R"(RISCV rvmp
{ x = 0; y = 0; P0:a0 = &x; P0:a1 = &y; P1:a0 = &x; P1:a1 = &y; }
P0 {
  li a2, 1
  sw a2, 0(a0)
  fence rw, w
  sw a2, 0(a1)
  ret
}
P1 {
  lw a2, 0(a1)
  fence r, rw
  lw a3, 0(a0)
  ret
}
exists (P1:a2=1 /\ P1:a3=0)
)",
     false},
    {"rv_mp_plain_allowed", R"(RISCV rvmpp
{ x = 0; y = 0; P0:a0 = &x; P0:a1 = &y; P1:a0 = &x; P1:a1 = &y; }
P0 {
  li a2, 1
  sw a2, 0(a0)
  sw a2, 0(a1)
  ret
}
P1 {
  lw a2, 0(a1)
  lw a3, 0(a0)
  ret
}
exists (P1:a2=1 /\ P1:a3=0)
)",
     true},
    {"rv_amo_aqrl_sb_forbidden", R"(RISCV rvsb
{ x = 0; y = 0; P0:a0 = &x; P0:a1 = &y; P1:a0 = &x; P1:a1 = &y; }
P0 {
  li a2, 1
  amoswap.w.aqrl a3, a2, (a0)
  lw a4, 0(a1)
  ret
}
P1 {
  li a2, 1
  amoswap.w.aqrl a3, a2, (a1)
  lw a4, 0(a0)
  ret
}
exists (P0:a4=0 /\ P1:a4=0)
)",
     false},
    // --- PowerPC ---
    {"ppc_mp_lwsync_forbidden", R"(PPC pmp
{ x = 0; y = 0; P0:r3 = &x; P0:r4 = &y; P1:r3 = &x; P1:r4 = &y; }
P0 {
  li r5, 1
  stw r5, 0(r3)
  lwsync
  stw r5, 0(r4)
  blr
}
P1 {
  lwz r5, 0(r4)
  lwsync
  lwz r6, 0(r3)
  blr
}
exists (P1:r5=1 /\ P1:r6=0)
)",
     false},
    {"ppc_lb_plain_allowed", R"(PPC plb
{ x = 0; y = 0; P0:r3 = &x; P0:r4 = &y; P1:r3 = &x; P1:r4 = &y; }
P0 {
  lwz r5, 0(r3)
  li r6, 1
  stw r6, 0(r4)
  blr
}
P1 {
  lwz r5, 0(r4)
  li r6, 1
  stw r6, 0(r3)
  blr
}
exists (P0:r5=1 /\ P1:r5=1)
)",
     true},
    {"ppc_sb_lwsync_insufficient", R"(PPC psb
{ x = 0; y = 0; P0:r3 = &x; P0:r4 = &y; P1:r3 = &x; P1:r4 = &y; }
P0 {
  li r5, 1
  stw r5, 0(r3)
  lwsync
  lwz r6, 0(r4)
  blr
}
P1 {
  li r5, 1
  stw r5, 0(r4)
  lwsync
  lwz r6, 0(r3)
  blr
}
exists (P0:r6=0 /\ P1:r6=0)
)",
     true},
    {"ppc_sb_sync_forbidden", R"(PPC psbs
{ x = 0; y = 0; P0:r3 = &x; P0:r4 = &y; P1:r3 = &x; P1:r4 = &y; }
P0 {
  li r5, 1
  stw r5, 0(r3)
  sync
  lwz r6, 0(r4)
  blr
}
P1 {
  li r5, 1
  stw r5, 0(r4)
  sync
  lwz r6, 0(r3)
  blr
}
exists (P0:r6=0 /\ P1:r6=0)
)",
     false},
    // --- MIPS (TSO-like) ---
    {"mips_mp_plain_forbidden", R"(MIPS mmp
{ x = 0; y = 0; P0:s0 = &x; P0:s1 = &y; P1:s0 = &x; P1:s1 = &y; }
P0 {
  li t0, 1
  sw t0, 0(s0)
  sw t0, 0(s1)
  jr ra
}
P1 {
  lw t0, 0(s1)
  lw t1, 0(s0)
  jr ra
}
exists (P1:t0=1 /\ P1:t1=0)
)",
     false},
    {"mips_sb_plain_allowed", R"(MIPS msb
{ x = 0; y = 0; P0:s0 = &x; P0:s1 = &y; P1:s0 = &x; P1:s1 = &y; }
P0 {
  li t0, 1
  sw t0, 0(s0)
  lw t1, 0(s1)
  jr ra
}
P1 {
  li t0, 1
  sw t0, 0(s1)
  lw t1, 0(s0)
  jr ra
}
exists (P0:t1=0 /\ P1:t1=0)
)",
     true},
    {"mips_sb_sync_forbidden", R"(MIPS msbs
{ x = 0; y = 0; P0:s0 = &x; P0:s1 = &y; P1:s0 = &x; P1:s1 = &y; }
P0 {
  li t0, 1
  sw t0, 0(s0)
  sync
  lw t1, 0(s1)
  jr ra
}
P1 {
  li t0, 1
  sw t0, 0(s1)
  sync
  lw t1, 0(s0)
  jr ra
}
exists (P0:t1=0 /\ P1:t1=0)
)",
     false},
};

class ArchModelTest : public testing::TestWithParam<ArchCase> {};

} // namespace

TEST_P(ArchModelTest, WitnessMatchesArchitecture) {
  const ArchCase &C = GetParam();
  EXPECT_EQ(witness(C), C.WitnessAllowed) << C.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Bank, ArchModelTest, testing::ValuesIn(Cases),
    [](const testing::TestParamInfo<ArchCase> &Info) {
      return std::string(Info.param.Name);
    });
