//===--- Semantics.h - Instruction event semantics --------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-ISA instruction semantics: each instruction lowers to zero or more
/// symbolic ops (events) plus a control-flow effect. The shared driver
/// enumerates control-flow paths (bounded unrolling, exclusive-store
/// success assumption) and produces the SimProgram that the herd-style
/// enumerator consumes. Formalising "the semantics of new instructions"
/// was one of the paper's herd contributions (§III-D); this module is our
/// equivalent.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_ASMCORE_SEMANTICS_H
#define TELECHAT_ASMCORE_SEMANTICS_H

#include "asmcore/AsmProgram.h"
#include "support/Error.h"

#include <string_view>

namespace telechat {

/// Control-flow effect of one lowered instruction.
struct LowerStep {
  enum class Kind { Fallthrough, Goto, CondGoto, Ret } K = Kind::Fallthrough;
  std::string Target;          ///< Goto / CondGoto label.
  Expr Cond;                   ///< CondGoto condition.
  bool TakenIfNonZero = true;  ///< Branch taken when Cond != 0 (else == 0).
};

/// ISA-specific instruction lowering.
class InstSemantics {
public:
  virtual ~InstSemantics();

  /// Lowers \p I, appending ops to \p Ops. On unknown instructions sets
  /// \p Err and returns a Fallthrough step.
  virtual LowerStep lower(const AsmInst &I, std::vector<SimOp> &Ops,
                          std::string &Err) const = 0;

  /// Canonical register name used by the value/taint machinery (AArch64
  /// "w9" -> "x9", x86 "eax" -> "rax"). Zero registers canonicalise to ""
  /// which reads as zero and discards writes.
  virtual std::string canonReg(const std::string &R) const;

  /// True if \p Tok names a machine register of this ISA (used by the
  /// parser to tell registers from symbols). Case is ignored, as
  /// canonReg ignores it.
  virtual bool isRegisterName(std::string_view Tok) const = 0;
};

/// The semantics singleton for an architecture.
const InstSemantics &instSemantics(Arch A);

/// Enumerates the control-flow paths of \p T (backward edges taken at most
/// \p Unroll times) and lowers them. Returns an error for unknown
/// instructions or undefined labels.
ErrorOr<std::vector<SimPath>> enumerateAsmPaths(const AsmThread &T,
                                                const InstSemantics &Sem,
                                                unsigned Unroll = 1);

/// Lowers a full assembly litmus test to a symbolic program (step 4 input
/// of paper Fig. 5). Observed registers derive from the final condition.
ErrorOr<SimProgram> lowerAsmTest(const AsmLitmusTest &Test);

} // namespace telechat

#endif // TELECHAT_ASMCORE_SEMANTICS_H
