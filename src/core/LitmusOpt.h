//===--- LitmusOpt.h - s2l litmus-test optimisation -------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The s2l optimiser (paper §IV-E): rewrites compiled litmus tests so
/// that simulation scales. "We optimise ADRP *x; LDR; LDR/STR x ~>
/// LDR/STR x sequences ... and contribute a suite of similar
/// optimisations for each architecture." Concretely:
///
///  1. GOT-load collapse: `adrp xN, :got:x; ldr xN, [xN, :got_lo12:x]`
///     becomes a herd-style initial register assignment `Pk:xN = &x`,
///     deleting the memory read whose unresolvable address explodes the
///     reads-from search space.
///  2. Scaffolding removal: stack-frame saves/restores and NOPs carry no
///     shared-memory behaviour; their events only multiply candidates.
///  3. Dead synthetic locations (got.*, stack.*) are dropped.
///
/// Soundness argument (paper §IV-E): removed accesses touch locations no
/// other thread can name, so they cannot side-effect observable state.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CORE_LITMUSOPT_H
#define TELECHAT_CORE_LITMUSOPT_H

#include "asmcore/AsmProgram.h"

namespace telechat {

/// Counters reported by the optimiser (the paper cites ~4 lines removed
/// per access).
struct S2LStats {
  unsigned RemovedInstructions = 0;
  unsigned RemovedLocations = 0;
};

/// Applies the optimisation pipeline to \p In, in place; \p Stats may
/// be null. Callers that drop their test move it in.
AsmLitmusTest optimiseAsmLitmus(AsmLitmusTest In, S2LStats *Stats = nullptr);

} // namespace telechat

#endif // TELECHAT_CORE_LITMUSOPT_H
