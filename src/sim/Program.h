//===--- Program.h - Symbolic programs for simulation -----------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common symbolic form that both the C frontend and the per-ISA
/// assembly semantics lower to before enumeration. A thread is a set of
/// control-flow *paths*; each path is straight-line with branch decisions
/// recorded as constraints. Register names keep dependency information:
/// the enumerator tracks which loads taint which registers to derive
/// addr/data/ctrl relations, uniformly for C and assembly.
///
/// Addresses may be *static* (a known location symbol) or *dynamic* (a
/// register holding a pointer). Dynamic addresses are the paper's §IV-E
/// scalability story: a simulator cannot statically restrict the rf
/// candidates of an access whose address is computed (ADRP/ADD/LDR
/// sequences, literal-pool loads, stack spills), so enumeration explodes;
/// the s2l litmus optimiser rewrites them to static accesses.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_PROGRAM_H
#define TELECHAT_SIM_PROGRAM_H

#include "litmus/Ast.h"

#include <set>
#include <string>
#include <vector>

namespace telechat {

/// An access address: static symbol or dynamic (register-held pointer),
/// plus a byte offset. A dynamic base resolving to symbol S with offset O
/// denotes the location "S+O" (distinct stack slots, array elements).
struct SimAddr {
  std::string Sym;  ///< Non-empty: static.
  std::string Reg;  ///< Used when Sym is empty.
  int64_t Off = 0;  ///< Byte offset added to the base.

  bool isStatic() const { return !Sym.empty(); }

  static SimAddr staticSym(std::string S) {
    SimAddr A;
    A.Sym = std::move(S);
    return A;
  }
  static SimAddr dynamicReg(std::string R, int64_t Off = 0) {
    SimAddr A;
    A.Reg = std::move(R);
    A.Off = Off;
    return A;
  }

  /// The location name "sym" or "sym+off" for a resolved base symbol.
  static std::string locName(const std::string &BaseSym, int64_t Off) {
    if (Off == 0)
      return BaseSym;
    return BaseSym + "+" + std::to_string(Off);
  }
};

/// One operation on a path.
struct SimOp {
  enum class Kind {
    Load,       ///< Dst <- [Addr]; emits an R event.
    Store,      ///< [Addr] <- Val; emits a W event.
    Rmw,        ///< Dst <- [Addr]; [Addr] <- op(old, Val); R+W events.
    Fence,      ///< Emits an F event.
    Assign,     ///< Dst <- Val; no event, pure register computation.
    AddrOf,     ///< Dst <- &Sym; no event (ADRP/ADD, address constants).
    Constraint, ///< Path feasibility: Val must be (non)zero here.
  };

  enum class RmwOpKind { Xchg, Add, Sub };

  Kind K = Kind::Fence;
  std::string Dst;              ///< Load/Rmw/Assign/AddrOf destination; for
                                ///< exclusive stores: the status register
                                ///< (set to 0 = success, herd-style).
  std::string Dst2;             ///< 128-bit loads: high-half register.
  SimAddr Addr;                 ///< Load/Store/Rmw.
  Expr Val;                     ///< Store value / Rmw operand / Assign rhs /
                                ///< Constraint expression.
  Expr ValHi;                   ///< 128-bit stores: high-half value.
  bool Is128 = false;           ///< Access is a 128-bit pair access.
  std::string Sym;              ///< AddrOf payload.
  RmwOpKind RmwOp = RmwOpKind::Xchg;
  bool Exclusive = false;       ///< Load/Store: LL/SC exclusive access; a
                                ///< following exclusive store pairs with
                                ///< the latest exclusive load (rmw edge).
  uint64_t StatusSuccess = 0;   ///< Exclusive-store status value meaning
                                ///< success (0 on Arm/RISC-V, 1 on MIPS).
  bool NoRet = false;           ///< Rmw: ST-form, read not register-visible;
                                ///< the R event gets the NORET tag.
  bool ConstraintNonZero = true; ///< Constraint: Val != 0 (else Val == 0).
  std::set<std::string> Tags;   ///< R/F event tags (Load/Rmw read, Fence).
  std::set<std::string> WTags;  ///< W event tags (Store, Rmw write).
};

/// A straight-line path through a thread.
struct SimPath {
  std::vector<SimOp> Ops;
};

/// A thread: all its paths plus which registers the final state observes.
struct SimThread {
  std::string Name;
  std::vector<SimPath> Paths;
  /// (register, outcome key) pairs recorded at path end, e.g.
  /// ("r0", "P1:r0") or ("X2", "P1:X2").
  std::vector<std::pair<std::string, std::string>> Observed;
};

/// A location in the simulated shared memory.
struct SimLoc {
  std::string Name;
  IntType Type{32, true};
  bool Const = false;
  Value Init;
  /// When non-empty the initial value is the *address of* this symbol
  /// (literal pools in unoptimised compiled tests).
  std::string InitAddrOf;

  bool operator==(const SimLoc &) const = default;
};

/// A complete program ready for enumeration.
struct SimProgram {
  std::string Name;
  std::vector<SimLoc> Locations;
  std::vector<SimThread> Threads;
  FinalCond Final;
  /// Locations recorded in outcomes (usually those the predicate names).
  std::vector<std::string> ObservedLocs;

  const SimLoc *findLocation(const std::string &Name) const;
};

} // namespace telechat

#endif // TELECHAT_SIM_PROGRAM_H
