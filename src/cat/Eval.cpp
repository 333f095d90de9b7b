//===--- Eval.cpp - Cat model evaluator -----------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// Two evaluators live here.
//
// The reference, evaluateCat(), walks the AST once per execution with the
// definitional kernels: a set in ';' becomes identityOn(S) and then seq,
// and acyclicity is an empty diagonal of the transitive closure.
//
// The engine, CatEvaluator, works in three phases:
//
//  1. Compile (once per parsed model, by its first evaluator): every
//     identifier resolves to a base, a binding's register or a tag
//     register, and each binding and check body becomes a list of
//     instructions that each write one register. Kinds (relation, set,
//     zero) are static, so every type error except let rec divergence is
//     found here; it becomes a Fail step at its statement and binding,
//     and the program ends there. Identical instructions share one
//     register. In a let rec group, the instructions that read no slot
//     of the group run once, before the Kleene loop. Each register and
//     each binding and check is marked stable or dynamic (below), and the
//     program is scheduled three ways: without caching, for conservative
//     combos and for all-static combos.
//
//  2. Layer build (once per path combo): the stable instructions and
//     checks run, and their registers move into an immutable
//     CatStableLayer, shareable across worker threads.
//
//  3. Candidate evaluation: the dynamic instructions run into the
//     evaluator's own registers, reading the Execution's po, rf, co, rmw,
//     addr, data and ctrl and the layer's registers by reference. Owned
//     registers keep their storage from candidate to candidate, so a
//     candidate allocates nothing once they have grown to size. The walk
//     ends at the first failed check when the program allows it (see
//     the verdict contract in Eval.h).
//
// Stability: an expression is stable iff everything it references is.
// Two markings are kept -- one assuming only the skeleton invariants (po,
// threads, kinds, rmw, IW), one additionally assuming fixed locations and
// tags (all-static combos). Bindings and checks are classified exactly as
// by the AST (a "0" operand counts as stable), which is what CacheStats
// counts; registers are classified by what their instruction reads.
//
//===----------------------------------------------------------------------===//

#include "cat/Eval.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>
#include <tuple>

using namespace telechat;

bool ModelVerdict::hasFlag(const std::string &Name) const {
  return std::find(Flags.begin(), Flags.end(), Name) != Flags.end();
}

namespace {

/// The base environment. The first block is derivable from the combo
/// skeleton alone, Loc/PoLoc additionally need fixed locations, the rest
/// depend on the candidate's rf/co/dependency choice.
enum BaseId : unsigned {
  B_Po,
  B_Rmw,
  B_Ext,
  B_Int,
  B_Id,
  B_Univ,
  B_Empty,
  B_R,
  B_W,
  B_M,
  B_F,
  B_IW,
  B_Loc,
  B_PoLoc,
  B_Rf,
  B_Co,
  B_Fr,
  B_Addr,
  B_Data,
  B_Ctrl,
  B_Rfe,
  B_Rfi,
  B_Coe,
  B_Coi,
  B_Fre,
  B_Fri,
  B_COUNT
};

const std::map<std::string, unsigned> &baseNames() {
  static const std::map<std::string, unsigned> Names = {
      {"po", B_Po},       {"rf", B_Rf},     {"co", B_Co},
      {"fr", B_Fr},       {"rmw", B_Rmw},   {"addr", B_Addr},
      {"data", B_Data},   {"ctrl", B_Ctrl}, {"loc", B_Loc},
      {"po-loc", B_PoLoc}, {"ext", B_Ext},  {"int", B_Int},
      {"id", B_Id},       {"rfe", B_Rfe},   {"rfi", B_Rfi},
      {"coe", B_Coe},     {"coi", B_Coi},   {"fre", B_Fre},
      {"fri", B_Fri},     {"_", B_Univ},    {"emptyset", B_Empty},
      {"R", B_R},         {"W", B_W},       {"M", B_M},
      {"F", B_F},         {"IW", B_IW}};
  return Names;
}

std::string err(const CatExpr &E, const char *Msg) {
  return strFormat("cat eval:%u: %s", E.Line, Msg);
}

const char *const Diverged = "let rec fixpoint did not converge";

//===----------------------------------------------------------------------===//
// The reference evaluator
//===----------------------------------------------------------------------===//

/// A value in the Cat language: a relation or an event set. Kind::Zero is
/// the polymorphic empty value ("0") that adapts to its context.
struct CatValue {
  enum class Kind { Rel, Set, Zero } K = Kind::Zero;
  Relation R;
  Bitset S;

  static CatValue rel(Relation R) {
    CatValue V;
    V.K = Kind::Rel;
    V.R = std::move(R);
    return V;
  }
  static CatValue set(Bitset S) {
    CatValue V;
    V.K = Kind::Set;
    V.S = std::move(S);
    return V;
  }
};

/// One walk of a model over one execution. Let-bound names shadow the
/// base environment; any other name is the tag set of that name.
class RefEval {
public:
  explicit RefEval(const Execution &Ex) : Ex(Ex), N(Ex.size()) {}

  ModelVerdict run(const CatModel &M) {
    ModelVerdict V;
    for (const CatStmt &S : M.Stmts) {
      std::string E;
      switch (S.K) {
      case CatStmt::Kind::Let:
        for (const CatBinding &B : S.Bindings) {
          CatValue Val;
          if (E = eval(B.Body, Val); !E.empty())
            break;
          Env[B.Name] = std::move(Val);
        }
        break;
      case CatStmt::Kind::LetRec:
        E = evalRec(S);
        break;
      case CatStmt::Kind::Check: {
        bool Holds = false;
        if (E = evalCheck(S.Check, Holds); !E.empty() || !V.Allowed)
          break; // after the first failure, only an error is recorded
        if (S.Check.IsFlag) {
          if (Holds)
            V.Flags.push_back(S.Check.Name);
        } else if (!Holds) {
          V.Allowed = false;
          V.FailedCheck = S.Check.Name;
        }
        break;
      }
      }
      if (!E.empty()) {
        V.Error = E;
        return V;
      }
    }
    return V;
  }

private:
  CatValue lookup(const std::string &Name) {
    if (auto It = Env.find(Name); It != Env.end())
      return It->second;
    if (auto It = baseNames().find(Name); It != baseNames().end())
      return base(It->second);
    return CatValue::set(Ex.tagSet(Name));
  }

  CatValue base(unsigned B) {
    switch (B) {
    case B_Po:
      return CatValue::rel(Ex.Po);
    case B_Rmw:
      return CatValue::rel(Ex.Rmw);
    case B_Ext:
      return CatValue::rel(Ex.ext());
    case B_Int:
      return CatValue::rel(Ex.internal());
    case B_Id:
      return CatValue::rel(Relation::identity(N));
    case B_Univ:
      return CatValue::set(Ex.universe());
    case B_Empty:
      return CatValue::set(Bitset(N));
    case B_R:
      return CatValue::set(Ex.kindSet(EventKind::Read));
    case B_W:
      return CatValue::set(Ex.kindSet(EventKind::Write));
    case B_M:
      return CatValue::set(Ex.kindSet(EventKind::Read) |
                           Ex.kindSet(EventKind::Write));
    case B_F:
      return CatValue::set(Ex.kindSet(EventKind::Fence));
    case B_IW:
      return CatValue::set(Ex.initWrites());
    case B_Loc:
      return CatValue::rel(Ex.loc());
    case B_PoLoc:
      return CatValue::rel(Ex.poLoc());
    case B_Rf:
      return CatValue::rel(Ex.Rf);
    case B_Co:
      return CatValue::rel(Ex.Co);
    case B_Fr:
      return CatValue::rel(Ex.fr());
    case B_Addr:
      return CatValue::rel(Ex.Addr);
    case B_Data:
      return CatValue::rel(Ex.Data);
    case B_Ctrl:
      return CatValue::rel(Ex.Ctrl);
    case B_Rfe:
      return CatValue::rel(Ex.Rf & Ex.ext());
    case B_Rfi:
      return CatValue::rel(Ex.Rf & Ex.internal());
    case B_Coe:
      return CatValue::rel(Ex.Co & Ex.ext());
    case B_Coi:
      return CatValue::rel(Ex.Co & Ex.internal());
    case B_Fre:
      return CatValue::rel(Ex.fr() & Ex.ext());
    case B_Fri:
      return CatValue::rel(Ex.fr() & Ex.internal());
    }
    return CatValue();
  }

  /// Kleene fixpoint for let rec groups: start from empty relations,
  /// re-evaluate bodies until stable. A monotone group (no slot under the
  /// right operand of '\') converges within the bound; another may not.
  std::string evalRec(const CatStmt &S) {
    for (const CatBinding &B : S.Bindings)
      Env[B.Name] = CatValue::rel(Relation(N));
    // Each iteration adds at least one pair or stops; N^2 pairs per
    // binding bounds the iteration count.
    unsigned MaxIters = N * N * unsigned(S.Bindings.size()) + 2;
    for (unsigned Iter = 0; Iter != MaxIters; ++Iter) {
      bool Changed = false;
      for (const CatBinding &B : S.Bindings) {
        CatValue V;
        if (std::string E = eval(B.Body, V); !E.empty())
          return E;
        if (V.K == CatValue::Kind::Zero)
          V = CatValue::rel(Relation(N));
        if (V.K != CatValue::Kind::Rel)
          return "let rec binding '" + B.Name + "' is not a relation";
        CatValue &Slot = Env[B.Name];
        if (!(V.R == Slot.R)) {
          Slot = std::move(V);
          Changed = true;
        }
      }
      if (!Changed)
        return "";
    }
    return Diverged;
  }

  std::string evalCheck(const CatCheck &C, bool &Holds) {
    CatValue V;
    if (std::string E = eval(C.E, V); !E.empty())
      return E;
    switch (C.T) {
    case CatCheck::Test::Acyclic:
      if (V.K == CatValue::Kind::Set)
        return err(C.E, "acyclic requires a relation");
      Holds = V.K == CatValue::Kind::Zero ||
              V.R.transitiveClosure().isIrreflexive();
      break;
    case CatCheck::Test::Irreflexive:
      if (V.K == CatValue::Kind::Set)
        return err(C.E, "irreflexive requires a relation");
      Holds = V.K == CatValue::Kind::Zero || V.R.isIrreflexive();
      break;
    case CatCheck::Test::Empty:
      Holds = V.K == CatValue::Kind::Zero ||
              (V.K == CatValue::Kind::Rel ? V.R.empty() : V.S.empty());
      break;
    }
    if (C.Negated)
      Holds = !Holds;
    return "";
  }

  /// Reconciles the operand kinds of a binary set/relation operator.
  /// Zero adapts to the other side; mixing Set and Rel is a type error.
  std::string coerce(const CatExpr &E, CatValue &L, CatValue &R) {
    if (L.K == CatValue::Kind::Zero && R.K == CatValue::Kind::Zero)
      return "";
    if (L.K == CatValue::Kind::Zero)
      L = R.K == CatValue::Kind::Rel ? CatValue::rel(Relation(N))
                                     : CatValue::set(Bitset(N));
    if (R.K == CatValue::Kind::Zero)
      R = L.K == CatValue::Kind::Rel ? CatValue::rel(Relation(N))
                                     : CatValue::set(Bitset(N));
    if (L.K != R.K)
      return err(E, "operands mix a set and a relation");
    return "";
  }

  std::string evalRelOperand(const CatExpr &E, CatValue &V, Relation &Out) {
    if (V.K == CatValue::Kind::Zero) {
      Out = Relation(N);
      return "";
    }
    if (V.K != CatValue::Kind::Rel)
      return err(E, "expected a relation");
    Out = std::move(V.R);
    return "";
  }

  std::string eval(const CatExpr &E, CatValue &Out) {
    switch (E.K) {
    case CatExpr::Kind::Zero:
      Out = CatValue();
      return "";
    case CatExpr::Kind::Id:
      Out = lookup(E.Name);
      return "";
    case CatExpr::Kind::Union:
    case CatExpr::Kind::Inter:
    case CatExpr::Kind::Diff: {
      CatValue L, R;
      if (std::string Err = eval(E.Ops[0], L); !Err.empty())
        return Err;
      if (std::string Err = eval(E.Ops[1], R); !Err.empty())
        return Err;
      if (std::string Err = coerce(E, L, R); !Err.empty())
        return Err;
      if (L.K == CatValue::Kind::Zero) {
        Out = CatValue();
        return "";
      }
      if (L.K == CatValue::Kind::Rel) {
        if (E.K == CatExpr::Kind::Union)
          Out = CatValue::rel(L.R | R.R);
        else if (E.K == CatExpr::Kind::Inter)
          Out = CatValue::rel(L.R & R.R);
        else
          Out = CatValue::rel(L.R - R.R);
      } else {
        if (E.K == CatExpr::Kind::Union)
          Out = CatValue::set(L.S | R.S);
        else if (E.K == CatExpr::Kind::Inter)
          Out = CatValue::set(L.S & R.S);
        else
          Out = CatValue::set(L.S - R.S);
      }
      return "";
    }
    case CatExpr::Kind::Seq: {
      CatValue LV, RV;
      if (std::string Err = eval(E.Ops[0], LV); !Err.empty())
        return Err;
      if (std::string Err = eval(E.Ops[1], RV); !Err.empty())
        return Err;
      // Sets in a sequence act as identity filters, as in herd stdlib.
      Relation L, R;
      if (LV.K == CatValue::Kind::Set)
        L = Relation::identityOn(LV.S);
      else if (std::string Err = evalRelOperand(E, LV, L); !Err.empty())
        return Err;
      if (RV.K == CatValue::Kind::Set)
        R = Relation::identityOn(RV.S);
      else if (std::string Err = evalRelOperand(E, RV, R); !Err.empty())
        return Err;
      Out = CatValue::rel(L.seq(R));
      return "";
    }
    case CatExpr::Kind::Cross: {
      CatValue L, R;
      if (std::string Err = eval(E.Ops[0], L); !Err.empty())
        return Err;
      if (std::string Err = eval(E.Ops[1], R); !Err.empty())
        return Err;
      if (L.K == CatValue::Kind::Zero || R.K == CatValue::Kind::Zero) {
        Out = CatValue::rel(Relation(N));
        return "";
      }
      if (L.K != CatValue::Kind::Set || R.K != CatValue::Kind::Set)
        return err(E, "'*' requires two sets");
      Out = CatValue::rel(Relation::cross(L.S, R.S));
      return "";
    }
    case CatExpr::Kind::Inverse:
    case CatExpr::Kind::Plus:
    case CatExpr::Kind::Star:
    case CatExpr::Kind::Opt: {
      CatValue V;
      if (std::string Err = eval(E.Ops[0], V); !Err.empty())
        return Err;
      Relation R;
      if (std::string Err = evalRelOperand(E, V, R); !Err.empty())
        return Err;
      switch (E.K) {
      case CatExpr::Kind::Inverse:
        Out = CatValue::rel(R.inverse());
        break;
      case CatExpr::Kind::Plus:
        Out = CatValue::rel(R.transitiveClosure());
        break;
      case CatExpr::Kind::Star:
        Out = CatValue::rel(R.reflexiveTransitiveClosure());
        break;
      default:
        Out = CatValue::rel(R.optional());
        break;
      }
      return "";
    }
    case CatExpr::Kind::Bracket: {
      CatValue V;
      if (std::string Err = eval(E.Ops[0], V); !Err.empty())
        return Err;
      if (V.K == CatValue::Kind::Zero) {
        Out = CatValue::rel(Relation(N));
        return "";
      }
      if (V.K != CatValue::Kind::Set)
        return err(E, "'[...]' requires a set");
      Out = CatValue::rel(Relation::identityOn(V.S));
      return "";
    }
    case CatExpr::Kind::Domain:
    case CatExpr::Kind::Range: {
      CatValue V;
      if (std::string Err = eval(E.Ops[0], V); !Err.empty())
        return Err;
      Relation R;
      if (std::string Err = evalRelOperand(E, V, R); !Err.empty())
        return Err;
      Out = CatValue::set(E.K == CatExpr::Kind::Domain ? R.domain()
                                                       : R.range());
      return "";
    }
    case CatExpr::Kind::FenceRel: {
      CatValue V;
      if (std::string Err = eval(E.Ops[0], V); !Err.empty())
        return Err;
      if (V.K == CatValue::Kind::Zero) {
        Out = CatValue::rel(Relation(N));
        return "";
      }
      if (V.K != CatValue::Kind::Set)
        return err(E, "fencerel requires a set");
      Relation Id = Relation::identityOn(V.S);
      Out = CatValue::rel(Ex.Po.seq(Id).seq(Ex.Po));
      return "";
    }
    }
    return err(E, "unhandled expression kind");
  }

  const Execution &Ex;
  unsigned N;
  std::map<std::string, CatValue> Env;
};

//===----------------------------------------------------------------------===//
// The compiled program
//===----------------------------------------------------------------------===//

/// (stable assuming skeleton invariants, stable also assuming all-static).
struct Stab {
  bool Gen = true;
  bool Stat = true;

  Stab meet(const Stab &O) const { return {Gen && O.Gen, Stat && O.Stat}; }
};

Stab baseStab(unsigned B) { return {B <= B_IW, B <= B_PoLoc}; }

/// The three schedules of a program.
enum Mode : unsigned { M_NoCache, M_Gen, M_Stat, M_COUNT };

bool stableIn(const Stab &S, unsigned Mode) {
  return Mode == M_Stat ? S.Stat : Mode == M_Gen && S.Gen;
}

/// Static kind of a compiled value; Zero has no register.
enum class VK : uint8_t { Zero, Rel, Set };

/// Instructions. A plain one writes register Dst -- a relation or a set
/// register, by opcode -- from operand registers A and B. The steps after
/// RecUpdate drive a schedule; for Loop, StableGroup and Fail in a
/// candidate schedule, Dst indexes the schedule's Stops.
enum class Op : uint8_t {
  // Relation loads. (The set-writing opcodes, LoadUniv to Range, are
  // contiguous: see writesSet.)
  LoadExt,
  LoadInt,
  LoadId,
  LoadLoc,
  ClearRel,
  // Set loads. LoadKind takes its EventKind from A, LoadTag its tag.
  LoadUniv,
  LoadEmpty,
  LoadKind,
  LoadInit,
  LoadTag,
  // Set operators.
  SUnion,
  SInter,
  SDiff,
  Domain,
  Range,
  // Relation operators.
  RUnion,
  RInter,
  RDiff,
  Seq,
  RowFilter, ///< [A]; B with A a set.
  ColFilter, ///< A; [B] with B a set.
  Cross,
  IdOn,
  Inverse,
  Plus,
  Star,
  Opt,
  RecUpdate, ///< let rec slot Dst := A when they differ; notes the change.
  // Steps.
  Loop,        ///< Runs the next B instructions (group A) to a fixpoint.
  Check,       ///< Check B on register A.
  CachedCheck, ///< Check B's verdict, from the layer.
  StableGroup, ///< Stops if the layer's let rec group A diverged.
  Fail,        ///< Stops with static error A.
};

bool writesSet(Op O) { return O >= Op::LoadUniv && O <= Op::Range; }

struct Instr {
  Op Code;
  unsigned Dst = 0, A = 0, B = 0;
};

struct CheckInfo {
  CatCheck::Test T;
  bool Negated;
  bool IsFlag;
  VK K; ///< Kind of the checked value.
  std::string Name;
};

/// Binding and check evaluations a walk serves from the layer.
struct Counts {
  uint64_t Bindings = 0;
  uint64_t Checks = 0;
};

/// One way to run the program: the layer build, the per-candidate walk,
/// and which registers the layer holds.
struct Schedule {
  std::vector<Instr> Build;
  std::vector<Instr> Run;
  std::vector<Counts> Stops; ///< Served work before each stopping step.
  Counts Total;              ///< Served work of a walk that completes.
  std::vector<char> RelInLayer, SetInLayer;
};

} // namespace

struct telechat::CatProgram {
  unsigned NumRel = 0, NumSet = 0;
  /// Registers read straight from the Execution.
  std::vector<std::pair<unsigned, Relation Execution::*>> ExecBases;
  std::vector<std::string> Tags;
  std::vector<CheckInfo> Checks;
  std::vector<std::vector<unsigned>> Groups; ///< Slots of each let rec.
  std::vector<std::string> Errors;
  Schedule Modes[M_COUNT];
  /// No static error and every let rec group monotone: no step after a
  /// failed check can stop the walk, so the walk may end there.
  bool EarlyExit = false;
};

/// See Eval.h. Built once per path combo, then only read.
struct telechat::CatStableLayer {
  const CatProgram *Program = nullptr; ///< Whose registers these are.
  std::vector<Relation> Rel;           ///< Stable registers; others empty.
  std::vector<Bitset> Set;
  std::vector<char> CheckHolds;
  unsigned DivergedGroup = ~0u; ///< A stable let rec group that diverged.
  bool AllStatic = false;
};

namespace {

class Compiler {
public:
  explicit Compiler(CatProgram &P) : P(P) {}

  void compile(const CatModel &M) {
    for (const CatStmt &S : M.Stmts) {
      Stmts.emplace_back();
      Cur = &Stmts.back();
      Cur->K = S.K;
      bool Ok = true;
      switch (S.K) {
      case CatStmt::Kind::Let:
        for (const CatBinding &B : S.Bindings) {
          Val V;
          if (!(Ok = expr(B.Body, V)))
            break;
          Cur->BindSt.push_back(V.St);
          Scope[B.Name] = V;
        }
        break;
      case CatStmt::Kind::LetRec:
        Ok = group(S);
        break;
      case CatStmt::Kind::Check:
        Ok = check(S.Check);
        break;
      }
      if (!Ok) {
        Cur->Error = P.Errors.size();
        P.Errors.push_back(Err);
        break;
      }
    }
    P.EarlyExit = P.Errors.empty() && Monotone;
    dropTestedClosures();
    for (unsigned M = 0; M != M_COUNT; ++M)
      schedule(M);
  }

private:
  struct Val {
    VK K = VK::Zero;
    unsigned Reg = 0;
    Stab St; ///< Of the expression, as the AST classifies it.
  };

  /// One statement, before scheduling.
  struct StmtCode {
    CatStmt::Kind K = CatStmt::Kind::Let;
    std::vector<Instr> Pre;   ///< Straight-line instructions.
    std::vector<Instr> Body;  ///< Let rec: the loop body.
    std::vector<Stab> BindSt; ///< Let: each compiled binding.
    Stab St;                  ///< Let rec group / check.
    unsigned Index = 0;       ///< Let rec group / check.
    unsigned Reg = 0;         ///< Check: the checked register.
    unsigned Error = ~0u;     ///< A static error ends the program here.
  };

  bool fail(const CatExpr &E, const char *Msg) {
    Err = err(E, Msg);
    return false;
  }

  unsigned newReg(VK K, Stab St, unsigned Group) {
    std::vector<Stab> &Sts = K == VK::Rel ? RelSt : SetSt;
    Sts.push_back(St);
    (K == VK::Rel ? RelGroup : SetGroup).push_back(Group);
    if (K == VK::Rel)
      RelReaders.push_back(0);
    return (K == VK::Rel ? P.NumRel : P.NumSet)++;
  }
  Stab &regSt(VK K, unsigned R) { return K == VK::Rel ? RelSt[R] : SetSt[R]; }
  unsigned regGroup(const Val &V) const {
    return V.K == VK::Rel ? RelGroup[V.Reg] : SetGroup[V.Reg];
  }

  /// Returns the register of Code over the registers of \p L and \p R
  /// (either may be null) and \p Imm, emitting the instruction unless an
  /// identical one exists. Loads pass the stability of what they read as
  /// \p Own. An instruction that reads a slot of the let rec group being
  /// compiled goes to the loop body, any other one before it; a '\' whose
  /// right operand reads one makes the group non-monotone.
  unsigned emit(Op Code, VK K, const Val *L, const Val *R, unsigned Imm = 0,
                Stab Own = {}) {
    bool RVariant = CurGroup != ~0u && R && regGroup(*R) == CurGroup;
    bool Variant =
        RVariant || (CurGroup != ~0u && L && regGroup(*L) == CurGroup);
    if (RVariant && (Code == Op::RDiff || Code == Op::SDiff))
      Monotone = false;
    auto Key = std::make_tuple(Code, L ? L->Reg : Imm, R ? R->Reg : 0u);
    if (!Variant)
      if (auto It = Cse.find(Key); It != Cse.end())
        return It->second;
    Stab St = Own;
    if (L)
      St = St.meet(regSt(L->K, L->Reg));
    if (R)
      St = St.meet(regSt(R->K, R->Reg));
    unsigned Reg = newReg(K, St, Variant ? CurGroup : ~0u);
    (Variant ? Cur->Body : Cur->Pre)
        .push_back(Instr{Code, Reg, std::get<1>(Key), std::get<2>(Key)});
    for (const Val *Operand : {L, R})
      if (Operand && Operand->K == VK::Rel)
        ++RelReaders[Operand->Reg];
    if (!Variant)
      Cse.emplace(Key, Reg);
    if (Code == Op::Plus && !Variant)
      Closures.emplace(Reg, L->Reg);
    return Reg;
  }

  /// The empty value of kind \p K, standing in for a "0" operand.
  Val empty(VK K, Stab St) {
    if (K == VK::Set)
      return Val{K, base(B_Empty).Reg, St};
    return Val{K, emit(Op::ClearRel, VK::Rel, nullptr, nullptr), St};
  }

  Val execBase(Relation Execution::*Member, unsigned B) {
    unsigned Reg = newReg(VK::Rel, baseStab(B), ~0u);
    P.ExecBases.emplace_back(Reg, Member);
    return Val{VK::Rel, Reg, baseStab(B)};
  }

  Val base(unsigned B) {
    if (HaveBase[B])
      return Bases[B];
    Stab St = baseStab(B);
    auto Load = [&](Op Code, VK K, unsigned Imm = 0) {
      return Val{K, emit(Code, K, nullptr, nullptr, Imm, St), St};
    };
    auto Bin = [&](Op Code, VK K, unsigned X, unsigned Y) {
      Val VX = base(X), VY = base(Y);
      return Val{K, emit(Code, K, &VX, &VY), St};
    };
    Val V;
    switch (B) {
    case B_Po:
      V = execBase(&Execution::Po, B);
      break;
    case B_Rmw:
      V = execBase(&Execution::Rmw, B);
      break;
    case B_Rf:
      V = execBase(&Execution::Rf, B);
      break;
    case B_Co:
      V = execBase(&Execution::Co, B);
      break;
    case B_Addr:
      V = execBase(&Execution::Addr, B);
      break;
    case B_Data:
      V = execBase(&Execution::Data, B);
      break;
    case B_Ctrl:
      V = execBase(&Execution::Ctrl, B);
      break;
    case B_Ext:
      V = Load(Op::LoadExt, VK::Rel);
      break;
    case B_Int:
      V = Load(Op::LoadInt, VK::Rel);
      break;
    case B_Id:
      V = Load(Op::LoadId, VK::Rel);
      break;
    case B_Loc:
      V = Load(Op::LoadLoc, VK::Rel);
      break;
    case B_Univ:
      V = Load(Op::LoadUniv, VK::Set);
      break;
    case B_Empty:
      V = Load(Op::LoadEmpty, VK::Set);
      break;
    case B_R:
      V = Load(Op::LoadKind, VK::Set, unsigned(EventKind::Read));
      break;
    case B_W:
      V = Load(Op::LoadKind, VK::Set, unsigned(EventKind::Write));
      break;
    case B_F:
      V = Load(Op::LoadKind, VK::Set, unsigned(EventKind::Fence));
      break;
    case B_IW:
      V = Load(Op::LoadInit, VK::Set);
      break;
    case B_M:
      V = Bin(Op::SUnion, VK::Set, B_R, B_W);
      break;
    case B_PoLoc:
      V = Bin(Op::RInter, VK::Rel, B_Po, B_Loc);
      break;
    case B_Fr: {
      Val Rf = base(B_Rf), Co = base(B_Co);
      Val Inv = Val{VK::Rel, emit(Op::Inverse, VK::Rel, &Rf, nullptr), St};
      V = Val{VK::Rel, emit(Op::Seq, VK::Rel, &Inv, &Co), St};
      break;
    }
    case B_Rfe:
      V = Bin(Op::RInter, VK::Rel, B_Rf, B_Ext);
      break;
    case B_Rfi:
      V = Bin(Op::RInter, VK::Rel, B_Rf, B_Int);
      break;
    case B_Coe:
      V = Bin(Op::RInter, VK::Rel, B_Co, B_Ext);
      break;
    case B_Coi:
      V = Bin(Op::RInter, VK::Rel, B_Co, B_Int);
      break;
    case B_Fre:
      V = Bin(Op::RInter, VK::Rel, B_Fr, B_Ext);
      break;
    case B_Fri:
      V = Bin(Op::RInter, VK::Rel, B_Fr, B_Int);
      break;
    }
    HaveBase[B] = true;
    Bases[B] = V;
    return V;
  }

  Val lookup(const std::string &Name) {
    if (auto It = Scope.find(Name); It != Scope.end())
      return It->second;
    if (auto It = baseNames().find(Name); It != baseNames().end())
      return base(It->second);
    // Tags come from the ops of the chosen paths; only ConstWrite
    // (resolved-location dependent) can vary, and only on combos with
    // dynamic addresses.
    auto [It, New] = TagIndex.try_emplace(Name, unsigned(P.Tags.size()));
    if (New)
      P.Tags.push_back(Name);
    Stab St{false, true};
    return Val{VK::Set,
               emit(Op::LoadTag, VK::Set, nullptr, nullptr, It->second, St),
               St};
  }

  /// A relation operand: "0" is the empty relation.
  bool relOperand(const CatExpr &E, Val &V) {
    if (V.K == VK::Set)
      return fail(E, "expected a relation");
    if (V.K == VK::Zero)
      V = empty(VK::Rel, V.St);
    return true;
  }

  /// An operand of ';'. A bracket or a set stays a set, which the
  /// sequence applies as a row or column filter; "0" is the empty
  /// relation.
  bool seqOperand(const CatExpr &E, Val &V) {
    if (E.K != CatExpr::Kind::Bracket) {
      if (!expr(E, V))
        return false;
    } else {
      if (!expr(E.Ops[0], V))
        return false;
      if (V.K == VK::Rel)
        return fail(E, "'[...]' requires a set");
    }
    if (V.K == VK::Zero)
      V = empty(VK::Rel, V.St);
    return true;
  }

  bool expr(const CatExpr &E, Val &Out) {
    switch (E.K) {
    case CatExpr::Kind::Zero:
      Out = Val();
      return true;
    case CatExpr::Kind::Id:
      Out = lookup(E.Name);
      return true;
    case CatExpr::Kind::Union:
    case CatExpr::Kind::Inter:
    case CatExpr::Kind::Diff: {
      Val L, R;
      if (!expr(E.Ops[0], L) || !expr(E.Ops[1], R))
        return false;
      Stab St = L.St.meet(R.St);
      if (L.K == VK::Zero && R.K == VK::Zero) {
        Out = Val{VK::Zero, 0, St};
        return true;
      }
      if (L.K == VK::Zero)
        L = empty(R.K, L.St);
      if (R.K == VK::Zero)
        R = empty(L.K, R.St);
      if (L.K != R.K)
        return fail(E, "operands mix a set and a relation");
      bool Rel = L.K == VK::Rel;
      Op Code = E.K == CatExpr::Kind::Union   ? (Rel ? Op::RUnion : Op::SUnion)
                : E.K == CatExpr::Kind::Inter ? (Rel ? Op::RInter : Op::SInter)
                                              : (Rel ? Op::RDiff : Op::SDiff);
      Out = Val{L.K, emit(Code, L.K, &L, &R), St};
      return true;
    }
    case CatExpr::Kind::Seq: {
      Val L, R;
      if (!seqOperand(E.Ops[0], L) || !seqOperand(E.Ops[1], R))
        return false;
      Stab St = L.St.meet(R.St);
      if (L.K == VK::Set) {
        if (R.K == VK::Set)
          R = Val{VK::Rel, emit(Op::IdOn, VK::Rel, &R, nullptr), R.St};
        Out = Val{VK::Rel, emit(Op::RowFilter, VK::Rel, &L, &R), St};
      } else if (R.K == VK::Set) {
        Out = Val{VK::Rel, emit(Op::ColFilter, VK::Rel, &L, &R), St};
      } else {
        Out = Val{VK::Rel, emit(Op::Seq, VK::Rel, &L, &R), St};
      }
      return true;
    }
    case CatExpr::Kind::Cross: {
      Val L, R;
      if (!expr(E.Ops[0], L) || !expr(E.Ops[1], R))
        return false;
      Stab St = L.St.meet(R.St);
      if (L.K == VK::Zero || R.K == VK::Zero) {
        Out = empty(VK::Rel, St);
        return true;
      }
      if (L.K != VK::Set || R.K != VK::Set)
        return fail(E, "'*' requires two sets");
      Out = Val{VK::Rel, emit(Op::Cross, VK::Rel, &L, &R), St};
      return true;
    }
    case CatExpr::Kind::Inverse:
    case CatExpr::Kind::Plus:
    case CatExpr::Kind::Star:
    case CatExpr::Kind::Opt: {
      Val V;
      if (!expr(E.Ops[0], V) || !relOperand(E, V))
        return false;
      Op Code = E.K == CatExpr::Kind::Inverse ? Op::Inverse
                : E.K == CatExpr::Kind::Plus  ? Op::Plus
                : E.K == CatExpr::Kind::Star  ? Op::Star
                                              : Op::Opt;
      Out = Val{VK::Rel, emit(Code, VK::Rel, &V, nullptr), V.St};
      return true;
    }
    case CatExpr::Kind::Bracket: {
      Val V;
      if (!expr(E.Ops[0], V))
        return false;
      if (V.K == VK::Zero) {
        Out = empty(VK::Rel, V.St);
        return true;
      }
      if (V.K != VK::Set)
        return fail(E, "'[...]' requires a set");
      Out = Val{VK::Rel, emit(Op::IdOn, VK::Rel, &V, nullptr), V.St};
      return true;
    }
    case CatExpr::Kind::Domain:
    case CatExpr::Kind::Range: {
      Val V;
      if (!expr(E.Ops[0], V) || !relOperand(E, V))
        return false;
      Op Code = E.K == CatExpr::Kind::Domain ? Op::Domain : Op::Range;
      Out = Val{VK::Set, emit(Code, VK::Set, &V, nullptr), V.St};
      return true;
    }
    case CatExpr::Kind::FenceRel: {
      // po with the columns outside S cleared, then ; po. Reads the
      // execution's po even where a binding shadows the name.
      Val V;
      if (!expr(E.Ops[0], V))
        return false;
      if (V.K == VK::Zero) {
        Out = empty(VK::Rel, V.St);
        return true;
      }
      if (V.K != VK::Set)
        return fail(E, "fencerel requires a set");
      Val Po = base(B_Po);
      Val ToS = Val{VK::Rel, emit(Op::ColFilter, VK::Rel, &Po, &V), V.St};
      Out = Val{VK::Rel, emit(Op::Seq, VK::Rel, &ToS, &Po), V.St};
      return true;
    }
    }
    return fail(E, "unhandled expression kind");
  }

  /// A let rec group: slots start provisionally stable, as the group's
  /// stability is the meet over its bodies' *external* dependencies.
  bool group(const CatStmt &S) {
    unsigned G = P.Groups.size();
    P.Groups.emplace_back();
    Cur->Index = G;
    std::vector<unsigned> &Slots = P.Groups.back();
    for (const CatBinding &B : S.Bindings) {
      Slots.push_back(newReg(VK::Rel, Stab{}, G));
      Scope[B.Name] = Val{VK::Rel, Slots.back(), Stab{}};
    }
    CurGroup = G;
    Stab Group;
    for (size_t BI = 0; BI != S.Bindings.size(); ++BI) {
      Val V;
      if (!expr(S.Bindings[BI].Body, V))
        return false;
      if (V.K == VK::Set) {
        Err = "let rec binding '" + S.Bindings[BI].Name +
              "' is not a relation";
        return false;
      }
      if (V.K == VK::Zero)
        V = empty(VK::Rel, V.St);
      Group = Group.meet(V.St);
      Cur->Body.push_back(Instr{Op::RecUpdate, Slots[BI], V.Reg, 0});
      ++RelReaders[V.Reg];
    }
    CurGroup = ~0u;
    Cur->St = Group;
    for (const Instr &I : Cur->Body)
      regSt(writesSet(I.Code) ? VK::Set : VK::Rel, I.Dst) = Group;
    for (const CatBinding &B : S.Bindings)
      Scope[B.Name].St = Group;
    return true;
  }

  bool check(const CatCheck &C) {
    Val V;
    if (!expr(C.E, V))
      return false;
    if (V.K == VK::Set && C.T == CatCheck::Test::Acyclic)
      return fail(C.E, "acyclic requires a relation");
    if (V.K == VK::Set && C.T == CatCheck::Test::Irreflexive)
      return fail(C.E, "irreflexive requires a relation");
    Cur->Index = P.Checks.size();
    Cur->Reg = V.Reg;
    Cur->St = V.St;
    if (V.K == VK::Rel)
      ++RelReaders[V.Reg];
    P.Checks.push_back(CheckInfo{C.T, C.Negated, C.IsFlag, V.K, C.Name});
    return true;
  }

  /// acyclic r^+ is acyclic r. An acyclicity check that is the only reader
  /// of a closure reads the closure's operand instead, and the closure is
  /// dropped. The operand's register has the closure's stability, so the
  /// schedules and the served counts do not change.
  void dropTestedClosures() {
    for (StmtCode &C : Stmts) {
      if (C.K != CatStmt::Kind::Check || C.Error != ~0u ||
          P.Checks[C.Index].T != CatCheck::Test::Acyclic ||
          P.Checks[C.Index].K != VK::Rel)
        continue;
      for (auto It = Closures.find(C.Reg);
           It != Closures.end() && RelReaders[C.Reg] == 1;
           It = Closures.find(C.Reg)) {
        for (StmtCode &S : Stmts)
          std::erase_if(S.Pre, [&](const Instr &I) {
            return I.Code == Op::Plus && I.Dst == C.Reg;
          });
        C.Reg = It->second;
      }
    }
  }

  /// Splits the statements into the layer build and the candidate walk
  /// of mode \p M.
  void schedule(unsigned M) {
    Schedule &S = P.Modes[M];
    S.RelInLayer.assign(P.NumRel, 0);
    S.SetInLayer.assign(P.NumSet, 0);
    for (unsigned R = 0; R != P.NumRel; ++R)
      S.RelInLayer[R] = stableIn(RelSt[R], M);
    for (unsigned R = 0; R != P.NumSet; ++R)
      S.SetInLayer[R] = stableIn(SetSt[R], M);
    for (const auto &[Reg, Member] : P.ExecBases)
      S.RelInLayer[Reg] = 0;
    auto Stop = [&](const Counts &C) {
      S.Stops.push_back(C);
      return unsigned(S.Stops.size() - 1);
    };
    Counts Acc;
    for (const StmtCode &C : Stmts) {
      if (C.Error != ~0u) {
        Counts At = Acc;
        for (const Stab &St : C.BindSt)
          At.Bindings += stableIn(St, M);
        S.Run.push_back(Instr{Op::Fail, Stop(At), C.Error, 0});
        break;
      }
      for (const Instr &I : C.Pre) {
        bool InLayer = writesSet(I.Code) ? S.SetInLayer[I.Dst]
                                         : S.RelInLayer[I.Dst];
        (InLayer ? S.Build : S.Run).push_back(I);
      }
      bool Stable = stableIn(C.St, M);
      switch (C.K) {
      case CatStmt::Kind::Let:
        for (const Stab &St : C.BindSt)
          Acc.Bindings += stableIn(St, M);
        break;
      case CatStmt::Kind::LetRec: {
        std::vector<Instr> &To = Stable ? S.Build : S.Run;
        To.push_back(Instr{Op::Loop, Stable ? 0 : Stop(Acc), C.Index,
                           unsigned(C.Body.size())});
        To.insert(To.end(), C.Body.begin(), C.Body.end());
        if (Stable) {
          S.Run.push_back(Instr{Op::StableGroup, Stop(Acc), C.Index, 0});
          Acc.Bindings += P.Groups[C.Index].size();
        }
        break;
      }
      case CatStmt::Kind::Check:
        if (Stable) {
          S.Build.push_back(Instr{Op::Check, 0, C.Reg, C.Index});
          S.Run.push_back(Instr{Op::CachedCheck, 0, 0, C.Index});
          ++Acc.Checks;
        } else {
          S.Run.push_back(Instr{Op::Check, 0, C.Reg, C.Index});
        }
        break;
      }
    }
    S.Total = Acc;
  }

  CatProgram &P;
  std::vector<StmtCode> Stmts;
  StmtCode *Cur = nullptr;
  std::map<std::string, Val> Scope; ///< Let-bound names.
  Val Bases[B_COUNT];
  bool HaveBase[B_COUNT] = {};
  std::map<std::string, unsigned> TagIndex;
  std::map<std::tuple<Op, unsigned, unsigned>, unsigned> Cse;
  std::vector<Stab> RelSt, SetSt; ///< By what each register reads.
  /// Instructions and checks that read each relation register.
  std::vector<unsigned> RelReaders;
  /// Each closure outside a let rec loop: its register and its operand's.
  std::map<unsigned, unsigned> Closures;
  /// The let rec group whose slots each register reads, or ~0u.
  std::vector<unsigned> RelGroup, SetGroup;
  unsigned CurGroup = ~0u;
  /// No '\' so far reads a slot of its let rec group on its right.
  bool Monotone = true;
  std::string Err;
};

std::shared_ptr<const CatProgram> programOf(const CatModel &M) {
  std::lock_guard<std::mutex> Lock(M.Compiled.M);
  if (!M.Compiled.Program) {
    auto P = std::make_shared<CatProgram>();
    Compiler(*P).compile(M);
    M.Compiled.Program = std::move(P);
  }
  return M.Compiled.Program;
}

} // namespace

//===----------------------------------------------------------------------===//
// The evaluator
//===----------------------------------------------------------------------===//

struct CatEvaluator::Impl {
  std::shared_ptr<const CatProgram> Prog;
  std::vector<Relation> Rel; ///< Owned registers, reused across candidates.
  std::vector<Bitset> Set;
  std::vector<const Relation *> RelIn; ///< Where each register is read.
  std::vector<const Bitset *> SetIn;
  /// What RelIn/SetIn point into besides the owned registers: the layer
  /// (null: none) and the mode; ~0u forces a rebind.
  const CatStableLayer *Bound = nullptr;
  unsigned BoundMode = ~0u;
  const Execution *Ex = nullptr;
  bool Changed = false;

  explicit Impl(std::shared_ptr<const CatProgram> P)
      : Prog(std::move(P)), Rel(Prog->NumRel), Set(Prog->NumSet),
        RelIn(Prog->NumRel), SetIn(Prog->NumSet) {}

  /// A walk over a schedule: a layer build (Building set) or a candidate
  /// evaluation (Layer and V set).
  struct Walk {
    const Schedule &S;
    CatStableLayer *Building = nullptr;
    const CatStableLayer *Layer = nullptr;
    ModelVerdict *V = nullptr;
    CacheStats *Stats = nullptr;
  };

  void bind(unsigned Mode, const CatStableLayer *L, const Execution &E) {
    if (Bound != L || BoundMode != Mode) {
      const Schedule &S = Prog->Modes[Mode];
      for (unsigned R = 0; R != Prog->NumRel; ++R)
        RelIn[R] = L && S.RelInLayer[R] ? &L->Rel[R] : &Rel[R];
      for (unsigned R = 0; R != Prog->NumSet; ++R)
        SetIn[R] = L && S.SetInLayer[R] ? &L->Set[R] : &Set[R];
      Bound = L;
      BoundMode = Mode;
    }
    for (const auto &[Reg, Member] : Prog->ExecBases)
      RelIn[Reg] = &(E.*Member);
    Ex = &E;
  }

  std::shared_ptr<const CatStableLayer> build(unsigned Mode,
                                              const Execution &E) {
    const Schedule &S = Prog->Modes[Mode];
    auto L = std::make_shared<CatStableLayer>();
    L->Program = Prog.get();
    L->AllStatic = Mode == M_Stat;
    L->Rel.resize(Prog->NumRel);
    L->Set.resize(Prog->NumSet);
    L->CheckHolds.assign(Prog->Checks.size(), 0);
    bind(Mode, nullptr, E);
    Walk W{S};
    W.Building = L.get();
    exec(S.Build.data(), S.Build.data() + S.Build.size(), W);
    for (unsigned R = 0; R != Prog->NumRel; ++R)
      if (S.RelInLayer[R])
        std::swap(L->Rel[R], Rel[R]);
    for (unsigned R = 0; R != Prog->NumSet; ++R)
      if (S.SetInLayer[R])
        std::swap(L->Set[R], Set[R]);
    return L;
  }

  ModelVerdict run(unsigned Mode, const CatStableLayer *L, const Execution &E,
                   CacheStats &Stats) {
    const Schedule &S = Prog->Modes[Mode];
    bind(Mode, L, E);
    ModelVerdict V;
    Walk W{S};
    W.Layer = L;
    W.V = &V;
    W.Stats = &Stats;
    if (exec(S.Run.data(), S.Run.data() + S.Run.size(), W))
      count(Stats, S.Total);
    return V;
  }

  static void count(CacheStats &Stats, const Counts &C) {
    Stats.BindingEvalsAvoided += C.Bindings;
    Stats.CheckEvalsAvoided += C.Checks;
  }

  /// Ends a candidate walk with \p Msg at the stopping step \p StopIdx.
  static bool stop(Walk &W, const char *Msg, unsigned StopIdx) {
    W.V->Error = Msg;
    count(*W.Stats, W.S.Stops[StopIdx]);
    return false;
  }

  bool holds(const CheckInfo &C, unsigned Reg) const {
    bool H = true;
    if (C.K == VK::Set) {
      H = SetIn[Reg]->empty();
    } else if (C.K == VK::Rel) {
      const Relation &R = *RelIn[Reg];
      H = C.T == CatCheck::Test::Acyclic       ? R.isAcyclic()
          : C.T == CatCheck::Test::Irreflexive ? R.isIrreflexive()
                                               : R.empty();
    }
    return H != C.Negated;
  }

  /// Records check \p C's verdict on the candidate; false when it settles
  /// a candidate whose walk may end there (counted as a completed walk).
  bool apply(const CheckInfo &C, bool Holds, Walk &W) const {
    ModelVerdict &V = *W.V;
    if (!V.Allowed)
      return true; // settled: only an error is still recorded
    if (C.IsFlag) {
      if (Holds)
        V.Flags.push_back(C.Name);
      return true;
    }
    if (Holds)
      return true;
    V.Allowed = false;
    V.FailedCheck = C.Name;
    if (!Prog->EarlyExit)
      return true;
    count(*W.Stats, W.S.Total);
    return false;
  }

  /// Runs [I, E); false when a step ended the walk (and counted it).
  bool exec(const Instr *I, const Instr *E, Walk &W) {
    for (; I != E; ++I) {
      switch (I->Code) {
      case Op::Loop: {
        // Kleene iteration, as the reference: empty slots, then the
        // bodies in order, each seeing the slots updated before it.
        const std::vector<unsigned> &Slots = Prog->Groups[I->A];
        const Instr *Body = I + 1, *BodyEnd = Body + I->B;
        unsigned N = Ex->size();
        for (unsigned Slot : Slots)
          Rel[Slot].assignEmpty(N);
        unsigned MaxIters = N * N * unsigned(Slots.size()) + 2;
        bool Converged = false;
        for (unsigned Iter = 0; Iter != MaxIters && !Converged; ++Iter) {
          Changed = false;
          exec(Body, BodyEnd, W);
          Converged = !Changed;
        }
        if (!Converged) {
          if (!W.Building)
            return stop(W, Diverged, I->Dst);
          W.Building->DivergedGroup = I->A;
          return false;
        }
        I = BodyEnd - 1;
        break;
      }
      case Op::Check: {
        const CheckInfo &C = Prog->Checks[I->B];
        bool H = holds(C, I->A);
        if (W.Building)
          W.Building->CheckHolds[I->B] = H;
        else if (!apply(C, H, W))
          return false;
        break;
      }
      case Op::CachedCheck:
        if (!apply(Prog->Checks[I->B], W.Layer->CheckHolds[I->B] != 0, W))
          return false;
        break;
      case Op::StableGroup:
        if (W.Layer->DivergedGroup == I->A)
          return stop(W, Diverged, I->Dst);
        break;
      case Op::Fail:
        return stop(W, Prog->Errors[I->A].c_str(), I->Dst);
      default:
        step(*I);
        break;
      }
    }
    return true;
  }

  void step(const Instr &I) {
    const Execution &X = *Ex;
    switch (I.Code) {
    case Op::LoadExt:
      X.extInto(Rel[I.Dst]);
      break;
    case Op::LoadInt:
      X.internalInto(Rel[I.Dst]);
      break;
    case Op::LoadId:
      Rel[I.Dst].assignEmpty(X.size());
      Rel[I.Dst].addIdentity();
      break;
    case Op::LoadLoc:
      X.locInto(Rel[I.Dst]);
      break;
    case Op::ClearRel:
      Rel[I.Dst].assignEmpty(X.size());
      break;
    case Op::LoadUniv:
      Set[I.Dst].assignAll(X.size());
      break;
    case Op::LoadEmpty:
      Set[I.Dst].assignEmpty(X.size());
      break;
    case Op::LoadKind:
      X.kindSetInto(EventKind(I.A), Set[I.Dst]);
      break;
    case Op::LoadInit:
      X.initWritesInto(Set[I.Dst]);
      break;
    case Op::LoadTag:
      X.tagSetInto(Prog->Tags[I.A], Set[I.Dst]);
      break;
    case Op::SUnion:
      Set[I.Dst] = *SetIn[I.A];
      Set[I.Dst] |= *SetIn[I.B];
      break;
    case Op::SInter:
      Set[I.Dst] = *SetIn[I.A];
      Set[I.Dst] &= *SetIn[I.B];
      break;
    case Op::SDiff:
      Set[I.Dst] = *SetIn[I.A];
      Set[I.Dst] -= *SetIn[I.B];
      break;
    case Op::Domain:
      RelIn[I.A]->domainInto(Set[I.Dst]);
      break;
    case Op::Range:
      RelIn[I.A]->rangeInto(Set[I.Dst]);
      break;
    case Op::RUnion:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst] |= *RelIn[I.B];
      break;
    case Op::RInter:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst] &= *RelIn[I.B];
      break;
    case Op::RDiff:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst] -= *RelIn[I.B];
      break;
    case Op::Seq:
      RelIn[I.A]->seqInto(*RelIn[I.B], Rel[I.Dst]);
      break;
    case Op::RowFilter:
      Rel[I.Dst] = *RelIn[I.B];
      Rel[I.Dst].keepRows(*SetIn[I.A]);
      break;
    case Op::ColFilter:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst].keepColumns(*SetIn[I.B]);
      break;
    case Op::Cross:
      Relation::crossInto(*SetIn[I.A], *SetIn[I.B], Rel[I.Dst]);
      break;
    case Op::IdOn:
      Relation::identityOnInto(*SetIn[I.A], Rel[I.Dst]);
      break;
    case Op::Inverse:
      RelIn[I.A]->inverseInto(Rel[I.Dst]);
      break;
    case Op::Plus:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst].closeTransitively();
      break;
    case Op::Star:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst].closeReflexiveTransitively();
      break;
    case Op::Opt:
      Rel[I.Dst] = *RelIn[I.A];
      Rel[I.Dst].addIdentity();
      break;
    case Op::RecUpdate:
      if (Rel[I.Dst] != *RelIn[I.A]) {
        Rel[I.Dst] = *RelIn[I.A];
        Changed = true;
      }
      break;
    default:
      assert(false && "step given a scheduling step");
      break;
    }
  }
};

CatEvaluator::CatEvaluator(const CatModel &Model)
    : P(std::make_unique<Impl>(programOf(Model))) {}

CatEvaluator::~CatEvaluator() = default;

void CatEvaluator::enterCombo(bool NewAllStatic,
                              std::shared_ptr<const CatStableLayer> Cached) {
  AllStatic = NewAllStatic;
  assert((!Cached || Cached->AllStatic == NewAllStatic) &&
         "adopted layer was built under a different stability assumption");
  assert((!Cached || Cached->Program == P->Prog.get()) &&
         "adopted layer belongs to another model");
  Layer = std::move(Cached);
  P->BoundMode = ~0u; // a new layer may reuse a freed one's address
}

void CatEvaluator::setCaching(bool Enabled) {
  CachingEnabled = Enabled;
  if (!Enabled)
    Layer = nullptr;
  P->BoundMode = ~0u;
}

ModelVerdict CatEvaluator::evaluate(const Execution &Ex) {
  ++Stats.Evaluations;
  unsigned Mode = !CachingEnabled ? M_NoCache : AllStatic ? M_Stat : M_Gen;
  if (Mode != M_NoCache && !Layer)
    Layer = P->build(Mode, Ex);
  return P->run(Mode, Layer.get(), Ex, Stats);
}

ModelVerdict telechat::evaluateCat(const CatModel &Model,
                                   const Execution &Ex) {
  return RefEval(Ex).run(Model);
}
