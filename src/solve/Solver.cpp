//===--- Solver.cpp - Constraint-solver consistency engine ----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per path combo, each read is a decision variable whose domain is its
/// rf candidate list (as filtered by the shared per-combo engine), and
/// the search is a chronological-backtracking DFS:
///
///  - variables are assigned in *reverse* read-index order, candidates
///    in list order, so leaves are visited in exactly the sweep's
///    mixed-radix odometer order (RfChoice[0] least significant) and
///    collected executions stay byte-identical;
///  - two clause sources feed the nogood database: checks whose
///    symbolic inputs root in exactly two reads are compiled up front
///    against the candidates' known written values, and every check
///    violated during search *learns* its rf-chain support as a new
///    nogood, so the same dead region is never re-entered;
///  - a decision assigns the variable in the database (watched-literal
///    propagation removes newly-forbidden candidates elsewhere, or
///    conflicts), then re-checks the path constraints on the partial
///    assignment; surviving complete assignments run through the
///    shared fixpoint / coherence / Cat pipeline (runAssignment).
///
/// Every removal is implied by a nogood whose violation the
/// value-resolution fixpoint would also detect, so the leaves that
/// reach runAssignment are exactly the sweep's value-consistent
/// candidates and ValueConsistent / CoCandidates / AllowedExecutions /
/// outcomes / flags / executions all match. The budget is drawn per
/// decision (and per coherence candidate), not per swept index: on
/// constraint-dense tests the solver finishes spaces the sweep's
/// budget cannot touch, which is the point of the backend.
///
/// The run driver (simcore::runEngine) shards by path combo for this
/// engine (one combo = one shard = one decision tree); the per-combo
/// searches are independent and merge in combo order, so completed
/// runs are Jobs-invariant like the sweep.
///
//===----------------------------------------------------------------------===//

#include "sim/EnumCore.h"
#include "solve/Clauses.h"

using namespace telechat;
using namespace telechat::simcore;
using namespace telechat::solve;

namespace {

/// One worker: the shared per-combo engine plus this engine's search
/// state. The database is re-initialised per combo; nothing is shared
/// across combos, which keeps per-combo decision counts deterministic
/// for any Jobs value.
class SolveWorker final : public ComboWorker {
public:
  using ComboWorker::ComboWorker;

  /// Searches the whole prepared combo (one combo is one shard).
  void searchCombo(uint64_t, uint64_t) override {
    size_t NR = Reads.size();
    RfChoice.assign(NR, kNoChoice);
    if (NR == 0) {
      // The one-assignment combo; mirrors the sweep's single step.
      if (!budget())
        return;
      if (!violatedCheck(nullptr))
        runAssignment();
      return;
    }
    std::vector<unsigned> Sizes(NR);
    for (size_t RI = 0; RI != NR; ++RI)
      Sizes[RI] = unsigned(RfCand[RI].size());
    DB.init(Sizes);
    bool Feasible = true;
    if (Opts.RfValuePruning)
      Feasible = compilePairNogoods();
    if (Feasible)
      search();
    else
      ++WR.Stats.SolveConflicts; // Combo refuted at compile time.
    WR.Stats.SolveClauses += DB.added();
    WR.Stats.SolvePropagations += DB.propagations();
  }

private:
  NogoodDB DB;

  /// Compiles checks with exactly two symbolic root reads into binary
  /// nogoods over their candidate writes' known values. Evaluates the
  /// check exactly as violatedCheck would once both reads were
  /// assigned those candidates (same truncation, same transform
  /// application), so each nogood only forbids assignments the check
  /// would reject anyway. Candidates without a known written value are
  /// left to the runtime check; large candidate products are skipped
  /// (the quadratic compile would cost more than it saves).
  ///
  /// Returns false when some check is violated by *every* candidate
  /// pair: no assignment can satisfy the path, so the combo is
  /// refuted without a single decision. This is the solver's edge over
  /// the sweep on constraint-dense spaces -- the sweep pays one budget
  /// step per swept index of a dead combo, the solver proves the combo
  /// dead in one quadratic compile over two rf candidate lists.
  bool compilePairNogoods() {
    constexpr size_t kMaxPairProduct = 4096;
    for (const PruneCheck &PC : PruneChecks) {
      unsigned R1 = ~0u, R2 = ~0u;
      bool MoreRoots = false;
      for (const auto &[Slot, A] : PC.Inputs) {
        if (A.K == AbsVal::Kind::Known)
          continue;
        if (R1 == ~0u || A.ReadEv == R1)
          R1 = A.ReadEv;
        else if (R2 == ~0u || A.ReadEv == R2)
          R2 = A.ReadEv;
        else {
          MoreRoots = true;
          break;
        }
      }
      if (MoreRoots || R2 == ~0u)
        continue; // Single-root checks were already rf-list-filtered.
      const LocId L1 = Events[R1].Loc, L2 = Events[R2].Loc;
      if (L1 == kNoLoc || L2 == kNoLoc)
        continue;
      unsigned RI1 = ReadIndexOf[R1], RI2 = ReadIndexOf[R2];
      const std::vector<unsigned> &Cand1 = RfCand[RI1];
      const std::vector<unsigned> &Cand2 = RfCand[RI2];
      if (Cand1.size() * Cand2.size() > kMaxPairProduct)
        continue;
      std::vector<std::pair<unsigned, unsigned>> Violated;
      for (unsigned C1 = 0; C1 != Cand1.size(); ++C1) {
        const AbsVal &A1 = EvAbs[Cand1[C1]];
        if (A1.K != AbsVal::Kind::Known)
          continue;
        SimVal V1 = truncAt(L1, A1.V);
        for (unsigned C2 = 0; C2 != Cand2.size(); ++C2) {
          const AbsVal &A2 = EvAbs[Cand2[C2]];
          if (A2.K != AbsVal::Kind::Known)
            continue;
          SimVal V2 = truncAt(L2, A2.V);
          if (violates(PC, [&](unsigned Ev) { return Ev == R1 ? V1 : V2; }))
            Violated.emplace_back(C1, C2);
        }
      }
      if (Violated.size() == Cand1.size() * Cand2.size())
        return false; // Every pair refutes the check: dead combo.
      for (const auto &[C1, C2] : Violated)
        DB.addNogood({{RI1, C1}, {RI2, C2}});
    }
    return true;
  }

  /// Chronological-backtracking DFS. Depth d decides read NR-1-d, so
  /// the deepest variable is RfChoice[0]: leaves appear in odometer
  /// order. Each decision draws one budget step, assigns through the
  /// database (propagation may conflict), then re-evaluates the path
  /// checks on the partial assignment, learning the violated check's
  /// support as a nogood before abandoning the subtree.
  void search() {
    const size_t NR = Reads.size();
    std::vector<unsigned> CandPos(NR, 0);
    size_t Depth = 0;
    SupportVec Support;
    while (true) {
      if (shouldStop())
        return;
      unsigned Var = unsigned(NR - 1 - Depth);
      const unsigned NC = unsigned(RfCand[Var].size());
      unsigned C = CandPos[Depth];
      while (C < NC && !DB.candActive(Var, C))
        ++C;
      CandPos[Depth] = C;
      if (C >= NC) {
        if (Depth == 0)
          return; // Root exhausted: combo done.
        --Depth;
        DB.popLevel();
        RfChoice[NR - 1 - Depth] = kNoChoice;
        ++CandPos[Depth];
        continue;
      }
      if (!budget())
        return;
      ++WR.Stats.SolveDecisions;
      DB.pushLevel();
      RfChoice[Var] = C;
      bool Ok = DB.assign(Var, C);
      if (Ok && violatedCheck(&Support)) {
        Ok = false;
        if (!Support.empty()) {
          std::vector<SolveLit> Lits;
          Lits.reserve(Support.size());
          for (const auto &[SV, SC] : Support)
            Lits.push_back({SV, SC});
          DB.addNogood(std::move(Lits));
        }
      }
      if (!Ok) {
        ++WR.Stats.SolveConflicts;
        DB.popLevel();
        RfChoice[Var] = kNoChoice;
        ++CandPos[Depth];
        continue;
      }
      if (Depth + 1 == NR) {
        runAssignment(); // Complete: fixpoint + co + Cat.
        if (shouldStop())
          return;
        DB.popLevel();
        RfChoice[Var] = kNoChoice;
        ++CandPos[Depth];
        continue;
      }
      ++Depth;
      CandPos[Depth] = 0;
    }
  }
};

} // namespace

std::unique_ptr<ComboWorker>
telechat::simcore::makeSolveWorker(const SimProgram &Program,
                                   const CatModel &Model,
                                   const SimOptions &Options,
                                   SharedState &Shared) {
  return std::make_unique<SolveWorker>(Program, Model, Options, Shared);
}
