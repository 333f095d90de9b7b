//===--- CampaignLedger.cpp - The merge of one campaign -------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/CampaignLedger.h"

#include "core/LitmusToC.h"
#include "dist/Journal.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <mutex>

using namespace telechat;

namespace {

SimResult renameSimSide(const SimResult &R, const CanonRenaming &Ren) {
  SimResult Out;
  Out.Allowed = Ren.renameOutcomeSet(R.Allowed);
  Out.Flags = R.Flags;
  Out.TimedOut = R.TimedOut;
  Out.Error = R.Error;
  Out.Stats = R.Stats;
  return Out;
}

/// Translates a representative's campaign result into a duplicate's
/// vocabulary: outcome sets and compare witnesses are renamed through
/// \p Ren (and re-sorted -- renaming permutes set order); errors, flags,
/// verdict kind, timeout bits and stats are copied verbatim. Covers
/// exactly the result slice reports and the wire carry (Error, OptStats,
/// SourceSim, TargetSim, Compare).
TelechatResult renameTelechatResult(const TelechatResult &Rep,
                                    const CanonRenaming &Ren) {
  TelechatResult R;
  R.Error = Rep.Error;
  R.OptStats = Rep.OptStats;
  R.SourceSim = renameSimSide(Rep.SourceSim, Ren);
  R.TargetSim = renameSimSide(Rep.TargetSim, Ren);
  R.Compare.K = Rep.Compare.K;
  R.Compare.SourceRace = Rep.Compare.SourceRace;
  R.Compare.TargetFlags = Rep.Compare.TargetFlags;
  R.Compare.Witnesses.reserve(Rep.Compare.Witnesses.size());
  for (const Outcome &W : Rep.Compare.Witnesses)
    R.Compare.Witnesses.push_back(Ren.renameOutcome(W));
  // mcompare emits witnesses in outcome-set order; renaming permutes it.
  std::sort(R.Compare.Witnesses.begin(), R.Compare.Witnesses.end());
  return R;
}

} // namespace

void CampaignLedger::replay(
    std::vector<std::pair<uint64_t, TelechatResult>> R) {
  for (auto &[Id, Result] : R)
    Replay.emplace(Id, std::move(Result));
}

Admission CampaignLedger::admit(const CampaignUnit &U) {
  uint64_t Id = admitted();
  if (U.Id != Id) {
    if (Report.Error.empty())
      Report.Error = strFormat("unit source produced id %llu at stream "
                               "position %llu; the campaign merge requires "
                               "id == position",
                               static_cast<unsigned long long>(U.Id),
                               static_cast<unsigned long long>(Id));
    return Admission::Refused;
  }
  Report.UnitsMeta.push_back(CampaignUnitMeta{U.Test.Name, U.Config});
  Report.Results.emplace_back();
  Merged.push_back(false);
  bool Replayed = false;
  if (auto R = Replay.find(Id); R != Replay.end()) {
    merge(Id, std::move(R->second)); // Already on disk: not re-appended.
    Replay.erase(R);
    ++Report.ReplayedResults;
    Replayed = true;
  }
  if (!Dedupe)
    return Replayed ? Admission::Answered : Admission::Execute;
  CanonResult CR = canonicalizeTest(U.Test);
  auto Key = std::make_tuple(U.Config, CR.Key.Hi, CR.Key.Lo, CR.Text);
  // A new class's first unit is its representative, replayed or not: a
  // replayed result answers later duplicates as well as an executed one.
  // try_emplace leaves CR untouched when the class already exists.
  auto [It, IsNew] = Reps.try_emplace(std::move(Key), Id, std::move(CR));
  if (IsNew || Replayed)
    return Replayed ? Admission::Answered : Admission::Execute;
  uint64_t RepId = It->second.first;
  CanonRenaming Ren = composeRenaming(It->second.second, CR);
  // l2c observes register r of thread P through the undeclared location
  // obs_P_r (core/LitmusToC.h); rename those keys with their registers.
  for (const auto &[Thread, Regs] : Ren.Regs)
    for (const auto &[RepReg, DupReg] : Regs)
      Ren.Locs.emplace(observationLocName(Thread, RepReg),
                       observationLocName(Ren.Threads.at(Thread), DupReg));
  ++Report.DedupedUnits;
  if (Merged[RepId])
    record(Id, renameTelechatResult(Report.Results[RepId], Ren));
  else
    Parked[RepId].emplace_back(Id, std::move(Ren));
  return Admission::Answered;
}

void CampaignLedger::complete(uint64_t Id, TelechatResult R) {
  ++Report.ExecutedUnits;
  record(Id, std::move(R));
}

void CampaignLedger::record(uint64_t Id, TelechatResult R) {
  // Journal before merging: a result the journal never saw must not be
  // merged, or a crash right here would resume without it.
  if (Journal && Journal->isOpen() && !Journal->appendResult(Id, R)) {
    Journal->close();
    if (Report.Error.empty())
      Report.Error = strFormat("journal append failed at unit %llu; "
                               "journaling disabled",
                               static_cast<unsigned long long>(Id));
  }
  merge(Id, std::move(R));
}

void CampaignLedger::merge(uint64_t Id, TelechatResult R) {
  Report.Results[Id] = std::move(R);
  Merged[Id] = true;
  ++Completed;
  // Synthesise the duplicates parked behind this representative; they
  // are journaled like executed results, so a resume replays them
  // instead of re-parking. Depth is one: duplicates never represent.
  auto P = Parked.find(Id);
  if (P == Parked.end())
    return;
  std::vector<std::pair<uint64_t, CanonRenaming>> Dups = std::move(P->second);
  Parked.erase(P);
  for (const auto &[DupId, Ren] : Dups)
    record(DupId, renameTelechatResult(Report.Results[Id], Ren));
}

size_t CampaignLedger::parkedBehind(uint64_t Id) const {
  auto P = Parked.find(Id);
  return P == Parked.end() ? 0 : P->second.size();
}

CampaignReport CampaignLedger::finish() {
  Report.Units = admitted();
  Report.StaleReplays = Replay.size();
  return std::move(Report);
}

CampaignReport telechat::runLocalCampaign(
    UnitSource &Source, const std::vector<CampaignConfig> &Configs,
    ThreadPool &Pool, CampaignLedger &Ledger) {
  // The lanes see only the units the ledger wants executed. Pulling and
  // admitting happen under one lock so units reach the ledger in stream
  // order; completing takes the same lock.
  struct Admitted final : UnitSource {
    UnitSource &Inner;
    CampaignLedger &Ledger;
    std::mutex M;
    bool Stopped = false;

    Admitted(UnitSource &Inner, CampaignLedger &Ledger)
        : Inner(Inner), Ledger(Ledger) {}
    bool next(CampaignUnit &Out) override {
      std::lock_guard<std::mutex> Lock(M);
      while (!Stopped && Inner.next(Out)) {
        Admission A = Ledger.admit(Out);
        if (A == Admission::Execute)
          return true;
        Stopped = A == Admission::Refused;
      }
      Stopped = true;
      return false;
    }
  } Lanes(Source, Ledger);

  auto Start = std::chrono::steady_clock::now();
  uint64_t Shared =
      runCampaignUnits(Lanes, Configs, Pool,
                       [&](const CampaignUnit &U, TelechatResult R) {
                         std::lock_guard<std::mutex> Lock(Lanes.M);
                         Ledger.complete(U.Id, std::move(R));
                       });
  CampaignReport Report = Ledger.finish();
  Report.SourceSimsShared = Shared;
  Report.Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  return Report;
}
