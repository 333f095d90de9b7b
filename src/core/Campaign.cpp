//===--- Campaign.cpp - Campaign units and the shared unit queue ----------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "core/Campaign.h"

#include "litmus/Parser.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>

using namespace telechat;

std::vector<CampaignUnit>
telechat::makeCampaignUnits(const std::vector<LitmusTest> &Tests,
                            uint32_t Config) {
  std::vector<CampaignUnit> Units;
  Units.reserve(Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I)
    Units.push_back(CampaignUnit{I, Config, Tests[I]});
  return Units;
}

std::vector<CampaignUnit>
telechat::makeCampaignUnits(const std::vector<LitmusTest> &Tests,
                            uint32_t NumConfigs, bool Cross) {
  if (!Cross || NumConfigs <= 1)
    return makeCampaignUnits(Tests);
  std::vector<CampaignUnit> Units;
  Units.reserve(Tests.size() * NumConfigs);
  uint64_t Id = 0;
  for (const LitmusTest &T : Tests)
    for (uint32_t C = 0; C != NumConfigs; ++C)
      Units.push_back(CampaignUnit{Id++, C, T});
  return Units;
}

std::vector<CampaignUnitMeta>
telechat::campaignUnitMeta(const std::vector<CampaignUnit> &Units) {
  std::vector<CampaignUnitMeta> Meta;
  Meta.reserve(Units.size());
  for (const CampaignUnit &U : Units)
    Meta.push_back(CampaignUnitMeta{U.Test.Name, U.Config});
  return Meta;
}

GeneratorUnitSource::GeneratorUnitSource(const RandomGenOptions &Opts,
                                         uint32_t NumConfigs)
    : Stream(Opts), NumConfigs(NumConfigs ? NumConfigs : 1),
      Planned(uint64_t(Opts.Count) * (NumConfigs ? NumConfigs : 1)) {}

bool GeneratorUnitSource::next(CampaignUnit &Out) {
  std::lock_guard<std::mutex> Lock(M);
  if (!HaveCur || NextConfig == NumConfigs) {
    if (!Stream.next(Cur)) {
      HaveCur = false;
      return false;
    }
    HaveCur = true;
    NextConfig = 0;
  }
  Out.Id = Emitted++;
  Out.Config = NextConfig++;
  // The last config takes the test itself: Stream.next refills the whole
  // of Cur before it is read again.
  if (NextConfig == NumConfigs)
    Out.Test = std::move(Cur);
  else
    Out.Test = Cur;
  return true;
}

uint64_t GeneratorUnitSource::sizeHint() const { return Planned; }

namespace {

/// Executes \p U under its config, taking step 3 from \p Source.
TelechatResult runUnit(const CampaignUnit &U,
                       const std::vector<CampaignConfig> &Configs,
                       SourceSide &Source) {
  TelechatResult R;
  if (U.Config >= Configs.size()) {
    R.Error = strFormat("campaign unit %llu references config %u of %zu",
                        static_cast<unsigned long long>(U.Id), U.Config,
                        Configs.size());
    return R;
  }
  const CampaignConfig &C = Configs[U.Config];
  TestOptions PerUnit = C.Opts;
  PerUnit.Sim.Jobs = 1; // Parallelism lives across units, not inside one.
  if (!C.SimulateOnly)
    return runTelechat(U.Test, C.P, PerUnit, Source);
  const SourceSide::Simulate Simulate = [&] {
    return simulateC(U.Test, PerUnit.SourceModel, PerUnit.Sim);
  };
  Source.prepared(Simulate);
  R.SourceSim = Source.result(Simulate);
  if (!R.SourceSim.ok())
    R.Error = "source simulation: " + R.SourceSim.Error;
  return R;
}

/// What step 3 of a config simulates, up to the unit's test: the
/// augmented or the raw test, under which model, with which options
/// (normalised as runUnit and runTelechat normalise them).
struct SourceClass {
  bool Augmented = false;
  std::string Model;
  SimOptions Sim;

  explicit SourceClass(const CampaignConfig &C)
      : Augmented(!C.SimulateOnly && C.Opts.AugmentLocals),
        Model(C.Opts.SourceModel), Sim(C.Opts.Sim) {
    Sim.Jobs = 1;
    if (!C.SimulateOnly)
      Sim = sourceSimOptions(Sim);
  }
  bool operator==(const SourceClass &) const = default;
};

/// The source side of one (class, test), simulated by the first unit
/// that claimed it.
struct SourceSlot {
  size_t Class;
  LitmusTest Test;
  std::promise<SimResult> Published;
  std::shared_future<SimResult> Result = Published.get_future().share();

  SourceSlot(size_t Class, const LitmusTest &Test)
      : Class(Class), Test(Test) {}
};

/// A unit's view of its slot. The first claimant simulates and publishes
/// before c2s; a later claimant takes the published result only once its
/// own target side has run, so it rarely has to wait.
class SlotSource final : public SourceSide {
public:
  SlotSource(SourceSlot &Slot, bool Owner, std::atomic<uint64_t> &Shared)
      : Slot(Slot), Owner(Owner), Shared(Shared) {}
  void prepared(const Simulate &Run) override {
    if (Owner)
      Slot.Published.set_value(Run());
  }
  SimResult result(const Simulate &) override {
    if (!Owner)
      Shared.fetch_add(1, std::memory_order_relaxed);
    return Slot.Result.get();
  }

private:
  SourceSlot &Slot;
  bool Owner;
  std::atomic<uint64_t> &Shared;
};

/// The source memo of one runCampaignUnits call. Configs that simulate
/// the same source test (same SourceClass) share one simulation per
/// test. Slots are keyed by (class, exact test) and kept in a FIFO ring
/// of 2 x lanes entries per shared class: ids run test-major, so a
/// test's configs are in flight together and a slot is not needed for
/// long. A unit whose config shares its class with no other config, or
/// whose config index is out of range, runs the plain pipeline.
class SourceMemo {
public:
  SourceMemo(const std::vector<CampaignConfig> &Configs, unsigned Lanes)
      : Configs(Configs), ClassOf(Configs.size(), NoClass) {
    std::vector<SourceClass> Classes(Configs.begin(), Configs.end());
    size_t SharedClasses = 0;
    for (size_t C = 0; C != Classes.size(); ++C) {
      size_t First =
          std::find(Classes.begin(), Classes.end(), Classes[C]) -
          Classes.begin();
      if (First == C)
        continue;
      if (ClassOf[First] == NoClass)
        ClassOf[First] = SharedClasses++;
      ClassOf[C] = ClassOf[First];
    }
    Capacity = 2 * size_t(Lanes) * SharedClasses;
  }

  TelechatResult run(const CampaignUnit &U) {
    if (U.Config >= ClassOf.size() || ClassOf[U.Config] == NoClass)
      return runCampaignUnit(U, Configs);
    bool Owner = false;
    std::shared_ptr<SourceSlot> Slot = claim(ClassOf[U.Config], U.Test, Owner);
    SlotSource Source(*Slot, Owner, Shared);
    return runUnit(U, Configs, Source);
  }

  uint64_t shared() const { return Shared.load(); }

private:
  static constexpr size_t NoClass = ~size_t(0);

  std::shared_ptr<SourceSlot> claim(size_t Class, const LitmusTest &Test,
                                    bool &Owner) {
    std::lock_guard<std::mutex> Lock(M);
    for (auto It = Ring.rbegin(); It != Ring.rend(); ++It)
      if ((*It)->Class == Class && (*It)->Test == Test)
        return *It;
    Owner = true;
    Ring.push_back(std::make_shared<SourceSlot>(Class, Test));
    if (Ring.size() > Capacity)
      Ring.pop_front();
    return Ring.back();
  }

  const std::vector<CampaignConfig> &Configs;
  std::vector<size_t> ClassOf; ///< Per config: its shared class, or NoClass.
  size_t Capacity = 0;
  std::mutex M;
  std::deque<std::shared_ptr<SourceSlot>> Ring;
  std::atomic<uint64_t> Shared{0};
};

} // namespace

TelechatResult
telechat::runCampaignUnit(const CampaignUnit &U,
                          const std::vector<CampaignConfig> &Configs) {
  SourceSide Computed;
  return runUnit(U, Configs, Computed);
}

ErrorOr<std::vector<LitmusTest>>
telechat::readLitmusCorpus(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return makeError("cannot open " + Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  // Split at "C <name>" headers; anything before the first header forms
  // its own chunk (whitespace-only preambles are dropped, other content
  // surfaces as a parse error naming the file).
  std::vector<std::string> Chunks;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t LineEnd = Text.find('\n', Pos);
    if (LineEnd == std::string::npos)
      LineEnd = Text.size();
    if (Text.compare(Pos, 2, "C ") == 0 || Chunks.empty())
      Chunks.emplace_back();
    Chunks.back().append(Text, Pos, LineEnd - Pos + 1);
    Pos = LineEnd + 1;
  }

  std::vector<LitmusTest> Tests;
  for (const std::string &Chunk : Chunks) {
    if (Chunk.find_first_not_of(" \t\r\n") == std::string::npos)
      continue;
    ErrorOr<LitmusTest> T = parseLitmusC(Chunk);
    if (!T)
      return makeError(Path + ": " + T.error());
    Tests.push_back(std::move(*T));
  }
  if (Tests.empty())
    return makeError(Path + ": no litmus tests found");
  return Tests;
}

bool telechat::writeTextFile(const std::string &Path,
                             const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << Contents;
  return Out.good();
}

uint64_t telechat::runCampaignUnits(
    UnitSource &Source, const std::vector<CampaignConfig> &Configs,
    ThreadPool &Pool,
    const std::function<void(const CampaignUnit &, TelechatResult)> &Done) {
  SourceMemo Memo(Configs, Pool.size());
  auto Lane = [&] {
    CampaignUnit U;
    while (Source.next(U))
      Done(U, Memo.run(U));
  };
  if (Pool.size() == 1) {
    Lane();
  } else {
    for (unsigned L = 0; L != Pool.size(); ++L)
      Pool.submit(Lane);
    Pool.wait();
  }
  return Memo.shared();
}
