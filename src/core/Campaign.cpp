//===--- Campaign.cpp - Campaign units and the shared unit queue ----------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "core/Campaign.h"

#include "litmus/Parser.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <fstream>
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
  Out.Test = Cur;
  return true;
}

uint64_t GeneratorUnitSource::sizeHint() const { return Planned; }

TelechatResult
telechat::runCampaignUnit(const CampaignUnit &U,
                          const std::vector<CampaignConfig> &Configs) {
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
  if (C.SimulateOnly) {
    R.SourceSim = simulateC(U.Test, PerUnit.SourceModel, PerUnit.Sim);
    if (!R.SourceSim.ok())
      R.Error = "source simulation: " + R.SourceSim.Error;
    return R;
  }
  return runTelechat(U.Test, C.P, PerUnit);
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

void telechat::runCampaignUnits(
    UnitSource &Source, const std::vector<CampaignConfig> &Configs,
    ThreadPool &Pool,
    const std::function<void(const CampaignUnit &, TelechatResult)> &Done) {
  auto Lane = [&] {
    CampaignUnit U;
    while (Source.next(U))
      Done(U, runCampaignUnit(U, Configs));
  };
  if (Pool.size() == 1) {
    Lane();
    return;
  }
  for (unsigned L = 0; L != Pool.size(); ++L)
    Pool.submit(Lane);
  Pool.wait();
}
