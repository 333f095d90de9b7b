//===--- Campaign.h - Campaign units and the shared unit queue --*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign abstraction underneath every batch driver, local or
/// distributed: a corpus of *units* (litmus test x model/compiler
/// config), a pull-based *unit source* feeding a pool of executor
/// threads, and a result sink keyed by the unit id. The id is the unit's
/// corpus index, so any consumer -- runTelechatMany's slot vector, the
/// campaign ledger (dist/CampaignLedger.h) -- reassembles results in
/// corpus order and a campaign's merged report is bit-identical no
/// matter how the units were scheduled, how many pool workers ran them,
/// or which machine executed which unit.
///
/// Unit execution always runs the per-test simulations with Sim.Jobs=1:
/// campaign throughput wants the parallelism *across* units (the
/// existing contract of the batch drivers), and a distributed worker
/// keeps all its cores busy by pulling enough units instead.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CORE_CAMPAIGN_H
#define TELECHAT_CORE_CAMPAIGN_H

#include "core/Telechat.h"
#include "diy/Generator.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace telechat {

/// One model/compiler configuration of a campaign. Units reference
/// configs by index, so a corpus crossing N tests with M configs ships
/// every config once, not once per unit.
struct CampaignConfig {
  Profile P;
  TestOptions Opts;
  /// litmus-sim-style campaigns: simulate the source test under
  /// Opts.SourceModel only, skipping compilation, target simulation and
  /// mcompare (the result's SourceSim is the only populated stage).
  bool SimulateOnly = false;
};

/// One schedulable unit of campaign work.
struct CampaignUnit {
  uint64_t Id = 0;     ///< Corpus index: the deterministic merge key.
  uint32_t Config = 0; ///< Index into the campaign's config table.
  LitmusTest Test;
};

/// The slice of a unit that reports need after its body is gone: a
/// streamed campaign drops test bodies once executed, but summaries and
/// the results JSON still name every unit in corpus order.
struct CampaignUnitMeta {
  std::string TestName;
  uint32_t Config = 0;
};

/// Pull-based source of units. next() is called concurrently from
/// executor threads and must be thread-safe. Sources hand out units in
/// id order with Id equal to the unit's position in the stream -- the
/// invariant every merge (runTelechatMany's slot vector, the campaign
/// ledger of the local and served drivers, the journal) keys on.
class UnitSource {
public:
  virtual ~UnitSource() = default;
  /// Fills \p Out with the next unit; false when the source is drained.
  virtual bool next(CampaignUnit &Out) = 0;
  /// Expected corpus size when the source knows it up front: exact for a
  /// fixed corpus, the planned upper bound for a generator, 0 = unknown.
  /// Advisory only (HelloAck totals, progress lines); the stream itself
  /// decides when the campaign ends.
  virtual uint64_t sizeHint() const { return 0; }
};

/// A fixed corpus: hands out units front to back.
class VectorUnitSource final : public UnitSource {
public:
  explicit VectorUnitSource(std::vector<CampaignUnit> Units)
      : Units(std::move(Units)) {}
  bool next(CampaignUnit &Out) override {
    size_t I = Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= Units.size())
      return false;
    Out = Units[I];
    return true;
  }
  uint64_t sizeHint() const override { return Units.size(); }

private:
  std::vector<CampaignUnit> Units;
  std::atomic<size_t> Next{0};
};

/// Streams the cross of seeded diy generation with the config table:
/// test t under config c gets id t*NumConfigs + c, exactly the ids
/// makeCampaignUnits(generateRandomTests(Opts), NumConfigs, true) would
/// assign -- so a streamed campaign merges bit-identically to the same
/// campaign over a pre-materialised corpus, and the corpus never exists
/// in memory as a whole. next() is thread-safe (one cursor guards the
/// single generator stream); ids are fixed by generation order, so the
/// merge does not depend on which caller pulled first.
class GeneratorUnitSource final : public UnitSource {
public:
  GeneratorUnitSource(const RandomGenOptions &Opts, uint32_t NumConfigs);
  bool next(CampaignUnit &Out) override;
  /// Planned upper bound: Count tests x NumConfigs (the generator may
  /// stop short when its attempt budget runs out).
  uint64_t sizeHint() const override;

private:
  std::mutex M;
  RandomTestStream Stream;
  uint32_t NumConfigs;
  LitmusTest Cur;       ///< Test currently being crossed with configs.
  bool HaveCur = false;
  uint32_t NextConfig = 0;
  uint64_t Emitted = 0;
  uint64_t Planned;
};

/// Builds the corpus for one config: unit ids are the test indices.
std::vector<CampaignUnit> makeCampaignUnits(
    const std::vector<LitmusTest> &Tests, uint32_t Config = 0);

/// Crosses tests with every config index in [0, NumConfigs): ids run
/// test-major (test 0 under every config, then test 1, ...).
std::vector<CampaignUnit> makeCampaignUnits(
    const std::vector<LitmusTest> &Tests, uint32_t NumConfigs, bool Cross);

/// The report slice of a materialised corpus, in corpus order.
std::vector<CampaignUnitMeta>
campaignUnitMeta(const std::vector<CampaignUnit> &Units);

/// Executes one unit under its config. An out-of-range config index
/// yields a result whose Error says so (never aborts: a malformed remote
/// corpus must not kill a worker). Forces Sim.Jobs=1; see the file
/// comment. Runs its own source simulation: the reference that
/// runCampaignUnits' shared source sides are checked against.
TelechatResult runCampaignUnit(const CampaignUnit &U,
                               const std::vector<CampaignConfig> &Configs);

/// Drains \p Source over the pool: every executor lane loops
/// next/execute/Done until the source is empty. \p Done is invoked from
/// pool threads (possibly concurrently) exactly once per unit, with the
/// result runCampaignUnit would return.
///
/// When two configs simulate the same source test (same source model,
/// augmentation and normalised SimOptions), the call keeps a source memo
/// so that each test's source side is simulated once for all of them.
/// Returns how many units took their source side from it (exact at one
/// lane; with more lanes, a slot can leave the memo's ring before every
/// config of its test has claimed it).
uint64_t runCampaignUnits(
    UnitSource &Source, const std::vector<CampaignConfig> &Configs,
    ThreadPool &Pool,
    const std::function<void(const CampaignUnit &, TelechatResult)> &Done);

/// Reads a corpus file: one or more C litmus tests, each starting at a
/// line beginning with "C <name>" (diy-gen --suite output concatenates
/// exactly such chunks; a single-test file is the one-chunk case).
ErrorOr<std::vector<LitmusTest>> readLitmusCorpus(const std::string &Path);

/// Writes \p Contents to \p Path verbatim (campaign/engine JSON
/// artefacts). False with the OS unable to open the file.
bool writeTextFile(const std::string &Path, const std::string &Contents);

} // namespace telechat

#endif // TELECHAT_CORE_CAMPAIGN_H
