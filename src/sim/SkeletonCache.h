//===--- SkeletonCache.h - Cross-test per-combo artifact cache --*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, thread-safe, process-wide LRU cache of the per-combo
/// artifacts the enumerator builds for every test: the skeleton
/// Execution, the filtered rf candidate lists, the combo's feasibility
/// verdict and prune attribution, and (once computed) the Cat model's
/// stable layer. Entries are keyed by a *renaming-invariant* structural
/// hash of the (SimProgram, CatModel, combo, pruning options) tuple, so
/// a corpus full of canonical near-duplicates -- same skeleton, renamed
/// threads/locations/registers -- pays per-combo setup once per shape
/// instead of once per test.
///
/// Correctness story (why sharing across renamed programs is sound):
/// event numbering, rf candidate lists, skeleton tags, feasibility and
/// the stable layer are all functions of program *structure* only --
/// locations enter as declaration indices (which also fix their
/// simulated addresses), registers as per-thread first-occurrence
/// indices, and no cached artifact stores a name. Name-dependent state
/// (outcome keys, InitEvByLoc, the abstract pass whose PruneChecks point
/// into the live program's AST) is rebuilt per test on a hit. A hit
/// additionally sanity-checks event/read counts, so even a 128-bit hash
/// collision degrades to a miss, never a wrong reuse.
///
/// Determinism story: the cache must not make outcomes -- or the
/// per-run hit/miss counters -- depend on worker scheduling. Every
/// entry is stamped with a global insert sequence number; a run
/// snapshots the sequence once at start (SharedState) and lookups only
/// see entries inserted *before* the snapshot. All workers of one run
/// therefore agree on hit/miss per combo regardless of job count, and
/// inserts (first-wins, idempotent) only benefit later runs. Eviction
/// counts are the one scheduling-dependent statistic (whichever worker
/// inserts pays them); they are reported but not identity-gated.
///
/// The cache is disabled by default (capacity 0): campaign reports
/// embed per-unit stats, and a process-history-dependent cache would
/// make those depend on what ran earlier in the process. Opt in with
/// setCapacity() (the CLIs' --skel-cache N knob).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_SKELETONCACHE_H
#define TELECHAT_SIM_SKELETONCACHE_H

#include "events/Execution.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

namespace telechat {

struct CatStableLayer;
struct SimProgram;
struct CatModel;

namespace simcore {

/// Renaming-invariant 128-bit structural hash of a SimProgram: thread
/// order and every op field are hashed; thread/location/register *names*
/// are replaced by declaration / first-occurrence indices; the name,
/// observation lists and final condition (which do not affect the cached
/// artifacts) are excluded.
void hashSimProgram(const SimProgram &Prog, uint64_t &Hi, uint64_t &Lo);

/// Structural hash of a Cat model (identifier names included: models are
/// not renamed).
uint64_t hashCatModel(const CatModel &Model);

/// Cache key: program shape x model x path combo x the pruning options
/// that shape the cached candidate lists.
struct SkelCacheKey {
  uint64_t ProgHi = 0;
  uint64_t ProgLo = 0;
  uint64_t Model = 0;
  uint64_t Combo = 0;
  bool RfValuePruning = true;

  bool operator<(const SkelCacheKey &RHS) const {
    auto T = [](const SkelCacheKey &K) {
      return std::tie(K.ProgHi, K.ProgLo, K.Model, K.Combo, K.RfValuePruning);
    };
    return T(*this) < T(RHS);
  }
};

/// The cached per-combo artifacts. Immutable once inserted (the stable
/// layer is published separately, under the cache lock).
struct SkelCacheEntry {
  Execution SkelEx;
  std::vector<std::vector<unsigned>> RfCand; ///< Filtered candidate lists.
  uint64_t RfSpace = 0;
  bool AllStatic = false;
  bool ComboInfeasible = false;
  uint64_t Pruned = 0; ///< The combo's RfSourcesPruned share.
  /// Collision guard: a hit must agree on these with the live skeleton.
  size_t NumEvents = 0;
  size_t NumReads = 0;
};

/// The process-wide cache. All methods are thread-safe.
class SkeletonCache {
public:
  static SkeletonCache &instance();

  /// Sets the entry capacity. 0 disables the cache and clears it;
  /// shrinking evicts LRU entries immediately (uncounted).
  void setCapacity(size_t N);
  size_t capacity() const;

  /// Number of live entries (tests/benchmarks).
  size_t size() const;

  /// Drops every entry; capacity is kept.
  void clear();

  /// The current insert sequence number. A run snapshots this once at
  /// start; lookups with that snapshot see only prior inserts.
  uint64_t snapshot() const;

  /// Finds \p K if it was inserted before \p Snapshot. Also copies out
  /// the entry's published stable layer (may be null). Bumps LRU.
  std::shared_ptr<const SkelCacheEntry>
  lookup(const SkelCacheKey &K, uint64_t Snapshot,
         std::shared_ptr<const CatStableLayer> &Layer);

  /// Inserts \p E under \p K (first insert wins; re-inserting an
  /// existing key is a no-op). Returns the number of entries evicted.
  uint64_t insert(const SkelCacheKey &K, std::shared_ptr<SkelCacheEntry> E);

  /// Publishes a computed stable layer into an existing entry (first
  /// publisher wins). No-op when the entry is gone or already has one.
  void publishLayer(const SkelCacheKey &K,
                    std::shared_ptr<const CatStableLayer> Layer);

private:
  struct Node {
    std::shared_ptr<const SkelCacheEntry> Data;
    std::shared_ptr<const CatStableLayer> Layer;
    uint64_t Seq = 0;
    std::list<SkelCacheKey>::iterator LruIt; ///< Position in Lru.
  };

  void evictOverCapacityLocked(uint64_t *Evicted);

  mutable std::mutex M;
  size_t Capacity = 0; ///< Disabled by default; see file comment.
  uint64_t NextSeq = 0;
  std::map<SkelCacheKey, Node> Map;
  std::list<SkelCacheKey> Lru; ///< Front = most recent.
};

} // namespace simcore
} // namespace telechat

#endif // TELECHAT_SIM_SKELETONCACHE_H
