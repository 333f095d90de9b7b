//===--- ShardScheduler.h - Work-stealing shard scheduler -------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing scheduler behind parallel enumeration. A wave of
/// shards (indices 0..N) is pre-partitioned into one contiguous range per
/// worker; each worker consumes its range front-to-back (so consecutive
/// shards of the same path combo reuse the worker's cached skeleton,
/// abstract-value tables and Cat stable layer) and, when empty, steals
/// the back half of the largest remaining victim range. Shard
/// *processing order* is therefore nondeterministic, but each shard runs
/// exactly once and carries its global index, so the enumerator's merge
/// step can reassemble results in enumeration order.
///
/// Thread safety: run() owns its threads and joins them before
/// returning; Body(worker, item) is called concurrently from different
/// threads but never concurrently for the same worker index, so
/// per-worker state (the run driver's ComboWorker, including its
/// per-combo caches) needs no locking. Cross-worker reuse of per-combo
/// Cat layers goes through the run's SharedState instead, which
/// publishes immutable layers under a mutex.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_SHARDSCHEDULER_H
#define TELECHAT_SIM_SHARDSCHEDULER_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace telechat {

class ShardScheduler {
public:
  /// Runs Body(Worker, Item) for every item in [0, NumItems) across
  /// Workers threads. ShouldStop is polled between items; once it returns
  /// true, remaining items are abandoned (the enumerator uses this for
  /// budget exhaustion and model errors).
  static void run(size_t NumItems, unsigned Workers,
                  const std::function<void(unsigned, size_t)> &Body,
                  const std::function<bool()> &ShouldStop) {
    if (NumItems == 0)
      return;
    if (Workers <= 1) {
      for (size_t I = 0; I != NumItems && !ShouldStop(); ++I)
        Body(0, I);
      return;
    }
    if (size_t(Workers) > NumItems)
      Workers = unsigned(NumItems);

    struct Range {
      std::mutex M;
      size_t Lo = 0, Hi = 0;
    };
    std::vector<Range> Queues(Workers);
    size_t Chunk = NumItems / Workers, Extra = NumItems % Workers;
    size_t Next = 0;
    for (unsigned W = 0; W != Workers; ++W) {
      Queues[W].Lo = Next;
      Next += Chunk + (W < Extra ? 1 : 0);
      Queues[W].Hi = Next;
    }
    std::atomic<size_t> Remaining{NumItems};

    auto Worker = [&](unsigned W) {
      constexpr size_t None = ~size_t(0);
      auto PopOwn = [&]() -> size_t {
        std::lock_guard<std::mutex> Lock(Queues[W].M);
        if (Queues[W].Lo < Queues[W].Hi)
          return Queues[W].Lo++;
        return None;
      };
      auto Steal = [&]() -> size_t {
        // Victim with the most work left; steal the back half of its
        // range so the owner keeps its cache-friendly prefix.
        while (true) {
          unsigned Victim = Workers;
          size_t Best = 0;
          for (unsigned V = 0; V != Workers; ++V) {
            if (V == W)
              continue;
            std::lock_guard<std::mutex> Lock(Queues[V].M);
            size_t Len = Queues[V].Hi - Queues[V].Lo;
            if (Len > Best) {
              Best = Len;
              Victim = V;
            }
          }
          if (Victim == Workers)
            return None;
          size_t Lo, Hi;
          {
            // Never hold two queue locks at once (two thieves stealing
            // from each other would deadlock): detach the range first,
            // then install it into our own queue.
            std::lock_guard<std::mutex> VLock(Queues[Victim].M);
            size_t Len = Queues[Victim].Hi - Queues[Victim].Lo;
            if (Len == 0)
              continue; // Raced with the owner; rescan.
            size_t Take = (Len + 1) / 2;
            Hi = Queues[Victim].Hi;
            Lo = Hi - Take;
            Queues[Victim].Hi = Lo;
          }
          std::lock_guard<std::mutex> OLock(Queues[W].M);
          Queues[W].Lo = Lo + 1;
          Queues[W].Hi = Hi;
          return Lo;
        }
      };
      while (!ShouldStop()) {
        size_t Item = PopOwn();
        if (Item == None)
          Item = Steal();
        if (Item == None) {
          // All ranges drained; in-flight shards (not splittable) may
          // still be running on other workers.
          if (Remaining.load(std::memory_order_acquire) == 0)
            return;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        Body(W, Item);
        Remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    };

    std::vector<std::thread> Threads;
    Threads.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Threads.emplace_back(Worker, W);
    for (std::thread &T : Threads)
      T.join();
  }
};

} // namespace telechat

#endif // TELECHAT_SIM_SHARDSCHEDULER_H
