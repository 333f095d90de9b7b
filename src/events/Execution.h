//===--- Execution.h - Candidate executions ---------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Candidate executions (paper Def. II.1): a graph whose nodes are events
/// and whose edges are the base relations po, rf, co, rmw plus the
/// dependency relations addr/data/ctrl. Derived relations (fr, po-loc,
/// ext, int, loc) are computed on demand; Cat models consume all of them
/// as an Env.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_EVENTS_EXECUTION_H
#define TELECHAT_EVENTS_EXECUTION_H

#include "events/Event.h"
#include "support/Relation.h"

#include <map>
#include <string>
#include <vector>

namespace telechat {

/// A candidate execution over a fixed event universe.
class Execution {
public:
  std::vector<Event> Events; ///< Indexed by Event::Id.
  Relation Po;   ///< Program order (transitive, within threads; init writes
                 ///< precede all thread events, matching herd).
  Relation Rf;   ///< Reads-from: write -> read.
  Relation Co;   ///< Coherence: per-location total order of writes.
  Relation Rmw;  ///< Read part -> write part of RMW operations.
  Relation Addr; ///< Address dependency read -> access.
  Relation Data; ///< Data dependency read -> write.
  Relation Ctrl; ///< Control dependency read -> later event.

  unsigned size() const { return Events.size(); }

  /// Initialises the relation shapes for \p NumEvents events.
  void resizeRelations() {
    unsigned N = size();
    Po = Relation(N);
    Rf = Relation(N);
    Co = Relation(N);
    Rmw = Relation(N);
    Addr = Relation(N);
    Data = Relation(N);
    Ctrl = Relation(N);
  }

  /// from-read: fr = rf^-1 ; co  (Def. II.1).
  Relation fr() const { return Rf.inverse().seq(Co); }

  /// Same-location pairs of memory accesses (irreflexive).
  Relation loc() const {
    Relation Out;
    locInto(Out);
    return Out;
  }

  /// po restricted to same-location pairs.
  Relation poLoc() const { return Po & loc(); }

  /// Pairs of events from different threads (init writes are external to
  /// every thread).
  Relation ext() const {
    Relation Out;
    extInto(Out);
    return Out;
  }

  /// Pairs of distinct events from the same thread.
  Relation internal() const {
    Relation Out;
    internalInto(Out);
    return Out;
  }

  /// Events of the given kind.
  Bitset kindSet(EventKind K) const {
    Bitset Out;
    kindSetInto(K, Out);
    return Out;
  }

  /// Events carrying the given tag.
  Bitset tagSet(const std::string &Tag) const {
    Bitset Out;
    tagSetInto(Tag, Out);
    return Out;
  }

  /// Initial-state writes.
  Bitset initWrites() const {
    Bitset Out;
    initWritesInto(Out);
    return Out;
  }

  /// In-place forms of the derived relations and sets above: each
  /// overwrites \p Out, reusing the storage it already has.
  void locInto(Relation &Out) const;
  void extInto(Relation &Out) const;
  void internalInto(Relation &Out) const;
  void kindSetInto(EventKind K, Bitset &Out) const;
  void tagSetInto(const std::string &Tag, Bitset &Out) const;
  void initWritesInto(Bitset &Out) const;

  /// All events.
  Bitset universe() const { return Bitset::all(size()); }

  /// Per-location co-maximal write (the final memory state).
  std::map<std::string, Value> finalMemory() const;

  /// Multi-line rendering of events and base relations (debugging aid).
  std::string toString() const;
};

} // namespace telechat

#endif // TELECHAT_EVENTS_EXECUTION_H
