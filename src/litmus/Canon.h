//===--- Canon.h - Canonical form for litmus tests --------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A canonical form for C/C++ litmus tests: deterministic renaming of
/// threads, locations and registers driven by a structural traversal --
/// the same move that makes diy cycles canonical. Two tests that differ
/// only in naming (and thread order) canonicalize to the same text and
/// therefore the same CanonKey, which is what corpus dedupe keys on.
///
/// The renaming scheme:
///   - locations become "v0", "v1", ... in declaration order (declaration
///     order is semantic: it fixes simulated addresses, so reordering
///     declarations is conservatively treated as a different test);
///   - threads are renamed "P0", "P1", ... after trying every thread
///     permutation and keeping the lexicographically smallest printed
///     test (thread order is not semantic, but it is baked into event
///     numbering, so only the *canonical* order unifies);
///   - registers become "r0", "r1", ... per thread by first occurrence
///     in a structural traversal of the body (expression operands
///     left-to-right, then the destination; If: condition, then-branch,
///     else-branch), followed by registers appearing only in the final
///     predicate.
///
/// Alongside the canonical test, canonicalization records the complete
/// original->canonical name maps. Composing one test's maps with
/// another's yields a CanonRenaming that translates outcome keys (and
/// whole TelechatResults -- see dist/CampaignLedger.h) from a canonical
/// representative's namespace into a duplicate's.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_LITMUS_CANON_H
#define TELECHAT_LITMUS_CANON_H

#include "litmus/Ast.h"
#include "litmus/Outcome.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace telechat {

/// 128-bit hash of the canonical test text. Two independent FNV-1a
/// variants; CanonResult::Text is kept alongside so equal keys can be
/// confirmed by exact comparison (collisions never merge distinct tests).
struct CanonKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const CanonKey &RHS) const {
    return Hi == RHS.Hi && Lo == RHS.Lo;
  }
  bool operator!=(const CanonKey &RHS) const { return !(*this == RHS); }
  bool operator<(const CanonKey &RHS) const {
    return Hi != RHS.Hi ? Hi < RHS.Hi : Lo < RHS.Lo;
  }
};

/// Original-name -> canonical-name maps for one canonicalized test. The
/// maps are total over the test's declared locations, threads, and every
/// register the body or final predicate mentions.
struct CanonMaps {
  /// (original thread name, canonical thread name), original order.
  std::vector<std::pair<std::string, std::string>> Threads;
  /// (original location name, canonical location name), declaration order.
  std::vector<std::pair<std::string, std::string>> Locs;
  /// Per *original* thread name: (original register, canonical register),
  /// first-occurrence order.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>> Regs;
};

/// The result of canonicalizing one litmus test.
struct CanonResult {
  LitmusTest Canon;  ///< The canonical test (named "canon").
  CanonKey Key;      ///< Hash of Text.
  std::string Text;  ///< printLitmusC(Canon): the exact identity.
  CanonMaps Maps;    ///< Original -> canonical names.
};

/// Canonicalizes \p T. Deterministic; idempotent (canonicalizing the
/// canonical test reproduces the same Text and Key).
CanonResult canonicalizeTest(const LitmusTest &T);

/// A name translation between two tests of the same canonical class:
/// outcome keys in the representative's namespace map to keys in the
/// duplicate's. Register maps cover the tests' C registers; keys whose
/// register is not mapped (e.g. target-assembly registers, which are
/// determined by structure and identical across the class) keep the
/// register and translate only the thread name.
struct CanonRenaming {
  std::map<std::string, std::string> Threads; ///< rep thread -> dup thread
  std::map<std::string, std::string> Locs;    ///< rep location -> dup location
  /// rep thread -> (rep register -> dup register)
  std::map<std::string, std::map<std::string, std::string>> Regs;

  /// Translates one outcome key ("P0:r1", "P0:X2" or "[x]"). Unknown
  /// keys pass through unchanged.
  std::string renameKey(const std::string &Key) const;

  /// Translates every key of \p O. Total: no key is ever dropped.
  Outcome renameOutcome(const Outcome &O) const;

  /// Translates a whole outcome set.
  OutcomeSet renameOutcomeSet(const OutcomeSet &S) const;
};

/// Builds the representative->duplicate renaming from two canonicalization
/// results of the same canonical class (Rep.Text == Dup.Text required).
CanonRenaming composeRenaming(const CanonResult &Rep, const CanonResult &Dup);

} // namespace telechat

#endif // TELECHAT_LITMUS_CANON_H
