//===--- Mutate.h - Seeded text mutants for the parser batteries -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutation loop every frontend battery draws its hostile inputs
/// from: one to three edits per mutant, each a byte flip, a truncation,
/// a splice from another seed or the insert of one of the dialect's
/// tokens. The generator is seeded, so a battery sees the same mutants
/// on every run.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_TESTS_MUTATE_H
#define TELECHAT_TESTS_MUTATE_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace telechat {

class Mutator {
public:
  /// Mutants of \p Seeds (not empty) that insert \p Tokens and flip bytes
  /// to characters of \p Alphabet or to any byte.
  Mutator(uint64_t Seed, std::vector<std::string> Seeds,
          std::vector<std::string> Tokens, std::string Alphabet)
      : Rng(Seed), Seeds(std::move(Seeds)), Tokens(std::move(Tokens)),
        Alphabet(std::move(Alphabet)) {}

  std::string next() {
    std::string M = Seeds[pick(Seeds.size())];
    for (size_t Edits = 1 + pick(3); Edits; --Edits) {
      size_t Pos = pick(M.size() + 1);
      switch (pick(4)) {
      case 0:
        if (Pos != M.size())
          M[Pos] = pick(2) ? Alphabet[pick(Alphabet.size())] : char(Rng());
        break;
      case 1:
        M.resize(Pos);
        break;
      case 2: {
        const std::string &Other = Seeds[pick(Seeds.size())];
        size_t From = pick(Other.size());
        M.insert(Pos, Other, From, pick(80));
        break;
      }
      default:
        M.insert(Pos, Tokens[pick(Tokens.size())]);
      }
    }
    return M;
  }

private:
  size_t pick(size_t N) { return size_t(Rng() % N); }

  std::mt19937_64 Rng;
  std::vector<std::string> Seeds;
  std::vector<std::string> Tokens;
  std::string Alphabet;
};

} // namespace telechat

#endif // TELECHAT_TESTS_MUTATE_H
