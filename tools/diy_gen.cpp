//===--- diy_gen.cpp - Cycle-based litmus test generator CLI --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diy analogue: prints the litmus test realising a relaxation
/// cycle.
///
///   diy-gen "PodWW Rfe PodRR Fre" [--name MP] [--load acq] [--store rel]
///   diy-gen --classic MP+fences
///   diy-gen --suite c11 [--limit N]     (prints a whole test suite)
///
//===----------------------------------------------------------------------===//

#include "diy/Classics.h"
#include "diy/Config.h"
#include "diy/Cycle.h"
#include "diy/RealWorld.h"
#include "litmus/Printer.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>

using namespace telechat;

static MemOrder orderFromToken(const std::string &Tok) {
  if (Tok == "na")
    return MemOrder::NA;
  if (Tok == "rlx")
    return MemOrder::Relaxed;
  if (Tok == "acq")
    return MemOrder::Acquire;
  if (Tok == "rel")
    return MemOrder::Release;
  if (Tok == "acqrel")
    return MemOrder::AcqRel;
  if (Tok == "sc")
    return MemOrder::SeqCst;
  return MemOrder::Relaxed;
}

int main(int argc, char **argv) {
  if (argc < 2) {
    fprintf(stderr,
            "usage: diy-gen \"<cycle>\" [--name N] [--load O] [--store O]\n"
            "       diy-gen --classic <name>\n"
            "       diy-gen --suite <c11|c11acq|realworld[:family]> "
            "[--limit N]\n"
            "orders: na rlx acq rel acqrel sc\n");
    return 1;
  }
  std::string First = argv[1];
  if (First == "--classic") {
    if (argc < 3) {
      fprintf(stderr, "--classic needs a name; known:");
      for (const std::string &N : classicNames())
        fprintf(stderr, " %s", N.c_str());
      fprintf(stderr, "\n");
      return 1;
    }
    printf("%s", printLitmusC(classicTest(argv[2])).c_str());
    return 0;
  }
  if (First == "--suite") {
    if (argc < 3) {
      fprintf(stderr, "--suite needs c11, c11acq or realworld[:family]\n");
      return 1;
    }
    std::string Suite = argv[2];
    if (Suite.rfind("realworld", 0) == 0) {
      unsigned Limit = 0;
      for (int I = 3; I + 1 < argc; I += 2)
        if (strcmp(argv[I], "--limit") == 0 &&
            !parseFlag(argv[I], argv[I + 1], Limit))
          return 1;
      std::vector<LitmusTest> Tests;
      if (Suite.size() > strlen("realworld") &&
          Suite[strlen("realworld")] == ':') {
        ErrorOr<std::vector<RealWorldCase>> Family =
            realWorldFamily(Suite.substr(strlen("realworld") + 1));
        if (!Family) {
          fprintf(stderr, "error: %s\n", Family.error().c_str());
          return 1;
        }
        for (RealWorldCase &C : *Family)
          Tests.push_back(std::move(C.Test));
      } else {
        Tests = realWorldTests();
      }
      if (Limit && Tests.size() > Limit)
        Tests.resize(Limit);
      for (const LitmusTest &T : Tests)
        printf("%s\n", printLitmusC(T).c_str());
      return 0;
    }
    SuiteConfig Config = strcmp(argv[2], "c11acq") == 0
                             ? SuiteConfig::c11Acq()
                             : SuiteConfig::c11();
    for (int I = 3; I + 1 < argc; I += 2)
      if (strcmp(argv[I], "--limit") == 0 &&
          !parseFlag(argv[I], argv[I + 1], Config.Limit))
        return 1;
    for (const LitmusTest &T : generateSuite(Config))
      printf("%s\n", printLitmusC(T).c_str());
    return 0;
  }

  CycleSpec Spec;
  Spec.Name = "generated";
  for (int I = 2; I + 1 < argc; I += 2) {
    if (strcmp(argv[I], "--name") == 0)
      Spec.Name = argv[I + 1];
    else if (strcmp(argv[I], "--load") == 0)
      Spec.LoadOrder = orderFromToken(argv[I + 1]);
    else if (strcmp(argv[I], "--store") == 0)
      Spec.StoreOrder = orderFromToken(argv[I + 1]);
  }
  ErrorOr<std::vector<CycleEdge>> Edges = parseCycle(First);
  if (!Edges) {
    fprintf(stderr, "error: %s\n", Edges.error().c_str());
    return 1;
  }
  Spec.Edges = std::move(*Edges);
  ErrorOr<LitmusTest> Test = generateFromCycle(Spec);
  if (!Test) {
    fprintf(stderr, "error: %s\n", Test.error().c_str());
    return 1;
  }
  printf("%s", printLitmusC(*Test).c_str());
  return 0;
}
