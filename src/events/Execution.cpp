//===--- Execution.cpp - Candidate executions -----------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "events/Execution.h"

#include "support/StringUtils.h"

using namespace telechat;

void Execution::locInto(Relation &Out) const {
  unsigned N = size();
  Out.assignEmpty(N);
  for (unsigned A = 0; A != N; ++A) {
    if (Events[A].isFence())
      continue;
    for (unsigned B = 0; B != N; ++B) {
      if (A == B || Events[B].isFence())
        continue;
      if (Events[A].Loc == Events[B].Loc)
        Out.set(A, B);
    }
  }
}

void Execution::extInto(Relation &Out) const {
  unsigned N = size();
  Out.assignEmpty(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (A != B && Events[A].Thread != Events[B].Thread)
        Out.set(A, B);
}

void Execution::internalInto(Relation &Out) const {
  unsigned N = size();
  Out.assignEmpty(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (A != B && Events[A].Thread == Events[B].Thread &&
          !Events[A].isInit())
        Out.set(A, B);
}

void Execution::kindSetInto(EventKind K, Bitset &Out) const {
  Out.assignEmpty(size());
  for (const Event &E : Events)
    if (E.Kind == K)
      Out.set(E.Id);
}

void Execution::tagSetInto(const std::string &Tag, Bitset &Out) const {
  Out.assignEmpty(size());
  for (const Event &E : Events)
    if (E.hasTag(Tag))
      Out.set(E.Id);
}

void Execution::initWritesInto(Bitset &Out) const {
  Out.assignEmpty(size());
  for (const Event &E : Events)
    if (E.isInit())
      Out.set(E.Id);
}

std::map<std::string, Value> Execution::finalMemory() const {
  // The final value of each location is written by its co-maximal write.
  std::map<std::string, Value> Out;
  for (const Event &E : Events) {
    if (!E.isWrite())
      continue;
    bool IsMax = true;
    for (const Event &Other : Events)
      if (Other.isWrite() && Other.Loc == E.Loc && Co.test(E.Id, Other.Id))
        IsMax = false;
    if (IsMax)
      Out[E.Loc] = E.Val;
  }
  return Out;
}

std::string Execution::toString() const {
  std::string Out;
  for (const Event &E : Events) {
    Out += strFormat("e%-3u T%-2d po%-3u %s\n", E.Id,
                     E.isInit() ? -1 : int(E.Thread), E.PoIndex,
                     E.toString().c_str());
  }
  auto Dump = [&](const char *Name, const Relation &R) {
    Out += Name;
    Out += ":";
    R.forEach([&](unsigned A, unsigned B) {
      Out += strFormat(" (%u,%u)", A, B);
    });
    Out += "\n";
  };
  Dump("po", Po);
  Dump("rf", Rf);
  Dump("co", Co);
  Dump("rmw", Rmw);
  Dump("addr", Addr);
  Dump("data", Data);
  Dump("ctrl", Ctrl);
  return Out;
}
