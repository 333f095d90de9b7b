//===--- dist_test.cpp - Distributed campaign engine tests ----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
// The contract under test (ISSUE 3 / docs/DISTRIBUTED.md): a campaign
// served to workers over sockets produces results bit-identical to the
// single-process batch drivers -- including after workers die
// mid-campaign (disconnect requeue) or stall (lease-timeout requeue).
// Plus the layers beneath it: wire primitives, frame reassembly, and
// structural serialization round-trips.
//
//===----------------------------------------------------------------------===//

#include "core/Campaign.h"
#include "core/Telechat.h"
#include "dist/CampaignJson.h"
#include "dist/Journal.h"
#include "dist/Protocol.h"
#include "dist/Relay.h"
#include "dist/Serialize.h"
#include "dist/Socket.h"
#include "dist/Wire.h"
#include "dist/Worker.h"
#include "dist/WorkServer.h"
#include "diy/Classics.h"
#include "diy/Generator.h"
#include "litmus/Printer.h"
#include "litmus/Snippet.h"
#include "sim/Backend.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <poll.h>
#include <thread>
#include <tuple>

using namespace telechat;

namespace {

//===----------------------------------------------------------------------===//
// Wire layer
//===----------------------------------------------------------------------===//

TEST(WireTest, PrimitivesRoundTrip) {
  WireBuffer B;
  B.appendU8(0xab);
  B.appendU16(0xbeef);
  B.appendU32(0xdeadbeef);
  B.appendU64(0x0123456789abcdefull);
  B.appendF64(-1.5e300);
  B.appendBool(true);
  B.appendString("hello \"wire\"");
  B.appendString("");

  WireCursor C(B.data(), B.size());
  EXPECT_EQ(C.readU8(), 0xab);
  EXPECT_EQ(C.readU16(), 0xbeef);
  EXPECT_EQ(C.readU32(), 0xdeadbeefu);
  EXPECT_EQ(C.readU64(), 0x0123456789abcdefull);
  EXPECT_EQ(C.readF64(), -1.5e300);
  EXPECT_TRUE(C.readBool());
  EXPECT_EQ(C.readString(), "hello \"wire\"");
  EXPECT_EQ(C.readString(), "");
  EXPECT_TRUE(C.ok());
  EXPECT_EQ(C.remaining(), 0u);
}

TEST(WireTest, TruncationFailsInsteadOfReadingGarbage) {
  WireBuffer B;
  B.appendU32(7);
  WireCursor C(B.data(), B.size());
  C.readU64(); // 8 bytes from a 4-byte payload.
  EXPECT_FALSE(C.ok());
  EXPECT_EQ(C.readU32(), 0u); // Failed cursors yield zeros forever.
}

TEST(WireTest, HostileStringLengthFailsCleanly) {
  WireBuffer B;
  B.appendU32(0x7fffffff); // Length prefix far beyond the payload.
  WireCursor C(B.data(), B.size());
  EXPECT_EQ(C.readString(), "");
  EXPECT_FALSE(C.ok());
}

TEST(WireTest, HostileCountIsRejected) {
  WireBuffer B;
  B.appendU32(0x40000000); // "One billion elements", no bytes behind it.
  WireCursor C(B.data(), B.size());
  C.readCount(16);
  EXPECT_FALSE(C.ok());
}

TEST(WireTest, FrameSplitterReassemblesByteByByte) {
  // Two frames, fed one byte at a time: pop() must produce exactly both,
  // in order, regardless of fragmentation.
  WireBuffer P1;
  P1.appendString("first");
  WireBuffer P2;
  P2.appendU64(42);

  std::vector<uint8_t> Stream;
  auto Append = [&Stream](uint8_t Type, const WireBuffer &B) {
    uint32_t Len = uint32_t(B.size()) + 1;
    for (size_t I = 0; I != 4; ++I)
      Stream.push_back(uint8_t(Len >> (8 * I)));
    Stream.push_back(Type);
    Stream.insert(Stream.end(), B.data(), B.data() + B.size());
  };
  Append(uint8_t(Msg::Hello), P1);
  Append(uint8_t(Msg::Result), P2);

  FrameSplitter S;
  std::vector<Frame> Got;
  Frame F;
  for (size_t I = 0; I != Stream.size(); ++I) {
    S.feed(Stream.data() + I, 1);
    while (S.pop(F))
      Got.push_back(std::move(F));
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].Type, uint8_t(Msg::Hello));
  WireCursor C0(Got[0].Payload);
  EXPECT_EQ(C0.readString(), "first");
  EXPECT_EQ(Got[1].Type, uint8_t(Msg::Result));
  WireCursor C1(Got[1].Payload);
  EXPECT_EQ(C1.readU64(), 42u);
  EXPECT_FALSE(S.corrupted());
}

TEST(WireTest, FrameSplitterFlagsOversizedFrames) {
  uint8_t Hostile[4] = {0xff, 0xff, 0xff, 0xff};
  FrameSplitter S;
  S.feed(Hostile, sizeof(Hostile));
  Frame F;
  EXPECT_FALSE(S.pop(F));
  EXPECT_TRUE(S.corrupted());
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

/// Structural round-trip check via the printer (stable for equal ASTs).
void expectTestRoundTrips(const LitmusTest &T) {
  WireBuffer B;
  encodeLitmusTest(B, T);
  WireCursor C(B.data(), B.size());
  LitmusTest Out;
  ASSERT_TRUE(decodeLitmusTest(C, Out)) << T.Name;
  EXPECT_EQ(C.remaining(), 0u) << T.Name;
  EXPECT_EQ(printLitmusC(T), printLitmusC(Out)) << T.Name;
  EXPECT_EQ(T.validate(), Out.validate()) << T.Name;
}

TEST(SerializeTest, ClassicsRoundTrip) {
  for (const std::string &Name : classicNames())
    expectTestRoundTrips(classicTest(Name));
}

TEST(SerializeTest, RandomGeneratedTestsRoundTrip) {
  RandomGenOptions Opts;
  Opts.Seed = 7;
  Opts.Count = 25;
  for (const LitmusTest &T : generateRandomTests(Opts))
    expectTestRoundTrips(T);
}

TEST(SerializeTest, RoundTrippedTestSimulatesIdentically) {
  // The end-to-end property the corpus transport needs: simulating the
  // decoded test equals simulating the original.
  for (const char *Name : {"MP+rel+acq", "IRIW", "LB+ctrls"}) {
    LitmusTest T = classicTest(Name);
    WireBuffer B;
    encodeLitmusTest(B, T);
    WireCursor C(B.data(), B.size());
    LitmusTest Out;
    ASSERT_TRUE(decodeLitmusTest(C, Out));
    SimResult A = simulateC(T, "rc11");
    SimResult Z = simulateC(Out, "rc11");
    EXPECT_EQ(A.Allowed, Z.Allowed) << Name;
    EXPECT_EQ(A.Flags, Z.Flags) << Name;
    EXPECT_EQ(A.Stats.RfCandidates, Z.Stats.RfCandidates) << Name;
  }
}

TEST(SerializeTest, ProfileRoundTripsIncludingBugModel) {
  Profile P = Profile::llvm11(OptLevel::O2, Arch::AArch64);
  ASSERT_TRUE(P.Bugs.any()); // The part profile names cannot encode.
  WireBuffer B;
  encodeProfile(B, P);
  WireCursor C(B.data(), B.size());
  Profile Out;
  ASSERT_TRUE(decodeProfile(C, Out));
  EXPECT_EQ(Out.Compiler, P.Compiler);
  EXPECT_EQ(Out.Opt, P.Opt);
  EXPECT_EQ(Out.Target, P.Target);
  EXPECT_EQ(Out.Features.Lse, P.Features.Lse);
  EXPECT_EQ(Out.Features.Rcpc, P.Features.Rcpc);
  EXPECT_EQ(Out.Features.Lse2, P.Features.Lse2);
  EXPECT_EQ(Out.Bugs.XchgNoRet, P.Bugs.XchgNoRet);
  EXPECT_EQ(Out.Bugs.SeqCst128Ldp, P.Bugs.SeqCst128Ldp);
  EXPECT_EQ(Out.Bugs.Stp128WrongEndian, P.Bugs.Stp128WrongEndian);
  EXPECT_EQ(Out.Bugs.ConstAtomicStore, P.Bugs.ConstAtomicStore);
  EXPECT_EQ(Out.name(), P.name());
}

TEST(SerializeTest, CampaignConfigRoundTrips) {
  CampaignConfig Config;
  Config.P = Profile::current(CompilerKind::Gcc, OptLevel::O3, Arch::RiscV);
  Config.Opts.SourceModel = "rc11+lb";
  Config.Opts.AugmentLocals = false;
  Config.Opts.Sim.MaxSteps = 123456;
  Config.Opts.Sim.RfValuePruning = false;
  Config.Opts.Sim.RfTransformDomain = false;
  Config.Opts.Sim.Backend = SimBackendKind::Solve;
  Config.SimulateOnly = true;
  WireBuffer B;
  encodeCampaignConfig(B, Config);
  WireCursor C(B.data(), B.size());
  CampaignConfig Out;
  ASSERT_TRUE(decodeCampaignConfig(C, Out));
  EXPECT_EQ(Out.P.name(), Config.P.name());
  EXPECT_EQ(Out.Opts.SourceModel, "rc11+lb");
  EXPECT_FALSE(Out.Opts.AugmentLocals);
  EXPECT_EQ(Out.Opts.Sim.MaxSteps, 123456u);
  EXPECT_FALSE(Out.Opts.Sim.RfValuePruning);
  EXPECT_FALSE(Out.Opts.Sim.RfTransformDomain);
  EXPECT_EQ(Out.Opts.Sim.Backend, SimBackendKind::Solve);
  EXPECT_TRUE(Out.SimulateOnly);
}

TEST(SerializeTest, SimOptionsBackendRoundTripsAndRejectsHostile) {
  SimOptions O;
  O.Backend = SimBackendKind::Explore;
  O.Jobs = 3;
  O.ExploreIterations = 4096;
  O.ExploreSeed = 99;
  O.ExploreMaxContextSwitches = 5;
  O.ExploreBudget = 1u << 20;
  WireBuffer B;
  encodeSimOptions(B, O);
  WireCursor C(B.data(), B.size());
  SimOptions Out;
  ASSERT_TRUE(decodeSimOptions(C, Out));
  EXPECT_EQ(C.remaining(), 0u);
  EXPECT_EQ(Out.Backend, SimBackendKind::Explore);
  EXPECT_EQ(Out.Jobs, 3u);
  EXPECT_EQ(Out.ExploreIterations, 4096u);
  EXPECT_EQ(Out.ExploreSeed, 99u);
  EXPECT_EQ(Out.ExploreMaxContextSwitches, 5u);
  EXPECT_EQ(Out.ExploreBudget, 1u << 20);
  // The backend selector sits before the four explore knobs
  // (u64 + u64 + u32 + u64 = 28 trailing bytes); anything past Explore
  // is hostile (a newer peer would have bumped WireVersion instead).
  std::vector<uint8_t> Bytes(B.data(), B.data() + B.size());
  ASSERT_GT(Bytes.size(), 29u);
  Bytes[Bytes.size() - 29] = 4;
  WireCursor Bad(Bytes.data(), Bytes.size());
  EXPECT_FALSE(decodeSimOptions(Bad, Out));
}

TEST(SerializeTest, SimStatsSolverCountersRoundTripAndRejectHostile) {
  SimStats S;
  S.PathCombos = 7;
  S.RfCandidates = 9;
  S.SolveDecisions = 11;
  S.SolvePropagations = 13;
  S.SolveConflicts = 17;
  S.SolveClauses = 19;
  S.ExploreIterations = 23;
  S.ExploreSchedules = 29;
  S.ExploreOutcomesFound = 31;
  S.BackendUsed = uint8_t(SimBackendKind::Solve);
  S.Seconds = 1.5;
  WireBuffer B;
  encodeSimStats(B, S);
  WireCursor C(B.data(), B.size());
  SimStats Out;
  ASSERT_TRUE(decodeSimStats(C, Out));
  EXPECT_EQ(C.remaining(), 0u);
  EXPECT_EQ(Out.PathCombos, 7u);
  EXPECT_EQ(Out.RfCandidates, 9u);
  EXPECT_EQ(Out.SolveDecisions, 11u);
  EXPECT_EQ(Out.SolvePropagations, 13u);
  EXPECT_EQ(Out.SolveConflicts, 17u);
  EXPECT_EQ(Out.SolveClauses, 19u);
  EXPECT_EQ(Out.ExploreIterations, 23u);
  EXPECT_EQ(Out.ExploreSchedules, 29u);
  EXPECT_EQ(Out.ExploreOutcomesFound, 31u);
  EXPECT_EQ(Out.BackendUsed, uint8_t(SimBackendKind::Solve));
  EXPECT_EQ(Out.Seconds, 1.5);
  // BackendUsed sits just before the trailing f64. It is descriptive,
  // not dispatched on: a byte this build does not know (a stats blob
  // from a newer peer with another engine) must decode, not fail --
  // and must *render* as "unknown" rather than aliasing a real engine
  // (or reading out of a name table).
  std::vector<uint8_t> Bytes(B.data(), B.data() + B.size());
  Bytes[Bytes.size() - 9] = 0xC7;
  WireCursor Hostile(Bytes.data(), Bytes.size());
  SimStats HostileOut;
  ASSERT_TRUE(decodeSimStats(Hostile, HostileOut));
  EXPECT_EQ(HostileOut.BackendUsed, 0xC7);
  EXPECT_STREQ(backendUsedName(HostileOut.BackendUsed), "unknown");
  // Auto never runs, so a stats blob claiming it is equally unknown.
  EXPECT_STREQ(backendUsedName(uint8_t(SimBackendKind::Auto)), "unknown");
  EXPECT_STREQ(backendUsedName(uint8_t(SimBackendKind::Explore)),
               "explore");
  // Truncation anywhere fails cleanly rather than misparsing.
  for (size_t N = 0; N < B.size(); N += 7) {
    WireCursor T(B.data(), N);
    SimStats Tmp;
    EXPECT_FALSE(decodeSimStats(T, Tmp));
  }
}

TEST(SerializeTest, TelechatResultRoundTripsTheCampaignSlice) {
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TelechatResult R = runTelechat(classicTest("MP+rel+acq"), P);
  ASSERT_TRUE(R.ok()) << R.Error;
  WireBuffer B;
  encodeTelechatResult(B, R);
  WireCursor C(B.data(), B.size());
  TelechatResult Out;
  ASSERT_TRUE(decodeTelechatResult(C, Out));
  EXPECT_EQ(C.remaining(), 0u);
  EXPECT_EQ(Out.Error, R.Error);
  EXPECT_EQ(Out.SourceSim.Allowed, R.SourceSim.Allowed);
  EXPECT_EQ(Out.SourceSim.Flags, R.SourceSim.Flags);
  EXPECT_EQ(Out.SourceSim.Stats.RfCandidates, R.SourceSim.Stats.RfCandidates);
  EXPECT_EQ(Out.SourceSim.Stats.RfSourcesPruned,
            R.SourceSim.Stats.RfSourcesPruned);
  EXPECT_EQ(Out.SourceSim.Stats.RfSourcesPrunedCopy,
            R.SourceSim.Stats.RfSourcesPrunedCopy);
  EXPECT_EQ(Out.SourceSim.Stats.RfSourcesPrunedXform,
            R.SourceSim.Stats.RfSourcesPrunedXform);
  EXPECT_EQ(Out.SourceSim.Stats.Seconds, R.SourceSim.Stats.Seconds);
  EXPECT_EQ(Out.TargetSim.Allowed, R.TargetSim.Allowed);
  EXPECT_EQ(Out.Compare.K, R.Compare.K);
  EXPECT_EQ(Out.Compare.SourceRace, R.Compare.SourceRace);
  EXPECT_EQ(Out.Compare.Witnesses.size(), R.Compare.Witnesses.size());
  EXPECT_EQ(Out.OptStats.RemovedInstructions,
            R.OptStats.RemovedInstructions);
}

TEST(SerializeTest, TruncatedResultFailsDecode) {
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TelechatResult R = runTelechat(classicTest("MP"), P);
  WireBuffer B;
  encodeTelechatResult(B, R);
  for (size_t Cut : {size_t(0), B.size() / 2, B.size() - 1}) {
    WireCursor C(B.data(), Cut);
    TelechatResult Out;
    EXPECT_FALSE(decodeTelechatResult(C, Out)) << "cut at " << Cut;
  }
}

//===----------------------------------------------------------------------===//
// Campaign unit queue (shared local/remote executor)
//===----------------------------------------------------------------------===//

TEST(CampaignQueueTest, BadConfigIndexYieldsErrorResult) {
  CampaignUnit U;
  U.Test = classicTest("MP");
  U.Config = 3;
  TelechatResult R = runCampaignUnit(U, {});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("config 3"), std::string::npos);
}

TEST(CampaignQueueTest, CrossProductUnitsCoverEveryPair) {
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  std::vector<CampaignUnit> Units =
      makeCampaignUnits(Tests, /*NumConfigs=*/3, /*Cross=*/true);
  ASSERT_EQ(Units.size(), 6u);
  for (size_t I = 0; I != Units.size(); ++I) {
    EXPECT_EQ(Units[I].Id, I);
    EXPECT_EQ(Units[I].Config, I % 3);
    EXPECT_EQ(Units[I].Test.Name, Tests[I / 3].Name);
  }
}

//===----------------------------------------------------------------------===//
// Loopback campaigns
//===----------------------------------------------------------------------===//

/// A small mixed corpus that exercises compile+simulate+mcompare.
std::vector<LitmusTest> loopbackCorpus() {
  std::vector<LitmusTest> Tests;
  for (const char *Name :
       {"MP", "MP+rel+acq", "SB", "LB", "2+2W", "WRC", "CoRR", "CoWW"})
    Tests.push_back(classicTest(Name));
  RandomGenOptions Opts;
  Opts.Seed = 42;
  Opts.Count = 4;
  for (const LitmusTest &T : generateRandomTests(Opts))
    Tests.push_back(T);
  return Tests;
}

/// Everything that must match between a local and a distributed unit
/// result under the determinism contract (Seconds excluded by design).
void expectUnitIdentical(const TelechatResult &L, const TelechatResult &D,
                         const std::string &What) {
  EXPECT_EQ(L.Error, D.Error) << What;
  EXPECT_EQ(L.SourceSim.Allowed, D.SourceSim.Allowed) << What;
  EXPECT_EQ(L.SourceSim.Flags, D.SourceSim.Flags) << What;
  EXPECT_EQ(L.SourceSim.TimedOut, D.SourceSim.TimedOut) << What;
  EXPECT_EQ(L.SourceSim.Stats.RfCandidates, D.SourceSim.Stats.RfCandidates)
      << What;
  EXPECT_EQ(L.SourceSim.Stats.AllowedExecutions,
            D.SourceSim.Stats.AllowedExecutions)
      << What;
  EXPECT_EQ(L.TargetSim.Allowed, D.TargetSim.Allowed) << What;
  EXPECT_EQ(L.TargetSim.Flags, D.TargetSim.Flags) << What;
  EXPECT_EQ(L.TargetSim.Stats.RfCandidates, D.TargetSim.Stats.RfCandidates)
      << What;
  EXPECT_EQ(L.Compare.K, D.Compare.K) << What;
  EXPECT_EQ(L.Compare.SourceRace, D.Compare.SourceRace) << What;
  EXPECT_EQ(L.Compare.TargetFlags, D.Compare.TargetFlags) << What;
  ASSERT_EQ(L.Compare.Witnesses.size(), D.Compare.Witnesses.size()) << What;
  for (size_t W = 0; W != L.Compare.Witnesses.size(); ++W)
    EXPECT_EQ(L.Compare.Witnesses[W], D.Compare.Witnesses[W]) << What;
  EXPECT_EQ(L.isBug(), D.isBug()) << What;
  EXPECT_EQ(L.OptStats.RemovedInstructions, D.OptStats.RemovedInstructions)
      << What;
}

/// A Hello payload as a worker sends it (jobs = 1).
WireBuffer helloPayload(uint16_t Version = WireVersion,
                        uint32_t Magic = WireMagic) {
  WireBuffer B;
  B.appendU32(Magic);
  B.appendU16(Version);
  B.appendU32(1);
  return B;
}

/// The handshake of a hand-driven client: sends Hello on \p S and
/// returns the peer's reply frame.
ErrorOr<Frame> rawHello(TcpSocket &S, uint16_t Version = WireVersion) {
  if (!sendFrame(S, uint8_t(Msg::Hello), helloPayload(Version)))
    return makeError("Hello send failed");
  return recvFrame(S);
}

TEST(LoopbackCampaignTest, TwoWorkersBitIdenticalToLocalDriver) {
  std::vector<LitmusTest> Tests = loopbackCorpus();
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TestOptions O;
  std::vector<TelechatResult> Local = runTelechatMany(Tests, P, O, 4);

  std::vector<CampaignConfig> Configs{{P, O, false}};
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
  WorkServer Server(Units, Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  WOpts.BatchSize = 3;
  std::thread W1([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  std::thread W2([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  W1.join();
  W2.join();
  Srv.join();

  ASSERT_EQ(Report.Results.size(), Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I)
    expectUnitIdentical(Local[I], Report.Results[I], Tests[I].Name);
  // And the deterministic JSON artefact is byte-identical, which is the
  // gate the CI smoke job applies to the real binaries.
  EXPECT_EQ(campaignResultsJson(Units, Configs, Local),
            campaignResultsJson(Units, Configs, Report.Results));
}

TEST(LoopbackCampaignTest, KilledWorkerLeasesAreReassigned) {
  std::vector<LitmusTest> Tests = loopbackCorpus();
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TestOptions O;
  std::vector<TelechatResult> Local = runTelechatMany(Tests, P, O, 4);

  std::vector<CampaignConfig> Configs{{P, O, false}};
  WorkServer Server(makeCampaignUnits(Tests), Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  // Worker A leases a 4-unit batch but dies after delivering 2 results:
  // the other 2 leases must be re-issued. A runs alone first so the
  // batch grab is deterministic.
  WorkerOptions Doomed;
  Doomed.Jobs = 2;
  Doomed.BatchSize = 4;
  Doomed.KillAfterResults = 2;
  ErrorOr<WorkerRunStats> AStats =
      runCampaignWorker("127.0.0.1", Port, Doomed);
  ASSERT_TRUE(AStats.hasValue()) << AStats.error();
  EXPECT_TRUE(AStats->Killed);
  EXPECT_EQ(AStats->UnitsCompleted, 2u);

  // Worker B mops up the rest, including the re-issued leases.
  WorkerOptions Healthy;
  Healthy.Jobs = 2;
  ErrorOr<WorkerRunStats> BStats =
      runCampaignWorker("127.0.0.1", Port, Healthy);
  ASSERT_TRUE(BStats.hasValue()) << BStats.error();
  EXPECT_TRUE(BStats->CleanDone);
  Srv.join();

  EXPECT_GE(Report.Requeues, 2u) << "the killed worker held 2 leases";
  ASSERT_EQ(Report.Results.size(), Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I)
    expectUnitIdentical(Local[I], Report.Results[I], Tests[I].Name);
}

TEST(LoopbackCampaignTest, StalledLeaseTimesOutAndReassigns) {
  std::vector<LitmusTest> Tests = loopbackCorpus();
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TestOptions O;
  std::vector<TelechatResult> Local = runTelechatMany(Tests, P, O, 4);

  std::vector<CampaignConfig> Configs{{P, O, false}};
  WorkServerOptions SOpts;
  SOpts.LeaseTimeoutSeconds = 0.3; // Aggressive: the stall is the test.
  WorkServer Server(makeCampaignUnits(Tests), Configs, SOpts);
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  // A zombie client: completes the handshake, leases two units, then
  // goes silent without disconnecting -- only the lease timeout can
  // recover its units.
  ErrorOr<TcpSocket> Zombie = tcpConnect("127.0.0.1", Port, 5.0);
  ASSERT_TRUE(Zombie.hasValue()) << Zombie.error();
  {
    ErrorOr<Frame> Ack = rawHello(*Zombie);
    ASSERT_TRUE(Ack.hasValue()) << Ack.error();
    ASSERT_EQ(Ack->Type, uint8_t(Msg::HelloAck));
    WireBuffer G;
    G.appendU32(2);
    ASSERT_TRUE(sendFrame(*Zombie, uint8_t(Msg::GetWork), G));
    ErrorOr<Frame> Work = recvFrame(*Zombie);
    ASSERT_TRUE(Work.hasValue()) << Work.error();
    ASSERT_EQ(Work->Type, uint8_t(Msg::Work));
  } // ... and never answers again.

  WorkerOptions Healthy;
  Healthy.Jobs = 2;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", Port, Healthy);
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  Srv.join();

  EXPECT_GE(Report.Requeues, 2u) << "the zombie's leases must expire";
  ASSERT_EQ(Report.Results.size(), Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I)
    expectUnitIdentical(Local[I], Report.Results[I], Tests[I].Name);
}

TEST(LoopbackCampaignTest, SimulateOnlyCampaignMatchesSimulateC) {
  std::vector<LitmusTest> Tests;
  for (const char *Name : {"MP", "SB", "LB", "IRIW"})
    Tests.push_back(classicTest(Name));
  CampaignConfig Config;
  Config.SimulateOnly = true;
  Config.Opts.SourceModel = "rc11";
  WorkServer Server(makeCampaignUnits(Tests), {Config},
                    WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  std::thread W([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  W.join();
  Srv.join();

  ASSERT_EQ(Report.Results.size(), Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I) {
    SimResult Ref = simulateC(Tests[I], "rc11");
    const SimResult &Got = Report.Results[I].SourceSim;
    EXPECT_EQ(Ref.Allowed, Got.Allowed) << Tests[I].Name;
    EXPECT_EQ(Ref.Flags, Got.Flags) << Tests[I].Name;
    EXPECT_EQ(Ref.Stats.RfCandidates, Got.Stats.RfCandidates)
        << Tests[I].Name;
    // SimulateOnly skips the pipeline: target side stays empty.
    EXPECT_TRUE(Report.Results[I].TargetSim.Allowed.empty());
  }
}

TEST(LoopbackCampaignTest, ExploreCampaignDrillIsSoundAndAccounted) {
  // The budget-split drill: the same corpus crossed with an exhaustive
  // config and an explore config. The explore target must stay a sound
  // subset of its exhaustive twin, must never report Negative (mcompare
  // downgrades that to CoverageGap in subset mode), and the engine JSON
  // must account both unit populations plus the schedule counters.
  std::vector<LitmusTest> Tests;
  for (const char *Name : {"MP", "SB", "LB", "IRIW"})
    Tests.push_back(classicTest(Name));
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  CampaignConfig Exhaustive{P, TestOptions(), false};
  CampaignConfig Explored = Exhaustive;
  Explored.Opts.Sim.Backend = SimBackendKind::Explore;
  std::vector<CampaignConfig> Configs{Exhaustive, Explored};
  std::vector<CampaignUnit> Units =
      makeCampaignUnits(Tests, uint32_t(Configs.size()), /*Cross=*/true);

  WorkServer Server(Units, Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  std::thread W([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  W.join();
  Srv.join();

  ASSERT_EQ(Report.Results.size(), Units.size());
  for (size_t T = 0; T != Tests.size(); ++T) {
    const TelechatResult &Exh = Report.Results[T * Configs.size()];
    const TelechatResult &Dyn = Report.Results[T * Configs.size() + 1];
    ASSERT_EQ(Exh.Error, "") << Tests[T].Name;
    ASSERT_EQ(Dyn.Error, "") << Tests[T].Name;
    // The source side is the comparison oracle: never explored.
    EXPECT_NE(Dyn.SourceSim.Stats.BackendUsed,
              uint8_t(SimBackendKind::Explore))
        << Tests[T].Name;
    EXPECT_EQ(Dyn.TargetSim.Stats.BackendUsed,
              uint8_t(SimBackendKind::Explore))
        << Tests[T].Name;
    EXPECT_GT(Dyn.TargetSim.Stats.ExploreIterations, 0u) << Tests[T].Name;
    for (const Outcome &O : Dyn.TargetSim.Allowed)
      EXPECT_TRUE(Exh.TargetSim.Allowed.count(O))
          << Tests[T].Name << ": explore target outcome [" << O.toString()
          << "] outside the exhaustive target set";
    EXPECT_NE(Dyn.Compare.K, CompareResult::Kind::Negative)
        << Tests[T].Name;
    if (Dyn.Compare.K == CompareResult::Kind::Positive)
      EXPECT_EQ(Exh.Compare.K, CompareResult::Kind::Positive)
          << Tests[T].Name << ": explore invented a positive difference";
    // Determinism gate: the distributed unit matches its local twin.
    expectUnitIdentical(runCampaignUnit(Units[T * Configs.size() + 1],
                                        Configs),
                        Dyn, Tests[T].Name);
  }

  // Engine JSON splits the populations and carries live counters.
  std::string Engine = campaignEngineJson(Report);
  size_t At = Engine.find("\"explore\": {\"explored_units\": 4, "
                          "\"exhaustive_units\": 4, \"iterations\": ");
  ASSERT_NE(At, std::string::npos) << Engine;
  std::string Tail = Engine.substr(At);
  EXPECT_EQ(Tail.find("\"iterations\": 0,"), std::string::npos) << Engine;
  EXPECT_NE(Tail.find("\"coverage_gaps\": "), std::string::npos);
}

TEST(LoopbackCampaignTest, EmptyCorpusFinishesWithoutWorkers) {
  WorkServer Server(std::vector<CampaignUnit>{}, {CampaignConfig{}},
                    WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  CampaignReport Report = Server.run(); // Must return, not block.
  EXPECT_EQ(Report.Results.size(), 0u);
  EXPECT_EQ(Report.Requeues, 0u);
}

TEST(LoopbackCampaignTest, VersionMismatchIsRefused) {
  std::vector<LitmusTest> Tests = {classicTest("MP")};
  WorkServer Server(makeCampaignUnits(Tests), {CampaignConfig{}},
                    WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  std::thread Srv([&] { Server.run(); });

  ErrorOr<TcpSocket> Bad = tcpConnect("127.0.0.1", Port, 5.0);
  ASSERT_TRUE(Bad.hasValue()) << Bad.error();
  ErrorOr<Frame> Reply = rawHello(*Bad, WireVersion + 1); // From the future.
  ASSERT_TRUE(Reply.hasValue()) << Reply.error();
  EXPECT_EQ(Reply->Type, uint8_t(Msg::Error));
  WireCursor C(Reply->Payload);
  EXPECT_NE(C.readString().find("version mismatch"), std::string::npos);
  Bad->close();

  // A well-versioned worker still completes the campaign.
  WorkerOptions WOpts;
  WOpts.Jobs = 1;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", Port, WOpts);
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_TRUE(Stats->CleanDone);
  Srv.join();
}

TEST(WorkerTest, ConnectFailureIsAnError) {
  WorkerOptions Opts;
  Opts.ConnectRetrySeconds = 0.0;
  // Port 1 on loopback: reserved, nothing listens there.
  ErrorOr<WorkerRunStats> Stats = runCampaignWorker("127.0.0.1", 1, Opts);
  EXPECT_FALSE(Stats.hasValue());
}

//===----------------------------------------------------------------------===//
// Generative campaigns (units streamed off the generator)
//===----------------------------------------------------------------------===//

/// A generator spec small enough to execute the full pipeline quickly.
RandomGenOptions genSpec(uint64_t Seed = 21, unsigned Count = 4) {
  RandomGenOptions G;
  G.Seed = Seed;
  G.Count = Count;
  return G;
}

std::vector<CampaignConfig> pipelineConfig() {
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  return {{P, TestOptions(), false}};
}

struct LocalRun {
  std::vector<CampaignUnitMeta> Meta;
  std::vector<TelechatResult> Results;
};

/// Drains a streamed generator campaign over the local pool, the way
/// `telechat --campaign --gen-seed` does.
LocalRun runStreamedLocal(const RandomGenOptions &G,
                          const std::vector<CampaignConfig> &Configs) {
  GeneratorUnitSource Source(G, uint32_t(Configs.size()));
  LocalRun R;
  R.Results.resize(size_t(Source.sizeHint()));
  R.Meta.resize(size_t(Source.sizeHint()));
  ThreadPool Pool(4);
  runCampaignUnits(Source, Configs, Pool,
                   [&](const CampaignUnit &U, TelechatResult Res) {
                     R.Results[U.Id] = std::move(Res);
                     R.Meta[U.Id] = CampaignUnitMeta{U.Test.Name, U.Config};
                   });
  R.Results.resize(size_t(Source.produced()));
  R.Meta.resize(size_t(Source.produced()));
  return R;
}

TEST(GeneratorCampaignTest, SourceIdsAreTestMajor) {
  // The streamed crossing must assign exactly the ids the materialised
  // crossing would: that identity is what makes streamed and
  // pre-materialised campaigns merge bit-identically.
  RandomGenOptions G = genSpec(5, 6);
  std::vector<CampaignUnit> Materialised =
      makeCampaignUnits(generateRandomTests(G), /*NumConfigs=*/3,
                        /*Cross=*/true);
  GeneratorUnitSource Source(G, 3);
  CampaignUnit U;
  size_t I = 0;
  while (Source.next(U)) {
    ASSERT_LT(I, Materialised.size());
    EXPECT_EQ(U.Id, Materialised[I].Id);
    EXPECT_EQ(U.Config, Materialised[I].Config);
    EXPECT_EQ(printLitmusC(U.Test), printLitmusC(Materialised[I].Test));
    ++I;
  }
  EXPECT_EQ(I, Materialised.size());
  EXPECT_EQ(Source.produced(), Materialised.size());
}

TEST(GeneratorCampaignTest, StreamedLocalRunMatchesMaterialised) {
  // The differential determinism gate: the same (seed, count, configs)
  // through GeneratorUnitSource and through a pre-materialised
  // VectorUnitSource must produce byte-equal campaign JSON.
  RandomGenOptions G = genSpec();
  std::vector<CampaignConfig> Configs = pipelineConfig();

  std::vector<CampaignUnit> Units = makeCampaignUnits(
      generateRandomTests(G), uint32_t(Configs.size()), true);
  std::vector<TelechatResult> MatResults(Units.size());
  {
    VectorUnitSource Source(Units);
    ThreadPool Pool(4);
    runCampaignUnits(Source, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       MatResults[U.Id] = std::move(R);
                     });
  }

  LocalRun Streamed = runStreamedLocal(G, Configs);
  ASSERT_EQ(Streamed.Results.size(), Units.size());
  EXPECT_EQ(campaignResultsJson(Streamed.Meta, Configs, Streamed.Results),
            campaignResultsJson(Units, Configs, MatResults));
}

TEST(GeneratorCampaignTest, StreamedServedCampaignMatchesLocalStream) {
  // And over the wire: a 2-worker loopback campaign leasing units
  // straight off the generator merges byte-identically to the local
  // streamed run.
  RandomGenOptions G = genSpec(42, 5);
  std::vector<CampaignConfig> Configs = pipelineConfig();
  LocalRun Local = runStreamedLocal(G, Configs);

  WorkServer Server(
      std::make_unique<GeneratorUnitSource>(G, uint32_t(Configs.size())),
      Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  WOpts.BatchSize = 2;
  std::thread W1([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  std::thread W2([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  W1.join();
  W2.join();
  Srv.join();

  EXPECT_TRUE(Report.Error.empty()) << Report.Error;
  ASSERT_EQ(Report.Results.size(), Local.Results.size());
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, Configs, Report.Results),
            campaignResultsJson(Local.Meta, Configs, Local.Results));
}

//===----------------------------------------------------------------------===//
// Generator-spec and source-spec records
//===----------------------------------------------------------------------===//

TEST(SerializeTest, RandomGenOptionsRoundTrip) {
  RandomGenOptions O;
  O.Seed = 0xfeedface12345678ull;
  O.Count = 123;
  O.MaxEdges = 9;
  O.LoadOrders = {MemOrder::Acquire, MemOrder::Relaxed};
  O.StoreOrders = {MemOrder::SeqCst};
  WireBuffer B;
  encodeRandomGenOptions(B, O);
  WireCursor C(B.data(), B.size());
  RandomGenOptions Out;
  ASSERT_TRUE(decodeRandomGenOptions(C, Out));
  EXPECT_EQ(C.remaining(), 0u);
  EXPECT_EQ(Out.Seed, O.Seed);
  EXPECT_EQ(Out.Count, O.Count);
  EXPECT_EQ(Out.MaxEdges, O.MaxEdges);
  EXPECT_EQ(Out.LoadOrders, O.LoadOrders);
  EXPECT_EQ(Out.StoreOrders, O.StoreOrders);
}

TEST(SerializeTest, HostileRandomGenOptionsAreRejected) {
  RandomGenOptions O;
  WireBuffer B;
  encodeRandomGenOptions(B, O);
  // Truncations at every prefix fail instead of yielding garbage.
  for (size_t Cut = 0; Cut != B.size(); ++Cut) {
    WireCursor C(B.data(), Cut);
    RandomGenOptions Out;
    EXPECT_FALSE(decodeRandomGenOptions(C, Out)) << "cut at " << Cut;
  }
  {
    // Empty order pool: nothing to draw from.
    WireBuffer E;
    E.appendU64(1);
    E.appendU32(4);
    E.appendU32(6);
    E.appendU32(0); // load pool: zero entries
    E.appendU32(1);
    E.appendU8(uint8_t(MemOrder::Relaxed));
    WireCursor C(E.data(), E.size());
    RandomGenOptions Out;
    EXPECT_FALSE(decodeRandomGenOptions(C, Out));
  }
  {
    // Out-of-enum memory order.
    WireBuffer E;
    E.appendU64(1);
    E.appendU32(4);
    E.appendU32(6);
    E.appendU32(1);
    E.appendU8(uint8_t(MemOrder::SeqCst) + 1);
    E.appendU32(1);
    E.appendU8(uint8_t(MemOrder::Relaxed));
    WireCursor C(E.data(), E.size());
    RandomGenOptions Out;
    EXPECT_FALSE(decodeRandomGenOptions(C, Out));
  }
  {
    // A hostile edge cap sizes a per-attempt allocation in the
    // generator: refuse it at decode, like the pools.
    WireBuffer E;
    E.appendU64(1);
    E.appendU32(4);
    E.appendU32(0xffffffffu);
    E.appendU32(1);
    E.appendU8(uint8_t(MemOrder::Relaxed));
    E.appendU32(1);
    E.appendU8(uint8_t(MemOrder::Relaxed));
    WireCursor C(E.data(), E.size());
    RandomGenOptions Out;
    EXPECT_FALSE(decodeRandomGenOptions(C, Out));
  }
}

TEST(SerializeTest, CampaignSourceSpecRoundTripsBothKinds) {
  {
    CampaignSourceSpec S;
    S.K = CampaignSourceSpec::Kind::Generator;
    S.Gen = genSpec(77, 11);
    S.NumConfigs = 3;
    WireBuffer B;
    encodeCampaignSourceSpec(B, S);
    WireCursor C(B.data(), B.size());
    CampaignSourceSpec Out;
    ASSERT_TRUE(decodeCampaignSourceSpec(C, Out));
    EXPECT_EQ(C.remaining(), 0u);
    EXPECT_EQ(Out.K, S.K);
    EXPECT_EQ(Out.NumConfigs, 3u);
    EXPECT_EQ(Out.Gen.Seed, 77u);
    EXPECT_EQ(Out.Gen.Count, 11u);
    // The decoded spec rebuilds the identical stream.
    CampaignUnit A, Z;
    auto SrcA = S.makeSource();
    auto SrcZ = Out.makeSource();
    while (SrcA->next(A)) {
      ASSERT_TRUE(SrcZ->next(Z));
      EXPECT_EQ(A.Id, Z.Id);
      EXPECT_EQ(printLitmusC(A.Test), printLitmusC(Z.Test));
    }
    EXPECT_FALSE(SrcZ->next(Z));
  }
  {
    CampaignSourceSpec S; // Corpus kind.
    S.Units = makeCampaignUnits({classicTest("MP"), classicTest("SB")});
    WireBuffer B;
    encodeCampaignSourceSpec(B, S);
    WireCursor C(B.data(), B.size());
    CampaignSourceSpec Out;
    ASSERT_TRUE(decodeCampaignSourceSpec(C, Out));
    ASSERT_EQ(Out.Units.size(), 2u);
    EXPECT_EQ(Out.Units[1].Test.Name, S.Units[1].Test.Name);
  }
}

TEST(SerializeTest, HostileSourceSpecsAreRejected) {
  {
    WireBuffer B; // Unknown kind byte.
    B.appendU8(7);
    B.appendU32(1);
    WireCursor C(B.data(), B.size());
    CampaignSourceSpec Out;
    EXPECT_FALSE(decodeCampaignSourceSpec(C, Out));
  }
  {
    WireBuffer B; // Zero-wide config crossing.
    B.appendU8(uint8_t(CampaignSourceSpec::Kind::Generator));
    B.appendU32(0);
    encodeRandomGenOptions(B, RandomGenOptions());
    WireCursor C(B.data(), B.size());
    CampaignSourceSpec Out;
    EXPECT_FALSE(decodeCampaignSourceSpec(C, Out));
  }
  {
    WireBuffer B; // Hostile unit count with no bytes behind it.
    B.appendU8(uint8_t(CampaignSourceSpec::Kind::Corpus));
    B.appendU32(1);
    B.appendU32(0x40000000);
    WireCursor C(B.data(), B.size());
    CampaignSourceSpec Out;
    EXPECT_FALSE(decodeCampaignSourceSpec(C, Out));
  }
}

//===----------------------------------------------------------------------===//
// Campaign journal
//===----------------------------------------------------------------------===//

std::string tmpJournalPath(const std::string &Name) {
  std::string Path = testing::TempDir() + "telechat_" + Name + ".journal";
  std::remove(Path.c_str());
  return Path;
}

/// One executed pipeline result to journal (memoised: runTelechat is the
/// slow part).
const TelechatResult &sampleResult() {
  static TelechatResult R = runTelechat(
      classicTest("MP+rel+acq"),
      Profile::current(CompilerKind::Llvm, OptLevel::O2, Arch::AArch64));
  return R;
}

TEST(JournalTest, WriteReadRoundTrip) {
  std::string Path = tmpJournalPath("roundtrip");
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = genSpec(9, 3);
  std::vector<CampaignConfig> Configs = pipelineConfig();

  JournalWriter W;
  ASSERT_EQ(W.create(Path, Spec, Configs), "");
  for (uint64_t Id : {0ull, 2ull})
    ASSERT_TRUE(W.appendResult(Id, sampleResult()));
  W.close();

  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  EXPECT_FALSE(J->TruncatedTail);
  EXPECT_EQ(J->Spec.K, CampaignSourceSpec::Kind::Generator);
  EXPECT_EQ(J->Spec.Gen.Seed, 9u);
  ASSERT_EQ(J->Configs.size(), 1u);
  EXPECT_EQ(J->Configs[0].P.name(), Configs[0].P.name());
  ASSERT_EQ(J->Results.size(), 2u);
  EXPECT_EQ(J->Results[0].first, 0u);
  EXPECT_EQ(J->Results[1].first, 2u);
  EXPECT_EQ(J->Results[1].second.SourceSim.Allowed,
            sampleResult().SourceSim.Allowed);
}

TEST(JournalTest, TruncatedTailIsDiscardedNotFatal) {
  std::string Path = tmpJournalPath("truncated");
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = genSpec();
  JournalWriter W;
  ASSERT_EQ(W.create(Path, Spec, pipelineConfig()), "");
  ASSERT_TRUE(W.appendResult(0, sampleResult()));
  ASSERT_TRUE(W.appendResult(1, sampleResult()));
  W.close();

  // Chop into the last record: the kill-mid-append shape.
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 3u);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), long(Bytes.size() - 3));
  Out.close();

  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  EXPECT_TRUE(J->TruncatedTail);
  ASSERT_EQ(J->Results.size(), 1u) << "partial record must be discarded";
  EXPECT_EQ(J->Results[0].first, 0u);

  // Resuming a truncated journal must cut the garbage tail before
  // appending: new records landing behind it would shift the framing
  // and corrupt the journal for the *next* resume.
  JournalWriter W2;
  ASSERT_EQ(W2.openAppend(Path, J->ValidBytes), "");
  ASSERT_TRUE(W2.appendResult(1, sampleResult()));
  W2.close();
  ErrorOr<JournalContents> J2 = readJournal(Path);
  ASSERT_TRUE(J2.hasValue()) << J2.error();
  EXPECT_FALSE(J2->TruncatedTail);
  ASSERT_EQ(J2->Results.size(), 2u);
  EXPECT_EQ(J2->Results[1].first, 1u);
}

TEST(JournalTest, DegenerateGeneratorSpecsAreWritableOrRefused) {
  // The writer must never produce a header the reader refuses: stranded
  // results would be unrecoverable. Empty order pools normalise to the
  // relaxed-only spelling RandomTestStream gives them anyway...
  std::string Path = tmpJournalPath("degenerate");
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = genSpec();
  Spec.Gen.LoadOrders.clear();
  JournalWriter W;
  ASSERT_EQ(W.create(Path, Spec, pipelineConfig()), "");
  W.close();
  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  ASSERT_EQ(J->Spec.Gen.LoadOrders.size(), 1u);
  EXPECT_EQ(J->Spec.Gen.LoadOrders[0], MemOrder::Relaxed);
  // ...while pools too large for the wire format are refused up front
  // (normalising them would change the generated stream).
  Spec.Gen.LoadOrders.assign(65, MemOrder::Relaxed);
  EXPECT_NE(W.create(Path, Spec, pipelineConfig()), "");
}

TEST(JournalTest, HostileJournalsAreRejected) {
  std::string Path = tmpJournalPath("hostile");
  auto WriteBytes = [&](const std::vector<uint8_t> &Bytes) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              long(Bytes.size()));
  };
  auto Framed = [](JournalRec Tag, const WireBuffer &Payload) {
    std::vector<uint8_t> Bytes;
    uint32_t Len = uint32_t(Payload.size()) + 1;
    for (size_t I = 0; I != 4; ++I)
      Bytes.push_back(uint8_t(Len >> (8 * I)));
    Bytes.push_back(uint8_t(Tag));
    Bytes.insert(Bytes.end(), Payload.data(),
                 Payload.data() + Payload.size());
    return Bytes;
  };

  // Empty file: no header to resume from.
  WriteBytes({});
  EXPECT_FALSE(readJournal(Path).hasValue());

  // Oversized record length.
  WriteBytes({0xff, 0xff, 0xff, 0xff, 1});
  EXPECT_FALSE(readJournal(Path).hasValue());

  // Bad magic.
  {
    WireBuffer B;
    B.appendU32(0xdeadbeef);
    B.appendU16(JournalVersion);
    WriteBytes(Framed(JournalRec::Header, B));
    EXPECT_FALSE(readJournal(Path).hasValue());
  }

  // Version skew: a journal from the future is refused, not misparsed.
  {
    WireBuffer B;
    B.appendU32(JournalMagic);
    B.appendU16(JournalVersion + 1);
    WriteBytes(Framed(JournalRec::Header, B));
    ErrorOr<JournalContents> J = readJournal(Path);
    ASSERT_FALSE(J.hasValue());
    EXPECT_NE(J.error().find("version mismatch"), std::string::npos);
  }

  // First record is not a header.
  {
    WireBuffer B;
    B.appendU64(0);
    encodeTelechatResult(B, TelechatResult());
    WriteBytes(Framed(JournalRec::Result, B));
    EXPECT_FALSE(readJournal(Path).hasValue());
  }

  // A complete-but-garbage result record behind a valid header is
  // corruption, not a tail to skip.
  {
    CampaignSourceSpec Spec;
    Spec.K = CampaignSourceSpec::Kind::Generator;
    Spec.Gen = genSpec();
    JournalWriter W;
    ASSERT_EQ(W.create(Path, Spec, pipelineConfig()), "");
    W.close();
    std::ifstream In(Path, std::ios::binary);
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    In.close();
    WireBuffer Garbage;
    Garbage.appendU64(0); // id, then truncated result payload
    std::vector<uint8_t> Rec = Framed(JournalRec::Result, Garbage);
    Bytes.insert(Bytes.end(), Rec.begin(), Rec.end());
    WriteBytes(Bytes);
    ErrorOr<JournalContents> J = readJournal(Path);
    ASSERT_FALSE(J.hasValue());
    EXPECT_NE(J.error().find("corrupt result record"), std::string::npos);
  }

  // Unknown record tag.
  {
    CampaignSourceSpec Spec;
    Spec.K = CampaignSourceSpec::Kind::Generator;
    Spec.Gen = genSpec();
    JournalWriter W;
    ASSERT_EQ(W.create(Path, Spec, pipelineConfig()), "");
    W.close();
    std::ifstream In(Path, std::ios::binary);
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    In.close();
    WireBuffer Empty;
    Empty.appendU8(0);
    std::vector<uint8_t> Rec = Framed(JournalRec(9), Empty);
    Bytes.insert(Bytes.end(), Rec.begin(), Rec.end());
    WriteBytes(Bytes);
    EXPECT_FALSE(readJournal(Path).hasValue());
  }
}

//===----------------------------------------------------------------------===//
// Crash-recovery drill
//===----------------------------------------------------------------------===//

TEST(JournalCampaignTest, ResumeReExecutesOnlyIncompleteUnits) {
  RandomGenOptions G = genSpec(21, 4);
  std::vector<CampaignConfig> Configs = pipelineConfig();
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = G;
  Spec.NumConfigs = uint32_t(Configs.size());

  // The uninterrupted reference.
  LocalRun Ref = runStreamedLocal(G, Configs);
  ASSERT_GE(Ref.Results.size(), 3u);
  std::string RefJson = campaignResultsJson(Ref.Meta, Configs, Ref.Results);

  // A journal as a crashed server would leave it: header + the first K
  // accepted results (and nothing about the rest).
  const size_t K = 2;
  std::string Path = tmpJournalPath("resume");
  {
    JournalWriter W;
    ASSERT_EQ(W.create(Path, Spec, Configs), "");
    for (size_t Id = 0; Id != K; ++Id)
      ASSERT_TRUE(W.appendResult(Id, Ref.Results[Id]));
  }

  // Restart: replay the journal, serve only what is incomplete.
  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  ASSERT_EQ(J->Results.size(), K);
  JournalWriter Appender;
  ASSERT_EQ(Appender.openAppend(Path, J->ValidBytes), "");
  WorkServer Server(J->Spec.makeSource(), J->Configs,
                    WorkServerOptions());
  Server.setJournal(&Appender);
  Server.preloadResults(std::move(J->Results));
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", Port, WOpts);
  Srv.join();
  Appender.close();

  // No unit re-executes on the already-merged side...
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_EQ(Report.ReplayedResults, K);
  EXPECT_EQ(Stats->UnitsCompleted, Ref.Results.size() - K);
  // ...and the final report is byte-identical to the uninterrupted run.
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, J->Configs,
                                Report.Results),
            RefJson);

  // The appended journal now holds the whole campaign: resuming again
  // completes with no workers at all.
  ErrorOr<JournalContents> Full = readJournal(Path);
  ASSERT_TRUE(Full.hasValue()) << Full.error();
  EXPECT_EQ(Full->Results.size(), Ref.Results.size());
  WorkServer Idle(Full->Spec.makeSource(), Full->Configs,
                  WorkServerOptions());
  Idle.preloadResults(std::move(Full->Results));
  ASSERT_EQ(Idle.start(), "");
  CampaignReport IdleReport = Idle.run(); // Must return, not block.
  EXPECT_EQ(IdleReport.ReplayedResults, Ref.Results.size());
  EXPECT_EQ(campaignResultsJson(IdleReport.UnitsMeta, Full->Configs,
                                IdleReport.Results),
            RefJson);
}

TEST(LoopbackCampaignTest, FinishesWhenLastWorkerDiesAfterFinalResult) {
  // Regression: completion is "source drained AND everything merged",
  // and only unit pulls drain the source. A client that leases the
  // whole corpus, returns every result, then vanishes without another
  // GetWork must not leave the server polling forever -- the run loop
  // itself has to discover the source is dry.
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  CampaignConfig Config;
  Config.SimulateOnly = true;
  Config.Opts.SourceModel = "rc11";
  WorkServer Server(makeCampaignUnits(Tests), {Config},
                    WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  ErrorOr<TcpSocket> Client = tcpConnect("127.0.0.1", Port, 5.0);
  ASSERT_TRUE(Client.hasValue()) << Client.error();
  {
    ErrorOr<Frame> Ack = rawHello(*Client);
    ASSERT_TRUE(Ack.hasValue()) << Ack.error();
    ASSERT_EQ(Ack->Type, uint8_t(Msg::HelloAck));
    WireBuffer G; // Lease the entire corpus in one batch.
    G.appendU32(uint32_t(Tests.size()));
    ASSERT_TRUE(sendFrame(*Client, uint8_t(Msg::GetWork), G));
    ErrorOr<Frame> Work = recvFrame(*Client);
    ASSERT_TRUE(Work.hasValue()) << Work.error();
    ASSERT_EQ(Work->Type, uint8_t(Msg::Work));
    WireCursor C(Work->Payload);
    uint32_t N = C.readCount(16);
    ASSERT_EQ(N, Tests.size());
    for (uint32_t I = 0; I != N; ++I) {
      CampaignUnit U;
      ASSERT_TRUE(decodeCampaignUnit(C, U));
      WireBuffer R;
      R.appendU64(U.Id);
      encodeTelechatResult(R, runCampaignUnit(U, {Config}));
      ASSERT_TRUE(sendFrame(*Client, uint8_t(Msg::Result), R));
    }
  }
  Client->close(); // ...and never sends another GetWork.

  Srv.join(); // Hangs here if the server cannot finish on its own.
  EXPECT_EQ(Report.Results.size(), Tests.size());
  EXPECT_TRUE(Report.Results[0].SourceSim.ok());
  EXPECT_TRUE(Report.Results[1].SourceSim.ok());
}

//===----------------------------------------------------------------------===//
// Corpus dedupe (canonical duplicates answered by representatives)
//===----------------------------------------------------------------------===//

void dupExpr(Expr &E) {
  if (E.K == Expr::Kind::Reg)
    E.RegName += "_c";
  for (Expr &Op : E.Ops)
    dupExpr(Op);
}

void dupBody(std::vector<Stmt> &Body) {
  for (Stmt &S : Body) {
    if (!S.Dst.empty())
      S.Dst += "_c";
    if (!S.Loc.empty())
      S.Loc += "_c";
    dupExpr(S.Val);
    dupExpr(S.Cond);
    dupBody(S.Then);
    dupBody(S.Else);
  }
}

void dupPred(Predicate &P) {
  if (P.K == Predicate::Kind::Atom) {
    P.A.Name += "_c";
    if (P.A.K == PredAtom::Kind::RegEq)
      P.A.Thread += "_c";
  }
  for (Predicate &Op : P.Ops)
    dupPred(Op);
}

/// A canonical duplicate of \p T: every location, thread and register
/// renamed (and, with \p SwapThreads, the thread order reversed) -- a
/// different test textually, the same test canonically.
LitmusTest renamedDup(const LitmusTest &T, bool SwapThreads) {
  LitmusTest D = T;
  D.Name = T.Name + "-c";
  for (LocDecl &L : D.Locations)
    L.Name += "_c";
  for (Thread &Th : D.Threads) {
    Th.Name += "_c";
    dupBody(Th.Body);
  }
  dupPred(D.Final.P);
  if (SwapThreads)
    std::reverse(D.Threads.begin(), D.Threads.end());
  return D;
}

std::vector<CampaignConfig> simOnlyConfig() {
  CampaignConfig Config;
  Config.SimulateOnly = true;
  Config.Opts.SourceModel = "rc11";
  return {Config};
}

TEST(DedupeCampaignTest, ServedDuplicatesAreSynthesizedNotExecuted) {
  // Corpus: three base tests plus three renamed duplicates (one with
  // its threads reordered). With Dedupe on, the server serves one unit
  // per canonical class and synthesizes each duplicate's result by
  // renaming its representative's -- the worker never sees them.
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB"),
                                   classicTest("LB")};
  Tests.push_back(renamedDup(Tests[0], /*SwapThreads=*/false));
  Tests.push_back(renamedDup(Tests[1], /*SwapThreads=*/true));
  Tests.push_back(renamedDup(Tests[2], /*SwapThreads=*/false));
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);

  // Undeduped reference: every unit executed for real.
  std::vector<TelechatResult> Ref;
  for (const CampaignUnit &U : Units)
    Ref.push_back(runCampaignUnit(U, Configs));

  WorkServerOptions SOpts;
  SOpts.Dedupe = true;
  WorkServer Server(Units, Configs, SOpts);
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", Port, WOpts);
  Srv.join();

  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_EQ(Stats->UnitsCompleted, 3u) << "duplicates must not be served";
  EXPECT_EQ(Report.DedupedUnits, 3u);
  ASSERT_EQ(Report.Results.size(), Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I)
    expectUnitIdentical(Ref[I], Report.Results[I], Tests[I].Name);
}

TEST(DedupeCampaignTest, LocalDedupeJsonByteIdentical) {
  // The local driver's wrapper source: duplicates are skipped during
  // the run and answered afterwards by renaming the representative's
  // result -- and the merged campaign JSON is byte-identical to the
  // run that executed everything.
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  Tests.push_back(renamedDup(Tests[0], /*SwapThreads=*/false));
  Tests.push_back(renamedDup(Tests[1], /*SwapThreads=*/false));
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);

  std::vector<TelechatResult> Undeduped(Units.size());
  {
    VectorUnitSource Source(Units);
    ThreadPool Pool(2);
    runCampaignUnits(Source, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       Undeduped[U.Id] = std::move(R);
                     });
  }

  std::vector<TelechatResult> Deduped(Units.size());
  std::atomic<unsigned> Executed{0};
  VectorUnitSource Source(Units);
  DedupingUnitSource Stream(Source);
  {
    ThreadPool Pool(2);
    runCampaignUnits(Stream, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       ++Executed;
                       Deduped[U.Id] = std::move(R);
                     });
  }
  ASSERT_EQ(Stream.duplicates().size(), 2u);
  for (const DedupingUnitSource::Dup &D : Stream.duplicates())
    Deduped[D.Id] = renameTelechatResult(Deduped[D.RepId], D.Renaming);
  EXPECT_EQ(Executed.load(), 2u);
  EXPECT_EQ(campaignResultsJson(Units, Configs, Deduped),
            campaignResultsJson(Units, Configs, Undeduped));
}

TEST(DedupeCampaignTest, ResumeWithDedupeDoesNotReserveReplayedDuplicates) {
  // The dedupe x journal hazard: a journal may already hold a
  // duplicate's (synthesized) result. On resume that unit must merge
  // as a replay -- not be parked, not be served, not be synthesized a
  // second time -- while duplicates of still-journalled representatives
  // keep synthesizing. The final report stays byte-identical to the
  // uninterrupted undeduped run.
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  Tests.push_back(renamedDup(Tests[0], /*SwapThreads=*/false)); // unit 2
  Tests.push_back(renamedDup(Tests[1], /*SwapThreads=*/false)); // unit 3
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);

  std::vector<TelechatResult> Ref;
  for (const CampaignUnit &U : Units)
    Ref.push_back(runCampaignUnit(U, Configs));
  std::string RefJson = campaignResultsJson(Units, Configs, Ref);

  // A crashed deduping server's journal: the representative (unit 0)
  // and its synthesized duplicate (unit 2); nothing about SB.
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Corpus;
  Spec.Units = Units;
  std::string Path = tmpJournalPath("dedupe_resume");
  {
    JournalWriter W;
    ASSERT_EQ(W.create(Path, Spec, Configs), "");
    ASSERT_TRUE(W.appendResult(0, Ref[0]));
    ASSERT_TRUE(W.appendResult(2, Ref[2]));
  }

  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  JournalWriter Appender;
  ASSERT_EQ(Appender.openAppend(Path, J->ValidBytes), "");
  WorkServerOptions SOpts;
  SOpts.Dedupe = true;
  WorkServer Server(J->Spec.makeSource(), J->Configs, SOpts);
  Server.setJournal(&Appender);
  Server.preloadResults(std::move(J->Results));
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", Port, WOpts);
  Srv.join();
  Appender.close();

  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  // Units 0 and 2 replay from the journal; only unit 1 (SB) is served;
  // unit 3 is synthesized off its completion.
  EXPECT_EQ(Report.ReplayedResults, 2u);
  EXPECT_EQ(Report.DedupedUnits, 1u);
  EXPECT_EQ(Stats->UnitsCompleted, 1u);
  ASSERT_EQ(Report.Results.size(), Units.size());
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, J->Configs,
                                Report.Results),
            RefJson);

  // Synthesized results are journaled too: the journal now covers the
  // whole campaign and a second resume completes with no workers.
  ErrorOr<JournalContents> Full = readJournal(Path);
  ASSERT_TRUE(Full.hasValue()) << Full.error();
  EXPECT_EQ(Full->Results.size(), Units.size());
  WorkServer Idle(Full->Spec.makeSource(), Full->Configs, SOpts);
  Idle.preloadResults(std::move(Full->Results));
  ASSERT_EQ(Idle.start(), "");
  CampaignReport IdleReport = Idle.run(); // Must return, not block.
  EXPECT_EQ(IdleReport.ReplayedResults, Units.size());
  EXPECT_EQ(campaignResultsJson(IdleReport.UnitsMeta, Full->Configs,
                                IdleReport.Results),
            RefJson);
}

TEST(JournalCampaignTest, StaleReplaysAreCountedAndDropped) {
  // A replayed result whose id the stream never produces (journal
  // replayed against the wrong spec) must not corrupt the merge.
  std::vector<CampaignConfig> Configs{{Profile(), TestOptions(), true}};
  Configs[0].Opts.SourceModel = "rc11";
  std::vector<LitmusTest> Tests = {classicTest("MP")};
  WorkServer Server(makeCampaignUnits(Tests), Configs,
                    WorkServerOptions());
  std::vector<std::pair<uint64_t, TelechatResult>> Bogus;
  Bogus.emplace_back(999, TelechatResult());
  Server.preloadResults(std::move(Bogus));
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 1;
  std::thread W([&] { runCampaignWorker("127.0.0.1", Port, WOpts); });
  W.join();
  Srv.join();
  EXPECT_EQ(Report.StaleReplays, 1u);
  ASSERT_EQ(Report.Results.size(), 1u);
  EXPECT_TRUE(Report.Results[0].SourceSim.ok());
}

//===----------------------------------------------------------------------===//
// Lease scheduler tier
//===----------------------------------------------------------------------===//

TEST(LeaseSchedulerTest, LeaseRequeueAndCompletionDiscipline) {
  LeaseScheduler S(64, 120.0);
  for (uint64_t Id = 0; Id != 6; ++Id)
    S.addPending(Id);
  EXPECT_EQ(S.lease(0, 3), (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(S.lease(1, 3), (std::vector<uint64_t>{3, 4, 5}));
  EXPECT_TRUE(S.everLeased(0, 2));
  EXPECT_FALSE(S.everLeased(0, 3));
  EXPECT_EQ(S.outstanding(0), 3u);
  EXPECT_EQ(S.leasedCount(), 6u);

  // Slot 0 dies: its units requeue at the queue FRONT in ascending
  // order, so orphans re-issue in corpus order, ahead of fresh work.
  EXPECT_EQ(S.dropPeer(0).size(), 3u);
  EXPECT_EQ(S.outstanding(0), 0u);
  EXPECT_EQ(S.lease(1, 10), (std::vector<uint64_t>{0, 1, 2}));
  // everLeased survives the drop: the dead peer's in-flight results are
  // still authentic, not fabrications.
  EXPECT_TRUE(S.everLeased(0, 2));

  S.resultDelivered(1, 3);
  S.markCompleted(3);
  EXPECT_TRUE(S.completed(3));
  EXPECT_FALSE(S.completed(4));
  EXPECT_EQ(S.leasedCount(), 5u);
  // A completed id drains out of the queue instead of re-leasing (the
  // requeue-then-straggler-result race).
  S.addPending(3);
  EXPECT_TRUE(S.lease(2, 4).empty());
}

TEST(LeaseSchedulerTest, ExpiredLeasesRequeueFrontAscending) {
  LeaseScheduler S(64, 0.0); // Every lease is instantly overdue.
  for (uint64_t Id = 0; Id != 4; ++Id)
    S.addPending(Id);
  ASSERT_EQ(S.lease(0, 4).size(), 4u);
  // The earliest deadline has already passed: no napping allowed.
  EXPECT_EQ(S.pollTimeoutMs(500), 0);
  EXPECT_EQ(S.expire().size(), 4u);
  EXPECT_EQ(S.leasedCount(), 0u);
  EXPECT_EQ(S.outstanding(0), 0u);
  EXPECT_EQ(S.lease(1, 4), (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(LeaseSchedulerTest, PollTimeoutTracksEarliestLeaseDeadline) {
  LeaseScheduler S(64, 120.0);
  // Nothing leased: the idle tick is the only wakeup needed.
  EXPECT_EQ(S.pollTimeoutMs(500), 500);
  S.addPending(0);
  ASSERT_EQ(S.lease(0, 1).size(), 1u);
  // Deadline ~120s out, clamped to the idle tick...
  EXPECT_EQ(S.pollTimeoutMs(500), 500);
  // ...but with a huge idle budget the deadline itself bounds the nap.
  int Ms = S.pollTimeoutMs(10 * 60 * 1000);
  EXPECT_GT(Ms, 0);
  EXPECT_LE(Ms, 120 * 1000 + 2);
}

TEST(LeaseSchedulerTest, AdaptiveCapSizesToDeliveryRateAndIsExported) {
  // A microscopic backpressure target: one delivered result proves the
  // peer cannot hold even a single unit's worth of it, so its cap must
  // collapse to 1 -- while the FIRST batch is still the full maximum,
  // the property that keeps small campaigns and the kill/stall drills
  // on the old fixed-batch behaviour.
  LeaseScheduler S(8, 120.0, /*TargetLeaseSeconds=*/1e-9);
  for (uint64_t Id = 0; Id != 12; ++Id)
    S.addPending(Id);
  ASSERT_EQ(S.lease(0, 8).size(), 8u);
  S.resultDelivered(0, 0);
  EXPECT_EQ(S.lease(0, 8).size(), 1u);
  LeaseSizing Z = S.sizing();
  EXPECT_EQ(Z.Min, 1u);
  EXPECT_EQ(Z.Max, 8u);
  EXPECT_EQ(Z.Final, 1u);
}

//===----------------------------------------------------------------------===//
// Replaying unit source (journaled local campaigns)
//===----------------------------------------------------------------------===//

TEST(ReplayingCampaignTest, ReplaysAreConsumedSilentlyAndRecorded) {
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB"),
                                   classicTest("LB")};
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
  std::map<uint64_t, TelechatResult> Replay;
  Replay[1] = sampleResult();
  Replay[999] = TelechatResult(); // Stale: no such unit in the stream.
  VectorUnitSource Inner(Units);
  ReplayingUnitSource Source(Inner, std::move(Replay));
  CampaignUnit U;
  std::vector<uint64_t> Served;
  while (Source.next(U))
    Served.push_back(U.Id);
  // The replayed unit never reaches the executor...
  EXPECT_EQ(Served, (std::vector<uint64_t>{0, 2}));
  // ...it is recorded with its meta for the id-keyed merge instead.
  ASSERT_EQ(Source.applied().size(), 1u);
  EXPECT_EQ(Source.applied()[0].Id, 1u);
  EXPECT_EQ(Source.applied()[0].Meta.TestName, Units[1].Test.Name);
  EXPECT_EQ(Source.applied()[0].Result.SourceSim.Allowed,
            sampleResult().SourceSim.Allowed);
  // The leftover entry is a stale replay (wrong spec's journal) until
  // the driver accounts for it (dedupe-swallowed duplicates use
  // forgetReplay the same way).
  EXPECT_EQ(Source.staleReplays(), 1u);
  Source.forgetReplay(999);
  EXPECT_EQ(Source.staleReplays(), 0u);
}

//===----------------------------------------------------------------------===//
// Journal compaction
//===----------------------------------------------------------------------===//

uint64_t fileSize(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  return In ? uint64_t(In.tellg()) : 0;
}

TEST(JournalCompactionTest, SortsDedupesAndDropsTruncatedTail) {
  std::string Path = tmpJournalPath("compact");
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = genSpec(9, 5);
  std::vector<CampaignConfig> Configs = pipelineConfig();
  JournalWriter W;
  ASSERT_EQ(W.create(Path, Spec, Configs), "");
  // Arrival order, with a losing duplicate for id 2.
  ASSERT_TRUE(W.appendResult(2, sampleResult()));
  ASSERT_TRUE(W.appendResult(0, sampleResult()));
  ASSERT_TRUE(W.appendResult(2, TelechatResult())); // First wins.
  ASSERT_TRUE(W.appendResult(1, sampleResult()));
  W.close();
  uint64_t SizeBefore = fileSize(Path);
  { // A torn append: half a length prefix, as a SIGKILL leaves it.
    std::ofstream Out(Path, std::ios::binary | std::ios::app);
    Out.write("\x20\x00", 2);
  }

  ErrorOr<CompactStats> Stats = compactJournal(Path);
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_EQ(Stats->BytesBefore, SizeBefore + 2);
  EXPECT_EQ(Stats->Results, 3u);
  EXPECT_LT(Stats->BytesAfter, Stats->BytesBefore); // Dup + tail gone.
  EXPECT_EQ(fileSize(Path), Stats->BytesAfter);
  // The temporary image was renamed into place, not left behind.
  EXPECT_FALSE(std::ifstream(Path + ".compact").good());

  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  EXPECT_FALSE(J->TruncatedTail);
  EXPECT_EQ(J->Spec.Gen.Seed, 9u);
  ASSERT_EQ(J->Results.size(), 3u);
  for (uint64_t I = 0; I != 3; ++I)
    EXPECT_EQ(J->Results[I].first, I); // Arrival order -> corpus order.
  // The first-written result for id 2 survived compaction, not the
  // empty duplicate.
  EXPECT_EQ(J->Results[2].second.SourceSim.Allowed,
            sampleResult().SourceSim.Allowed);
  EXPECT_FALSE(J->Results[2].second.SourceSim.Allowed.empty());
}

TEST(JournalCompactionTest, CompactionIsIdempotent) {
  std::string Path = tmpJournalPath("compact_twice");
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = genSpec();
  JournalWriter W;
  ASSERT_EQ(W.create(Path, Spec, pipelineConfig()), "");
  ASSERT_TRUE(W.appendResult(1, sampleResult()));
  ASSERT_TRUE(W.appendResult(0, sampleResult()));
  W.close();

  ErrorOr<CompactStats> First = compactJournal(Path);
  ASSERT_TRUE(First.hasValue()) << First.error();
  std::ifstream In1(Path, std::ios::binary);
  std::string Bytes1((std::istreambuf_iterator<char>(In1)),
                     std::istreambuf_iterator<char>());
  In1.close();

  ErrorOr<CompactStats> Second = compactJournal(Path);
  ASSERT_TRUE(Second.hasValue()) << Second.error();
  EXPECT_EQ(Second->BytesBefore, First->BytesAfter);
  EXPECT_EQ(Second->BytesAfter, Second->BytesBefore);
  EXPECT_EQ(Second->Results, 2u);
  std::ifstream In2(Path, std::ios::binary);
  std::string Bytes2((std::istreambuf_iterator<char>(In2)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(Bytes1, Bytes2) << "a compacted journal is a fixed point";
}

TEST(JournalCompactionTest, CompactedJournalResumesByteIdentically) {
  // The acceptance gate: crash -> compact -> resume merges
  // byte-identically to the uninterrupted run.
  RandomGenOptions G = genSpec(21, 4);
  std::vector<CampaignConfig> Configs = pipelineConfig();
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = G;
  Spec.NumConfigs = uint32_t(Configs.size());
  LocalRun Ref = runStreamedLocal(G, Configs);
  ASSERT_GE(Ref.Results.size(), 3u);
  std::string RefJson = campaignResultsJson(Ref.Meta, Configs, Ref.Results);

  // The crash image: results out of arrival order, then a torn append.
  std::string Path = tmpJournalPath("compact_resume");
  {
    JournalWriter W;
    ASSERT_EQ(W.create(Path, Spec, Configs), "");
    ASSERT_TRUE(W.appendResult(2, Ref.Results[2]));
    ASSERT_TRUE(W.appendResult(0, Ref.Results[0]));
  }
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::app);
    Out.write("\x10", 1);
  }
  ErrorOr<CompactStats> Stats = compactJournal(Path);
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_EQ(Stats->Results, 2u);

  // Resume off the compacted image: only the missing units execute.
  ErrorOr<JournalContents> J = readJournal(Path);
  ASSERT_TRUE(J.hasValue()) << J.error();
  EXPECT_FALSE(J->TruncatedTail);
  ASSERT_EQ(J->Results.size(), 2u);
  JournalWriter Appender;
  ASSERT_EQ(Appender.openAppend(Path, J->ValidBytes), "");
  WorkServer Server(J->Spec.makeSource(), J->Configs,
                    WorkServerOptions());
  Server.setJournal(&Appender);
  Server.preloadResults(std::move(J->Results));
  ASSERT_EQ(Server.start(), "");
  uint16_t Port = Server.port();
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  ErrorOr<WorkerRunStats> Stats2 =
      runCampaignWorker("127.0.0.1", Port, WOpts);
  Srv.join();
  Appender.close();
  ASSERT_TRUE(Stats2.hasValue()) << Stats2.error();
  EXPECT_EQ(Report.ReplayedResults, 2u);
  EXPECT_EQ(Stats2->UnitsCompleted, Ref.Results.size() - 2);
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, J->Configs,
                                Report.Results),
            RefJson);

  // Compacting the now-complete journal and replaying it with no
  // workers still reproduces the same bytes.
  ErrorOr<CompactStats> Full = compactJournal(Path);
  ASSERT_TRUE(Full.hasValue()) << Full.error();
  EXPECT_EQ(Full->Results, Ref.Results.size());
  ErrorOr<JournalContents> Whole = readJournal(Path);
  ASSERT_TRUE(Whole.hasValue()) << Whole.error();
  WorkServer Idle(Whole->Spec.makeSource(), Whole->Configs,
                  WorkServerOptions());
  Idle.preloadResults(std::move(Whole->Results));
  ASSERT_EQ(Idle.start(), "");
  CampaignReport IdleReport = Idle.run(); // Must return, not block.
  EXPECT_EQ(IdleReport.ReplayedResults, Ref.Results.size());
  EXPECT_EQ(campaignResultsJson(IdleReport.UnitsMeta, Whole->Configs,
                                IdleReport.Results),
            RefJson);
}

TEST(JournalCompactionTest, HostileJournalsAreRefusedIntact) {
  std::string Path = tmpJournalPath("compact_hostile");

  // Missing file.
  EXPECT_FALSE(compactJournal(Path).hasValue());

  auto WriteBytes = [&](const std::vector<uint8_t> &Bytes) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              long(Bytes.size()));
  };
  auto Framed = [](JournalRec Tag, const WireBuffer &Payload) {
    std::vector<uint8_t> Bytes;
    uint32_t Len = uint32_t(Payload.size()) + 1;
    for (size_t I = 0; I != 4; ++I)
      Bytes.push_back(uint8_t(Len >> (8 * I)));
    Bytes.push_back(uint8_t(Tag));
    Bytes.insert(Bytes.end(), Payload.data(),
                 Payload.data() + Payload.size());
    return Bytes;
  };

  // Empty file: no header to rewrite.
  WriteBytes({});
  EXPECT_FALSE(compactJournal(Path).hasValue());

  // Bad magic.
  {
    WireBuffer B;
    B.appendU32(0xdeadbeef);
    B.appendU16(JournalVersion);
    WriteBytes(Framed(JournalRec::Header, B));
    EXPECT_FALSE(compactJournal(Path).hasValue());
  }

  // A complete-but-garbage result record behind a valid header is
  // corruption: compaction must refuse it AND leave the original bytes
  // untouched -- rewriting a journal it cannot fully read would turn
  // recoverable corruption into silent data loss.
  {
    CampaignSourceSpec Spec;
    Spec.K = CampaignSourceSpec::Kind::Generator;
    Spec.Gen = genSpec();
    JournalWriter W;
    ASSERT_EQ(W.create(Path, Spec, pipelineConfig()), "");
    ASSERT_TRUE(W.appendResult(0, sampleResult()));
    W.close();
    std::ifstream In(Path, std::ios::binary);
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    In.close();
    WireBuffer Garbage;
    Garbage.appendU64(1); // An id, then a truncated result payload.
    std::vector<uint8_t> Rec = Framed(JournalRec::Result, Garbage);
    Bytes.insert(Bytes.end(), Rec.begin(), Rec.end());
    WriteBytes(Bytes);

    ErrorOr<CompactStats> Stats = compactJournal(Path);
    ASSERT_FALSE(Stats.hasValue());
    EXPECT_NE(Stats.error().find("corrupt result record"),
              std::string::npos);
    std::ifstream After(Path, std::ios::binary);
    std::vector<uint8_t> Untouched(
        (std::istreambuf_iterator<char>(After)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(Untouched, Bytes) << "refused compaction must not write";
    EXPECT_FALSE(std::ifstream(Path + ".compact").good());
  }
}

//===----------------------------------------------------------------------===//
// Relay tier
//===----------------------------------------------------------------------===//

TEST(RelayTest, RelayedCampaignMatchesFlatByteForByte) {
  // The tentpole invariant: server -> relay -> workers merges
  // byte-identically to the local streamed run (and therefore to the
  // flat server -> workers topology, which pins itself to the same
  // local bytes in StreamedServedCampaignMatchesLocalStream).
  RandomGenOptions G = genSpec(33, 5);
  std::vector<CampaignConfig> Configs = pipelineConfig();
  LocalRun Local = runStreamedLocal(G, Configs);
  std::string FlatJson =
      campaignResultsJson(Local.Meta, Configs, Local.Results);

  WorkServer Server(
      std::make_unique<GeneratorUnitSource>(G, uint32_t(Configs.size())),
      Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  RelayOptions ROpts;
  ROpts.UpstreamPort = Server.port();
  Relay R(ROpts);
  ASSERT_EQ(R.start(), "");
  RelayReport RReport;
  std::thread Rly([&] { RReport = R.run(); });

  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  WOpts.BatchSize = 2;
  uint16_t RPort = R.port();
  std::thread W1([&] { runCampaignWorker("127.0.0.1", RPort, WOpts); });
  std::thread W2([&] { runCampaignWorker("127.0.0.1", RPort, WOpts); });
  W1.join();
  W2.join();
  Rly.join();
  Srv.join();

  EXPECT_TRUE(Report.Error.empty()) << Report.Error;
  EXPECT_TRUE(RReport.Error.empty()) << RReport.Error;
  ASSERT_EQ(Report.Results.size(), Local.Results.size());
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, Configs,
                                Report.Results),
            FlatJson);
  // Every unit crossed the relay exactly once, both directions.
  EXPECT_EQ(RReport.UnitsRelayed, Local.Results.size());
  EXPECT_EQ(RReport.ResultsForwarded, Local.Results.size());
  EXPECT_EQ(RReport.Workers, 2u);
  EXPECT_GT(RReport.PollWakeups, 0u);
}

TEST(RelayTest, DeadWorkerBehindRelayRequeuesToSiblings) {
  // The tier-local fault model: a worker that leases units through a
  // relay and vanishes must have them re-leased to its siblings behind
  // the SAME relay -- the upstream server never sees the fault.
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB"),
                                   classicTest("LB"), classicTest("IRIW")};
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
  std::vector<TelechatResult> Ref;
  for (const CampaignUnit &U : Units)
    Ref.push_back(runCampaignUnit(U, Configs));
  std::string RefJson = campaignResultsJson(Units, Configs, Ref);

  WorkServer Server(Units, Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  RelayOptions ROpts;
  ROpts.UpstreamPort = Server.port();
  Relay R(ROpts);
  ASSERT_EQ(R.start(), "");
  RelayReport RReport;
  std::thread Rly([&] { RReport = R.run(); });

  // A raw client handshakes, pulls two units, and dies holding them.
  uint32_t Leased = 0;
  {
    ErrorOr<TcpSocket> Client = tcpConnect("127.0.0.1", R.port(), 5.0);
    ASSERT_TRUE(Client.hasValue()) << Client.error();
    ErrorOr<Frame> Ack = rawHello(*Client);
    ASSERT_TRUE(Ack.hasValue()) << Ack.error();
    ASSERT_EQ(Ack->Type, uint8_t(Msg::HelloAck));
    {
      // The relay replays the root server's ack verbatim: same
      // version, same planned total.
      WireCursor C(Ack->Payload);
      EXPECT_EQ(C.readU16(), WireVersion);
      EXPECT_EQ(C.readU64(), Units.size());
    }
    // The relay's first answers are Wait frames while it pulls from
    // upstream; keep asking until units arrive.
    for (int Tries = 0; Tries != 1000 && Leased == 0; ++Tries) {
      WireBuffer G;
      G.appendU32(2);
      ASSERT_TRUE(sendFrame(*Client, uint8_t(Msg::GetWork), G));
      ErrorOr<Frame> Reply = recvFrame(*Client);
      ASSERT_TRUE(Reply.hasValue()) << Reply.error();
      if (Reply->Type == uint8_t(Msg::Wait)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      ASSERT_EQ(Reply->Type, uint8_t(Msg::Work));
      WireCursor C(Reply->Payload);
      Leased = C.readCount(16);
      ASSERT_TRUE(C.ok());
    }
    ASSERT_GT(Leased, 0u);
    Client->close(); // ...without returning a single result.
  }

  // A real worker finishes the whole campaign through the relay.
  WorkerOptions WOpts;
  WOpts.Jobs = 2;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", R.port(), WOpts);
  Rly.join();
  Srv.join();

  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_TRUE(Stats->CleanDone);
  EXPECT_TRUE(RReport.Error.empty()) << RReport.Error;
  EXPECT_GE(RReport.Requeues, Leased); // The died-holding-units fault.
  EXPECT_EQ(Report.Requeues, 0u) << "the fault must stay behind the relay";
  ASSERT_EQ(Report.Results.size(), Units.size());
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, Configs,
                                Report.Results),
            RefJson);
}

TEST(RelayTest, RefusesWhenUpstreamIsAbsent) {
  RelayOptions ROpts;
  ROpts.UpstreamPort = 1; // Reserved port: nothing listens there.
  ROpts.ConnectRetrySeconds = 0.0;
  Relay R(ROpts);
  std::string Err = R.start();
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("upstream connect"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Hostile peers, against both downstream roles
//===----------------------------------------------------------------------===//

/// One protocol violation a raw client commits against a server or a
/// relay.
struct HostileInput {
  const char *Name;
  bool Handshake;             ///< Complete a valid Hello first.
  std::vector<uint8_t> Bytes; ///< Then send these, in one write.
};

void PrintTo(const HostileInput &In, std::ostream *OS) { *OS << In.Name; }

/// [u32 length][u8 type][payload], exactly as sendFrame lays it out.
std::vector<uint8_t> rawFrame(uint8_t Type, const WireBuffer &Payload) {
  uint32_t Len = uint32_t(Payload.size()) + 1;
  std::vector<uint8_t> Out;
  for (size_t I = 0; I != 4; ++I)
    Out.push_back(uint8_t(Len >> (8 * I)));
  Out.push_back(Type);
  Out.insert(Out.end(), Payload.data(), Payload.data() + Payload.size());
  return Out;
}

WireBuffer resultFor(uint64_t Id) {
  WireBuffer B;
  B.appendU64(Id);
  encodeTelechatResult(B, TelechatResult());
  return B;
}

std::vector<HostileInput> hostileInputs() {
  WireBuffer Empty, Short;
  Short.appendU16(2); // GetWork wants a u32.
  uint32_t Huge = MaxFramePayload + 2;
  return {
      {"GetWorkBeforeHello", false, rawFrame(uint8_t(Msg::GetWork), Empty)},
      {"BadMagic", false,
       rawFrame(uint8_t(Msg::Hello), helloPayload(WireVersion, 0xBADC0DE))},
      {"FutureVersion", false,
       rawFrame(uint8_t(Msg::Hello), helloPayload(WireVersion + 1))},
      {"ShortGetWork", true, rawFrame(uint8_t(Msg::GetWork), Short)},
      {"ResultNeverLeasedInRange", true,
       rawFrame(uint8_t(Msg::Result), resultFor(0))},
      {"ResultNeverLeasedOutOfRange", true,
       rawFrame(uint8_t(Msg::Result), resultFor(uint64_t(1) << 40))},
      {"UnknownMessageType", true, rawFrame(99, Empty)},
      {"ZeroLengthPrefix", false, {0, 0, 0, 0}},
      {"OversizedLengthPrefix", false,
       {uint8_t(Huge), uint8_t(Huge >> 8), uint8_t(Huge >> 16),
        uint8_t(Huge >> 24), uint8_t(Msg::GetWork)}},
  };
}

/// True when \p S has data (or EOF) to read within five seconds, so a
/// role that ignores a violation fails the case instead of hanging it.
bool readableSoon(TcpSocket &S) {
  pollfd PF{S.fd(), POLLIN, 0};
  return poll(&PF, 1, 5000) == 1;
}

/// Commits \p In on a fresh connection to \p Port. Empty when the role
/// answered with Error and closed the connection; otherwise what it did
/// instead.
std::string commitViolation(uint16_t Port, const HostileInput &In) {
  ErrorOr<TcpSocket> S = tcpConnect("127.0.0.1", Port, 5.0);
  if (!S)
    return "connect: " + S.error();
  if (In.Handshake) {
    ErrorOr<Frame> Ack = rawHello(*S);
    if (!Ack || Ack->Type != uint8_t(Msg::HelloAck))
      return "valid Hello refused";
  }
  if (!S->sendAll(In.Bytes.data(), In.Bytes.size()))
    return "send failed";
  if (!readableSoon(*S))
    return "no reply";
  ErrorOr<Frame> Reply = recvFrame(*S);
  if (!Reply)
    return "reply: " + Reply.error();
  if (Reply->Type != uint8_t(Msg::Error))
    return "reply of type " + std::to_string(Reply->Type) + ", not Error";
  uint8_t Byte;
  if (!readableSoon(*S) || S->recvSome(&Byte, 1) > 0)
    return "connection left open after Error";
  return "";
}

/// Parameter: (through a relay?, the violation).
class HostilePeerTest
    : public testing::TestWithParam<std::tuple<bool, HostileInput>> {};

TEST_P(HostilePeerTest, ErrorsOutThePeerAndTheCampaignStillFinishes) {
  const auto &[ViaRelay, In] = GetParam();
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  std::vector<CampaignUnit> Units = makeCampaignUnits(Tests);
  std::vector<TelechatResult> Ref;
  for (const CampaignUnit &U : Units)
    Ref.push_back(runCampaignUnit(U, Configs));

  WorkServer Server(Units, Configs, WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });
  std::unique_ptr<Relay> R;
  RelayReport RReport;
  std::thread Rly;
  uint16_t Port = Server.port();
  if (ViaRelay) {
    RelayOptions ROpts;
    ROpts.UpstreamPort = Server.port();
    R = std::make_unique<Relay>(ROpts);
    ASSERT_EQ(R->start(), "");
    Port = R->port();
    Rly = std::thread([&] { RReport = R->run(); });
  }

  EXPECT_EQ(commitViolation(Port, In), "");

  // The violation cost one connection, not the campaign.
  WorkerOptions WOpts;
  WOpts.Jobs = 1;
  ErrorOr<WorkerRunStats> Stats = runCampaignWorker("127.0.0.1", Port, WOpts);
  if (Rly.joinable())
    Rly.join();
  Srv.join();
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_TRUE(Stats->CleanDone);
  EXPECT_TRUE(RReport.Error.empty()) << RReport.Error;
  EXPECT_EQ(campaignResultsJson(Report.UnitsMeta, Configs, Report.Results),
            campaignResultsJson(Units, Configs, Ref));
}

INSTANTIATE_TEST_SUITE_P(
    Roles, HostilePeerTest,
    testing::Combine(testing::Bool(), testing::ValuesIn(hostileInputs())),
    [](const testing::TestParamInfo<HostilePeerTest::ParamType> &Info) {
      return std::string(std::get<0>(Info.param) ? "Relay_" : "Server_") +
             std::get<1>(Info.param).Name;
    });

//===----------------------------------------------------------------------===//
// Live status endpoint
//===----------------------------------------------------------------------===//

std::string httpGet(uint16_t Port, const std::string &Target) {
  ErrorOr<TcpSocket> S = tcpConnect("127.0.0.1", Port, 5.0);
  if (!S)
    return "connect failed: " + S.error();
  std::string Req = "GET " + Target + " HTTP/1.0\r\n\r\n";
  if (!S->sendAll(Req.data(), Req.size()))
    return "send failed";
  std::string Reply;
  char Buf[4096];
  long N;
  while ((N = S->recvSome(Buf, sizeof(Buf))) > 0)
    Reply.append(Buf, size_t(N));
  return Reply;
}

TEST(StatusEndpointTest, ServerExportsLiveJsonOverHttp) {
  std::vector<LitmusTest> Tests = {classicTest("MP"), classicTest("SB")};
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  WorkServerOptions SOpts;
  SOpts.StatusPort = 0; // Ephemeral.
  WorkServer Server(makeCampaignUnits(Tests), Configs, SOpts);
  ASSERT_EQ(Server.start(), "");
  uint16_t SPort = Server.statusPort();
  ASSERT_NE(SPort, 0);
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  std::string Reply = httpGet(SPort, "/status");
  EXPECT_NE(Reply.find("200 OK"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("application/json"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("\"role\": \"server\""), std::string::npos)
      << Reply;
  EXPECT_NE(Reply.find("\"planned\": 2"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("\"completed\": 0"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("\"lease_size_min\": "), std::string::npos);
  EXPECT_NE(Reply.find("\"poll_wakeups\": "), std::string::npos);
  EXPECT_NE(Reply.find("\"workers\": ["), std::string::npos);
  // Unknown target: a 404, not a hang, a crash, or a served campaign.
  EXPECT_NE(httpGet(SPort, "/nope").find("404"), std::string::npos);

  // Status traffic must not perturb the campaign itself.
  WorkerOptions WOpts;
  WOpts.Jobs = 1;
  ErrorOr<WorkerRunStats> Stats =
      runCampaignWorker("127.0.0.1", Server.port(), WOpts);
  Srv.join();
  ASSERT_TRUE(Stats.hasValue()) << Stats.error();
  EXPECT_EQ(Report.Results.size(), Tests.size());
}

TEST(StatusEndpointTest, RelayExportsItsOwnRole) {
  std::vector<LitmusTest> Tests = {classicTest("MP")};
  std::vector<CampaignConfig> Configs = simOnlyConfig();
  WorkServer Server(makeCampaignUnits(Tests), Configs,
                    WorkServerOptions());
  ASSERT_EQ(Server.start(), "");
  CampaignReport Report;
  std::thread Srv([&] { Report = Server.run(); });

  RelayOptions ROpts;
  ROpts.UpstreamPort = Server.port();
  ROpts.StatusPort = 0;
  Relay R(ROpts);
  ASSERT_EQ(R.start(), "");
  ASSERT_NE(R.statusPort(), 0);
  RelayReport RReport;
  std::thread Rly([&] { RReport = R.run(); });

  std::string Reply = httpGet(R.statusPort(), "/status");
  EXPECT_NE(Reply.find("200 OK"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("\"role\": \"relay\""), std::string::npos)
      << Reply;
  EXPECT_NE(Reply.find("\"planned\": 1"), std::string::npos) << Reply;

  WorkerOptions WOpts;
  WOpts.Jobs = 1;
  runCampaignWorker("127.0.0.1", R.port(), WOpts);
  Rly.join();
  Srv.join();
  EXPECT_TRUE(RReport.Error.empty()) << RReport.Error;
  EXPECT_EQ(Report.Results.size(), Tests.size());
}

//===----------------------------------------------------------------------===//
// Kernel-snippet directory corpus (--kernels)
//===----------------------------------------------------------------------===//

TEST(KernelCorpusTest, DirectoryReadsSortedSkipsDotfilesNamesErrors) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(testing::TempDir()) / "telechat_kernels";
  fs::remove_all(Dir);
  fs::create_directories(Dir / "sub"); // Subdirectories are skipped.
  auto WriteFile = [&](const std::string &Name, const std::string &Text) {
    std::ofstream Out(Dir / Name);
    Out << Text;
  };
  const char *MP = R"(kernel mp_rel_acq
std::atomic<int> flag = 0;
std::atomic<int> data = 0;
thread P0 {
  data.store(1, std::memory_order_relaxed);
  flag.store(1, std::memory_order_release);
}
thread P1 {
  int r0 = flag.load(std::memory_order_acquire);
  int r1 = data.load(std::memory_order_relaxed);
}
exists (P1:r0=1 && P1:r1=0)
)";
  const char *SB = R"(kernel store_buffer
std::atomic<int> x = 0;
std::atomic<int> y = 0;
thread P0 {
  x.store(1, std::memory_order_relaxed);
  int r0 = y.load(std::memory_order_relaxed);
}
thread P1 {
  y.store(1, std::memory_order_relaxed);
  int r1 = x.load(std::memory_order_relaxed);
}
exists (P0:r0=0 && P1:r1=0)
)";
  // Written in reverse of their lexicographic order on purpose.
  WriteFile("b_sb.cpp", SB);
  WriteFile("a_mp.cpp", MP);
  WriteFile(".hidden", "not a kernel at all");

  ErrorOr<std::vector<LitmusTest>> Tests =
      readKernelDirectory(Dir.string());
  ASSERT_TRUE(Tests.hasValue()) << Tests.error();
  ASSERT_EQ(Tests->size(), 2u);
  // Filename order, not directory or mtime order: the corpus -- and
  // therefore every campaign unit id over it -- is stable.
  EXPECT_EQ((*Tests)[0].Name, "mp_rel_acq");
  EXPECT_EQ((*Tests)[1].Name, "store_buffer");
  EXPECT_EQ((*Tests)[0].Threads.size(), 2u);

  // A parse error names the offending file.
  WriteFile("c_bad.cpp", "kernel oops\nthis is not a kernel\n");
  ErrorOr<std::vector<LitmusTest>> Bad =
      readKernelDirectory(Dir.string());
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().find("c_bad.cpp"), std::string::npos)
      << Bad.error();

  // Not-a-directory and empty-directory are errors, not empty corpora
  // (an empty campaign from a typo'd path would look like success).
  EXPECT_FALSE(readKernelDirectory((Dir / "nope").string()).hasValue());
  EXPECT_FALSE(readKernelDirectory((Dir / "sub").string()).hasValue());
}

} // namespace
