//===--- Worker.cpp - Distributed campaign worker -------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/Worker.h"

#include "core/Campaign.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"
#include "dist/Socket.h"
#include "dist/Wire.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

using namespace telechat;

int telechat::workerToolMain(int argc, char **argv, void (*Usage)()) {
  if (argc < 3) {
    Usage();
    return 1;
  }
  std::string Host;
  uint16_t Port = 0;
  if (!splitHostPort(argv[2], Host, Port)) {
    fprintf(stderr, "error: --work expects <host:port>\n");
    return 1;
  }
  WorkerOptions Opts;
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if ((Arg == "-j" || Arg == "--jobs") && V) {
      if (!parseFlag(Arg, argv[++I], Opts.Jobs))
        return 1;
    } else if (Arg == "--batch" && V) {
      if (!parseFlag(Arg, argv[++I], Opts.BatchSize))
        return 1;
    } else if (Arg == "--max-units" && V) {
      if (!parseFlag(Arg, argv[++I], Opts.KillAfterResults))
        return 1;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      Usage();
      return 1;
    }
  }
  ErrorOr<WorkerRunStats> Stats = runCampaignWorker(Host, Port, Opts);
  if (!Stats) {
    fprintf(stderr, "error: %s\n", Stats.error().c_str());
    return 1;
  }
  printf("worker done: %llu units in %llu batches (%s)\n",
         static_cast<unsigned long long>(Stats->UnitsCompleted),
         static_cast<unsigned long long>(Stats->Batches),
         Stats->CleanDone ? "campaign complete"
         : Stats->Killed  ? "killed by --max-units"
                          : "server disconnected");
  return 0;
}

bool telechat::splitHostPort(const std::string &HostPort, std::string &Host,
                             uint16_t &Port) {
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos || Colon == 0)
    return false;
  char *End = nullptr;
  unsigned long P = strtoul(HostPort.c_str() + Colon + 1, &End, 10);
  if (End == HostPort.c_str() + Colon + 1 || *End != '\0' || P == 0 ||
      P > 65535)
    return false;
  Host = HostPort.substr(0, Colon);
  Port = uint16_t(P);
  return true;
}

ErrorOr<WorkerLink> telechat::openWorkerLink(const std::string &Host,
                                             uint16_t Port,
                                             double RetrySeconds,
                                             uint32_t Jobs) {
  ErrorOr<TcpSocket> Connected = tcpConnect(Host, Port, RetrySeconds);
  if (!Connected)
    return makeError("connect: " + Connected.error());
  WorkerLink L;
  L.Sock = std::move(*Connected);
  WireBuffer B;
  B.appendU32(WireMagic);
  B.appendU16(WireVersion);
  B.appendU32(Jobs);
  if (!sendFrame(L.Sock, uint8_t(Msg::Hello), B))
    return makeError("handshake send failed");
  ErrorOr<Frame> F = recvFrame(L.Sock);
  if (!F)
    return makeError("handshake: " + F.error());
  WireCursor C(F->Payload);
  if (F->Type == uint8_t(Msg::Error))
    return makeError("server refused: " + C.readString());
  if (F->Type != uint8_t(Msg::HelloAck))
    return makeError("handshake: unexpected reply");
  uint16_t Version = C.readU16();
  L.Planned = C.readU64();
  L.Configs.resize(C.readCount(8));
  for (CampaignConfig &Config : L.Configs)
    if (!decodeCampaignConfig(C, Config))
      return makeError("handshake: bad config table");
  if (!C.ok() || Version != WireVersion)
    return makeError("handshake: bad HelloAck");
  L.AckPayload = std::move(F->Payload);
  return L;
}

std::chrono::milliseconds telechat::waitDelay(const Frame &Wait) {
  WireCursor C(Wait.Payload);
  uint32_t RetryMs = C.readU32();
  return std::chrono::milliseconds(C.ok() && RetryMs ? RetryMs : 50);
}

ErrorOr<WorkerRunStats>
telechat::runCampaignWorker(const std::string &Host, uint16_t Port,
                            const WorkerOptions &Options) {
  ErrorOr<WorkerLink> Link = openWorkerLink(
      Host, Port, Options.ConnectRetrySeconds, resolveJobs(Options.Jobs));
  if (!Link)
    return makeError(Link.error());
  TcpSocket &Sock = Link->Sock;
  const std::vector<CampaignConfig> &Configs = Link->Configs;
  if (Options.Verbose)
    // Planned size only: a generative server may stream fewer (the Done
    // frame carries the final count).
    fprintf(stderr, "[work] joined %s:%u: %llu planned units, %zu configs\n",
            Host.c_str(), unsigned(Port),
            static_cast<unsigned long long>(Link->Planned), Configs.size());

  ThreadPool Pool(resolveJobs(Options.Jobs));
  unsigned Batch = Options.BatchSize ? Options.BatchSize : 2 * Pool.size();
  WorkerRunStats Stats;
  std::mutex SendM; // Result frames come from pool threads.
  bool KillTripped = false;
  bool SendFailed = false; // Server gone mid-batch: stop wasting compute.

  while (true) {
    {
      WireBuffer B;
      B.appendU32(Batch);
      if (!sendFrame(Sock, uint8_t(Msg::GetWork), B))
        return Stats; // Server gone; leases re-issue without us.
    }
    ErrorOr<Frame> F = recvFrame(Sock);
    if (!F)
      return Stats; // Disconnect while idle: campaign over or server died.
    if (F->Type == uint8_t(Msg::Done)) {
      Stats.CleanDone = true;
      return Stats;
    }
    if (F->Type == uint8_t(Msg::Wait)) {
      std::this_thread::sleep_for(waitDelay(*F));
      continue;
    }
    if (F->Type == uint8_t(Msg::Error)) {
      WireCursor C(F->Payload);
      return makeError("server error: " + C.readString());
    }
    if (F->Type != uint8_t(Msg::Work))
      return makeError(strFormat("unexpected message type %u",
                                 unsigned(F->Type)));

    WireCursor C(F->Payload);
    uint32_t N = C.readCount(16);
    std::vector<CampaignUnit> Units(N);
    for (CampaignUnit &U : Units)
      if (!decodeCampaignUnit(C, U))
        return makeError("malformed Work frame");
    if (!C.ok())
      return makeError("malformed Work frame");
    ++Stats.Batches;

    // Execute the batch through the shared unit executor; results are
    // streamed back the moment each unit finishes so the server's lease
    // clock measures one unit, not one batch.
    VectorUnitSource Source(std::move(Units));
    runCampaignUnits(Source, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       std::lock_guard<std::mutex> Lock(SendM);
                       if (KillTripped || SendFailed)
                         return; // Dead connection: swallow the rest.
                       if (Options.KillAfterResults &&
                           Stats.UnitsCompleted >= Options.KillAfterResults) {
                         KillTripped = true;
                         Sock.close(); // Abrupt: simulates a dead worker.
                         return;
                       }
                       WireBuffer B;
                       B.appendU64(U.Id);
                       encodeTelechatResult(B, R);
                       if (B.size() >= MaxFramePayload) {
                         // sendFrame would refuse it and the server
                         // would requeue the unit forever; ship a
                         // diagnostic the campaign report can surface
                         // instead.
                         TelechatResult Stub;
                         Stub.Error = strFormat(
                             "unit %llu: serialized result exceeds the "
                             "%u MiB frame limit",
                             static_cast<unsigned long long>(U.Id),
                             MaxFramePayload >> 20);
                         B.clear();
                         B.appendU64(U.Id);
                         encodeTelechatResult(B, Stub);
                       }
                       if (sendFrame(Sock, uint8_t(Msg::Result), B))
                         ++Stats.UnitsCompleted;
                       else
                         SendFailed = true; // Leases re-issue without us.
                     });
    if (KillTripped) {
      Stats.Killed = true;
      return Stats;
    }
    if (SendFailed)
      return Stats;
    if (Options.Verbose)
      fprintf(stderr, "[work] batch of %u done (%llu total)\n", N,
              static_cast<unsigned long long>(Stats.UnitsCompleted));
  }
}
