//===--- Relay.cpp - Tier coordinator of the campaign service -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// Downstream, the relay is a LeaseFront (LeaseFront.h) like the
// server; this file is the upstream link that feeds it, riding the
// front's poll loop as an aux fd. Unit and result payloads cross the
// relay byte-verbatim; the only decoding is bounds-checked validation,
// so nothing downstream can make the relay ship a frame upstream that
// the server would kill it for.
//
//===----------------------------------------------------------------------===//

#include "dist/Relay.h"

#include "dist/CampaignJson.h"
#include "dist/LeaseFront.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"
#include "dist/Worker.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

using namespace telechat;

using Clock = std::chrono::steady_clock;

struct Relay::Impl : LeaseFront::Supply, LeaseFront::Sink {
  RelayOptions Opts;
  LeaseFront Front;
  LeaseScheduler &Sched;

  // Upstream link: the relay is a worker here.
  TcpSocket Up;
  FrameSplitter UpFrames;
  /// The upstream HelloAck payload, replayed byte-verbatim to every
  /// downstream worker: the config table must cross the relay unchanged
  /// or results would stop being comparable across topologies.
  std::vector<uint8_t> HelloAckPayload;
  uint64_t UpstreamPlanned = 0;
  bool UpstreamDone = false;
  uint64_t FinalCount = 0;
  /// One GetWork in flight at a time: the upstream answers requests in
  /// order, so a second request before the first answer only buys
  /// double-buffering the queue watermark already provides.
  bool RequestInFlight = false;
  Clock::time_point UpstreamRetryAt; ///< Earliest next GetWork (Wait).

  /// Unit id -> the unit's encoded bytes exactly as the upstream Work
  /// frame carried them; spliced verbatim into downstream Work frames.
  std::map<uint64_t, std::vector<uint8_t>> LiveRaw;
  RelayReport Report;

  explicit Impl(RelayOptions O)
      : Opts(std::move(O)),
        Front("relay", "relay", *this, *this, Opts.MaxUnitsPerRequest,
              Opts.LeaseTimeoutSeconds, Opts.WaitRetryMs, Opts.Verbose),
        Sched(Front.scheduler()) {}

  void fatal(const std::string &Reason);
  void maybeRequestUpstream();
  void handleUpstreamFrame(const Frame &F);
  void readUpstream();
  std::string start();
  RelayReport run();

  // LeaseFront::Supply.
  void appendHelloAck(WireBuffer &B) override {
    // The upstream ack, byte-verbatim: version, planned total and config
    // table exactly as the root server stated them.
    B.appendBytes(HelloAckPayload.data(), HelloAckPayload.size());
  }
  void topUp(uint32_t) override { maybeRequestUpstream(); }
  void appendUnit(WireBuffer &B, uint64_t Id) override {
    const std::vector<uint8_t> &Raw = LiveRaw.at(Id);
    B.appendBytes(Raw.data(), Raw.size());
  }
  bool finished() const override { return UpstreamDone; }
  uint64_t finalCount() const override { return FinalCount; }
  int upkeep(int TimeoutMs) override;
  void fillStatus(ServiceStatus &S) const override {
    S.Planned = UpstreamPlanned;
    S.Generated = Report.UnitsRelayed;
    S.Completed = Report.ResultsForwarded;
  }
  void collectFds(std::vector<pollfd> &Fds) override {
    if (Up.valid())
      Fds.push_back(pollfd{Up.fd(), POLLIN, 0});
  }
  void onReady(const pollfd &PF) override {
    if (Up.valid() && PF.fd == Up.fd())
      readUpstream();
  }

  // LeaseFront::Sink.
  bool accept(uint64_t Id, TelechatResult,
              const std::vector<uint8_t> &Payload) override;
};

void Relay::Impl::fatal(const std::string &Reason) {
  if (Report.Error.empty())
    Report.Error = Reason;
  Front.log("fatal: %s", Reason.c_str());
  Up.close();
  Front.stop();
}

void Relay::Impl::maybeRequestUpstream() {
  if (!Up.valid() || UpstreamDone || RequestInFlight)
    return;
  // No workers, no prefetch: units pulled early would sit here eating
  // their upstream lease while some other relay's workers starve.
  if (!Front.anyWorker())
    return;
  if (Sched.pendingCount() >= Front.maxUnitsPerRequest())
    return;
  if (Clock::now() < UpstreamRetryAt)
    return;
  WireBuffer B;
  B.appendU32(Front.maxUnitsPerRequest());
  if (!sendFrame(Up, uint8_t(Msg::GetWork), B)) {
    fatal("upstream disconnected (GetWork send failed)");
    return;
  }
  RequestInFlight = true;
}

void Relay::Impl::handleUpstreamFrame(const Frame &F) {
  switch (Msg(F.Type)) {
  case Msg::Work: {
    RequestInFlight = false;
    WireCursor C(F.Payload);
    uint32_t N = C.readCount(16);
    for (uint32_t I = 0; I != N; ++I) {
      size_t Before = C.remaining();
      CampaignUnit U; // Decoded for the id and as validation only.
      if (!decodeCampaignUnit(C, U) || !C.ok()) {
        fatal("malformed upstream Work frame");
        return;
      }
      size_t Off = F.Payload.size() - Before;
      size_t Len = Before - C.remaining();
      LiveRaw.emplace(U.Id,
                      std::vector<uint8_t>(F.Payload.begin() + Off,
                                           F.Payload.begin() + Off + Len));
      Sched.addPending(U.Id);
      ++Report.UnitsRelayed;
    }
    Front.log("pulled %u units from upstream (%llu total)", N,
              static_cast<unsigned long long>(Report.UnitsRelayed));
    return;
  }
  case Msg::Wait:
    RequestInFlight = false;
    UpstreamRetryAt = Clock::now() + waitDelay(F);
    return;
  case Msg::Done: {
    RequestInFlight = false;
    WireCursor C(F.Payload);
    FinalCount = C.readU64();
    UpstreamDone = true;
    Front.log("upstream done: %llu units total",
              static_cast<unsigned long long>(FinalCount));
    return;
  }
  case Msg::Error: {
    WireCursor C(F.Payload);
    fatal("upstream error: " + C.readString());
    return;
  }
  default:
    fatal(strFormat("unexpected upstream message type %u",
                    unsigned(F.Type)));
  }
}

void Relay::Impl::readUpstream() {
  uint8_t Buf[64 * 1024];
  long N = Up.recvSome(Buf, sizeof(Buf));
  if (N <= 0) {
    // EOF after Done is the server hanging up on a finished campaign;
    // before Done it means the campaign root died under us.
    if (!UpstreamDone)
      fatal("upstream disconnected mid-campaign");
    else
      Up.close();
    return;
  }
  UpFrames.feed(Buf, size_t(N));
  Frame F;
  while (Up.valid() && UpFrames.pop(F)) {
    handleUpstreamFrame(F);
    if (UpstreamDone)
      break;
  }
  if (Up.valid() && UpFrames.corrupted())
    fatal("corrupt upstream frame stream");
}

int Relay::Impl::upkeep(int TimeoutMs) {
  maybeRequestUpstream();
  if (Up.valid() && !UpstreamDone && !RequestInFlight) {
    // Also wake when the upstream Wait hint elapses, or a queue of
    // napping workers would stay empty until the idle tick.
    double Left =
        std::chrono::duration<double>(UpstreamRetryAt - Clock::now())
            .count();
    if (Left > 0.0)
      TimeoutMs =
          int(std::min(std::ceil(Left * 1e3) + 1.0, double(TimeoutMs)));
  }
  return TimeoutMs;
}

bool Relay::Impl::accept(uint64_t Id, TelechatResult,
                         const std::vector<uint8_t> &Payload) {
  // The front decoded the result as validation only: the payload
  // crosses byte-verbatim.
  WireBuffer B;
  B.appendBytes(Payload.data(), Payload.size());
  if (!sendFrame(Up, uint8_t(Msg::Result), B)) {
    fatal("upstream disconnected (Result send failed)");
    return false;
  }
  LiveRaw.erase(Id);
  ++Report.ResultsForwarded;
  return true;
}

std::string Relay::Impl::start() {
  // Handshake upstream as a worker. Jobs=0: the relay's own pool width
  // is "whatever joins downstream", unknown at handshake time.
  ErrorOr<WorkerLink> Link = openWorkerLink(
      Opts.UpstreamHost, Opts.UpstreamPort, Opts.ConnectRetrySeconds, 0);
  if (!Link)
    return "upstream " + Link.error();
  Up = std::move(Link->Sock);
  Up.setSendTimeout(30.0);
  UpstreamPlanned = Link->Planned;
  HelloAckPayload = std::move(Link->AckPayload);
  return Front.listen(Opts.ListenPort, Opts.BindAddress, Opts.StatusPort);
}

RelayReport Relay::Impl::run() {
  Front.run();
  Up.close();
  Report.Requeues = Front.Requeues;
  Report.DuplicateResults = Front.DuplicateResults;
  Report.PollWakeups = Front.PollWakeups;
  Report.Sizing = Sched.sizing();
  Report.Workers = Front.Workers.size();
  Report.Seconds = Front.Seconds;
  Front.log("relay done: %llu units, %llu results forwarded, %llu "
            "requeues, %llu duplicates, %llu wakeups",
            static_cast<unsigned long long>(Report.UnitsRelayed),
            static_cast<unsigned long long>(Report.ResultsForwarded),
            static_cast<unsigned long long>(Report.Requeues),
            static_cast<unsigned long long>(Report.DuplicateResults),
            static_cast<unsigned long long>(Report.PollWakeups));
  return std::move(Report);
}

Relay::Relay(RelayOptions Options) : P(new Impl(std::move(Options))) {}

Relay::~Relay() { delete P; }

std::string Relay::start() { return P->start(); }

uint16_t Relay::port() const { return P->Front.port(); }

uint16_t Relay::statusPort() const { return P->Front.statusPort(); }

RelayReport Relay::run() { return P->run(); }

int telechat::relayToolMain(int argc, char **argv, void (*Usage)()) {
  if (argc < 4) {
    Usage();
    return 1;
  }
  RelayOptions Opts;
  if (!parseFlag(argv[1], argv[2], Opts.ListenPort))
    return 1;
  if (!splitHostPort(argv[3], Opts.UpstreamHost, Opts.UpstreamPort)) {
    fprintf(stderr, "error: --relay expects <listen-port> <host:port>\n");
    return 1;
  }
  for (int I = 4; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (Arg == "--bind" && V) {
      ++I;
      Opts.BindAddress = V;
    } else if (Arg == "--batch" && V) {
      if (!parseFlag(Arg, argv[++I], Opts.MaxUnitsPerRequest))
        return 1;
    } else if (Arg == "--lease-timeout" && V) {
      if (!parseFlag(Arg, argv[++I], Opts.LeaseTimeoutSeconds))
        return 1;
    } else if (Arg == "--status-port" && V) {
      if (!parseFlag(Arg, argv[++I], Opts.StatusPort, 65535))
        return 1;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      Usage();
      return 1;
    }
  }
  Relay R(Opts);
  std::string Err = R.start();
  if (!Err.empty()) {
    fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  printf("relaying %s:%u on %s:%u\n", Opts.UpstreamHost.c_str(),
         unsigned(Opts.UpstreamPort), Opts.BindAddress.c_str(),
         unsigned(R.port()));
  fflush(stdout);
  RelayReport Report = R.run();
  printf("relayed: %.2f s, %llu units, %llu results forwarded, "
         "%llu requeues, %zu workers\n",
         Report.Seconds,
         static_cast<unsigned long long>(Report.UnitsRelayed),
         static_cast<unsigned long long>(Report.ResultsForwarded),
         static_cast<unsigned long long>(Report.Requeues),
         Report.Workers);
  if (!Report.Error.empty()) {
    fprintf(stderr, "error: %s\n", Report.Error.c_str());
    return 1;
  }
  return 0;
}
