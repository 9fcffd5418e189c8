//===- perfbench/src/Serve.cpp - The serve workload -----------------------===//
///
/// \file
/// A seeded mix of compile, check and explain requests on the VM tier,
/// sent to an in-process server::UnixServer by two server::Client
/// connections in a closed loop: each client sends its next request only
/// when the reply to the last one has arrived.
///
/// The mix: a pool of distinct (loop, config) keys larger than the
/// service's 1024-entry compile cache, drawn Zipf-like so a hot set
/// repeats and the tail forces LRU evictions; some repeats re-spelled
/// (whitespace, comments) so the alias and live cache layers answer them
/// instead of the response memo; check repeated across three seeds; and
/// about one request in ten for a (loop, config) never sent before. Keys
/// whose trip count fails the paper's 3B validity guard at their width are
/// expected to come back as compile_error; every other error record, any
/// check verdict that is not ok, and any answer that differs from the
/// first answer for its key counts as failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "CompilePath.h"
#include "LoopGen.h"

#include "parser/LoopParser.h"
#include "reorg/ReorgGraph.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "server/Service.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace perfbench;
using namespace simdize;

using Scope = SpanLog::Scope;

namespace {

constexpr unsigned NumClients = 2;
constexpr size_t PoolLoops = 240;
constexpr size_t ConfigsPerLoop = 8;
constexpr size_t PoolKeys = PoolLoops * ConfigsPerLoop; ///< > 1024 entries.
constexpr size_t HotKeys = 256; ///< Warm-up fills these ranks.
constexpr double ColdShare = 0.1; ///< Requests for never-sent keys.
constexpr double ZipfExponent = 1.2;

struct ServeConfig {
  const char *Policy;
  bool Sp;
  const char *Opt;
  unsigned Width;
};

std::vector<ServeConfig> allConfigs() {
  std::vector<ServeConfig> Out;
  for (const char *Policy : {"zero", "eager", "lazy", "dom", "optimal", "auto"})
    for (bool Sp : {false, true})
      for (const char *Opt : {"raw", "std", "pc"})
        for (unsigned W : {16u, 32u, 64u})
          Out.push_back({Policy, Sp, Opt, W});
  return Out;
}

struct PoolLoop {
  std::string Text;
  unsigned ElemBytes = 4;
  int64_t Trip = 0;
  bool Runtime = false;
};

enum Kind : unsigned { Compile, Check, Explain };
const char *kindName(unsigned K) {
  return K == Compile ? "compile" : K == Check ? "check" : "explain";
}

/// One request as sent, with what the benchmark expects of its answer.
struct Request {
  std::string Payload;
  uint64_t AnswerKey = 0; ///< (kind, key, seed): all spellings share it.
  bool Cold = false;      ///< Its (loop, config) was never sent before.
  bool ExpectError = false;
  unsigned K = Compile;
};

/// The seeded request mix. The seed draws the loops' offsets, alignments,
/// operators and trip counts, the configs' rotation and the Zipf ranks;
/// the composition (loop shapes, kinds, re-spellings, cold share) is fixed
/// by position, so every seed asks for the same kind of work. draw() is
/// safe to call from several clients: each passes its own Rand and request
/// counter; cold keys come from a shared counter.
class Mix {
public:
  explicit Mix(uint64_t Seed)
      : Seed(Seed), Configs(allConfigs()),
        Offset(static_cast<size_t>(Rand(Seed).next() % 108)) {
    for (const ServeConfig &C : Configs)
      if (std::string(C.Policy) == "zero" || std::string(C.Policy) == "auto")
        RuntimeConfigs.push_back(&C - Configs.data());
    for (size_t I = 0; I < PoolLoops; ++I)
      Loops.push_back(makeLoop(I));
    double Sum = 0;
    for (size_t Rank = 0; Rank < PoolKeys; ++Rank) {
      Sum += 1.0 / std::pow(static_cast<double>(Rank + 1), ZipfExponent);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
    Sent = std::make_unique<std::atomic<bool>[]>(PoolKeys);
  }

  /// The warm-up: compile, check (seed 1) and explain of every hot key.
  std::vector<Request> warmUp() {
    std::vector<Request> Out;
    for (size_t Rank = 0; Rank < HotKeys; ++Rank)
      for (unsigned K : {Compile, Check, Explain})
        Out.push_back(poolRequest(Rank, K, 1, 0));
    return Out;
  }

  /// The \p J-th request of a client.
  Request draw(Rand &R, uint64_t J) {
    // Nine compiles, seven checks and four explains in every twenty.
    static const unsigned Kinds[20] = {0, 1, 0, 2, 1, 0, 1, 0, 2, 1,
                                       0, 1, 0, 2, 1, 0, 1, 0, 2, 0};
    unsigned K = Kinds[J % 20];
    uint64_t CheckSeed = 1 + (J / 20) % 3;
    if (J % 10 == 9)
      return coldRequest(ColdNext.fetch_add(1), K, CheckSeed);
    size_t Rank = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), R.real()) - Cdf.begin());
    Rank = std::min(Rank, PoolKeys - 1);
    // Two requests in seven are re-spelled.
    unsigned Variant =
        J % 7 == 3 || J % 7 == 5 ? 1 + static_cast<unsigned>((J / 7) % 3) : 0;
    return poolRequest(Rank, K, CheckSeed, Variant);
  }

private:
  /// Loop \p Index of the pool (or of the cold stream, past the pool).
  /// Its shape cycles with the index: element type, statement kinds and
  /// loads per statement; one loop in 24 is short enough to fail the 3B
  /// guard at the wider widths; one in 8 has runtime alignments.
  PoolLoop makeLoop(size_t Index) const {
    static const std::vector<StmtShape> Templates[] = {
        {StmtShape::Assign},
        {StmtShape::Assign, StmtShape::If},
        {StmtShape::Assign, StmtShape::Reduce},
        {StmtShape::If, StmtShape::Assign}};
    Rand R(Seed * 0x2545f4914f6cdd1dULL + Index * 0x9e3779b97f4a7c15ULL + 17);
    LoopShape S;
    S.ElemBytes = 1u << (Index % 3);
    S.Stmts = Templates[(Index / 3) % 4];
    S.LoadsPerStmt = 2 + static_cast<unsigned>((Index / 12) % 3);
    S.Trip = Index % 24 == 23 ? R.range(24, 56) : R.range(300, 363);
    S.RuntimeAlign = Index % 8 == 5 && (Index / 3) % 4 != 2;
    PoolLoop L;
    L.Text = makeLoopText(R, S);
    L.ElemBytes = S.ElemBytes;
    L.Trip = S.Trip;
    L.Runtime = S.RuntimeAlign;
    return L;
  }

  /// The \p K-th config of loop \p Index: a seed-rotated stride through
  /// the config list, so configs spread evenly over loops and ranks.
  /// Runtime alignments admit only zero-shift (and auto, which resolves
  /// to it).
  const ServeConfig &configOf(size_t Index, size_t K,
                              const PoolLoop &L) const {
    if (L.Runtime)
      return Configs[RuntimeConfigs[(Index * 5 + K * 7 + Offset) %
                                    RuntimeConfigs.size()]];
    return Configs[(Index * 37 + K * 13 + Offset) % Configs.size()];
  }

  bool expectError(const PoolLoop &L, const ServeConfig &C, unsigned K) const {
    int64_t B = C.Width / L.ElemBytes;
    return K != Explain && L.Trip <= 3 * B;
  }

  std::string payload(uint64_t Id, unsigned K, const std::string &Text,
                      const ServeConfig &C, uint64_t CheckSeed) const {
    std::string Out = "{\"id\":" + std::to_string(Id) + ",\"kind\":\"" +
                      kindName(K) + "\",\"loop\":\"";
    for (char Ch : Text) {
      if (Ch == '\n')
        Out += "\\n";
      else if (Ch == '\t')
        Out += "\\t";
      else
        Out += Ch;
    }
    Out += std::string("\",\"config\":{\"policy\":\"") + C.Policy +
           "\",\"sp\":" + (C.Sp ? "true" : "false") + ",\"opt\":\"" + C.Opt +
           "\",\"width\":" + std::to_string(C.Width) + "}";
    if (K == Check)
      Out += ",\"seed\":" + std::to_string(CheckSeed);
    return Out + "}";
  }

  Request build(uint64_t KeyId, const PoolLoop &L, const ServeConfig &C,
                unsigned K, uint64_t CheckSeed, unsigned Variant) const {
    Request Req;
    Req.K = K;
    Req.AnswerKey = (KeyId * 4 + K) * 4 + (K == Check ? CheckSeed : 0);
    Req.ExpectError = expectError(L, C, K);
    Req.Payload = payload(Req.AnswerKey, K, respell(L.Text, Variant), C,
                          CheckSeed);
    return Req;
  }

  /// Rank r is the (r / PoolLoops)-th config of loop r % PoolLoops.
  Request poolRequest(size_t Rank, unsigned K, uint64_t CheckSeed,
                      unsigned Variant) {
    size_t Index = Rank % PoolLoops;
    const PoolLoop &L = Loops[Index];
    Request Req = build(Rank, L, configOf(Index, Rank / PoolLoops, L), K,
                        CheckSeed, Variant);
    Req.Cold = !Sent[Rank].exchange(true);
    return Req;
  }

  Request coldRequest(uint64_t Cold, unsigned K, uint64_t CheckSeed) const {
    size_t Index = PoolLoops + static_cast<size_t>(Cold);
    PoolLoop L = makeLoop(Index);
    Request Req = build(PoolKeys + Cold, L, configOf(Index, 0, L), K,
                        CheckSeed, 0);
    Req.Cold = true;
    return Req;
  }

  uint64_t Seed;
  std::vector<ServeConfig> Configs;
  std::vector<size_t> RuntimeConfigs;
  size_t Offset;
  std::vector<PoolLoop> Loops;
  std::vector<double> Cdf;
  std::unique_ptr<std::atomic<bool>[]> Sent;
  std::atomic<uint64_t> ColdNext{0};
};

/// The first answer for every answer key, against which every later
/// answer (repeat or re-spelling) must be byte-identical.
class Answers {
public:
  /// Validates \p Response for \p Req; false (with \p Why) on a failure.
  bool check(const Request &Req, const std::string &Response,
             std::string &Why) {
    bool IsError = Response.find("\"kind\":\"error\"") < 48;
    if (IsError) {
      bool Expected = Req.ExpectError &&
                      Response.find("\"code\":\"compile_error\"") !=
                          std::string::npos;
      if (!Expected) {
        Why = "unexpected error record: " + Response.substr(0, 240);
        return false;
      }
    } else if (Req.ExpectError) {
      Why = "accepted a loop that fails the 3B guard: " +
            Response.substr(0, 160);
      return false;
    } else if (Req.K == Check &&
               Response.find("\"verdict\":{\"ok\":true") ==
                   std::string::npos) {
      Why = "check verdict not ok: " + Response.substr(0, 240);
      return false;
    }
    std::lock_guard<std::mutex> Lock(Mu);
    auto [It, Inserted] = First.try_emplace(Req.AnswerKey, Response);
    if (!Inserted && It->second != Response) {
      Why = "answer differs from the first answer for its key: " +
            Response.substr(0, 160);
      return false;
    }
    return true;
  }

private:
  std::mutex Mu;
  std::unordered_map<uint64_t, std::string> First;
};

uint32_t fnv1a32(uint32_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 16777619u;
  }
  return H;
}

/// The closed loop: NumClients clients over the Unix socket for \p Seconds.
/// Reported, not gated: on a shared VM every request waits for two thread
/// wake-ups, and their latency swings these figures 2-3x between identical
/// runs with the host's load.
void closedLoop(const Options &O, double Seconds, Mix &M, Answers &A,
                const std::string &Sock, Report &R) {
  struct ClientStats {
    std::vector<double> LatUs, ColdUs;
    uint64_t Sent = 0;
    std::vector<std::string> Failures;
  };
  std::vector<ClientStats> Stats(NumClients);
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  auto Run = [&](unsigned Idx) {
    ClientStats &S = Stats[Idx];
    server::Client C;
    std::string Err;
    if (!C.connect(Sock, &Err)) {
      S.Failures.push_back("connect: " + Err);
      return;
    }
    Rand Rng(O.Seed * 1000003 + NumClients + Idx);
    std::string Resp;
    for (uint64_t J = 0; Clock::now() < Deadline; ++J) {
      Request Req = M.draw(Rng, J);
      Clock::time_point T0 = Clock::now();
      bool Ok = C.call(Req.Payload, Resp, &Err);
      double Us = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                      .count();
      ++S.Sent;
      if (!Ok) {
        S.Failures.push_back("transport: " + Err);
        return;
      }
      S.LatUs.push_back(Us);
      if (Req.Cold)
        S.ColdUs.push_back(Us);
      std::string Why;
      if (!A.check(Req, Resp, Why))
        S.Failures.push_back(Why);
    }
  };
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < NumClients; ++I)
    Clients.emplace_back(Run, I);
  for (std::thread &T : Clients)
    T.join();
  double Elapsed = secondsSince(Start);

  std::vector<double> Lat, Cold;
  for (ClientStats &S : Stats) {
    R.Attempted += S.Sent;
    for (const std::string &F : S.Failures)
      R.fail(F);
    Lat.insert(Lat.end(), S.LatUs.begin(), S.LatUs.end());
    Cold.insert(Cold.end(), S.ColdUs.begin(), S.ColdUs.end());
  }
  double Rps = static_cast<double>(Lat.size()) / Elapsed;
  R.metric("socket_rps", "req/s", Rps);
  R.metric("socket_p50_us", "us", median(Lat));
  R.metric("socket_p99_us", "us", quantile(Lat, 0.99));
  R.metric("socket_cold_p50_us", "us", median(Cold));
  R.Lines.push_back(strf("serve over the socket: %zu requests in %.2f s from "
                         "%u clients (%zu cold): %.0f req/s, p50 %.1f us, "
                         "p99 %.1f us, cold p50 %.1f us",
                         Lat.size(), Elapsed, NumClients, Cold.size(), Rps,
                         median(Lat), quantile(Lat, 0.99), median(Cold)));
}

/// The replay: the same mix sent straight to Service::handle from one
/// thread, framed both ways as the socket path frames it. Traced, it also
/// re-runs the work handle() did internally (request parse, loop parse,
/// compile on a miss, check on a verdict miss) as duplicate spans.
void replay(const Options &O, SpanLog *Log, uint64_t N, Mix &M, Answers &A,
            server::Service &Svc, Report &R, std::vector<double> *LatUs,
            std::vector<double> *ColdUs) {
  std::vector<Rand> Streams;
  for (unsigned I = 0; I < NumClients; ++I)
    Streams.emplace_back(O.Seed * 1000003 + I);
  std::vector<Request> Reqs;
  for (uint64_t I = 0; I < N; ++I)
    Reqs.push_back(M.draw(Streams[I % NumClients], I / NumClients));

  obs::Registry &Reg = Svc.registry();
  const char *LayerCounters[] = {"server.cache.memo_hits",
                                 "server.cache.alias_hits",
                                 "server.cache.live_hits",
                                 "server.cache.miss_compiles"};
  const char *LayerNames[] = {"memo", "alias", "live", "miss"};
  std::vector<double> HandleUs[4];
  uint64_t LayerCount[4] = {0, 0, 0, 0};
  LayerTally T;
  uint32_t ResponseHash = 2166136261u;
  server::FrameReader ServerSide, ClientSide;
  std::vector<std::string> Frames;

  uint64_t Builds0 = reorg::graphBuildCount();
  server::CompileCache::Stats Cache0 = Svc.cache().stats();
  sim::ReferenceImageCache::Stats Ref0 = Svc.refImages().stats();
  Clock::time_point Start = Clock::now();
  if (Log)
    Log->start();
  for (uint64_t I = 0; I < N; ++I) {
    const Request &Req = Reqs[I];
    Clock::time_point Q0 = Clock::now();
    std::string Frame;
    {
      Scope Sp(Log, "server.frame", I);
      Sp.note("encode");
      Frame = server::encodeFrame(Req.Payload);
    }
    Frames.clear();
    {
      Scope Sp(Log, "server.frame", I);
      Sp.note("feed");
      ServerSide.feed(Frame.data(), Frame.size(), Frames);
    }
    int64_t Before[4] = {0, 0, 0, 0}, VerdictMisses0 = 0, RefMisses0 = 0;
    if (Log) {
      for (int K = 0; K < 4; ++K)
        Before[K] = Reg.counterValue(LayerCounters[K]);
      VerdictMisses0 = Reg.counterValue("server.verdict.misses");
      RefMisses0 = Svc.refImages().stats().Misses;
    }
    // Which cache layer answered: the one whose counter moved.
    int Layer = -1;
    std::string Resp;
    Clock::time_point H0 = Clock::now();
    {
      Scope Sp(Log, "server.handle", I);
      Resp = Svc.handle(Frames.empty() ? std::string() : Frames.front());
      for (int K = 0; Log && K < 4; ++K)
        if (Reg.counterValue(LayerCounters[K]) != Before[K]) {
          Layer = K;
          Sp.note(LayerNames[K]);
        }
    }
    double HandleMicros =
        std::chrono::duration<double, std::micro>(Clock::now() - H0).count();
    {
      Scope Sp(Log, "server.frame", I);
      Sp.note("encode");
      Frame = server::encodeFrame(Resp);
    }
    Frames.clear();
    {
      Scope Sp(Log, "server.frame", I);
      Sp.note("feed");
      ClientSide.feed(Frame.data(), Frame.size(), Frames);
    }
    double RequestUs =
        std::chrono::duration<double, std::micro>(Clock::now() - Q0).count();
    if (LatUs)
      LatUs->push_back(RequestUs);
    if (ColdUs && Req.Cold)
      ColdUs->push_back(RequestUs);
    ++R.Attempted;
    std::string Why;
    if (Frames.size() != 1 || !A.check(Req, Frames.front(), Why))
      R.fail(Why.empty() ? "response framing broke" : Why);
    ResponseHash = fnv1a32(ResponseHash, Resp);
    if (Layer < 0)
      continue;
    ++LayerCount[Layer];
    HandleUs[Layer].push_back(HandleMicros);
    if (Layer == 0)
      continue; // The memo answered before any parse.
    server::ErrorInfo Err;
    std::optional<server::Request> Parsed;
    {
      Scope Sp(Log, "server.parse_request", I, /*Dup=*/true);
      Parsed = server::parseRequest(Req.Payload, Err);
    }
    if (!Parsed || Layer == 1)
      continue; // The alias memo skips the loop parse.
    parser::ParseResult P;
    {
      Scope Sp(Log, "parser.parse", I, /*Dup=*/true);
      P = parser::parseLoop(Parsed->LoopText,
                            Parsed->Config.target().VectorLen);
    }
    if (!P.ok() || Layer != 3)
      continue;
    CompiledProgram C =
        compileTraced(Log, I, /*Dup=*/true, *P.Loop, Parsed->Config, T);
    if (Reg.counterValue("server.verdict.misses") == VerdictMisses0 ||
        !C.Simd.ok())
      continue;
    unsigned V = C.Simd.Program->getVectorLen();
    // Rebuilt only to re-run the check: sim.reference_image when handle()
    // built one too, the benchmark's own span when its cache had one.
    std::optional<sim::ReferenceImage> Ref;
    {
      bool Built = Svc.refImages().stats().Misses != RefMisses0;
      Scope Sp(Log, Built ? "sim.reference_image" : "bench.reference_image",
               I, /*Dup=*/true);
      Ref.emplace(*P.Loop, V, Parsed->Seed);
    }
    checkTraced(Log, I, /*Dup=*/true, *P.Loop, *C.Simd.Program, *Ref,
                /*TrackChunkLoads=*/false, T);
  }
  R.WallS = secondsSince(Start);
  if (Log)
    Log->finish();

  server::CompileCache::Stats Cache1 = Svc.cache().stats();
  sim::ReferenceImageCache::Stats Ref1 = Svc.refImages().stats();
  R.Counts["serve.response_hash"] = ResponseHash;
  R.Counts["serve.evictions"] =
      static_cast<double>(Cache1.Evictions - Cache0.Evictions);
  if (!Log) {
    R.Counts["reorg.graph_builds"] =
        static_cast<double>(reorg::graphBuildCount() - Builds0);
    return;
  }
  for (int K = 0; K < 4; ++K) {
    std::string L = LayerNames[K];
    R.metric("server.handle." + L + ".p50_us", "us", median(HandleUs[K]));
    R.metric("server.cache." + L + "_share", "ratio",
             static_cast<double>(LayerCount[K]) / static_cast<double>(N));
    R.Counts["serve." + L] = static_cast<double>(LayerCount[K]);
  }
  R.metric("server.cache.evictions", "count",
           static_cast<double>(Cache1.Evictions - Cache0.Evictions));
  double VH = static_cast<double>(Cache1.VerdictHits - Cache0.VerdictHits);
  double VM = static_cast<double>(Cache1.VerdictMisses - Cache0.VerdictMisses);
  R.metric("server.verdict.hit_ratio", "ratio", VH / std::max(1.0, VH + VM));
  double RH = static_cast<double>(Ref1.Hits - Ref0.Hits);
  double RM = static_cast<double>(Ref1.Misses - Ref0.Misses);
  R.metric("sim.ref_images.hit_ratio", "ratio", RH / std::max(1.0, RH + RM));
  addTallyMetrics(R, T);
}

} // namespace

Report perfbench::runServe(const Options &O, SpanLog *Log) {
  Report R;
  Mix M(O.Seed);
  Answers A;
  server::Service Svc;

  // Set-up: the warm-up fill of the hot set, in process like the gated
  // phase, so set-up time does not ride on socket wake-ups.
  Clock::time_point T0 = Clock::now();
  for (const Request &Req : M.warmUp()) {
    ++R.Attempted;
    std::string Why;
    if (!A.check(Req, Svc.handle(Req.Payload), Why))
      R.fail(Why);
  }
  R.SetupS = secondsSince(T0);

  if (O.RunMode == Mode::Replay)
    replay(O, Log, static_cast<uint64_t>(1500 * O.Seconds), M, A, Svc, R,
           nullptr, nullptr);
  if (O.RunMode != Mode::Measure)
    return R;

  // Gated: a fixed number of requests through the framed in-process path
  // (about 60% of the time), then the socket loop for the rest.
  const uint64_t N = static_cast<uint64_t>(3500 * O.Seconds);
  std::vector<double> Lat, Cold;
  replay(O, nullptr, N, M, A, Svc, R, &Lat, &Cold);
  double PerSec = static_cast<double>(N) / R.WallS;
  R.metric("ops_per_s", "1/s", PerSec);
  R.metric("p50_us", "us", median(Lat));
  R.metric("p99_us", "us", quantile(Lat, 0.99));
  R.metric("cold_p50_us", "us", median(Cold));
  R.Lines.push_back(strf("serve in process: %llu requests in %.2f s "
                         "(%zu cold): %.0f req/s, p50 %.1f us, p99 %.1f us, "
                         "cold p50 %.1f us",
                         static_cast<unsigned long long>(N), R.WallS,
                         Cold.size(), PerSec, median(Lat),
                         quantile(Lat, 0.99), median(Cold)));

  std::string Sock = strf("%s/serve-%ld.sock", O.OutDir.c_str(),
                          static_cast<long>(getpid()));
  server::UnixServer Srv(Svc, Sock);
  std::string Err;
  if (!Srv.start(&Err)) {
    R.fail("cannot start the server on " + Sock + ": " + Err);
    return R;
  }
  closedLoop(O, 0.4 * O.Seconds, M, A, Sock, R);
  Srv.stop();
  return R;
}
