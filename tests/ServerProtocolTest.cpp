//===- tests/ServerProtocolTest.cpp - Wire protocol round trips -----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON request/response round trips for every request kind (compile,
/// check, explain, stats, batch) through server::Service, schema
/// validation via the obs::Json parser, golden error records for
/// malformed frames, oversized lengths, truncated payloads, and unknown
/// fields, plus the framed transport end to end: runConnection over a
/// socketpair and UnixServer + Client over a real Unix-domain socket.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "server/Server.h"
#include "server/Service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace simdize;
using namespace simdize::server;

namespace {

const char *FigureOneLoop = "array a i32 128 align 0\n"
                            "array b i32 128 align 0\n"
                            "array c i32 128 align 0\n"
                            "loop 100\n"
                            "a[i+3] = b[i+1] + c[i+2]\n";

/// Builds the canonical compile/check/explain request payload.
std::string makeRequest(uint64_t Id, const std::string &Kind,
                        const std::string &Loop,
                        const std::string &ConfigFragment = "",
                        const std::string &Extra = "") {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject().field("id", Id).field("kind", Kind).field("loop", Loop);
  if (!ConfigFragment.empty())
    W.key("config").raw(ConfigFragment);
  W.endObject();
  if (!Extra.empty())
    Out.insert(Out.size() - 1, Extra); // Splice raw ",\"k\":v" members.
  return Out;
}

/// Parses a response and requires well-formed JSON.
obs::json::Value parsed(const std::string &Resp) {
  std::string Err;
  std::optional<obs::json::Value> V = obs::json::parse(Resp, &Err);
  EXPECT_TRUE(V.has_value()) << Err << "\nin: " << Resp;
  return V ? *V : obs::json::Value();
}

/// The error code of a response, or "" when it is not an error record.
std::string errorCodeOf(const obs::json::Value &V) {
  const obs::json::Value *E = V.find("error");
  const obs::json::Value *C = E ? E->find("code") : nullptr;
  return C && C->isString() ? C->Str : std::string();
}

TEST(ServerProtocol, FrameRoundTripSplitAtEveryBoundary) {
  std::string Stream = encodeFrame("{\"a\":1}") + encodeFrame("") +
                       encodeFrame(std::string(1000, 'x'));
  // Feeding the stream one byte at a time must produce the same payloads
  // as one shot, whatever the chunk boundaries.
  for (size_t Chunk : {size_t(1), size_t(3), size_t(7), Stream.size()}) {
    FrameReader FR;
    std::vector<std::string> Out;
    for (size_t K = 0; K < Stream.size(); K += Chunk)
      ASSERT_TRUE(FR.feed(Stream.data() + K,
                          std::min(Chunk, Stream.size() - K), Out));
    EXPECT_TRUE(FR.finish());
    ASSERT_EQ(Out.size(), 3u);
    EXPECT_EQ(Out[0], "{\"a\":1}");
    EXPECT_EQ(Out[1], "");
    EXPECT_EQ(Out[2], std::string(1000, 'x'));
  }
}

TEST(ServerProtocol, GoldenMalformedFrameRecord) {
  FrameReader FR;
  std::vector<std::string> Out;
  EXPECT_FALSE(FR.feed("x", 1, Out));
  EXPECT_TRUE(FR.failed());
  EXPECT_EQ(FR.error().Code, ErrorCode::BadFrame);
  EXPECT_EQ(errorResponse(0, FR.error()),
            "{\"id\":0,\"kind\":\"error\",\"schema_version\":3,"
            "\"ok\":false,\"error\":"
            "{\"code\":\"bad_frame\",\"message\":"
            "\"length prefix contains non-digit byte 0x78\"}}");
  // A poisoned reader stays poisoned.
  EXPECT_FALSE(FR.feed("5\nhello", 7, Out));
  EXPECT_TRUE(Out.empty());
}

TEST(ServerProtocol, GoldenOversizedLengthRecord) {
  {
    FrameReader FR;
    std::vector<std::string> Out;
    std::string Huge = std::to_string(MaxFrameBytes + 1) + "\n";
    EXPECT_FALSE(FR.feed(Huge.data(), Huge.size(), Out));
    EXPECT_EQ(FR.error().Code, ErrorCode::OversizedFrame);
    EXPECT_NE(errorResponse(3, FR.error())
                  .find("\"id\":3,\"kind\":\"error\",\"schema_version\":3,"
                        "\"ok\":false,\"error\":"
                        "{\"code\":\"oversized_frame\""),
              std::string::npos);
  }
  {
    // More than 8 digits is rejected before the newline even arrives.
    FrameReader FR;
    std::vector<std::string> Out;
    EXPECT_FALSE(FR.feed("999999999", 9, Out));
    EXPECT_EQ(FR.error().Code, ErrorCode::OversizedFrame);
  }
}

TEST(ServerProtocol, GoldenTruncatedPayloadRecord) {
  FrameReader FR;
  std::vector<std::string> Out;
  EXPECT_TRUE(FR.feed("10\n{\"id\"", 8, Out));
  EXPECT_FALSE(FR.finish());
  EXPECT_EQ(FR.error().Code, ErrorCode::TruncatedFrame);
  EXPECT_EQ(errorResponse(0, FR.error()),
            "{\"id\":0,\"kind\":\"error\",\"schema_version\":3,"
            "\"ok\":false,\"error\":"
            "{\"code\":\"truncated_frame\",\"message\":"
            "\"stream ended 5 bytes into a 10-byte payload\"}}");

  FrameReader FR2;
  EXPECT_TRUE(FR2.feed("12", 2, Out));
  EXPECT_FALSE(FR2.finish());
  EXPECT_EQ(FR2.error().Code, ErrorCode::TruncatedFrame);
}

TEST(ServerProtocol, CompileRoundTrip) {
  Service S;
  std::string Resp = S.handle(makeRequest(
      42, "compile", FigureOneLoop, "{\"policy\":\"lazy\",\"sp\":true}"));
  obs::json::Value V = parsed(Resp);
  EXPECT_EQ(V.find("id")->Num, 42.0);
  EXPECT_EQ(V.find("kind")->Str, "compile");
  ASSERT_NE(V.find("schema_version"), nullptr);
  EXPECT_EQ(V.find("schema_version")->Num,
            static_cast<double>(ProtocolSchemaVersion));
  EXPECT_TRUE(V.find("ok")->Bool);
  EXPECT_EQ(V.find("config")->Str, "LAZY-sp/opt");
  EXPECT_EQ(V.find("policy")->Str, "LAZY");
  EXPECT_EQ(V.find("width")->Num, 16.0);
  EXPECT_NE(V.find("program")->Str.find("vload"), std::string::npos);
  EXPECT_GE(V.find("placed_shifts")->Num, 1.0);
}

TEST(ServerProtocol, CheckRoundTrip) {
  Service S;
  std::string Resp = S.handle(makeRequest(7, "check", FigureOneLoop,
                                          "{\"policy\":\"dom\"}",
                                          ",\"seed\":123"));
  obs::json::Value V = parsed(Resp);
  EXPECT_TRUE(V.find("ok")->Bool);
  EXPECT_EQ(V.find("kind")->Str, "check");
  EXPECT_EQ(V.find("schema_version")->Num,
            static_cast<double>(ProtocolSchemaVersion));
  EXPECT_EQ(V.find("seed")->Num, 123.0);
  ASSERT_NE(V.find("verdict"), nullptr);
  EXPECT_TRUE(V.find("verdict")->find("ok")->Bool);
  EXPECT_EQ(V.find("verdict")->find("message")->Str, "");
}

TEST(ServerProtocol, ExplainRoundTrip) {
  Service S;
  std::string Resp = S.handle(
      makeRequest(9, "explain", FigureOneLoop, "{\"policy\":\"eager\"}"));
  obs::json::Value V = parsed(Resp);
  EXPECT_TRUE(V.find("ok")->Bool);
  const obs::json::Value *D = V.find("decisions");
  ASSERT_NE(D, nullptr);
  EXPECT_TRUE(D->isObject());
  EXPECT_EQ(D->find("policy")->Str, "EAGER");
  ASSERT_NE(D->find("statements"), nullptr);
  EXPECT_TRUE(D->find("statements")->isArray());
}

TEST(ServerProtocol, StatsRoundTrip) {
  Service S;
  // Prime one compile so the counters are visibly non-zero.
  S.handle(makeRequest(1, "compile", FigureOneLoop));
  obs::json::Value V = parsed(S.handle("{\"id\":2,\"kind\":\"stats\"}"));
  EXPECT_TRUE(V.find("ok")->Bool);
  EXPECT_EQ(V.find("schema_version")->Num,
            static_cast<double>(ProtocolSchemaVersion));
  const obs::json::Value *C = V.find("cache");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->find("entries")->Num, 1.0);
  EXPECT_EQ(C->find("misses")->Num, 1.0);
  const obs::json::Value *M = V.find("metrics");
  ASSERT_NE(M, nullptr);
  const obs::json::Value *Counters = M->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->find("server.requests")->Num, 2.0);
}

TEST(ServerProtocol, BatchRoundTripKeepsOrder) {
  Service S;
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject().field("id", 100).field("kind", "batch").key("requests");
  W.beginArray();
  for (uint64_t K = 0; K < 5; ++K)
    W.raw(makeRequest(200 + K, K % 2 ? "check" : "compile", FigureOneLoop));
  W.endArray().endObject();

  obs::json::Value V = parsed(S.handle(Out));
  EXPECT_TRUE(V.find("ok")->Bool);
  const obs::json::Value *R = V.find("responses");
  ASSERT_NE(R, nullptr);
  ASSERT_EQ(R->Arr.size(), 5u);
  for (uint64_t K = 0; K < 5; ++K) {
    EXPECT_EQ(R->Arr[K].find("id")->Num, static_cast<double>(200 + K));
    EXPECT_TRUE(R->Arr[K].find("ok")->Bool);
  }
}

TEST(ServerProtocol, SchemaViolationsAreStructured) {
  Service S;
  struct Case {
    const char *Payload;
    const char *Code;
  } Cases[] = {
      {"{\"id\":1,\"kind\":\"stats\"", "bad_json"},
      {"[1,2,3]", "bad_request"},
      {"{\"id\":1}", "bad_request"},
      {"{\"kind\":\"stats\"}", "bad_request"},
      {"{\"id\":1,\"kind\":\"frobnicate\"}", "unknown_kind"},
      {"{\"id\":1,\"kind\":\"stats\",\"bogus\":3}", "unknown_field"},
      {"{\"id\":1,\"kind\":\"compile\"}", "bad_request"},
      {"{\"id\":1,\"kind\":\"stats\",\"loop\":\"x\"}", "bad_request"},
      {"{\"id\":1,\"kind\":\"compile\",\"loop\":\"x\",\"seed\":4}",
       "bad_request"},
      {"{\"id\":-3,\"kind\":\"stats\"}", "bad_request"},
      {"{\"id\":1,\"kind\":\"compile\",\"loop\":\"x\",\"config\":"
       "{\"policy\":\"bogus\"}}",
       "bad_request"},
      {"{\"id\":1,\"kind\":\"compile\",\"loop\":\"x\",\"config\":"
       "{\"width\":5}}",
       "bad_request"},
      {"{\"id\":1,\"kind\":\"compile\",\"loop\":\"x\",\"config\":"
       "{\"frobnicate\":true}}",
       "unknown_field"},
      {"{\"id\":1,\"kind\":\"batch\"}", "bad_request"},
      {"{\"id\":1,\"kind\":\"batch\",\"requests\":[{\"id\":2,\"kind\":"
       "\"batch\",\"requests\":[]}]}",
       "bad_request"},
      {"{\"id\":1,\"kind\":\"compile\",\"loop\":\"not a loop\"}",
       "parse_error"},
  };
  for (const Case &C : Cases) {
    obs::json::Value V = parsed(S.handle(C.Payload));
    EXPECT_EQ(V.find("kind")->Str, "error") << C.Payload;
    EXPECT_FALSE(V.find("ok")->Bool) << C.Payload;
    EXPECT_EQ(errorCodeOf(V), C.Code) << C.Payload;
  }
}

TEST(ServerProtocol, CompileErrorIsStructured) {
  Service S;
  // Reads of the store array make the loop non-simdizable: a
  // deterministic pipeline rejection, not a server failure.
  obs::json::Value V = parsed(S.handle(makeRequest(
      5, "compile",
      "array a i32 128 align 0\nloop 100\na[i+1] = a[i] + 1\n")));
  EXPECT_EQ(errorCodeOf(V), "compile_error");
  const obs::json::Value *E = V.find("error");
  EXPECT_NE(E->find("message")->Str.find("ZERO"), std::string::npos);
}

TEST(ServerProtocol, ConnectionServesFramesInOrder) {
  Service S;
  int Up[2], Down[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Up), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Down), 0);

  std::string Stream =
      encodeFrame(makeRequest(1, "compile", FigureOneLoop)) +
      encodeFrame("{\"id\":2,\"kind\":\"stats\"}") +
      encodeFrame(makeRequest(3, "check", FigureOneLoop));
  std::thread Conn([&] {
    // Workers > 1: ordering must come from the writer, not timing.
    EXPECT_TRUE(runConnection(Up[0], Down[1], S, {4}));
    ::shutdown(Down[1], SHUT_WR);
  });
  ASSERT_TRUE(writeAll(Up[1], Stream));
  ::shutdown(Up[1], SHUT_WR);

  std::string Bytes;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Down[0], Buf, sizeof(Buf))) > 0)
    Bytes.append(Buf, static_cast<size_t>(N));
  Conn.join();

  FrameReader FR;
  std::vector<std::string> Resp;
  ASSERT_TRUE(FR.feed(Bytes.data(), Bytes.size(), Resp));
  ASSERT_TRUE(FR.finish());
  ASSERT_EQ(Resp.size(), 3u);
  EXPECT_EQ(parsed(Resp[0]).find("id")->Num, 1.0);
  EXPECT_EQ(parsed(Resp[1]).find("id")->Num, 2.0);
  EXPECT_EQ(parsed(Resp[2]).find("id")->Num, 3.0);
  for (int Fd : {Up[0], Up[1], Down[0], Down[1]})
    ::close(Fd);
}

TEST(ServerProtocol, UnixSocketDaemonRoundTrip) {
  Service S;
  std::string Path =
      "/tmp/simdized-test-" + std::to_string(::getpid()) + ".sock";
  UnixServer Daemon(S, Path, {2});
  std::string Err;
  ASSERT_TRUE(Daemon.start(&Err)) << Err;

  Client C;
  ASSERT_TRUE(C.connect(Path, &Err)) << Err;
  std::string Resp;
  ASSERT_TRUE(C.call(makeRequest(11, "compile", FigureOneLoop), Resp, &Err))
      << Err;
  EXPECT_TRUE(parsed(Resp).find("ok")->Bool);

  // A second connection shares the daemon's cache.
  Client C2;
  ASSERT_TRUE(C2.connect(Path, &Err)) << Err;
  ASSERT_TRUE(C2.call("{\"id\":1,\"kind\":\"stats\"}", Resp, &Err)) << Err;
  obs::json::Value V = parsed(Resp);
  EXPECT_EQ(V.find("cache")->find("entries")->Num, 1.0);

  C.close();
  C2.close();
  Daemon.stop();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0) << "socket file not removed";
}

} // namespace
