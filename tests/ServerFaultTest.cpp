//===- tests/ServerFaultTest.cpp - Fault injection and isolation ----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's failure contract under injected faults: a worker throwing
/// mid-compile (std::exception and otherwise), a client disconnecting
/// mid-frame, and a poisoned cache entry all yield structured error
/// records — and in every case the daemon keeps serving: the next
/// request, the next connection, and the recompile after a poisoned hit
/// are all answered normally.
///
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "obs/Json.h"
#include "parser/LoopParser.h"
#include "server/Server.h"
#include "server/Service.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace simdize;
using namespace simdize::server;

namespace {

const char *FaultLoop = "array a i32 128 align 0\n"
                        "array b i32 128 align 4\n"
                        "array c i32 128 align 8\n"
                        "loop 100\n"
                        "a[i+1] = b[i+2] + c[i]\n";

std::string compileReq(uint64_t Id) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("id", Id)
      .field("kind", "compile")
      .field("loop", FaultLoop)
      .endObject();
  return Out;
}

std::string errorCodeOf(const std::string &Resp) {
  std::optional<obs::json::Value> V = obs::json::parse(Resp);
  if (!V)
    return "<unparseable>";
  const obs::json::Value *E = V->find("error");
  const obs::json::Value *C = E ? E->find("code") : nullptr;
  return C && C->isString() ? C->Str : std::string();
}

TEST(ServerFault, WorkerThrowingMidCompileIsIsolated) {
  Service S;
  std::string Clean = S.handle(compileReq(1));
  ASSERT_EQ(errorCodeOf(Clean), "");

  // Every request with id 13 explodes inside the worker, after
  // validation, as a mid-compile crash would.
  S.FaultHook = [](const Request &R) {
    if (R.Id == 13)
      throw std::runtime_error("injected mid-compile fault");
  };
  std::string Faulted = S.handle(compileReq(13));
  EXPECT_EQ(errorCodeOf(Faulted), "internal_error");
  EXPECT_NE(Faulted.find("injected mid-compile fault"), std::string::npos);

  // The service keeps serving, and undamaged: same bytes as before.
  EXPECT_EQ(S.handle(compileReq(1)), Clean);

  // Non-std::exception payloads are caught too.
  S.FaultHook = [](const Request &R) {
    if (R.Id == 14)
      throw 42;
  };
  EXPECT_EQ(errorCodeOf(S.handle(compileReq(14))), "internal_error");
  EXPECT_EQ(S.handle(compileReq(1)), Clean);
}

TEST(ServerFault, FaultInsideBatchIsIsolatedPerSubRequest) {
  Service S;
  S.FaultHook = [](const Request &R) {
    if (R.Id == 7)
      throw std::runtime_error("boom");
  };
  std::string Batch;
  obs::json::Writer W(Batch);
  W.beginObject().field("id", 100).field("kind", "batch").key("requests");
  W.beginArray().raw(compileReq(6)).raw(compileReq(7)).raw(compileReq(8));
  W.endArray().endObject();

  std::optional<obs::json::Value> V = obs::json::parse(S.handle(Batch));
  ASSERT_TRUE(V.has_value());
  const obs::json::Value *R = V->find("responses");
  ASSERT_NE(R, nullptr);
  ASSERT_EQ(R->Arr.size(), 3u);
  EXPECT_TRUE(R->Arr[0].find("ok")->Bool);
  EXPECT_FALSE(R->Arr[1].find("ok")->Bool);
  EXPECT_EQ(R->Arr[1].find("error")->find("code")->Str, "internal_error");
  EXPECT_TRUE(R->Arr[2].find("ok")->Bool);
}

TEST(ServerFault, ClientDisconnectMidFrameEndsOnlyThatConnection) {
  Service S;
  std::string Path =
      "/tmp/simdized-fault-" + std::to_string(::getpid()) + ".sock";
  UnixServer Daemon(S, Path, {2});
  std::string Err;
  ASSERT_TRUE(Daemon.start(&Err)) << Err;

  // First connection: write half a frame, then vanish.
  {
    Client C;
    ASSERT_TRUE(C.connect(Path, &Err)) << Err;
    ASSERT_TRUE(writeAll(C.fd(), "400\n{\"id\":1,"));
    C.close();
  }

  // The daemon keeps accepting and serving on a fresh connection.
  Client C2;
  ASSERT_TRUE(C2.connect(Path, &Err)) << Err;
  std::string Resp;
  ASSERT_TRUE(C2.call(compileReq(2), Resp, &Err)) << Err;
  EXPECT_EQ(errorCodeOf(Resp), "");
  C2.close();
  Daemon.stop();
}

TEST(ServerFault, DisconnectMidFrameYieldsTruncatedRecord) {
  // Drive the connection loop directly so the final error record is
  // observable (a vanished socket client never reads it).
  Service S;
  int Up[2], Down[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Up), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Down), 0);
  std::thread Conn([&] {
    // Dirty stream: runConnection must report failure...
    EXPECT_FALSE(runConnection(Up[0], Down[1], S, {2}));
    ::shutdown(Down[1], SHUT_WR);
  });
  // One whole frame, then a partial one, then EOF.
  ASSERT_TRUE(writeAll(Up[1], encodeFrame(compileReq(5)) + "90\n{\"id\""));
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
  // ...yet the complete request was answered before the truncated record.
  ASSERT_EQ(Resp.size(), 2u);
  EXPECT_EQ(errorCodeOf(Resp[0]), "");
  EXPECT_EQ(errorCodeOf(Resp[1]), "truncated_frame");

  // The Service survives for the next connection.
  EXPECT_EQ(errorCodeOf(S.handle(compileReq(6))), "");
  for (int Fd : {Up[0], Up[1], Down[0], Down[1]})
    ::close(Fd);
}

TEST(ServerFault, PoisonedCacheEntryIsEvictedAndRecompiled) {
  Service S;
  std::string Original = S.handle(compileReq(3));
  ASSERT_EQ(errorCodeOf(Original), "");
  ASSERT_EQ(S.cache().size(), 1u);

  // Corrupt the only entry's bytes behind the checksum's back.
  std::string Key;
  {
    // Recover the key the service computed: same loop, default config.
    std::optional<obs::json::Value> V = obs::json::parse(Original);
    ASSERT_TRUE(V.has_value());
    // poisonForTest takes the key; recompute it the way the service does.
    parser::ParseResult P = parser::parseLoop(FaultLoop, 16);
    ASSERT_TRUE(P.ok());
    Key = CompileCache::keyOf(ir::printParseable(*P.Loop),
                              pipeline::CompileRequest());
  }
  S.cache().poisonForTest(Key);

  // The poisoned hit is a structured error, never silently served...
  std::string Poisoned = S.handle(compileReq(3));
  EXPECT_EQ(errorCodeOf(Poisoned), "poisoned_cache");
  EXPECT_EQ(S.cache().stats().Poisoned, 1);
  EXPECT_EQ(S.cache().size(), 0u) << "poisoned entry must be evicted";

  // ...and the retry recompiles to the original bytes.
  EXPECT_EQ(S.handle(compileReq(3)), Original);
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(ServerFault, BadPayloadDoesNotEndTheConnection) {
  Service S;
  int Up[2], Down[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Up), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Down), 0);
  std::thread Conn([&] {
    EXPECT_TRUE(runConnection(Up[0], Down[1], S, {1}));
    ::shutdown(Down[1], SHUT_WR);
  });
  // Garbage JSON between two valid requests: per-request error only.
  ASSERT_TRUE(writeAll(Up[1], encodeFrame(compileReq(1)) +
                                  encodeFrame("this is not json") +
                                  encodeFrame(compileReq(2))));
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
  EXPECT_EQ(errorCodeOf(Resp[0]), "");
  EXPECT_EQ(errorCodeOf(Resp[1]), "bad_json");
  EXPECT_EQ(errorCodeOf(Resp[2]), "");
  for (int Fd : {Up[0], Up[1], Down[0], Down[1]})
    ::close(Fd);
}

} // namespace
