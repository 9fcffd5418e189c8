//===- tests/ObsTest.cpp - Observability layer tests ----------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the observability layer end to end: the JSON writer/parser pair,
/// the metrics registry (histogram bucketing, exact merge, NaN-dropping
/// observe), the tracer's Chrome trace-event export and its disabled fast
/// path (no events, bit-identical ExecStats), the decision log built by
/// codegen::explainSimdization (predicted == placed shift counts, schema),
/// the chunk heatmap, and the fuzzer's
/// metrics JSONL stream (byte-identical across --jobs values).
///
//===----------------------------------------------------------------------===//

#include "codegen/Explain.h"
#include "codegen/Simdizer.h"
#include "fuzz/Fuzzer.h"
#include "obs/DecisionLog.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "opt/Pipeline.h"
#include "parser/LoopParser.h"
#include "sim/Checker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace simdize;

namespace {

/// The README / Figure 1 example loop.
const char *Fig1Text = "array a i32 128 align 0\n"
                       "array b i32 128 align 0\n"
                       "array c i32 128 align 0\n"
                       "loop 100\n"
                       "a[i+3] = b[i+1] + c[i+2]\n";

ir::Loop parseFig1() {
  parser::ParseResult R = parser::parseLoop(Fig1Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Loop);
}

//===----------------------------------------------------------------------===//
// JSON writer / parser
//===----------------------------------------------------------------------===//

TEST(ObsJson, WriterParserRoundTrip) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("name", "simdize")
      .field("runs", 42)
      .field("opd", 1.625)
      .field("ok", true);
  W.key("tags").beginArray().value("a").value(2).null().endArray();
  W.key("nested").beginObject().field("depth", 2).endObject();
  W.endObject();

  std::string Err;
  auto V = obs::json::parse(Out, &Err);
  ASSERT_TRUE(V.has_value()) << Err << " in: " << Out;
  ASSERT_TRUE(V->isObject());
  ASSERT_NE(V->find("name"), nullptr);
  EXPECT_EQ(V->find("name")->Str, "simdize");
  EXPECT_EQ(V->find("runs")->Num, 42.0);
  EXPECT_EQ(V->find("opd")->Num, 1.625);
  EXPECT_TRUE(V->find("ok")->Bool);
  const obs::json::Value *Tags = V->find("tags");
  ASSERT_NE(Tags, nullptr);
  ASSERT_TRUE(Tags->isArray());
  ASSERT_EQ(Tags->Arr.size(), 3u);
  EXPECT_TRUE(Tags->Arr[2].isNull());
  const obs::json::Value *Nested = V->find("nested");
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->find("depth")->Num, 2.0);
}

TEST(ObsJson, NanAndInfinityBecomeNull) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("inf", std::numeric_limits<double>::infinity())
      .endObject();
  auto V = obs::json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  EXPECT_TRUE(V->find("nan")->isNull());
  EXPECT_TRUE(V->find("inf")->isNull());
}

TEST(ObsJson, EscapesStrings) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject().field("s", "a\"b\\c\n\t").endObject();
  auto V = obs::json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  EXPECT_EQ(V->find("s")->Str, "a\"b\\c\n\t");
}

TEST(ObsJson, WriterOutputIsExact) {
  std::string Out = "prefix:";
  obs::json::Writer W(Out);
  W.beginObject()
      .field("k\"\x01", std::string("x\r\x1f\x7f\xc3\xa9y\0z", 9))
      .field("plain", "no escapes at all")
      .field("empty", "")
      .field("min", std::numeric_limits<int64_t>::min())
      .field("max", std::numeric_limits<uint64_t>::max())
      .field("neg", -42)
      .field("zero", 0u)
      .field("d", 0.1)
      .field("big", 1e300)
      .field("f", false);
  W.key("a").beginArray().value(int64_t{7}).value("\t").raw("{}").endArray();
  W.endObject();
  EXPECT_EQ(Out, "prefix:{\"k\\\"\\u0001\":\"x\\r\\u001f\x7f\xc3\xa9y\\u0000z\","
                 "\"plain\":\"no escapes at all\",\"empty\":\"\","
                 "\"min\":-9223372036854775808,"
                 "\"max\":18446744073709551615,\"neg\":-42,\"zero\":0,"
                 "\"d\":0.10000000000000001,\"big\":1.0000000000000001e+300,"
                 "\"f\":false,\"a\":[7,\"\\t\",{}]}");
  EXPECT_EQ(obs::json::escape("a\"\\\n\b"), "a\\\"\\\\\\n\\u0008");
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(obs::json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(obs::json::parse("[1,2").has_value());
  EXPECT_FALSE(obs::json::parse("\"unterminated").has_value());
  EXPECT_FALSE(obs::json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::json::parse("").has_value());
  std::string Err;
  EXPECT_FALSE(obs::json::parse("{\"a\" 1}", &Err).has_value());
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, HistogramBasics) {
  obs::Histogram H;
  EXPECT_EQ(H.count(), 0);
  EXPECT_TRUE(std::isnan(H.percentile(0.5)));

  for (int I = 1; I <= 100; ++I)
    H.add(static_cast<double>(I));
  EXPECT_EQ(H.count(), 100);
  // Sum and mean carry the histogram's ~7% bucket resolution.
  EXPECT_NEAR(H.sum(), 5050.0, 5050.0 * 0.07);
  EXPECT_NEAR(H.mean(), 50.5, 50.5 * 0.07);
  // Bucket representatives carry ~7% relative error; allow 10%.
  EXPECT_NEAR(H.percentile(0.5), 50.0, 5.0);
  EXPECT_NEAR(H.percentile(0.9), 90.0, 9.0);
  EXPECT_NEAR(H.min(), 1.0, 0.1);
  EXPECT_NEAR(H.max(), 100.0, 10.0);
}

TEST(ObsMetrics, HistogramZeroAndNegativeClampToZeroBucket) {
  obs::Histogram H;
  H.add(0.0);
  H.add(-3.0);
  EXPECT_EQ(H.count(), 2);
  EXPECT_DOUBLE_EQ(H.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(H.min(), 0.0);
}

TEST(ObsMetrics, HistogramMergeIsExact) {
  // Merging shard histograms must equal recording the union directly,
  // regardless of how samples were split — the property the fuzzer's
  // deterministic aggregate rests on.
  obs::Histogram Direct, ShardA, ShardB;
  for (int I = 0; I < 200; ++I) {
    double V = 0.5 * I * I; // spread across many buckets, includes 0
    Direct.add(V);
    (I % 3 == 0 ? ShardA : ShardB).add(V);
  }
  obs::Histogram Merged = ShardA;
  Merged.merge(ShardB);
  EXPECT_TRUE(Merged == Direct);
  // Opposite merge order, same result.
  obs::Histogram Merged2 = ShardB;
  Merged2.merge(ShardA);
  EXPECT_TRUE(Merged2 == Direct);
}

TEST(ObsMetrics, HistogramJsonSchema) {
  obs::Histogram H;
  for (int I = 1; I <= 10; ++I)
    H.add(I);
  std::string Out;
  obs::json::Writer W(Out);
  H.writeJson(W);
  auto V = obs::json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  for (const char *Key : {"count", "sum", "mean", "min", "max", "p50", "p90",
                          "p99"})
    EXPECT_NE(V->find(Key), nullptr) << "missing " << Key << " in " << Out;
  EXPECT_EQ(V->find("count")->Num, 10.0);
}

TEST(ObsMetrics, RegistryCountersGaugesHistograms) {
  obs::Registry R;
  R.count("check.runs");
  R.count("check.runs", 4);
  R.gauge("exec.opd", 1.5);
  R.gauge("exec.opd", 2.5); // last write wins
  R.observe("fuzz.shift_count", 3.0);
  R.observe("fuzz.shift_count", std::numeric_limits<double>::quiet_NaN());

  EXPECT_EQ(R.counterValue("check.runs"), 5);
  EXPECT_DOUBLE_EQ(R.gaugeValue("exec.opd"), 2.5);
  // The NaN observation is dropped, not averaged in as zero.
  EXPECT_EQ(R.histogram("fuzz.shift_count").count(), 1);

  auto V = obs::json::parse(R.toJson());
  ASSERT_TRUE(V.has_value()) << R.toJson();
  ASSERT_NE(V->find("counters"), nullptr);
  ASSERT_NE(V->find("gauges"), nullptr);
  ASSERT_NE(V->find("histograms"), nullptr);
  EXPECT_EQ(V->find("counters")->find("check.runs")->Num, 5.0);
}

TEST(ObsMetrics, RegistryMerge) {
  obs::Registry A, B;
  A.count("runs", 2);
  B.count("runs", 3);
  A.observe("opd", 1.0);
  B.observe("opd", 2.0);
  B.gauge("knob", 7.0);
  A.merge(B);
  EXPECT_EQ(A.counterValue("runs"), 5);
  EXPECT_EQ(A.histogram("opd").count(), 2);
  EXPECT_DOUBLE_EQ(A.gaugeValue("knob"), 7.0);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

/// Busy-waits until at least \p Us microseconds elapse, so nested spans
/// get strictly ordered timestamps even at microsecond resolution.
void spinAtLeastUs(int64_t Us) {
  auto Start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
             .count() <= Us) {
  }
}

TEST(ObsTrace, ChromeExportSchemaAndNesting) {
  obs::Tracer T;
  obs::installTracer(&T);
  {
    obs::Span Outer("outer");
    spinAtLeastUs(2);
    {
      obs::Span Inner("inner", "sim");
      Inner.arg("iters", 7);
      Inner.argStr("policy", "LAZY");
      spinAtLeastUs(2);
    }
    spinAtLeastUs(2);
  }
  obs::installTracer(nullptr);
  ASSERT_EQ(T.eventCount(), 2u);

  std::string Json = T.toChromeJson();
  auto V = obs::json::parse(Json);
  ASSERT_TRUE(V.has_value()) << Json;
  const obs::json::Value *Events = V->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->Arr.size(), 2u);

  for (const obs::json::Value &E : Events->Arr) {
    for (const char *Key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"})
      ASSERT_NE(E.find(Key), nullptr) << "missing " << Key << " in " << Json;
    EXPECT_EQ(E.find("ph")->Str, "X");
  }

  // Parent precedes child (the sort the Chrome viewer's nesting needs),
  // and the child's interval is contained in the parent's.
  const obs::json::Value &First = Events->Arr[0];
  const obs::json::Value &Second = Events->Arr[1];
  EXPECT_EQ(First.find("name")->Str, "outer");
  EXPECT_EQ(Second.find("name")->Str, "inner");
  double OuterStart = First.find("ts")->Num;
  double OuterEnd = OuterStart + First.find("dur")->Num;
  double InnerStart = Second.find("ts")->Num;
  double InnerEnd = InnerStart + Second.find("dur")->Num;
  EXPECT_LT(OuterStart, InnerStart);
  EXPECT_GT(OuterEnd, InnerEnd);

  // Span arguments survive as an args object.
  const obs::json::Value *Args = Second.find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("iters")->Num, 7.0);
  EXPECT_EQ(Args->find("policy")->Str, "LAZY");

  // The human-readable summary mentions both phases.
  std::string Summary = T.summary();
  EXPECT_NE(Summary.find("outer"), std::string::npos);
  EXPECT_NE(Summary.find("inner"), std::string::npos);
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  ASSERT_EQ(obs::activeTracer(), nullptr);
  {
    obs::Span S("unobserved");
    EXPECT_FALSE(S.active());
    S.arg("k", 1);        // must be a no-op, not a crash
    S.argStr("s", "v");
  }
  // Nothing was recorded anywhere: installing a fresh tracer afterwards
  // starts from zero events.
  obs::Tracer T;
  obs::installTracer(&T);
  obs::installTracer(nullptr);
  EXPECT_EQ(T.eventCount(), 0u);
}

TEST(ObsTrace, TracingDoesNotPerturbExecStats) {
  // The disabled-tracer fast path must not change pipeline results, and
  // neither may enabling tracing: ExecStats are bit-identical either way.
  ir::Loop L = parseFig1();
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  Opts.SoftwarePipelining = true;

  ASSERT_EQ(obs::activeTracer(), nullptr);
  codegen::SimdizeResult R1 = codegen::simdize(L, Opts);
  ASSERT_TRUE(R1.ok()) << R1.Error;
  opt::runOptPipeline(*R1.Program, opt::OptConfig());
  sim::CheckResult C1 = sim::checkSimdization(L, *R1.Program, 7);
  ASSERT_TRUE(C1.Ok) << C1.Message;

  obs::Tracer T;
  obs::installTracer(&T);
  codegen::SimdizeResult R2 = codegen::simdize(L, Opts);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  opt::runOptPipeline(*R2.Program, opt::OptConfig());
  sim::CheckResult C2 = sim::checkSimdization(L, *R2.Program, 7);
  obs::installTracer(nullptr);
  ASSERT_TRUE(C2.Ok) << C2.Message;

  EXPECT_GT(T.eventCount(), 0u);
  EXPECT_TRUE(C1.Stats.Counts == C2.Stats.Counts);
  EXPECT_EQ(C1.Stats.SteadyIterations, C2.Stats.SteadyIterations);
  EXPECT_EQ(C1.Stats.ChunkLoads, C2.Stats.ChunkLoads);
  EXPECT_EQ(C1.Stats.ChunkStores, C2.Stats.ChunkStores);
}

//===----------------------------------------------------------------------===//
// Decision log
//===----------------------------------------------------------------------===//

TEST(ObsDecisionLog, ExplainFig1PredictedEqualsPlaced) {
  ir::Loop L = parseFig1();
  for (policies::PolicyKind Policy :
       {policies::PolicyKind::Zero, policies::PolicyKind::Eager,
        policies::PolicyKind::Lazy, policies::PolicyKind::Dominant}) {
    codegen::SimdizeOptions Opts;
    Opts.Policy = Policy;
    codegen::SimdizeResult R = codegen::simdize(L, Opts);
    ASSERT_TRUE(R.ok()) << R.Error;

    obs::DecisionLog Log = codegen::explainSimdization(L, Opts, R);
    EXPECT_TRUE(Log.Simdized);
    ASSERT_EQ(Log.Stmts.size(), 1u);
    const obs::StmtDecision &S = Log.Stmts[0];
    EXPECT_EQ(S.Accesses.size(), 3u); // store a, loads b and c
    unsigned Stores = 0;
    for (const obs::AccessDecision &A : S.Accesses)
      Stores += A.IsStore;
    EXPECT_EQ(Stores, 1u);
    // The policy's own shift-count contract must match what placement
    // actually produced.
    EXPECT_EQ(S.PredictedShifts, S.PlacedShifts)
        << "policy " << policies::policyName(Policy);
    EXPECT_EQ(S.Shifts.size(), S.PlacedShifts);
    EXPECT_EQ(R.ShiftCount, S.PlacedShifts);
  }
}

TEST(ObsDecisionLog, JsonSchemaAndText) {
  ir::Loop L = parseFig1();
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  Opts.SoftwarePipelining = true;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  obs::DecisionLog Log = codegen::explainSimdization(L, Opts, R);

  auto V = obs::json::parse(Log.toJson());
  ASSERT_TRUE(V.has_value()) << Log.toJson();
  EXPECT_EQ(V->find("policy")->Str, "LAZY");
  EXPECT_TRUE(V->find("software_pipelining")->Bool);
  EXPECT_TRUE(V->find("simdized")->Bool);
  const obs::json::Value *Stmts = V->find("statements");
  ASSERT_NE(Stmts, nullptr);
  ASSERT_TRUE(Stmts->isArray());
  ASSERT_EQ(Stmts->Arr.size(), 1u);
  const obs::json::Value &S = Stmts->Arr[0];
  ASSERT_NE(S.find("accesses"), nullptr);
  ASSERT_NE(S.find("shifts"), nullptr);
  EXPECT_EQ(S.find("predicted_shifts")->Num, S.find("placed_shifts")->Num);
  const obs::json::Value *Shape = V->find("shape");
  ASSERT_NE(Shape, nullptr);
  EXPECT_EQ(Shape->find("vector_len")->Num, 16.0);
  EXPECT_EQ(Shape->find("elem_size")->Num, 4.0);
  EXPECT_EQ(Shape->find("blocking_factor")->Num, 4.0);
  EXPECT_EQ(Shape->find("trip_count")->Num, 100.0);

  std::string Text = Log.explainText();
  EXPECT_NE(Text.find("LAZY"), std::string::npos);
  EXPECT_NE(Text.find("predicted"), std::string::npos);
}

TEST(ObsDecisionLog, GoldenGuardAndReductionSchema) {
  // One statement of each kind; the per-kind records are part of the
  // schema_version=2 contract (docs/SERVER.md, "Schema versioning"), so
  // the field names and values here are golden.
  parser::ParseResult P = parser::parseLoop("array a i32 96 align 0\n"
                                            "array b i32 96 align 4\n"
                                            "array c i32 96 align 8\n"
                                            "array s i32 96 align 0\n"
                                            "array r i32 96 align 0\n"
                                            "loop 60\n"
                                            "a[i] = b[i+1]\n"
                                            "if (b[i] > 5) s[i+1] = c[i]\n"
                                            "r[0] += b[i+2]\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Zero;
  codegen::SimdizeResult R = codegen::simdize(*P.Loop, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  obs::DecisionLog Log = codegen::explainSimdization(*P.Loop, Opts, R);

  auto V = obs::json::parse(Log.toJson());
  ASSERT_TRUE(V.has_value()) << Log.toJson();
  const obs::json::Value *Stmts = V->find("statements");
  ASSERT_NE(Stmts, nullptr);
  ASSERT_EQ(Stmts->Arr.size(), 3u);

  const obs::json::Value &Assign = Stmts->Arr[0];
  EXPECT_EQ(Assign.find("kind")->Str, "assign");
  EXPECT_EQ(Assign.find("guard"), nullptr);
  EXPECT_EQ(Assign.find("reduction"), nullptr);

  const obs::json::Value &If = Stmts->Arr[1];
  EXPECT_EQ(If.find("kind")->Str, "if");
  const obs::json::Value *Guard = If.find("guard");
  ASSERT_NE(Guard, nullptr);
  EXPECT_EQ(Guard->find("cmp")->Str, "gt");
  // Zero-shift realigns every stream to offset 0; the predicate mask
  // feeding the blend is no exception.
  EXPECT_EQ(Guard->find("predicate_stream")->Str, "0");
  EXPECT_EQ(If.find("reduction"), nullptr);
  // The guard load of b and the old-value reload of s both show up as
  // accesses (store s, loads c, b, s-old).
  unsigned IfLoads = 0, IfStores = 0;
  for (const obs::json::Value &A : If.find("accesses")->Arr)
    (A.find("is_store")->Bool ? IfStores : IfLoads)++;
  EXPECT_EQ(IfStores, 1u);
  EXPECT_GE(IfLoads, 3u);

  const obs::json::Value &Red = Stmts->Arr[2];
  EXPECT_EQ(Red.find("kind")->Str, "reduce");
  EXPECT_EQ(Red.find("guard"), nullptr);
  const obs::json::Value *Reduction = Red.find("reduction");
  ASSERT_NE(Reduction, nullptr);
  EXPECT_EQ(Reduction->find("op")->Str, "add");
  // V=16, D=4: log2(V/D) = 2 rotate-and-combine rounds fold the lanes.
  EXPECT_EQ(Reduction->find("final_shuffles")->Num, 2.0);

  std::string Text = Log.explainText();
  EXPECT_NE(Text.find("guard: cmp gt"), std::string::npos) << Text;
  EXPECT_NE(Text.find("reduction: add, 2 lane-fold rotate round(s)"),
            std::string::npos)
      << Text;
}

TEST(ObsDecisionLog, RecordsSimdizationFailure) {
  // A runtime-aligned store defeats every policy except zero-shift; with
  // eager-shift the run is rejected and the log must say so.
  parser::ParseResult P = parser::parseLoop("array a i32 64 align ? 4\n"
                                            "array b i32 64 align 0\n"
                                            "loop 40\n"
                                            "a[i] = b[i+1]\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Eager;
  codegen::SimdizeResult R = codegen::simdize(*P.Loop, Opts);
  ASSERT_FALSE(R.ok());

  obs::DecisionLog Log = codegen::explainSimdization(*P.Loop, Opts, R);
  EXPECT_FALSE(Log.Simdized);
  EXPECT_FALSE(Log.Error.empty());
  EXPECT_FALSE(Log.ErrorKind.empty());
  auto V = obs::json::parse(Log.toJson());
  ASSERT_TRUE(V.has_value()) << Log.toJson();
  EXPECT_FALSE(V->find("simdized")->Bool);
  ASSERT_NE(V->find("error"), nullptr);
}

//===----------------------------------------------------------------------===//
// The chunk heatmap
//===----------------------------------------------------------------------===//

TEST(ObsProfile, ChunkHeatmapTracksLoadsAndStores) {
  ir::Loop L = parseFig1();
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;

  sim::ReferenceImage Ref(L, R.Program->getVectorLen(), 7);
  sim::ExecOptions CO;
  CO.TrackChunkLoads = true;
  sim::CheckResult C = sim::checkSimdization(L, *R.Program, Ref, nullptr, CO);
  ASSERT_TRUE(C.Ok) << C.Message;

  // One cell per chunk of memory, and every dynamic access lands in
  // exactly one of them.
  size_t Cells = static_cast<size_t>(Ref.getLayout().getTotalSize() /
                                     R.Program->getVectorLen());
  EXPECT_EQ(C.Stats.ChunkLoads.size(), Cells);
  EXPECT_EQ(C.Stats.ChunkStores.size(), Cells);
  int64_t Loads = 0, Stores = 0;
  for (int64_t N : C.Stats.ChunkLoads)
    Loads += N;
  for (int64_t N : C.Stats.ChunkStores)
    Stores += N;
  EXPECT_GT(Loads, 0);
  EXPECT_GT(Stores, 0);
  EXPECT_EQ(Loads, C.Stats.Counts.Loads);
  EXPECT_EQ(Stores, C.Stats.Counts.Stores);

  // Without tracking the heatmap is not built at all.
  sim::CheckResult Untracked = sim::checkSimdization(L, *R.Program, Ref);
  ASSERT_TRUE(Untracked.Ok) << Untracked.Message;
  EXPECT_TRUE(Untracked.Stats.ChunkLoads.empty());
  EXPECT_TRUE(Untracked.Stats.ChunkStores.empty());
}

//===----------------------------------------------------------------------===//
// Fuzzer metrics stream
//===----------------------------------------------------------------------===//

std::string runFuzzMetrics(unsigned Jobs) {
  fuzz::FuzzOptions Opts;
  Opts.StartSeed = 940000001;
  Opts.NumSeeds = 24;
  Opts.Log = nullptr;
  Opts.Jobs = Jobs;
  std::FILE *F = std::tmpfile();
  EXPECT_NE(F, nullptr);
  Opts.MetricsOut = F;
  fuzz::runFuzz(Opts);
  std::rewind(F);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

TEST(ObsFuzzMetrics, JsonlWellFormedAndDeterministicAcrossJobs) {
  std::string Serial = runFuzzMetrics(1);
  ASSERT_FALSE(Serial.empty());

  // Every line is one JSON object; the last is the aggregate record.
  size_t Lines = 0, Pos = 0;
  bool SawAggregate = false;
  while (Pos < Serial.size()) {
    size_t End = Serial.find('\n', Pos);
    ASSERT_NE(End, std::string::npos) << "unterminated final line";
    std::string Line = Serial.substr(Pos, End - Pos);
    std::string Err;
    auto V = obs::json::parse(Line, &Err);
    ASSERT_TRUE(V.has_value()) << Err << " in line: " << Line;
    ASSERT_TRUE(V->isObject());
    if (V->find("aggregate")) {
      SawAggregate = true;
      EXPECT_EQ(End + 1, Serial.size()) << "aggregate must be last";
      EXPECT_NE(V->find("seeds_run"), nullptr);
      EXPECT_NE(V->find("runs_verified"), nullptr);
      ASSERT_NE(V->find("opd"), nullptr);
      EXPECT_NE(V->find("opd")->find("p50"), nullptr);
      ASSERT_NE(V->find("shift_count"), nullptr);
    } else {
      EXPECT_NE(V->find("seed"), nullptr);
      EXPECT_NE(V->find("config"), nullptr);
      EXPECT_NE(V->find("status"), nullptr);
      EXPECT_NE(V->find("shift_count"), nullptr);
    }
    ++Lines;
    Pos = End + 1;
  }
  EXPECT_TRUE(SawAggregate);
  EXPECT_GT(Lines, 24u); // several configs per seed, plus the aggregate

  // Sharded runs merge in seed order: the stream is byte-identical.
  EXPECT_EQ(runFuzzMetrics(4), Serial);
  EXPECT_EQ(runFuzzMetrics(3), Serial);
}

} // namespace
