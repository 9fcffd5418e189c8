//===- tests/SimMachineTest.cpp - Unit tests for the SIMD simulator ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "sim/Machine.h"
#include "sim/Memory.h"
#include "sim/ScalarInterp.h"

#include <gtest/gtest.h>

using namespace simdize;
using namespace simdize::sim;
using namespace simdize::vir;

namespace {

TEST(Memory, ElementRoundTripSignExtension) {
  Memory Mem(64);
  Mem.writeElem(0, 1, -1);
  EXPECT_EQ(Mem.readElem(0, 1), -1);
  Mem.writeElem(4, 2, -30000);
  EXPECT_EQ(Mem.readElem(4, 2), -30000);
  Mem.writeElem(8, 4, -2000000000);
  EXPECT_EQ(Mem.readElem(8, 4), -2000000000);
  // Wrap-around on overflow of the element width.
  Mem.writeElem(12, 1, 255);
  EXPECT_EQ(Mem.readElem(12, 1), -1);
  Mem.writeElem(16, 2, 0x12345);
  EXPECT_EQ(Mem.readElem(16, 2), 0x2345);
}

TEST(Memory, LittleEndianLayout) {
  Memory Mem(64);
  Mem.writeElem(0, 4, 0x04030201);
  EXPECT_EQ(Mem.data()[0], 0x01);
  EXPECT_EQ(Mem.data()[1], 0x02);
  EXPECT_EQ(Mem.data()[2], 0x03);
  EXPECT_EQ(Mem.data()[3], 0x04);
}

TEST(Memory, FillPatternDeterministic) {
  Memory A(128), B(128);
  A.fillPattern(5);
  B.fillPattern(5);
  EXPECT_TRUE(A == B);
  B.fillPattern(6);
  EXPECT_FALSE(A == B);
}

TEST(MemoryLayout, RealizesDeclaredAlignments) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 32, 12, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 32, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int16, 32, 6, true);
  MemoryLayout Layout(L, 16);
  EXPECT_EQ(Layout.baseOf(A) % 16, 12);
  EXPECT_EQ(Layout.baseOf(B) % 16, 0);
  EXPECT_EQ(Layout.baseOf(C) % 16, 6);
}

TEST(ReferenceImageCache, OneImageServesEveryParseOfOneText) {
  // Layouts are indexed by array declaration order, so an image built from
  // one parse serves a program compiled from another parse of the text.
  const char *Text = "array c i16 256 align ? 6\n"
                     "array a i16 256 align 2\n"
                     "array b i16 256 align ? 14\n"
                     "param k 7\n"
                     "loop runtime 150\n"
                     "a[i+1] = k * b[i+3] + c[i]\n";
  parser::ParseResult First = parser::parseLoop(Text);
  parser::ParseResult Second = parser::parseLoop(Text);
  ASSERT_TRUE(First.ok() && Second.ok()) << First.Error;

  ReferenceImageCache Cache;
  std::string Key = ir::printParseable(*First.Loop);
  auto Img = Cache.get(Key, *First.Loop, 16, 3);
  EXPECT_EQ(Cache.get(ir::printParseable(*Second.Loop), *Second.Loop, 16, 3),
            Img);
  EXPECT_EQ(Cache.stats().Misses, 1);
  EXPECT_EQ(Cache.stats().Hits, 1);

  pipeline::CompileRequest Req;
  Req.Simd.Policy = policies::PolicyKind::Zero;
  Req.Simd.SoftwarePipelining = true;
  pipeline::CompileResult R = pipeline::runPipeline(*Second.Loop, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  CheckResult C = pipeline::checkCompiled(*Second.Loop, R, *Img);
  EXPECT_TRUE(C.Ok) << C.Message;
}

TEST(ReferenceImageCache, EvictsTheLeastRecentlyUsedImage) {
  parser::ParseResult P = parser::parseLoop("array a i32 64 align 0\n"
                                            "array b i32 64 align 4\n"
                                            "loop 40\n"
                                            "a[i] = b[i+1]\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  const ir::Loop &L = *P.Loop;
  std::string Text = ir::printParseable(L);

  // Three keys that differ in width and in seed, through two slots.
  ReferenceImageCache Cache(2);
  auto First = Cache.get(Text, L, 16, 1);
  auto Second = Cache.get(Text, L, 32, 1);
  EXPECT_EQ(Cache.get(Text, L, 16, 1), First); // Refreshes the first key.
  auto Third = Cache.get(Text, L, 16, 2);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1);
  EXPECT_EQ(Third->getSeed(), 2u);
  EXPECT_EQ(Second->getVectorLen(), 32u);

  // The first and third keys survived; the second was evicted and is
  // rebuilt on its next use.
  EXPECT_EQ(Cache.get(Text, L, 16, 1), First);
  EXPECT_EQ(Cache.get(Text, L, 16, 2), Third);
  EXPECT_EQ(Cache.stats().Hits, 3);
  EXPECT_EQ(Cache.stats().Misses, 3);
  auto Rebuilt = Cache.get(Text, L, 32, 1);
  EXPECT_NE(Rebuilt, Second);
  EXPECT_EQ(Rebuilt->getExpected(), Second->getExpected());
  EXPECT_EQ(Cache.stats().Misses, 4);
  EXPECT_EQ(Cache.stats().Evictions, 2);
  EXPECT_EQ(Cache.size(), 2u);
  // Rebuilding the second key evicted the first, the least recent.
  EXPECT_EQ(Cache.get(Text, L, 16, 2), Third);
  EXPECT_NE(Cache.get(Text, L, 16, 1), First);
}

TEST(MemoryLayout, GuardGapsAtLeastFourVectors) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 8, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 8, 4, true);
  MemoryLayout Layout(L, 16);
  EXPECT_GE(Layout.baseOf(A), 4 * 16);
  EXPECT_GE(Layout.baseOf(B) - (Layout.baseOf(A) + A->getSizeInBytes()),
            4 * 16);
  EXPECT_GE(Layout.getTotalSize(),
            Layout.baseOf(B) + B->getSizeInBytes() + 4 * 16);
}

/// Machine fixture: one array with a misaligned base, simple programs.
class MachineTest : public ::testing::Test {
protected:
  MachineTest() : P(16, 4) {
    A = L.createArray("a", ir::ElemType::Int32, 32, 4, true);
    Aligned = L.createArray("al", ir::ElemType::Int32, 32, 0, true);
  }

  /// Runs P over a fresh patterned memory; returns (stats, memory).
  std::pair<ExecStats, Memory> run(uint64_t Seed = 1) {
    MemoryLayout Layout(L, 16);
    Memory Mem(Layout.getTotalSize());
    Mem.fillPattern(Seed);
    ExecStats Stats = runProgram(P, Layout, Mem);
    return {std::move(Stats), std::move(Mem)};
  }

  ir::Loop L;
  ir::Array *A = nullptr;
  ir::Array *Aligned = nullptr;
  VProgram P;
};

TEST_F(MachineTest, TruncatingLoad) {
  // Loads at a[0] (byte offset 4 into its chunk) and at a[-1] (offset 0)
  // read the same 16 bytes: the address's low bits are ignored.
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg();
  SRegId Probe = P.allocSReg();
  (void)Probe;
  P.getSetup().push_back(VInst::makeVLoad(V0, Address::constant(A, 0, 0)));
  P.getSetup().push_back(VInst::makeVLoad(V1, Address::constant(A, -1, 0)));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V0));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 4, 0), V1));

  auto [Stats, Mem] = run();
  MemoryLayout Layout(L, 16);
  for (int Byte = 0; Byte < 16; ++Byte)
    EXPECT_EQ(Mem.data()[Layout.baseOf(Aligned) + Byte],
              Mem.data()[Layout.baseOf(Aligned) + 16 + Byte]);
  EXPECT_EQ(Stats.Counts.Loads, 2);
  EXPECT_EQ(Stats.Counts.Stores, 2);
}

TEST_F(MachineTest, ChunkLoadAccounting) {
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVLoad(V0, Address::constant(A, 0, 0)));
  P.getSetup().push_back(VInst::makeVLoad(V0, Address::constant(A, 1, 0)));
  P.getSetup().push_back(VInst::makeVLoad(V0, Address::constant(A, 3, 0)));
  auto [Stats, Mem] = run();
  (void)Mem;
  MemoryLayout Layout(L, 16);
  // a base is at alignment 4: elements 0..2 share the base chunk; element
  // 3 starts the next one.
  int64_t Chunk0 = Layout.baseOf(A) - 4;
  EXPECT_EQ(Stats.ChunkLoads.at(static_cast<size_t>(Chunk0 / 16)), 2);
  EXPECT_EQ(Stats.ChunkLoads.at(static_cast<size_t>(Chunk0 / 16 + 1)), 1);
}

TEST_F(MachineTest, ShiftPairSelectsWindow) {
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x11, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x22, 1));
  P.getSetup().push_back(
      VInst::makeVShiftPair(V2, V0, V1, ScalarOperand::imm(5)));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V2));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, 16);
  const uint8_t *Out = Mem.data() + Layout.baseOf(Aligned);
  for (int Byte = 0; Byte < 16; ++Byte)
    EXPECT_EQ(Out[Byte], Byte < 11 ? 0x11 : 0x22) << "byte " << Byte;
}

TEST_F(MachineTest, ShiftPairByVectorLengthSelectsSecond) {
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x11, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x22, 1));
  P.getSetup().push_back(
      VInst::makeVShiftPair(V2, V0, V1, ScalarOperand::imm(16)));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V2));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, 16);
  for (int Byte = 0; Byte < 16; ++Byte)
    EXPECT_EQ(Mem.data()[Layout.baseOf(Aligned) + Byte], 0x22);
}

TEST_F(MachineTest, SpliceEndpoints) {
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x11, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x22, 1));
  // Point 0: second whole; point 16: first whole; point 7: 7 + 9 split.
  for (auto [Point, Slot] : {std::pair{0, 0}, {16, 1}, {7, 2}}) {
    P.getSetup().push_back(VInst::makeVSplice(
        V2, V0, V1, ScalarOperand::imm(Point)));
    P.getSetup().push_back(VInst::makeVStore(
        Address::constant(Aligned, static_cast<int64_t>(4) * Slot, 0), V2));
  }
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, 16);
  const uint8_t *Base = Mem.data() + Layout.baseOf(Aligned);
  for (int Byte = 0; Byte < 16; ++Byte) {
    EXPECT_EQ(Base[Byte], 0x22);
    EXPECT_EQ(Base[16 + Byte], 0x11);
    EXPECT_EQ(Base[32 + Byte], Byte < 7 ? 0x11 : 0x22);
  }
}

TEST_F(MachineTest, VectorArithmeticWrapAround) {
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x7fffffff, 4));
  P.getSetup().push_back(VInst::makeVSplat(V1, 1, 4));
  P.getSetup().push_back(
      VInst::makeVBinOp(ir::BinOpKind::Add, V2, V0, V1, 4));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V2));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, 16);
  for (int Lane = 0; Lane < 4; ++Lane)
    EXPECT_EQ(Mem.readElem(Layout.baseOf(Aligned) + Lane * 4, 4),
              static_cast<int64_t>(INT32_MIN));
}

TEST_F(MachineTest, ScalarOpsAndPredicates) {
  SRegId S1 = P.allocSReg(), S2 = P.allocSReg(), S3 = P.allocSReg(),
         S4 = P.allocSReg();
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg();
  P.getSetup().push_back(VInst::makeSConst(S1, 7));
  P.getSetup().push_back(VInst::makeSBinOp(
      SBinOpKind::Mod, S2, ScalarOperand::reg(S1), ScalarOperand::imm(4)));
  P.getSetup().push_back(VInst::makeSCmp(
      SCmpKind::EQ, S3, ScalarOperand::reg(S2), ScalarOperand::imm(3)));
  P.getSetup().push_back(VInst::makeSCmp(
      SCmpKind::LT, S4, ScalarOperand::reg(S1), ScalarOperand::imm(0)));
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x33, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x44, 1));

  VInst TakenStore = VInst::makeVStore(Address::constant(Aligned, 0, 0), V0);
  TakenStore.Predicate = S3; // 7 mod 4 == 3: executes.
  P.getSetup().push_back(TakenStore);
  VInst SkippedStore =
      VInst::makeVStore(Address::constant(Aligned, 4, 0), V1);
  SkippedStore.Predicate = S4; // 7 < 0: skipped.
  P.getSetup().push_back(SkippedStore);

  auto [Stats, Mem] = run();
  MemoryLayout Layout(L, 16);
  EXPECT_EQ(Mem.data()[Layout.baseOf(Aligned)], 0x33);
  // The second chunk keeps its original pattern byte (store skipped), and
  // skipped instructions are not charged.
  EXPECT_EQ(Stats.Counts.Stores, 1);
  EXPECT_EQ(Stats.Counts.Scalar, 4);
}

TEST_F(MachineTest, LoopControlCostAndIterationCount) {
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 1, 4));
  P.getBody().push_back(
      VInst::makeVStore(Address::indexed(Aligned, 0, P.getIndexReg()), V0));
  P.setLoopBounds(ScalarOperand::imm(4), ScalarOperand::imm(21));
  auto [Stats, Mem] = run();
  (void)Mem;
  // i = 4, 8, 12, 16, 20: five iterations, two loop-control ops each, one
  // call/return pair.
  EXPECT_EQ(Stats.SteadyIterations, 5);
  EXPECT_EQ(Stats.Counts.LoopCtl, 10);
  EXPECT_EQ(Stats.Counts.CallRet, 2);
  EXPECT_EQ(Stats.Counts.Stores, 5);
}

TEST_F(MachineTest, EpilogueSeesFirstUnexecutedCounter) {
  SRegId Probe = P.allocSReg();
  P.getEpilogue().push_back(
      VInst::makeSBinOp(SBinOpKind::Add, Probe,
                        ScalarOperand::reg(P.getIndexReg()),
                        ScalarOperand::imm(0)));
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 9, 4));
  P.getBody().push_back(
      VInst::makeVStore(Address::indexed(Aligned, 0, P.getIndexReg()), V0));
  P.setLoopBounds(ScalarOperand::imm(4), ScalarOperand::imm(13));
  // Iterations at 4, 8, 12; exit counter 16. Verify via a store indexed by
  // the probe... simpler: store through the index register in the epilogue.
  P.getEpilogue().push_back(
      VInst::makeVStore(Address::indexed(Aligned, 0, P.getIndexReg()), V0));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, 16);
  // The epilogue store lands at element 16 (byte 64).
  EXPECT_EQ(Mem.readElem(Layout.baseOf(Aligned) + 64, 4), 9);
}

TEST_F(MachineTest, TripCountParamBinding) {
  SRegId UB = P.declareTripCountParam(29);
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 1, 4));
  P.getBody().push_back(
      VInst::makeVStore(Address::indexed(Aligned, 0, P.getIndexReg()), V0));
  P.setLoopBounds(ScalarOperand::imm(4), ScalarOperand::reg(UB));
  auto [Stats, Mem] = run();
  (void)Mem;
  // i = 4, 8, ..., 28: seven iterations; the parameter costs no ops.
  EXPECT_EQ(Stats.SteadyIterations, 7);
  EXPECT_EQ(Stats.Counts.Scalar, 0);
}

TEST(ScalarInterp, MatchesDirectEvaluation) {
  ir::Loop L;
  ir::Array *Out = L.createArray("o", ir::ElemType::Int16, 64, 2, true);
  ir::Array *In = L.createArray("x", ir::ElemType::Int16, 64, 0, true);
  L.addStmt(Out, 1, ir::add(ir::mul(ir::splat(3), ir::ref(In, 0)),
                            ir::splat(-7)));
  L.setUpperBound(40, true);

  MemoryLayout Layout(L, 16);
  Memory Mem(Layout.getTotalSize());
  Mem.fillPattern(99);
  Memory Orig = Mem;
  runScalarLoop(L, Layout, Mem);

  for (int64_t I = 0; I < 40; ++I) {
    int64_t X = Orig.readElem(Layout.baseOf(In) + I * 2, 2);
    int64_t Expect = static_cast<int16_t>(3 * X - 7);
    EXPECT_EQ(Mem.readElem(Layout.baseOf(Out) + (I + 1) * 2, 2), Expect);
  }
}

TEST(ScalarInterp, StatementsExecuteInOrder) {
  // Later statements see earlier statements' effects within an iteration
  // is NOT required (stores are to distinct arrays), but iteration order
  // must be 0..ub-1; check via a self-referencing-free chain.
  ir::Loop L;
  ir::Array *O1 = L.createArray("o1", ir::ElemType::Int32, 64, 0, true);
  ir::Array *O2 = L.createArray("o2", ir::ElemType::Int32, 64, 4, true);
  ir::Array *In = L.createArray("x", ir::ElemType::Int32, 64, 8, true);
  L.addStmt(O1, 0, ir::ref(In, 0));
  L.addStmt(O2, 0, ir::ref(In, 1));
  L.setUpperBound(30, true);

  MemoryLayout Layout(L, 16);
  Memory Mem(Layout.getTotalSize());
  Mem.fillPattern(3);
  Memory Orig = Mem;
  runScalarLoop(L, Layout, Mem);
  for (int64_t I = 0; I < 30; ++I) {
    EXPECT_EQ(Mem.readElem(Layout.baseOf(O1) + I * 4, 4),
              Orig.readElem(Layout.baseOf(In) + I * 4, 4));
    EXPECT_EQ(Mem.readElem(Layout.baseOf(O2) + I * 4, 4),
              Orig.readElem(Layout.baseOf(In) + (I + 1) * 4, 4));
  }
}

/// Wide-target fixture: the op-semantics programs of MachineTest rerun at
/// V in {32, 64}. Every program executes on both engines (the reference
/// interpreter and the pre-decoded one) over the same initial image; the
/// engines size registers statically at Target::MaxVectorLen but must
/// operate at the program's dynamic V, so final memory and op counts have
/// to agree byte for byte.
class WideMachineTest : public ::testing::TestWithParam<unsigned> {
protected:
  WideMachineTest() : V(GetParam()), P(GetParam(), 4) {
    A = L.createArray("a", ir::ElemType::Int32, 64, 4, true);
    Aligned = L.createArray("al", ir::ElemType::Int32, 64, 0, true);
  }

  /// Runs P on both engines over a fresh patterned memory; returns the
  /// reference engine's (stats, memory) after checking the engines agree.
  std::pair<ExecStats, Memory> run(uint64_t Seed = 1) {
    MemoryLayout Layout(L, V);
    Memory Mem(Layout.getTotalSize());
    Mem.fillPattern(Seed);
    ExecStats Stats = runProgram(P, Layout, Mem);

    DecodedProgram DP(P, Layout);
    Memory DecMem(Layout.getTotalSize());
    DecMem.fillPattern(Seed);
    ExecStats DecStats = runDecoded(DP, DecMem);
    EXPECT_TRUE(Mem == DecMem) << "engine memory images diverge at V = " << V;
    EXPECT_TRUE(Stats.Counts == DecStats.Counts)
        << "engine op counts diverge at V = " << V;
    return {std::move(Stats), std::move(Mem)};
  }

  unsigned V;
  ir::Loop L;
  ir::Array *A = nullptr;
  ir::Array *Aligned = nullptr;
  VProgram P;
};

TEST_P(WideMachineTest, TruncatingLoadIgnoresLowBits) {
  // a's base sits at byte 4 of its V-byte chunk, so a[0] and a[-1] (four
  // bytes lower) truncate to the same chunk at any V > 4.
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVLoad(V0, Address::constant(A, 0, 0)));
  P.getSetup().push_back(VInst::makeVLoad(V1, Address::constant(A, -1, 0)));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V0));
  P.getSetup().push_back(VInst::makeVStore(
      Address::constant(Aligned, static_cast<int64_t>(V / 4), 0), V1));

  auto [Stats, Mem] = run();
  MemoryLayout Layout(L, V);
  for (unsigned Byte = 0; Byte < V; ++Byte)
    EXPECT_EQ(Mem.data()[Layout.baseOf(Aligned) + Byte],
              Mem.data()[Layout.baseOf(Aligned) + V + Byte])
        << "byte " << Byte;
  EXPECT_EQ(Stats.Counts.Loads, 2);
  EXPECT_EQ(Stats.Counts.Stores, 2);
}

TEST_P(WideMachineTest, TruncatingStoreWritesWholeChunk) {
  // A store through a misaligned address rewrites the enclosing V-byte
  // chunk, not a V-byte window starting at the address.
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x5a, 1));
  P.getSetup().push_back(VInst::makeVStore(Address::constant(A, 0, 0), V0));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, V);
  int64_t Chunk = Layout.baseOf(A) - 4; // Base alignment 4 truncated away.
  for (unsigned Byte = 0; Byte < V; ++Byte)
    EXPECT_EQ(Mem.data()[Chunk + Byte], 0x5a) << "byte " << Byte;
}

TEST_P(WideMachineTest, ShiftPairWindowScalesWithV) {
  // vshiftpair selects bytes [S, S + V) of the 2V-byte concatenation.
  const unsigned Shift = V / 2 + 3;
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x11, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x22, 1));
  P.getSetup().push_back(VInst::makeVShiftPair(
      V2, V0, V1, ScalarOperand::imm(static_cast<int64_t>(Shift))));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V2));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, V);
  const uint8_t *Out = Mem.data() + Layout.baseOf(Aligned);
  for (unsigned Byte = 0; Byte < V; ++Byte)
    EXPECT_EQ(Out[Byte], Byte < V - Shift ? 0x11 : 0x22) << "byte " << Byte;
}

TEST_P(WideMachineTest, ShiftPairByVSelectsSecondViaRuntimeAmount) {
  // The full-V boundary case through a register operand — the runtime
  // path zero-shift uses when alignments are only known at runtime.
  SRegId S0 = P.allocSReg();
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeSConst(S0, static_cast<int64_t>(V)));
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x11, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x22, 1));
  P.getSetup().push_back(
      VInst::makeVShiftPair(V2, V0, V1, ScalarOperand::reg(S0)));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V2));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, V);
  for (unsigned Byte = 0; Byte < V; ++Byte)
    EXPECT_EQ(Mem.data()[Layout.baseOf(Aligned) + Byte], 0x22);
}

TEST_P(WideMachineTest, SpliceEndpointsScaleWithV) {
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x11, 1));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0x22, 1));
  // Point 0: second whole; point V: first whole; point V/2+1: split.
  const int64_t B = V / 4; // Elements per register.
  int64_t Slot = 0;
  for (int64_t Point :
       {int64_t(0), int64_t(V), static_cast<int64_t>(V / 2 + 1)}) {
    P.getSetup().push_back(
        VInst::makeVSplice(V2, V0, V1, ScalarOperand::imm(Point)));
    P.getSetup().push_back(
        VInst::makeVStore(Address::constant(Aligned, B * Slot++, 0), V2));
  }
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, V);
  const uint8_t *Base = Mem.data() + Layout.baseOf(Aligned);
  for (unsigned Byte = 0; Byte < V; ++Byte) {
    EXPECT_EQ(Base[Byte], 0x22);
    EXPECT_EQ(Base[V + Byte], 0x11);
    EXPECT_EQ(Base[2 * V + Byte], Byte < V / 2 + 1 ? 0x11 : 0x22)
        << "byte " << Byte;
  }
}

TEST_P(WideMachineTest, SplatFillsEveryLane) {
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0x04030201, 4));
  P.getSetup().push_back(
      VInst::makeVStore(Address::constant(Aligned, 0, 0), V0));
  auto [Stats, Mem] = run();
  (void)Stats;
  MemoryLayout Layout(L, V);
  for (unsigned Lane = 0; Lane < V / 4; ++Lane)
    EXPECT_EQ(Mem.readElem(Layout.baseOf(Aligned) + Lane * 4, 4),
              0x04030201)
        << "lane " << Lane;
}

INSTANTIATE_TEST_SUITE_P(WideTargets, WideMachineTest,
                         ::testing::Values(32u, 64u),
                         [](const ::testing::TestParamInfo<unsigned> &I) {
                           std::string Name = "V";
                           Name += std::to_string(I.param);
                           return Name;
                         });

} // namespace
