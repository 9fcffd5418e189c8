//===- sim/Decoder.h - Pre-decoded high-throughput execution engine ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast execution engine behind every bulk evaluation loop (the fuzzer,
/// the coverage sweep, the OPD tables). A vir::VProgram is decoded once per
/// (program, layout) into a flat, cache-friendly instruction array:
///
///  * array bases are resolved to raw byte offsets into the Memory image,
///    so address evaluation is one multiply-add with no hash lookup;
///  * the ScalarOperand reg/imm discrimination is collapsed at decode time
///    by materializing every immediate into a constant slot appended to the
///    scalar register file — at run time every scalar operand is a plain
///    register read, branch-free;
///  * VBinOp and VCmp dispatch through a kernel pointer chosen per
///    (operation, ElemSize) that operates on typed lanes instead of
///    assembling lanes byte-by-byte;
///  * the steady body's OpCounts are computed once at decode time; the
///    steady state multiplies them by the iteration count instead of
///    bumping a counter per executed instruction. vir::verifyProgram keeps
///    the body unpredicated, so every body instruction executes exactly
///    once per iteration.
///
/// Setup and epilogue run once and hold every predicated instruction, so
/// they are charged instruction by instruction. Exact per-chunk load and
/// store counts (ExecStats::ChunkLoads/ChunkStores) are maintained only
/// when ExecOptions::TrackChunkLoads asks for it — the never-load-twice
/// oracle and the tests that assert it do; the fuzzer's configurations
/// without reuse do not. Tracking adds the chunk-counter increments and
/// nothing else: op counts stay batched.
///
/// The register operations themselves (the lane kernels, vsplat,
/// vshiftpair, vsplice and vselect) are not written here: they come from
/// native/simdize_vm_ops.h, the one definition this engine shares with
/// the native tier's portable shim. Loads, stores, scalar operations and
/// the accounting stay here.
///
/// The byte-at-a-time interpreter in Machine.{h,cpp} stays as the reference
/// implementation; tests/EngineEquivalenceTest.cpp differentially checks
/// this engine against it (bit-identical memory, ExecStats, and OpCounts).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SIM_DECODER_H
#define SIMDIZE_SIM_DECODER_H

#include "sim/Machine.h"
#include "vir/VProgram.h"

#include <cstdint>
#include <vector>

namespace simdize {

namespace sim {

class Memory;
class MemoryLayout;

namespace detail {

/// Vector-compute kernel, a row of native/simdize_vm_ops.h at one lane
/// width: Dst = A <op> B over typed lanes.
using BinOpKernel = void (*)(uint8_t *Dst, const uint8_t *A,
                             const uint8_t *B, unsigned VectorLen);

/// Decoded opcodes. Memory operands, scalar operands, and SBase are fully
/// resolved, so several VOpcodes collapse into one decoded kind.
enum class DKind : uint8_t {
  Load,      ///< VDst = VectorLen bytes at truncate(AddrBase + S[Idx]*Scale)
  Store,     ///< bytes at truncate(AddrBase + S[Idx]*Scale) = VSrc1
  Splat,     ///< VDst = replicate S[SOp1] across ElemSize lanes
  ShiftPair, ///< VDst = bytes [S, S+V) of VSrc1 ++ VSrc2, S = S[SOp1]
  Splice,    ///< VDst = first S of VSrc1, rest of VSrc2, S = S[SOp1]
  BinOp,     ///< VDst = Kernel(VSrc1, VSrc2) (VBinOp and VCmp both land
             ///< here — a compare is just a kernel producing lane masks)
  Select,    ///< VDst = bytewise (VSrc2 & VSrc1) | (VSrc3 & ~VSrc1)
  Copy,      ///< VDst = VSrc1
  SSet,      ///< S[SDst] = Imm (SConst, and SBase with the base resolved)
  SBinOp,    ///< S[SDst] = S[SOp1] <ScalarOp> S[SOp2]
  SCmp,      ///< S[SDst] = S[SOp1] <CmpOp> S[SOp2] ? 1 : 0
};

/// One decoded instruction. Flat and trivially copyable; scalar operand
/// fields are indices into the extended scalar slot file.
struct DInst {
  DKind Kind = DKind::Copy;
  vir::OpCategory Category = vir::OpCategory::Copy;
  uint8_t ElemSize = 4;                        ///< Splat lane width.
  int32_t Pred = -1;                           ///< Slot, or -1 if none.
  uint32_t VDst = 0, VSrc1 = 0, VSrc2 = 0;
  uint32_t VSrc3 = 0;                          ///< Select's untaken input.
  uint32_t SDst = 0, SOp1 = 0, SOp2 = 0;       ///< Scalar slots.
  uint32_t Idx = 0;       ///< Address index slot (the zero slot when none).
  int64_t AddrBase = 0;   ///< Resolved base byte offset incl. elem offset.
  int64_t Scale = 0;      ///< Element size multiplier for the index.
  int64_t Imm = 0;        ///< SSet payload.
  BinOpKernel Kernel = nullptr;
  vir::SBinOpKind ScalarOp = vir::SBinOpKind::Add;
  vir::SCmpKind CmpOp = vir::SCmpKind::EQ;
};

/// A decoded straight-line block.
using DBlock = std::vector<DInst>;

} // namespace detail

/// Per-run switches of the decoded engine, and of sim::checkSimdization,
/// which forwards them.
struct ExecOptions {
  /// Maintain the per-chunk load and store counts of the reference
  /// interpreter (ExecStats::ChunkLoads/ChunkStores) — what the
  /// never-load-twice oracle, NeverLoadTwiceTest and the heatmap inspect.
  /// Off by default: it costs a counter update per dynamic access and a
  /// counter per chunk of memory.
  bool TrackChunkLoads = false;
};

/// A vir::VProgram decoded against one MemoryLayout. Immutable once built;
/// one decode serves any number of runs (the checker reuses it across
/// memory images). Addresses are resolved to byte offsets, so it holds no
/// reference to the loop or the program.
class DecodedProgram {
public:
  DecodedProgram(const vir::VProgram &P, const MemoryLayout &Layout);

  unsigned getVectorLen() const { return VectorLen; }

  /// Total decoded instructions across all three blocks.
  size_t getNumInsts() const {
    return Setup.size() + Body.size() + Epilogue.size();
  }

private:
  friend class DecodedRunner;

  /// Returns the slot holding \p Op's value at run time: the register's
  /// own slot, or a (deduplicated) constant slot for immediates.
  uint32_t slotOf(const vir::ScalarOperand &Op);

  /// Returns a slot pre-loaded with \p Value before Setup runs.
  uint32_t constSlot(int64_t Value);

  detail::DInst decodeInst(const vir::VInst &I, const MemoryLayout &Layout);
  void decodeBlock(const vir::Block &B, const MemoryLayout &Layout,
                   detail::DBlock &Out);

  unsigned VectorLen;
  unsigned NumVRegs;
  uint32_t NumSlots;     ///< Program scalar regs + appended constant slots.
  uint32_t IndexSlot;
  uint32_t LBSlot = 0, UBSlot = 0;
  int64_t LoopStep;
  /// (slot, value) bindings applied before Setup: constant slots, the
  /// trip-count parameter, and scalar parameters.
  std::vector<std::pair<uint32_t, int64_t>> InitialBindings;
  std::vector<std::pair<int64_t, uint32_t>> ConstSlots; ///< Dedup table.

  detail::DBlock Setup;
  detail::DBlock Body;
  detail::DBlock Epilogue;
  /// The steady body's op counts per iteration: the verifier keeps the
  /// body unpredicated, so each of its instructions runs once per
  /// iteration.
  OpCounts BodyCounts;
};

/// Executes \p DP over \p Mem and returns statistics identical to what
/// sim::runProgram produces for the original program — except that
/// ExecStats::ChunkLoads and ChunkStores are filled only when \p Opts asks
/// for them.
ExecStats runDecoded(const DecodedProgram &DP, Memory &Mem,
                     const ExecOptions &Opts = {});

} // namespace sim
} // namespace simdize

#endif // SIMDIZE_SIM_DECODER_H
