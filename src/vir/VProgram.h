//===- vir/VProgram.h - A simdized loop program ---------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of execution produced by the simdizer:
///
///   <Setup>                          // once: constants, runtime alignment
///                                    // computation, prologue stores,
///                                    // software-pipeline initialization
///   for (i = LB; i < UB; i += B)     // steady state, full vector stores
///     <Body>
///   <Epilogue>                       // once: residual (partial) stores;
///                                    // i holds the first unexecuted value
///
/// matching Figures 8-10 of the paper. LB/UB are immediates when the trip
/// count is compile-time known and scalar registers computed in Setup
/// otherwise (Section 4.4).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_VIR_VPROGRAM_H
#define SIMDIZE_VIR_VPROGRAM_H

#include "support/Debug.h"
#include "vir/VInst.h"

#include <cassert>
#include <utility>
#include <vector>

namespace simdize {
namespace vir {

/// Names the three sections of a VProgram.
enum class BlockKind { Setup, Body, Epilogue };

/// A straight-line sequence of instructions.
using Block = std::vector<VInst>;

/// A complete simdized program for one loop.
class VProgram {
public:
  /// \param VectorLen register width V in bytes (16 for all experiments).
  /// \param ElemSize data length D in bytes.
  VProgram(unsigned VectorLen, unsigned ElemSize)
      : VectorLen(VectorLen), ElemSize(ElemSize) {
    assert(VectorLen % ElemSize == 0 && "V must be a multiple of D");
    IndexReg = allocSReg();
  }

  unsigned getVectorLen() const { return VectorLen; }
  unsigned getElemSize() const { return ElemSize; }

  /// The blocking factor B = V / D: data per vector (Eq. 7).
  unsigned getBlockingFactor() const { return VectorLen / ElemSize; }

  /// Allocates a fresh vector register.
  VRegId allocVReg() { return VRegId{NumVRegs++}; }

  /// Allocates a fresh scalar register.
  SRegId allocSReg() { return SRegId{NumSRegs++}; }

  unsigned getNumVRegs() const { return NumVRegs; }
  unsigned getNumSRegs() const { return NumSRegs; }

  /// The scalar register holding the steady-loop counter; also live in the
  /// epilogue, where it holds the first unexecuted counter value.
  SRegId getIndexReg() const { return IndexReg; }

  Block &getBlock(BlockKind Kind) {
    switch (Kind) {
    case BlockKind::Setup:
      return Setup;
    case BlockKind::Body:
      return Body;
    case BlockKind::Epilogue:
      return Epilogue;
    }
    simdize_unreachable("unknown block kind");
  }
  const Block &getBlock(BlockKind Kind) const {
    return const_cast<VProgram *>(this)->getBlock(Kind);
  }

  Block &getSetup() { return Setup; }
  Block &getBody() { return Body; }
  Block &getEpilogue() { return Epilogue; }
  const Block &getSetup() const { return Setup; }
  const Block &getBody() const { return Body; }
  const Block &getEpilogue() const { return Epilogue; }

  /// Sets the steady-loop counter range [LB, UB) with step B.
  void setLoopBounds(ScalarOperand LB, ScalarOperand UB) {
    LowerBound = LB;
    UpperBound = UB;
  }

  /// Steady-loop counter increment; B by default, 2B after the
  /// copy-removing unroll.
  unsigned getLoopStep() const {
    return LoopStep ? LoopStep : getBlockingFactor();
  }
  void setLoopStep(unsigned Step) {
    assert(Step > 0 && Step % getBlockingFactor() == 0 &&
           "step must be a positive multiple of B");
    LoopStep = Step;
  }

  ScalarOperand getLowerBound() const { return LowerBound; }
  ScalarOperand getUpperBound() const { return UpperBound; }

  /// Declares a runtime trip-count parameter. Like a function argument, it
  /// costs no instructions: the machine binds \p ActualValue to the
  /// returned register before Setup runs. The generated code must not
  /// constant-fold it (that is the point of "unknown loop bounds",
  /// Section 4.4); the actual value exists only so the simulator can run.
  SRegId declareTripCountParam(int64_t ActualValue) {
    assert(!TripCountParam.isValid() && "trip count already declared");
    TripCountParam = allocSReg();
    TripCountValue = ActualValue;
    return TripCountParam;
  }

  /// Declares a runtime scalar parameter (a kernel argument such as a
  /// blend factor), the loop's \p ParamIndex-th in declaration order; the
  /// machine binds \p ActualValue to the returned register before Setup
  /// runs, at zero cost.
  SRegId declareScalarParam(unsigned ParamIndex, int64_t ActualValue) {
    SRegId R = allocSReg();
    ScalarParams.emplace_back(R, ActualValue);
    ScalarParamIndices.push_back(ParamIndex);
    return R;
  }

  const std::vector<std::pair<SRegId, int64_t>> &getScalarParams() const {
    return ScalarParams;
  }

  /// The loop-parameter index of each getScalarParams() register, in the
  /// same order. Registers are declared at first use, so this order need
  /// not be the loop's declaration order.
  const std::vector<unsigned> &getScalarParamIndices() const {
    return ScalarParamIndices;
  }

  bool hasTripCountParam() const { return TripCountParam.isValid(); }
  SRegId getTripCountParam() const {
    assert(hasTripCountParam() && "no trip-count parameter");
    return TripCountParam;
  }
  int64_t getTripCountValue() const {
    assert(hasTripCountParam() && "no trip-count parameter");
    return TripCountValue;
  }

  /// Content equality: the same width, registers, parameters and their
  /// actual values, loop bounds and step, and instructions. Equal programs
  /// print, execute and lower to native code the same.
  bool operator==(const VProgram &) const = default;

private:
  unsigned VectorLen;
  unsigned ElemSize;
  unsigned NumVRegs = 0;
  unsigned NumSRegs = 0;
  SRegId IndexReg;
  SRegId TripCountParam;
  int64_t TripCountValue = 0;
  std::vector<std::pair<SRegId, int64_t>> ScalarParams;
  std::vector<unsigned> ScalarParamIndices;
  unsigned LoopStep = 0;

  Block Setup;
  Block Body;
  Block Epilogue;

  ScalarOperand LowerBound = ScalarOperand::imm(0);
  ScalarOperand UpperBound = ScalarOperand::imm(0);
};

/// Number of instructions in \p B with opcode \p Op — the static counting
/// primitive behind the property oracles and the reuse tests.
unsigned countOps(const Block &B, VOpcode Op);

} // namespace vir
} // namespace simdize

#endif // SIMDIZE_VIR_VPROGRAM_H
