//===- vir/VVerifier.cpp --------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "vir/VVerifier.h"

#include "support/Format.h"
#include "vir/VPrinter.h"
#include "vir/VProgram.h"

#include <vector>

using namespace simdize;
using namespace simdize::vir;

namespace {

/// Walks the three blocks in execution order, tracking which registers have
/// been defined. Body reads may additionally rely on Setup definitions
/// (loop-carried values are initialized there); Epilogue reads may rely on
/// Setup and Body definitions, since the `ub > 3B` validity guard
/// guarantees at least one steady iteration.
class ProgramVerifier {
public:
  explicit ProgramVerifier(const VProgram &P)
      : P(P), VDefined(P.getNumVRegs(), false),
        SDefined(P.getNumSRegs(), false) {}

  std::optional<std::string> run() {
    // The loop counter is defined by the loop construct itself.
    if (auto Err = checkSReg(P.getIndexReg(), "loop counter"))
      return Err;
    SDefined[P.getIndexReg().Id] = true;

    // The trip-count parameter is bound by the machine before Setup runs.
    if (P.hasTripCountParam()) {
      if (auto Err = checkSReg(P.getTripCountParam(), "trip-count parameter"))
        return Err;
      SDefined[P.getTripCountParam().Id] = true;
    }

    // So are the scalar parameters.
    for (auto [Reg, Value] : P.getScalarParams()) {
      (void)Value;
      if (auto Err = checkSReg(Reg, "scalar parameter"))
        return Err;
      SDefined[Reg.Id] = true;
    }

    for (BlockKind Kind :
         {BlockKind::Setup, BlockKind::Body, BlockKind::Epilogue}) {
      // The steady loop's bounds are read once, after Setup.
      if (Kind == BlockKind::Body) {
        if (auto Err = checkBound(P.getLowerBound(), "lower bound"))
          return Err;
        if (auto Err = checkBound(P.getUpperBound(), "upper bound"))
          return Err;
      }
      for (const VInst &I : P.getBlock(Kind)) {
        std::optional<std::string> Err = checkInst(I);
        if (!Err && Kind == BlockKind::Body)
          Err = checkSteady(I);
        if (Err)
          return strf("%s: in '%s'", Err->c_str(), printInst(I).c_str());
      }
    }
    return std::nullopt;
  }

private:
  std::optional<std::string> checkVReg(VRegId R, const char *What) {
    if (!R.isValid() || R.Id >= P.getNumVRegs())
      return strf("%s names vector register out of range", What);
    return std::nullopt;
  }

  std::optional<std::string> checkSReg(SRegId R, const char *What) {
    if (!R.isValid() || R.Id >= P.getNumSRegs())
      return strf("%s names scalar register out of range", What);
    return std::nullopt;
  }

  /// A register bound must be the trip-count parameter, a scalar
  /// parameter or a Setup definition: neither engine checks that it was
  /// defined, and an undefined bound would run no steady iteration.
  std::optional<std::string> checkBound(const ScalarOperand &Op,
                                        const char *What) {
    if (!Op.IsReg)
      return std::nullopt;
    if (auto Err = checkSReg(Op.Reg, What))
      return Err;
    if (!SDefined[Op.Reg.Id])
      return strf("%s s%u is not defined before the loop", What, Op.Reg.Id);
    return std::nullopt;
  }

  std::optional<std::string> useVReg(VRegId R) {
    if (auto Err = checkVReg(R, "use"))
      return Err;
    if (!VDefined[R.Id])
      return strf("v%u used before definition", R.Id);
    return std::nullopt;
  }

  std::optional<std::string> useSReg(SRegId R) {
    if (auto Err = checkSReg(R, "use"))
      return Err;
    if (!SDefined[R.Id])
      return strf("s%u used before definition", R.Id);
    return std::nullopt;
  }

  /// What an opcode's row does not say: address bases, lane widths, and
  /// the ranges of immediate shift amounts and splice points.
  std::optional<std::string> checkOpcodeExtras(const VInst &I) const {
    const unsigned V = P.getVectorLen();
    auto OutsideV = [V](const ScalarOperand &Op) {
      return Op.isImm() &&
             (Op.getImm() < 0 || Op.getImm() > static_cast<int64_t>(V));
    };
    switch (I.Op) {
    case VOpcode::VLoad:
    case VOpcode::VStore:
      if (!I.Addr.Base)
        return std::string("address has no base array");
      break;
    case VOpcode::VSplat:
      if (I.ElemSize == 0 || V % I.ElemSize != 0)
        return std::string("vsplat lane width does not divide V");
      break;
    case VOpcode::VShiftPair:
      if (OutsideV(I.SOp1))
        return std::string("vshiftpair amount outside [0, V]");
      break;
    case VOpcode::VSplice:
      if (OutsideV(I.SOp1))
        return std::string("vsplice point outside [0, V]");
      break;
    case VOpcode::VBinOp:
      if (I.ElemSize != P.getElemSize())
        return std::string("vbinop lane width differs from the program's D");
      break;
    case VOpcode::VCmp:
      if (I.ElemSize != P.getElemSize())
        return std::string("vcmp lane width differs from the program's D");
      break;
    case VOpcode::SBase:
      if (!I.Addr.Base)
        return std::string("sbase has no base array");
      break;
    default:
      break;
    }
    return std::nullopt;
  }

  std::optional<std::string> checkInst(const VInst &I) {
    if (auto Err = checkOpcodeExtras(I))
      return Err;

    std::optional<std::string> UseErr;
    forEachScalarUse(I, [&](SRegId R) {
      if (!UseErr)
        UseErr = useSReg(R);
    });
    forEachVectorUse(I, [&](VRegId R) {
      if (!UseErr)
        UseErr = useVReg(R);
    });
    if (UseErr)
      return UseErr;

    // Definitions happen after all uses are checked (an instruction may not
    // read its own result).
    if (I.definesVector()) {
      if (auto Err = checkVReg(I.VDst, "def"))
        return Err;
      VDefined[I.VDst.Id] = true;
    }
    if (I.definesScalar()) {
      if (auto Err = checkSReg(I.SDst, "def"))
        return Err;
      if (I.SDst == P.getIndexReg())
        return std::string("instruction clobbers the loop counter");
      SDefined[I.SDst.Id] = true;
    }
    return std::nullopt;
  }

  /// The steady-body contract of the paper's code generation (Section
  /// 4.4): conditional and partial work lives in the prologue and the
  /// epilogue, so the body is unpredicated, defines no scalar, and reaches
  /// memory only through the loop counter. The optimizer and the decoded
  /// engine rely on it.
  std::optional<std::string> checkSteady(const VInst &I) {
    if (I.Predicate)
      return std::string("predicated instruction in the steady body");
    if (I.definesScalar())
      return std::string("scalar definition in the steady body");
    if ((I.Op == VOpcode::VLoad || I.Op == VOpcode::VStore) &&
        I.Addr.Index != P.getIndexReg())
      return std::string(
          "steady-body access not indexed by the loop counter");
    return std::nullopt;
  }

  const VProgram &P;
  std::vector<bool> VDefined;
  std::vector<bool> SDefined;
};

} // namespace

std::optional<std::string> vir::verifyProgram(const VProgram &P) {
  return ProgramVerifier(P).run();
}
