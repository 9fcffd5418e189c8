//===- perfbench/src/Baseline.h - Plain-C compiler baselines --------------===//
///
/// \file
/// The kernels workload's anchors: each loop emitted from the IR as the
/// plain scalar C a user would write, with the native image ABI
/// `<name>_image(unsigned char *Image, const long *Args)`, compiled by the
/// system compiler twice — once with its auto-vectorizer off
/// (baseline.novec) and once with it on (baseline.autovec) — under the
/// same ISA flags as that width's simdized kernels. Arithmetic is unsigned
/// wherever wraparound must match the scalar oracle.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BASELINE_H
#define PERFBENCH_BASELINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace simdize {
namespace ir {
class Loop;
} // namespace ir
} // namespace simdize

namespace perfbench {

struct BaselineSpec {
  const simdize::ir::Loop *Loop = nullptr;
  /// Function name; the module exports `<Name>_image`.
  std::string Name;
  /// Byte offset of each array in the memory image, in declaration order.
  std::vector<int64_t> ArrayBases;
};

/// One translation unit holding every spec, optimized at O3 with the
/// tree vectorizer on (\p AutoVectorize) or off.
std::string emitBaselineModule(const std::vector<BaselineSpec> &Specs,
                               bool AutoVectorize);

} // namespace perfbench

#endif // PERFBENCH_BASELINE_H
