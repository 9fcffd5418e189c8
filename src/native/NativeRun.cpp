//===- native/NativeRun.cpp -----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "native/NativeRun.h"

#include "ir/Loop.h"
#include "native/NativeCompile.h"
#include "sim/Checker.h"
#include "sim/Memory.h"
#include "support/Format.h"
#include "vir/VProgram.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

using namespace simdize;
using namespace simdize::native;

ISA native::resolveISAForRun(unsigned VectorLen, ISA Requested) {
  if (isaSupportsWidth(Requested, VectorLen) && hostSupportsISA(Requested))
    return Requested;
  return bestISAForWidth(VectorLen);
}

// 64-byte alignment covers every supported V, so in-buffer offsets are
// congruent to the simulated addresses modulo the vector length; the
// padding keeps aligned_alloc's size-multiple contract.
AlignedImage::AlignedImage(int64_t Size)
    : Size(Size),
      Padded((static_cast<size_t>(Size) + 63) & ~static_cast<size_t>(63)) {
  Buf = static_cast<unsigned char *>(std::aligned_alloc(64, Padded));
  assert(Buf && "image allocation failed");
  std::memset(Buf, 0, Padded);
}

AlignedImage::~AlignedImage() { std::free(Buf); }

void AlignedImage::stageFrom(const sim::Memory &Mem) {
  assert(Mem.size() == Size && "staging a differently-sized image");
  std::memcpy(Buf, Mem.data(), static_cast<size_t>(Size));
}

void AlignedImage::copyTo(sim::Memory &Mem) const {
  assert(Mem.size() == Size && "extracting into a differently-sized image");
  std::memcpy(Mem.data(), Buf, static_cast<size_t>(Size));
}

void native::runNative(const NativeKernel &K, AlignedImage &Img) {
  assert(K.ok() && "running an unprepared kernel");
  K.Entry(Img.data(), K.Args.data());
}

void native::runNativeOnMemory(const NativeKernel &K, sim::Memory &Mem) {
  AlignedImage Img(Mem.size());
  Img.stageFrom(Mem);
  runNative(K, Img);
  Img.copyTo(Mem);
}

size_t NativeBatch::add(const ir::Loop &L, const vir::VProgram &P,
                        const sim::MemoryLayout &Layout) {
  assert(!VectorLen || VectorLen == P.getVectorLen());
  VectorLen = P.getVectorLen();

  KernelSpec Spec;
  Spec.Program = &P;
  Spec.Loop = &L;
  Spec.Name = strf("k%zu", Specs.size());
  for (const auto &A : L.getArrays())
    Spec.ArrayBases.push_back(Layout.baseOf(A.get()));

  std::vector<long> Args;
  for (const auto &Prm : L.getParams())
    Args.push_back(static_cast<long>(Prm->getActualValue()));
  Args.push_back(static_cast<long>(L.getUpperBound()));

  Specs.push_back(std::move(Spec));
  ArgPacks.push_back(std::move(Args));
  return Specs.size() - 1;
}

bool NativeBatch::compile(std::string *Error) {
  assert(!Specs.empty() && "compiling an empty batch");
  Used = resolveISAForRun(VectorLen, Requested);
  Degraded = Used != Requested;

  LowerResult Lowered = emitNativeModule(Specs, VectorLen, Used);
  if (!Lowered.ok()) {
    if (Error)
      *Error = Lowered.Error;
    return false;
  }
  const CompiledModule *Module = compileAndLoad(Lowered.Code, Used, Error);
  if (!Module)
    return false;

  Kernels.clear();
  Kernels.resize(Specs.size());
  for (size_t K = 0; K < Specs.size(); ++K) {
    void *Sym = Module->symbol(Specs[K].Name + "_image");
    if (!Sym) {
      if (Error)
        *Error = "module lacks symbol " + Specs[K].Name + "_image";
      Kernels.clear();
      return false;
    }
    Kernels[K].Entry = reinterpret_cast<NativeEntry>(Sym);
    Kernels[K].Args = ArgPacks[K];
  }
  return true;
}

NativeKernel native::prepareNativeKernel(const ir::Loop &L,
                                         const vir::VProgram &P,
                                         const sim::MemoryLayout &Layout,
                                         ISA Requested, std::string *Error,
                                         ISA *UsedOut) {
  NativeBatch Batch(Requested);
  Batch.add(L, P, Layout);
  if (!Batch.compile(Error))
    return NativeKernel();
  if (UsedOut)
    *UsedOut = Batch.usedISA();
  return Batch.kernel(0);
}

std::optional<std::string>
native::diffNativeAgainstOracle(const ir::Loop &L, const vir::VProgram &P,
                                const sim::ReferenceImage &Ref,
                                std::optional<ISA> Requested) {
  ISA Want = Requested ? *Requested : bestISAForWidth(P.getVectorLen());
  std::string Error;
  ISA Used = Want;
  NativeKernel K =
      prepareNativeKernel(L, P, Ref.getLayout(), Want, &Error, &Used);
  if (!K.ok())
    return "native compile failed: " + Error;

  sim::Memory M = Ref.getInitial();
  runNativeOnMemory(K, M);
  const sim::Memory &Expected = Ref.getExpected();
  if (M == Expected)
    return std::nullopt;
  for (int64_t B = 0; B < Expected.size(); ++B)
    if (M.data()[B] != Expected.data()[B])
      return strf("native (%s) image diverges from the scalar oracle at "
                  "byte %lld: got 0x%02x, want 0x%02x",
                  isaName(Used), static_cast<long long>(B), M.data()[B],
                  Expected.data()[B]);
  return "native image diverges in size"; // unreachable with one layout
}
