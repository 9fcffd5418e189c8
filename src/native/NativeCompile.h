//===- native/NativeCompile.h - Compile-to-.so cache + dlopen -------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns generated kernel source into callable code: the system C++
/// compiler builds a shared object, dlopen loads it, and a two-level
/// content-hash cache (in-process handle map over an on-disk .so store)
/// makes repeated kernels — fuzz sweeps, benches, repeated test runs —
/// cost one dlopen instead of one compiler invocation. Keys are the
/// FNV-1a hash of (compiler, flags, wrapper header bytes, source): a new
/// generator, toolchain, simdize_x86.h or simdize_vm_ops.h misses rather
/// than reusing a kernel built from other code (up to a 64-bit hash
/// collision).
///
/// Thread safety: compileAndLoad may be called from any thread. Calls for
/// different keys compile concurrently; calls for the same key share one
/// build (one compiler run, one module or one error). Failures are not
/// cached, so the next call for a failed key runs the compiler again. A
/// hung compiler stalls only the callers of its key.
///
/// The compiler defaults to the one this project was built with
/// (SIMDIZE_NATIVE_CXX, set by CMake); the SIMDIZE_NATIVE_CXX environment
/// variable overrides it, and SIMDIZE_NATIVE_CACHE overrides the on-disk
/// store location (default: <system tmp>/simdize-native-cache).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_NATIVECOMPILE_H
#define SIMDIZE_NATIVE_NATIVECOMPILE_H

#include "native/NativeISA.h"

#include <cstdint>
#include <string>

namespace simdize {
namespace native {

/// A loaded shared object. Handles live for the process lifetime (the
/// cache owns them; kernels stay callable once resolved).
class CompiledModule {
public:
  explicit CompiledModule(void *Handle) : Handle(Handle) {}

  /// dlsym by exact (extern "C") name; nullptr when absent.
  void *symbol(const std::string &Name) const;

private:
  void *Handle;
};

/// Cache effectiveness counters for one process.
struct NativeCompileStats {
  uint64_t Compiles = 0;    ///< Compiler actually invoked.
  uint64_t MemoryHits = 0;  ///< Served from the in-process handle map or
                            ///< by another call's build of the same key.
  uint64_t DiskHits = 0;    ///< .so found on disk; dlopen only.
  uint64_t Failures = 0;    ///< Calls that got no module: compiler or
                            ///< dlopen failed.
};

/// The cache key of compiling \p Source for \p Isa against the wrapper
/// header bytes \p Header: FNV-1a over (compiler, flags, header, source).
/// compileAndLoad passes the bytes of the simdize_x86.h its compiler
/// command includes followed by those of simdize_vm_ops.h, read once per
/// process, and stores the .so as nk_<key>.so.
uint64_t compileCacheKey(const std::string &Source, ISA Isa,
                         const std::string &Header);

/// Compiles \p Source for \p Isa into a cached shared object and loads
/// it. Returns the loaded module, or nullptr with \p Error set (the
/// compiler's stderr when compilation failed). Thread-safe: the cache
/// lock covers only lookups and counters, never the compiler or dlopen.
/// Different keys compile concurrently; concurrent calls for one key
/// wait for a single build and all get its module or its error. A
/// failure is not cached, and a hung compiler stalls only the callers
/// of its key.
const CompiledModule *compileAndLoad(const std::string &Source, ISA Isa,
                                     std::string *Error);

/// Snapshot of this process's cache counters.
NativeCompileStats nativeCompileStats();

/// The on-disk store directory currently in effect.
std::string nativeCacheDir();

} // namespace native
} // namespace simdize

#endif // SIMDIZE_NATIVE_NATIVECOMPILE_H
