//===- native/NativeCompile.cpp -------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "native/NativeCompile.h"

#include "support/Format.h"
#include "support/Hash.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include <dlfcn.h>
#include <unistd.h>

using namespace simdize;
using namespace simdize::native;

#ifndef SIMDIZE_NATIVE_CXX
#define SIMDIZE_NATIVE_CXX "c++"
#endif
#ifndef SIMDIZE_NATIVE_INCLUDE_DIR
#error "SIMDIZE_NATIVE_INCLUDE_DIR must point at the simdize_x86.h directory"
#endif

namespace {

/// What one build of a key produced; every call that waited on that
/// build gets the same one.
struct BuildResult {
  const CompiledModule *Module = nullptr; ///< nullptr: the build failed.
  std::string Error;
};

/// Guarded by Mu: map lookups and counter updates only. The compiler and
/// dlopen run without it.
struct CacheState {
  std::mutex Mu;
  std::map<uint64_t, std::unique_ptr<CompiledModule>> Loaded;
  /// At most one build per key in flight. A build leaves its entry when
  /// it ends; a failed one adds nothing to Loaded, so the next call for
  /// the key runs the compiler again.
  std::map<uint64_t, std::shared_future<BuildResult>> InFlight;
  NativeCompileStats Stats;
};

CacheState &cache() {
  static CacheState S;
  return S;
}

std::string compilerPath() {
  if (const char *Env = std::getenv("SIMDIZE_NATIVE_CXX"))
    return Env;
  return SIMDIZE_NATIVE_CXX;
}

std::string compileFlags(ISA Isa) {
  std::string Flags = "-std=c++20 -O2 -fPIC -shared";
  for (const std::string &F : isaCompileFlags(Isa))
    Flags += " " + F;
  return Flags;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(Contents.data(), static_cast<std::streamsize>(Contents.size()));
  return Out.good();
}

/// The bytes of the wrapper header every emitted TU includes, read once
/// per process from the directory the compiler is pointed at.
const std::string &wrapperHeader() {
  static const std::string Text =
      readFile(SIMDIZE_NATIVE_INCLUDE_DIR "/simdize_x86.h");
  return Text;
}

} // namespace

void *CompiledModule::symbol(const std::string &Name) const {
  return dlsym(Handle, Name.c_str());
}

std::string native::nativeCacheDir() {
  if (const char *Env = std::getenv("SIMDIZE_NATIVE_CACHE"))
    return Env;
  std::error_code EC;
  std::filesystem::path Tmp = std::filesystem::temp_directory_path(EC);
  if (EC)
    Tmp = "/tmp";
  return (Tmp / "simdize-native-cache").string();
}

uint64_t native::compileCacheKey(const std::string &Source, ISA Isa,
                                 const std::string &Header) {
  return fnv1a(compilerPath() + "\x1f" + compileFlags(Isa) + "\x1f" +
               Header + "\x1f" + Source);
}

namespace {

/// Where a build found the .so it loaded.
enum class SoOrigin { None, Compiled, Disk };

/// Compiles \p Source into the on-disk store as nk_<Key>.so unless it is
/// there already, then dlopens it. Runs without the cache lock. Returns
/// the handle, or nullptr with \p Error set.
void *buildAndOpen(const std::string &Source, ISA Isa, uint64_t Key,
                   SoOrigin &Origin, std::string &Error) {
  std::string Compiler = compilerPath();
  std::string Flags = compileFlags(Isa);
  std::string Dir = nativeCacheDir();
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Stem = strf("%s/nk_%016llx", Dir.c_str(),
                          static_cast<unsigned long long>(Key));
  std::string So = Stem + ".so";

  if (!std::filesystem::exists(So)) {
    // Build into process-unique temporaries, then publish the .so with an
    // atomic rename so concurrent fuzz shards never load a half-written
    // object. Single-flight is what keeps these pid-tagged names unique
    // within a process.
    std::string Tag = strf(".%ld", static_cast<long>(getpid()));
    std::string Cpp = Stem + Tag + ".cpp";
    std::string SoTmp = So + Tag;
    std::string Log = Stem + Tag + ".log";
    auto RemoveTemporaries = [&] {
      std::filesystem::remove(Cpp, EC);
      std::filesystem::remove(SoTmp, EC);
      std::filesystem::remove(Log, EC);
    };
    if (!writeFile(Cpp, Source)) {
      Error = "cannot write kernel source under " + Dir;
      return nullptr;
    }
    std::string Cmd =
        strf("\"%s\" %s -I \"%s\" -o \"%s\" \"%s\" 2> \"%s\"",
             Compiler.c_str(), Flags.c_str(), SIMDIZE_NATIVE_INCLUDE_DIR,
             SoTmp.c_str(), Cpp.c_str(), Log.c_str());
    int Rc = std::system(Cmd.c_str());
    if (Rc != 0) {
      Error = strf("'%s' failed (exit %d): %s", Compiler.c_str(), Rc,
                   readFile(Log).c_str());
      RemoveTemporaries();
      return nullptr;
    }
    std::filesystem::rename(SoTmp, So, EC);
    if (EC) {
      Error = "cannot publish " + So + ": " + EC.message();
      RemoveTemporaries();
      return nullptr;
    }
    std::filesystem::remove(Cpp, EC);
    std::filesystem::remove(Log, EC);
    Origin = SoOrigin::Compiled;
  } else {
    Origin = SoOrigin::Disk;
  }

  void *Handle = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Why = dlerror();
    Error = "dlopen(" + So + ") failed: " + (Why ? Why : "unknown");
    // A stale or truncated cache entry must not wedge the tier; drop it
    // so the next request recompiles.
    std::filesystem::remove(So, EC);
  }
  return Handle;
}

} // namespace

const CompiledModule *native::compileAndLoad(const std::string &Source,
                                             ISA Isa, std::string *Error) {
  uint64_t Key = compileCacheKey(Source, Isa, wrapperHeader());
  CacheState &C = cache();
  std::promise<BuildResult> Promise;
  std::shared_future<BuildResult> Pending;
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    if (auto It = C.Loaded.find(Key); It != C.Loaded.end()) {
      ++C.Stats.MemoryHits;
      return It->second.get();
    }
    auto [It, First] = C.InFlight.try_emplace(Key);
    if (First)
      It->second = Promise.get_future().share();
    else
      Pending = It->second;
  }

  BuildResult Result;
  if (Pending.valid()) {
    // Another call is building this key: share its module or its error.
    Result = Pending.get();
    std::lock_guard<std::mutex> Lock(C.Mu);
    if (Result.Module)
      ++C.Stats.MemoryHits;
    else
      ++C.Stats.Failures;
  } else {
    SoOrigin Origin = SoOrigin::None;
    std::unique_ptr<CompiledModule> Module;
    try {
      if (void *Handle = buildAndOpen(Source, Isa, Key, Origin, Result.Error))
        Module = std::make_unique<CompiledModule>(Handle);
    } catch (...) {
      // Leave no entry behind to wedge the key; waiters rethrow.
      {
        std::lock_guard<std::mutex> Lock(C.Mu);
        C.InFlight.erase(Key);
      }
      Promise.set_exception(std::current_exception());
      throw;
    }
    Result.Module = Module.get();
    {
      std::lock_guard<std::mutex> Lock(C.Mu);
      C.InFlight.erase(Key);
      if (Origin == SoOrigin::Compiled)
        ++C.Stats.Compiles;
      else if (Origin == SoOrigin::Disk)
        ++C.Stats.DiskHits;
      if (Module)
        C.Loaded.emplace(Key, std::move(Module));
      else
        ++C.Stats.Failures;
    }
    Promise.set_value(Result);
  }
  if (!Result.Module && Error)
    *Error = Result.Error;
  return Result.Module;
}

NativeCompileStats native::nativeCompileStats() {
  CacheState &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  return C.Stats;
}
