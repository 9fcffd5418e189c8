//===- fuzz/CorpusIO.cpp --------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "fuzz/CorpusIO.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace simdize;
using namespace simdize::fuzz;

std::optional<std::string> fuzz::writeCorpusFile(const std::string &Dir,
                                                 const std::string &FileName,
                                                 const std::string &Text) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return std::nullopt;
  std::string Path = (std::filesystem::path(Dir) / FileName).string();
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
  if (!Out.good())
    return std::nullopt;
  return Path;
}

std::vector<std::string> fuzz::listCorpusFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  std::error_code EC;
  std::filesystem::directory_iterator It(Dir, EC), End;
  if (EC)
    return Files;
  for (; It != End; It.increment(EC)) {
    if (EC)
      break;
    if (It->is_regular_file() && It->path().extension() == ".loop")
      Files.push_back(It->path().string());
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::optional<std::string> fuzz::readCorpusFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In.good())
    return std::nullopt;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}
