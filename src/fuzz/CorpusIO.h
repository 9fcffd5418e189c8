//===- fuzz/CorpusIO.h - Reading and writing corpus reproducers ----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// File I/O for the fuzzing corpus: reproducers live in `tests/corpus/` as
/// plain text in the LoopParser dialect (rendered by ir::printParseable) —
/// human-readable, diffable, and loadable by simdize-tool, simdize-fuzz
/// --replay, and the corpus regression test.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_FUZZ_CORPUSIO_H
#define SIMDIZE_FUZZ_CORPUSIO_H

#include <optional>
#include <string>
#include <vector>

namespace simdize {
namespace fuzz {

/// Writes \p Text to \p Dir/\p FileName, creating \p Dir if needed.
/// \returns the full path on success, std::nullopt on I/O failure.
std::optional<std::string> writeCorpusFile(const std::string &Dir,
                                           const std::string &FileName,
                                           const std::string &Text);

/// All regular files under \p Dir whose name ends in ".loop", sorted by
/// name; empty when the directory is missing.
std::vector<std::string> listCorpusFiles(const std::string &Dir);

/// Reads a whole file; std::nullopt when unreadable.
std::optional<std::string> readCorpusFile(const std::string &Path);

} // namespace fuzz
} // namespace simdize

#endif // SIMDIZE_FUZZ_CORPUSIO_H
