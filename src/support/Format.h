//===- support/Format.h - printf-style and appending formatting ----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// strf(): a printf-style formatter returning std::string, used by
/// diagnostics and the experiment harness (libstdc++ 12 lacks
/// std::format). The printers on the server's request path instead
/// append() into one caller-owned string, writing integers with
/// std::to_chars.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SUPPORT_FORMAT_H
#define SIMDIZE_SUPPORT_FORMAT_H

#include <charconv>
#include <string>
#include <type_traits>

namespace simdize {

/// Formats \p Fmt printf-style into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strf(const char *Fmt, ...);

/// Appends each of \p Parts to \p Out: integers in decimal, as printf's
/// %lld / %llu would print them, and characters and strings as they are.
template <typename... Ts> void append(std::string &Out, const Ts &...Parts) {
  auto One = [&Out](const auto &Part) {
    using T = std::decay_t<decltype(Part)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      char Buf[20];
      Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Part).ptr);
    } else {
      Out += Part;
    }
  };
  (One(Parts), ...);
}

/// Left-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padLeft(const std::string &S, unsigned Width);

/// Right-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padRight(const std::string &S, unsigned Width);

} // namespace simdize

#endif // SIMDIZE_SUPPORT_FORMAT_H
