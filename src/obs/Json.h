//===- obs/Json.h - Minimal JSON writer and validating parser ------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialization substrate of the observability layer: a streaming
/// writer (used by the tracer, the metrics registry, the decision log, and
/// the fuzzer's JSONL records) and a small recursive-descent parser used
/// by tests and `simdize-tool --validate-json` to check that every emitted
/// artifact is well-formed without external tooling.
///
/// The writer produces deterministic output: keys appear in insertion
/// order and doubles are formatted with %.17g (shortest round-trippable
/// form is not needed; byte-stable output across runs is). NaN and
/// infinities are not representable in JSON and are emitted as null.
/// Strings are escaped straight into the output, and integers are written
/// with std::to_chars: the server renders every response through it.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OBS_JSON_H
#define SIMDIZE_OBS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simdize {
namespace obs {
namespace json {

/// Escapes \p S for inclusion in a JSON string literal (no quotes added).
std::string escape(std::string_view S);

/// Streaming JSON writer appending to a caller-owned string. Scopes are
/// explicit (beginObject/endObject, beginArray/endArray); the writer
/// inserts commas and validates key/value alternation with assertions.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  Writer &beginObject();
  Writer &endObject();
  Writer &beginArray();
  Writer &endArray();

  /// Emits an object key; the next emission must be its value.
  Writer &key(std::string_view K);

  Writer &value(const std::string &V) { return stringValue(V); }
  Writer &value(const char *V) { return stringValue(V); }
  Writer &value(int64_t V);
  Writer &value(uint64_t V);
  Writer &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  Writer &value(int V) { return value(static_cast<int64_t>(V)); }
  /// NaN and infinities become null (JSON has no representation for them).
  Writer &value(double V);
  Writer &value(bool V);
  Writer &null();

  /// Splices \p Fragment verbatim as one value. The caller guarantees it is
  /// a well-formed JSON value (used to re-emit pre-rendered pieces such as
  /// span arguments without reparsing).
  Writer &raw(const std::string &Fragment);

  /// key() + value() in one call.
  template <typename T> Writer &field(std::string_view K, T &&V) {
    key(K);
    return value(std::forward<T>(V));
  }

private:
  void separate();
  Writer &stringValue(std::string_view V);

  std::string &Out;
  /// One entry per open scope: true for objects (which alternate between
  /// keys and values), false for arrays.
  std::vector<bool> IsObject;
  /// Whether the current scope already holds at least one element.
  std::vector<bool> HasElems;
  bool PendingKey = false;
};

/// A parsed JSON value. Object keys keep insertion order so golden tests
/// can check field ordering if they care to.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool Bool = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; null when absent or not an object.
  const Value *find(const std::string &Key) const;
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected). On failure returns std::nullopt and, when
/// \p Err is given, a position-attributed description.
std::optional<Value> parse(const std::string &Text, std::string *Err = nullptr);

} // namespace json
} // namespace obs
} // namespace simdize

#endif // SIMDIZE_OBS_JSON_H
