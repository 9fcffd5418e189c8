//===- obs/Json.cpp -------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include "support/Format.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

using namespace simdize;
using namespace simdize::obs;
using namespace simdize::obs::json;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Appends \p S escaped. Runs of bytes that need no escape are copied in
/// one append; control characters become \u00XX.
static void appendEscaped(std::string &Out, std::string_view S) {
  size_t Run = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += "\\u00";
      Out += "0123456789abcdef"[C >> 4];
      Out += "0123456789abcdef"[C & 0xf];
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

std::string json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendEscaped(Out, S);
  return Out;
}

void Writer::separate() {
  if (IsObject.empty())
    return;
  if (IsObject.back() && !PendingKey)
    assert(false && "value emitted without a key inside an object");
  if (PendingKey) {
    PendingKey = false;
    return; // key() already placed the comma and colon.
  }
  if (HasElems.back())
    Out += ',';
  HasElems.back() = true;
}

Writer &Writer::beginObject() {
  separate();
  Out += '{';
  IsObject.push_back(true);
  HasElems.push_back(false);
  return *this;
}

Writer &Writer::endObject() {
  assert(!IsObject.empty() && IsObject.back() && !PendingKey &&
         "mismatched endObject");
  Out += '}';
  IsObject.pop_back();
  HasElems.pop_back();
  return *this;
}

Writer &Writer::beginArray() {
  separate();
  Out += '[';
  IsObject.push_back(false);
  HasElems.push_back(false);
  return *this;
}

Writer &Writer::endArray() {
  assert(!IsObject.empty() && !IsObject.back() && "mismatched endArray");
  Out += ']';
  IsObject.pop_back();
  HasElems.pop_back();
  return *this;
}

Writer &Writer::key(std::string_view K) {
  assert(!IsObject.empty() && IsObject.back() && !PendingKey &&
         "key() outside an object");
  if (HasElems.back())
    Out += ',';
  HasElems.back() = true;
  Out += '"';
  appendEscaped(Out, K);
  Out += "\":";
  PendingKey = true;
  return *this;
}

Writer &Writer::stringValue(std::string_view V) {
  separate();
  Out += '"';
  appendEscaped(Out, V);
  Out += '"';
  return *this;
}

Writer &Writer::value(int64_t V) {
  separate();
  append(Out, V);
  return *this;
}

Writer &Writer::value(uint64_t V) {
  separate();
  append(Out, V);
  return *this;
}

Writer &Writer::value(double V) {
  if (!std::isfinite(V))
    return null();
  separate();
  Out += strf("%.17g", V);
  return *this;
}

Writer &Writer::value(bool V) {
  separate();
  Out += V ? "true" : "false";
  return *this;
}

Writer &Writer::null() {
  separate();
  Out += "null";
  return *this;
}

Writer &Writer::raw(const std::string &Fragment) {
  separate();
  Out += Fragment;
  return *this;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

namespace {

/// Recursive-descent JSON parser over a string view. Depth is bounded so a
/// malicious artifact cannot blow the stack.
class Parser {
public:
  Parser(const std::string &Text, std::string *Err) : Text(Text), Err(Err) {}

  std::optional<Value> run() {
    std::optional<Value> V = parseValue(0);
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing garbage after document");
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 128;

  std::optional<Value> fail(const std::string &Why) {
    if (Err && Err->empty())
      *Err = strf("at byte %zu: %s", Pos, Why.c_str());
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t N = std::string(Lit).size();
    if (Text.compare(Pos, N, Lit) == 0) {
      Pos += N;
      return true;
    }
    return false;
  }

  std::optional<std::string> parseString() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string S;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return S;
      if (C == '\\') {
        if (Pos >= Text.size())
          break;
        char E = Text[Pos++];
        switch (E) {
        case '"':
          S += '"';
          break;
        case '\\':
          S += '\\';
          break;
        case '/':
          S += '/';
          break;
        case 'n':
          S += '\n';
          break;
        case 'r':
          S += '\r';
          break;
        case 't':
          S += '\t';
          break;
        case 'b':
          S += '\b';
          break;
        case 'f':
          S += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned Code = 0;
          for (unsigned K = 0; K < 4; ++K) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else {
              fail("bad \\u escape digit");
              return std::nullopt;
            }
          }
          // UTF-8 encode (surrogate pairs are not needed by our writers).
          if (Code < 0x80) {
            S += static_cast<char>(Code);
          } else if (Code < 0x800) {
            S += static_cast<char>(0xC0 | (Code >> 6));
            S += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            S += static_cast<char>(0xE0 | (Code >> 12));
            S += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            S += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
        }
      } else if (static_cast<unsigned char>(C) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      } else {
        S += C;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parseValue(unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");

    char C = Text[Pos];
    Value V;
    if (C == '{') {
      ++Pos;
      V.K = Value::Kind::Object;
      skipWs();
      if (consume('}'))
        return V;
      for (;;) {
        skipWs();
        auto Key = parseString();
        if (!Key)
          return std::nullopt;
        if (!consume(':'))
          return fail("expected ':' after object key");
        auto Member = parseValue(Depth + 1);
        if (!Member)
          return std::nullopt;
        V.Obj.emplace_back(std::move(*Key), std::move(*Member));
        if (consume(','))
          continue;
        if (consume('}'))
          return V;
        return fail("expected ',' or '}' in object");
      }
    }
    if (C == '[') {
      ++Pos;
      V.K = Value::Kind::Array;
      skipWs();
      if (consume(']'))
        return V;
      for (;;) {
        auto Elem = parseValue(Depth + 1);
        if (!Elem)
          return std::nullopt;
        V.Arr.push_back(std::move(*Elem));
        if (consume(','))
          continue;
        if (consume(']'))
          return V;
        return fail("expected ',' or ']' in array");
      }
    }
    if (C == '"') {
      auto S = parseString();
      if (!S)
        return std::nullopt;
      V.K = Value::Kind::String;
      V.Str = std::move(*S);
      return V;
    }
    if (literal("true")) {
      V.K = Value::Kind::Bool;
      V.Bool = true;
      return V;
    }
    if (literal("false")) {
      V.K = Value::Kind::Bool;
      V.Bool = false;
      return V;
    }
    if (literal("null"))
      return V;

    // Number: strtod with strict syntax pre-check (JSON forbids leading
    // '+', bare '.', and hex).
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("expected value");
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    std::string Num = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return fail("malformed number");
    V.K = Value::Kind::Number;
    V.Num = D;
    return V;
  }

  const std::string &Text;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace

std::optional<Value> json::parse(const std::string &Text, std::string *Err) {
  return Parser(Text, Err).run();
}
