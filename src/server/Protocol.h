//===- server/Protocol.h - Wire protocol of the compile server -----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `simdized` wire protocol: length-prefixed JSON frames carrying
/// compile / check / explain / stats / batch / dump requests and their
/// responses. One frame is
///
///   <decimal byte length> '\n' <exactly that many bytes of JSON>
///
/// in both directions. Framing is deliberately dumb — no escaping, no
/// continuation — so any language can speak it with a readline and a
/// counted read. Payload schema, error codes, and examples are specified
/// in docs/SERVER.md.
///
/// The layer splits in two:
///
///  - framing: encodeFrame() and the incremental FrameReader, which turns
///    an arbitrary byte stream into complete payloads and classifies the
///    three ways a stream can die (malformed length, oversized frame,
///    truncation mid-frame);
///  - schema: parseRequest(), a strict validator over obs::json — unknown
///    fields, fields misplaced for the request kind, and malformed values
///    are all structured errors, never silently ignored.
///
/// Every failure is an ErrorInfo with a stable machine-readable code;
/// errorResponse() renders the golden error-record shape tests pin down.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SERVER_PROTOCOL_H
#define SIMDIZE_SERVER_PROTOCOL_H

#include "pipeline/Pipeline.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace simdize {
namespace server {

/// Hard ceiling on one frame's payload; a length above this is rejected
/// before any allocation, so a hostile or corrupted length prefix cannot
/// balloon the daemon.
constexpr size_t MaxFrameBytes = 8u << 20;

/// Version of the response record schema. Every response envelope — ok
/// and error alike — carries it as "schema_version", so a client can
/// detect a daemon speaking a newer schema before interpreting any other
/// field. Bumped on any change to response shapes or field semantics:
///
///   1  initial versioned schema (implicit in all pre-versioned daemons);
///   2  kinded-statement release: decision logs gained per-statement
///      guard/reduction records (docs/SERVER.md, "Schema versioning");
///   3  stats: ref_images lost its rebinds counter.
constexpr uint64_t ProtocolSchemaVersion = 3;

/// Stable machine-readable failure classification. Framing-level codes
/// (BadFrame, OversizedFrame, TruncatedFrame) terminate the connection
/// after one error record — the stream cannot be resynchronized; all
/// payload-level codes are per-request and leave the connection serving.
enum class ErrorCode {
  BadFrame,       ///< Length prefix is not a plain decimal number.
  OversizedFrame, ///< Length prefix exceeds MaxFrameBytes.
  TruncatedFrame, ///< Stream ended mid-frame (client disconnect).
  BadJson,        ///< Payload is not well-formed JSON.
  BadRequest,     ///< Schema violation: missing/misplaced/mistyped field.
  UnknownField,   ///< A field no request kind defines.
  UnknownKind,    ///< "kind" is not one of the six request kinds.
  ParseError,     ///< The loop text does not parse.
  CompileError,   ///< The pipeline rejected the loop (deterministic).
  PoisonedCache,  ///< A cache entry failed its integrity checksum.
  Internal,       ///< Exception escaped a worker; the request is isolated.
};

/// The wire spelling of \p Code ("bad_frame", "compile_error", ...).
const char *errorCodeName(ErrorCode Code);

/// One structured failure: code plus human-readable detail.
struct ErrorInfo {
  ErrorCode Code = ErrorCode::Internal;
  std::string Message;
};

/// Renders \p Payload as one wire frame.
std::string encodeFrame(const std::string &Payload);

/// Incremental frame decoder: feed() it raw bytes as they arrive and it
/// appends every completed payload to the caller's vector. A framing
/// error (bad length, oversized length) poisons the reader permanently —
/// feed() returns false and error() describes why. finish() signals EOF
/// and reports truncation when the stream died mid-frame.
class FrameReader {
public:
  /// Consumes \p N bytes. Returns false once the stream is poisoned.
  bool feed(const char *Data, size_t N, std::vector<std::string> &Out);

  /// Signals end of stream. Returns true for a clean boundary; false
  /// (and poisons the reader with TruncatedFrame) when EOF hit inside a
  /// frame header or payload.
  bool finish();

  bool failed() const { return Failed; }
  const ErrorInfo &error() const { return Err; }

private:
  bool fail(ErrorCode Code, std::string Message);

  std::string Header;  ///< Accumulated length prefix (digits before \n).
  std::string Payload; ///< Accumulated payload bytes.
  size_t Expected = 0; ///< Payload length once the header is complete.
  bool InPayload = false;
  bool Failed = false;
  ErrorInfo Err;
};

/// The six request kinds. Dump returns the flight recorder's ring of
/// recent request summaries (docs/SERVER.md, "Flight recorder").
enum class RequestKind { Compile, Check, Explain, Stats, Batch, Dump };

/// The wire spelling of \p Kind ("compile", "check", ...).
const char *requestKindName(RequestKind Kind);

/// One validated request. Config carries the complete
/// pipeline::CompileRequest; an omitted "config" object (or omitted
/// members) means the struct's own defaults — zero-shift policy, no
/// software pipelining, V = 16, Std opt level, VM tier.
struct Request {
  uint64_t Id = 0;
  RequestKind Kind = RequestKind::Stats;
  std::string LoopText;              ///< compile / check / explain.
  pipeline::CompileRequest Config;   ///< compile / check / explain.
  uint64_t Seed = 1;                 ///< check.
  std::vector<Request> Batch;        ///< batch (sub-requests, never nested).
};

/// Parses and strictly validates one payload. On any violation returns
/// std::nullopt with \p Err filled. \p AllowBatch is cleared when parsing
/// batch sub-requests so nesting is rejected.
std::optional<Request> parseRequest(const std::string &Payload,
                                    ErrorInfo &Err, bool AllowBatch = true);

/// The golden error record:
/// {"id":N,"kind":"error","schema_version":2,"ok":false,
///  "error":{"code":...,"message":...}}.
std::string errorResponse(uint64_t Id, const ErrorInfo &Err);

} // namespace server
} // namespace simdize

#endif // SIMDIZE_SERVER_PROTOCOL_H
