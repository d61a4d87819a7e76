// Length-prefixed binary wire protocol for the CoSimRank query service.
//
// The paper's multi-source queries only matter at serving scale once a
// client can reach the engine over a network; this codec is the contract
// between src/net/server.h and src/net/client.h. It is hand-rolled (no IDL
// compiler, no external dependency) and deliberately small:
//
//   frame    := payload_bytes:u32 payload
//   request  := version:u16 method:u8 flags:u8 quality:u8 top_k:i32
//               deadline_micros:u64 graph_bytes:u16 graph_char ...
//               num_queries:u32 query_id:i64 ...
//   response := version:u16 status_code:u16 message_bytes:u32 message
//               batch_requests:u32 batch_queries:i64
//               wait_micros:u64 total_micros:u64 tier:u8 body_kind:u8 body
//
// v2 added the request quality class (exact | approximate | best-effort)
// and the response tier echo (which serving tier actually answered); see
// docs/serving-tiers.md for the routing semantics. v3 added the request
// graph_id (multi-graph tenancy; docs/mutations.md) — a u16-length-prefixed
// UTF-8 name between the deadline and the query count.
//
// The response body is EITHER the full n x |Q| score block (body_kind 1:
// n:i64 num_queries:u32 then n*|Q| row-major doubles — a raw copy of the
// service's DenseMatrix, so a socket round trip is bit-identical to an
// in-process QueryService::Query) OR the per-query top-k pairs (body_kind
// 2, sent when the request asked for top_k > 0) OR empty (body_kind 0,
// errors and pings).
//
// All integers are little-endian fixed width; doubles are IEEE-754 bit
// patterns carried through uint64. Frames are bounded: a decoder rejects
// any frame whose declared payload exceeds its `max_frame_bytes`, so a
// garbage or hostile peer costs one u32 read, never an allocation.
//
// Versioning: decoders on both sides accept exactly `kProtocolVersion`; any
// other version is a typed kFailedPrecondition, mirroring the .cspc artifact
// version policy.
// Reference: docs/wire-protocol.md documents the byte layout normatively.

#ifndef CSRPLUS_NET_WIRE_PROTOCOL_H_
#define CSRPLUS_NET_WIRE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/topk.h"
#include "linalg/dense_matrix.h"
#include "service/query_service.h"

namespace csrplus::net {

using linalg::Index;

/// Protocol version carried in every request and response.
/// v1: initial frame layout. v2: request quality:u8 after flags, response
/// tier:u8 before body_kind (the serving-tier contract). v3: request
/// graph_bytes:u16 + graph name before num_queries (multi-graph tenancy).
inline constexpr uint16_t kProtocolVersion = 3;

/// Wire bound on the graph name (u16 length prefix; generous in practice).
inline constexpr std::size_t kMaxGraphIdBytes = 255;

/// Frame header size: the u32 payload length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Default decode-side frame caps. Requests are tiny (a few hundred query
/// ids); responses carry an n x |Q| double block and get the generous cap.
inline constexpr std::size_t kMaxRequestFrameBytes = std::size_t{4} << 20;
inline constexpr std::size_t kMaxResponseFrameBytes = std::size_t{1} << 30;

/// Request methods.
enum class Method : uint8_t {
  kPing = 0,   ///< liveness probe; response has status OK and no body
  kQuery = 1,  ///< multi-source CoSimRank through service::QueryService
};

/// Request flag bits.
inline constexpr uint8_t kFlagExcludeQuery = 1u << 0;

/// One decoded client request.
struct WireRequest {
  Method method = Method::kQuery;
  /// Top-k only: exclude each query node from its own ranking.
  bool exclude_query = true;
  /// When > 0 the response carries top-k pairs instead of full columns.
  int32_t top_k = 0;
  /// Relative deadline applied by the service; 0 = none.
  uint64_t deadline_micros = 0;
  /// Requested serving quality (docs/serving-tiers.md). Encoded as u8 using
  /// the enum's fixed wire values; decoders reject anything > best-effort.
  service::QualityClass quality = service::QualityClass::kExact;
  /// Which served graph this request targets (v3). Empty = the server's
  /// default tenant. At most
  /// kMaxGraphIdBytes bytes; the server answers kNotFound for unknown names.
  std::string graph_id;
  std::vector<int64_t> queries;
};

/// Response body discriminator.
enum class BodyKind : uint8_t {
  kNone = 0,     ///< errors, pings
  kColumns = 1,  ///< full n x |Q| score block
  kTopK = 2,     ///< per-query top-k pairs
};

/// One decoded server response.
struct WireResponse {
  uint16_t status_code = 0;  ///< numeric StatusCode
  std::string message;
  /// Batch statistics mirrored from service::QueryResponse.
  uint32_t batch_requests = 0;
  int64_t batch_queries = 0;
  uint64_t wait_micros = 0;
  uint64_t total_micros = 0;
  /// Which serving tier actually answered (kUnspecified for pings and
  /// requests that never reached an engine). Encoded as u8.
  service::ServedTier served_tier = service::ServedTier::kUnspecified;
  /// Full score block (body_kind 1); empty otherwise.
  linalg::DenseMatrix scores;
  /// Per-query top-k (body_kind 2); empty otherwise.
  std::vector<std::vector<core::ScoredNode>> topk;

  bool ok() const { return status_code == 0; }
  /// Reconstructs the Status the service produced (code + message).
  Status ToStatus() const;
};

/// Appends one framed request/response (header + payload) to `out`.
void AppendRequestFrame(const WireRequest& request, std::string* out);
void AppendResponseFrame(const WireResponse& response, std::string* out);

/// Encode-side borrow variant: identical frame to AppendResponseFrame with
/// `scores` as the body, but the n x |Q| block is read straight from the
/// caller's matrix (header.scores / header.topk must be empty). The server
/// uses this to encode the service's DenseMatrix without first copying it
/// into a temporary WireResponse — the block is large enough that the extra
/// copy measurably costs socket throughput.
void AppendResponseFrame(const WireResponse& header,
                         const linalg::DenseMatrix& scores, std::string* out);

/// Convenience: an error response frame with no body.
void AppendErrorResponseFrame(const Status& status, std::string* out);

/// Outcome of trying to slice one frame out of a byte stream.
enum class FrameStatus {
  kComplete,    ///< one whole frame available; *consumed and payload set
  kIncomplete,  ///< need more bytes; read again
  kTooLarge,    ///< declared payload exceeds max_frame_bytes — protocol error
};

/// Examines buffer[0..size). On kComplete, sets *payload / *payload_size to
/// the frame payload (aliasing `buffer`) and *consumed to header + payload.
FrameStatus ExtractFrame(const uint8_t* buffer, std::size_t size,
                         std::size_t max_frame_bytes, const uint8_t** payload,
                         std::size_t* payload_size, std::size_t* consumed);

/// Decodes a frame payload produced by the Append*Frame counterpart.
/// Truncated, over-long or version-mismatched payloads return typed errors
/// (kInvalidArgument / kFailedPrecondition) and never read out of bounds.
Result<WireRequest> DecodeRequest(const uint8_t* payload, std::size_t size);
Result<WireResponse> DecodeResponse(const uint8_t* payload, std::size_t size);

}  // namespace csrplus::net

#endif  // CSRPLUS_NET_WIRE_PROTOCOL_H_
