#include "net/wire_protocol.h"

#include <bit>
#include <cstring>

namespace csrplus::net {
namespace {

// --- little-endian primitives -------------------------------------------
// Written byte by byte so the wire format is identical on any host
// endianness; on x86 the compiler folds these into plain loads/stores.

void PutU16(uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>(v >> 8 & 0xFF));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i) & 0xFF));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i) & 0xFF));
  }
}

void PutI64(int64_t v, std::string* out) { PutU64(static_cast<uint64_t>(v), out); }

void PutDouble(double v, std::string* out) {
  PutU64(std::bit_cast<uint64_t>(v), out);
}

/// Bounds-checked sequential reader over a frame payload.
class Reader {
 public:
  Reader(const uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > size_) return false;
    *v = static_cast<uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
    pos_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = r;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = r;
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool ReadDouble(double* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
  bool ReadBytes(std::size_t n, std::string* out) {
    if (pos_ + n > size_ || n > size_) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  /// Bulk copy into caller memory; used for the little-endian fast path
  /// where the wire layout already matches the host representation.
  bool ReadRaw(std::size_t n, void* dst) {
    if (pos_ + n > size_ || n > size_) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("wire frame truncated inside ") +
                                 what);
}

/// Decoders accept exactly kProtocolVersion; anything else is the typed
/// kFailedPrecondition.
Status CheckVersion(uint16_t version) {
  if (version == kProtocolVersion) return Status::OK();
  return Status::FailedPrecondition(
      "wire protocol version mismatch: peer speaks v" +
      std::to_string(version) + ", this build speaks v" +
      std::to_string(kProtocolVersion));
}

/// Starts a frame: emits the header placeholder and returns its offset so
/// FinishFrame can patch the real payload length in.
std::size_t BeginFrame(std::string* out) {
  const std::size_t header_at = out->size();
  PutU32(0, out);
  return header_at;
}

void FinishFrame(std::size_t header_at, std::string* out) {
  const uint64_t payload = out->size() - header_at - kFrameHeaderBytes;
  CSR_CHECK(payload <= UINT32_MAX);
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + static_cast<std::size_t>(i)] =
        static_cast<char>(payload >> (8 * i) & 0xFF);
  }
}

}  // namespace

Status WireResponse::ToStatus() const {
  const auto code = static_cast<StatusCode>(status_code);
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kNumericalError:
      return Status::NumericalError(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kCancelled:
      return Status::Cancelled(message);
  }
  return Status::Internal("unknown wire status code " +
                          std::to_string(status_code));
}

void AppendRequestFrame(const WireRequest& request, std::string* out) {
  CSR_CHECK(request.graph_id.size() <= kMaxGraphIdBytes)
      << "graph_id exceeds the wire bound";
  const std::size_t header_at = BeginFrame(out);
  PutU16(kProtocolVersion, out);
  out->push_back(static_cast<char>(request.method));
  uint8_t flags = 0;
  if (request.exclude_query) flags |= kFlagExcludeQuery;
  out->push_back(static_cast<char>(flags));
  out->push_back(static_cast<char>(request.quality));
  PutU32(static_cast<uint32_t>(request.top_k), out);
  PutU64(request.deadline_micros, out);
  PutU16(static_cast<uint16_t>(request.graph_id.size()), out);
  out->append(request.graph_id);
  PutU32(static_cast<uint32_t>(request.queries.size()), out);
  for (int64_t q : request.queries) PutI64(q, out);
  FinishFrame(header_at, out);
}

namespace {

// Shared encoder; `scores` may alias response.scores or a borrowed block.
void AppendResponseFrameImpl(const WireResponse& response,
                             const linalg::DenseMatrix& scores,
                             std::string* out) {
  const std::size_t header_at = BeginFrame(out);
  PutU16(kProtocolVersion, out);
  PutU16(response.status_code, out);
  PutU32(static_cast<uint32_t>(response.message.size()), out);
  out->append(response.message);
  PutU32(response.batch_requests, out);
  PutI64(response.batch_queries, out);
  PutU64(response.wait_micros, out);
  PutU64(response.total_micros, out);
  out->push_back(static_cast<char>(response.served_tier));
  if (!response.topk.empty()) {
    out->push_back(static_cast<char>(BodyKind::kTopK));
    PutU32(static_cast<uint32_t>(response.topk.size()), out);
    for (const auto& column : response.topk) {
      PutU32(static_cast<uint32_t>(column.size()), out);
      for (const auto& scored : column) {
        PutI64(scored.node, out);
        PutDouble(scored.score, out);
      }
    }
  } else if (!scores.empty()) {
    out->push_back(static_cast<char>(BodyKind::kColumns));
    PutI64(scores.rows(), out);
    PutU32(static_cast<uint32_t>(scores.cols()), out);
    // Raw row-major payload: the block arrives bit-identical to the
    // in-process DenseMatrix the service produced.
    const std::size_t bytes = static_cast<std::size_t>(scores.PayloadBytes());
    const std::size_t at = out->size();
    out->resize(at + bytes);
    scores.CopyToBytes(out->data() + at);
  } else {
    out->push_back(static_cast<char>(BodyKind::kNone));
  }
  FinishFrame(header_at, out);
}

}  // namespace

void AppendResponseFrame(const WireResponse& response, std::string* out) {
  AppendResponseFrameImpl(response, response.scores, out);
}

void AppendResponseFrame(const WireResponse& header,
                         const linalg::DenseMatrix& scores, std::string* out) {
  CSR_CHECK(header.scores.empty() && header.topk.empty())
      << "borrow overload: the body must come from `scores` alone";
  AppendResponseFrameImpl(header, scores, out);
}

void AppendErrorResponseFrame(const Status& status, std::string* out) {
  WireResponse response;
  response.status_code = static_cast<uint16_t>(status.code());
  response.message = status.message();
  AppendResponseFrame(response, out);
}

FrameStatus ExtractFrame(const uint8_t* buffer, std::size_t size,
                         std::size_t max_frame_bytes, const uint8_t** payload,
                         std::size_t* payload_size, std::size_t* consumed) {
  if (size < kFrameHeaderBytes) return FrameStatus::kIncomplete;
  uint32_t declared = 0;
  for (int i = 0; i < 4; ++i) {
    declared |= static_cast<uint32_t>(buffer[i]) << (8 * i);
  }
  if (declared > max_frame_bytes) return FrameStatus::kTooLarge;
  if (size < kFrameHeaderBytes + declared) return FrameStatus::kIncomplete;
  *payload = buffer + kFrameHeaderBytes;
  *payload_size = declared;
  *consumed = kFrameHeaderBytes + declared;
  return FrameStatus::kComplete;
}

Result<WireRequest> DecodeRequest(const uint8_t* payload, std::size_t size) {
  Reader reader(payload, size);
  uint16_t version = 0;
  if (!reader.ReadU16(&version)) return Truncated("request header");
  CSR_RETURN_IF_ERROR(CheckVersion(version));
  WireRequest request;
  uint8_t method = 0, flags = 0, quality = 0;
  uint32_t top_k = 0, num_queries = 0;
  uint16_t graph_bytes = 0;
  if (!reader.ReadU8(&method) || !reader.ReadU8(&flags) ||
      !reader.ReadU8(&quality) || !reader.ReadU32(&top_k) ||
      !reader.ReadU64(&request.deadline_micros)) {
    return Truncated("request header");
  }
  if (!reader.ReadU16(&graph_bytes)) return Truncated("request graph id");
  if (graph_bytes > kMaxGraphIdBytes) {
    return Status::InvalidArgument("request graph id exceeds " +
                                   std::to_string(kMaxGraphIdBytes) +
                                   " bytes");
  }
  if (!reader.ReadBytes(graph_bytes, &request.graph_id)) {
    return Truncated("request graph id");
  }
  if (!reader.ReadU32(&num_queries)) return Truncated("request header");
  if (method > static_cast<uint8_t>(Method::kQuery)) {
    return Status::InvalidArgument("unknown wire method " +
                                   std::to_string(method));
  }
  if (quality >
      static_cast<uint8_t>(service::QualityClass::kBestEffort)) {
    return Status::InvalidArgument("unknown wire quality class " +
                                   std::to_string(quality));
  }
  request.method = static_cast<Method>(method);
  request.exclude_query = (flags & kFlagExcludeQuery) != 0;
  request.quality = static_cast<service::QualityClass>(quality);
  request.top_k = static_cast<int32_t>(top_k);
  // Each id costs 8 payload bytes, so `remaining` bounds num_queries; a
  // frame lying about its count is caught here, not by a giant reserve.
  if (static_cast<std::size_t>(num_queries) * 8 != reader.remaining()) {
    return Status::InvalidArgument(
        "request query count does not match frame size");
  }
  request.queries.resize(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    if (!reader.ReadI64(&request.queries[i])) return Truncated("query ids");
  }
  return request;
}

Result<WireResponse> DecodeResponse(const uint8_t* payload, std::size_t size) {
  Reader reader(payload, size);
  uint16_t version = 0;
  if (!reader.ReadU16(&version)) return Truncated("response header");
  CSR_RETURN_IF_ERROR(CheckVersion(version));
  WireResponse response;
  uint32_t message_bytes = 0;
  if (!reader.ReadU16(&response.status_code) ||
      !reader.ReadU32(&message_bytes) ||
      !reader.ReadBytes(message_bytes, &response.message) ||
      !reader.ReadU32(&response.batch_requests) ||
      !reader.ReadI64(&response.batch_queries) ||
      !reader.ReadU64(&response.wait_micros) ||
      !reader.ReadU64(&response.total_micros)) {
    return Truncated("response header");
  }
  if (response.status_code > static_cast<uint16_t>(StatusCode::kCancelled)) {
    return Status::InvalidArgument("unknown wire status code " +
                                   std::to_string(response.status_code));
  }
  uint8_t tier = 0;
  if (!reader.ReadU8(&tier)) return Truncated("response tier");
  if (tier > static_cast<uint8_t>(service::ServedTier::kUnspecified)) {
    return Status::InvalidArgument("unknown wire serving tier " +
                                   std::to_string(tier));
  }
  response.served_tier = static_cast<service::ServedTier>(tier);
  uint8_t body_kind = 0;
  if (!reader.ReadU8(&body_kind)) return Truncated("response body kind");
  switch (static_cast<BodyKind>(body_kind)) {
    case BodyKind::kNone:
      break;
    case BodyKind::kColumns: {
      int64_t n = 0;
      uint32_t cols = 0;
      if (!reader.ReadI64(&n) || !reader.ReadU32(&cols)) {
        return Truncated("score block header");
      }
      // Overflow-safe: a hostile n * cols * 8 must not wrap around to the
      // remaining byte count and smuggle a giant allocation past this check.
      std::size_t block_bytes = 0;
      if (n < 0 ||
          __builtin_mul_overflow(static_cast<std::size_t>(n),
                                 std::size_t{cols} * 8, &block_bytes) ||
          block_bytes != reader.remaining()) {
        return Status::InvalidArgument(
            "score block dimensions do not match frame size");
      }
      response.scores = linalg::DenseMatrix(n, static_cast<Index>(cols));
      const int64_t count = n * static_cast<int64_t>(cols);
      if constexpr (std::endian::native == std::endian::little) {
        // Fast path: the wire format IS the host representation, so the
        // whole block is one memcpy instead of per-element byte assembly
        // (the per-element loop dominates client-side decode on large
        // responses).
        if (!reader.ReadRaw(static_cast<std::size_t>(count) * 8,
                            response.scores.data())) {
          return Truncated("score block");
        }
      } else {
        for (int64_t i = 0; i < count; ++i) {
          if (!reader.ReadDouble(&response.scores.data()[i])) {
            return Truncated("score block");
          }
        }
      }
      break;
    }
    case BodyKind::kTopK: {
      uint32_t num_columns = 0;
      if (!reader.ReadU32(&num_columns)) return Truncated("top-k header");
      // >= 12 bytes per scored node; bounds the declared counts.
      if (static_cast<std::size_t>(num_columns) * 4 > reader.remaining()) {
        return Status::InvalidArgument("top-k count exceeds frame size");
      }
      response.topk.resize(num_columns);
      for (uint32_t j = 0; j < num_columns; ++j) {
        uint32_t k = 0;
        if (!reader.ReadU32(&k)) return Truncated("top-k column header");
        if (static_cast<std::size_t>(k) * 16 > reader.remaining()) {
          return Status::InvalidArgument("top-k entries exceed frame size");
        }
        response.topk[j].resize(k);
        for (uint32_t i = 0; i < k; ++i) {
          int64_t node = 0;
          double score = 0.0;
          if (!reader.ReadI64(&node) || !reader.ReadDouble(&score)) {
            return Truncated("top-k entries");
          }
          response.topk[j][i] = core::ScoredNode{static_cast<Index>(node), score};
        }
      }
      break;
    }
    default:
      return Status::InvalidArgument("unknown response body kind " +
                                     std::to_string(body_kind));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after response body");
  }
  return response;
}

}  // namespace csrplus::net
