#include "net/frame.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/socket.h"

namespace prsim {
namespace net {

static_assert(std::endian::native == std::endian::little,
              "the wire framing writes host-endian integers and is only "
              "deployed same-host; port the codec before crossing archs");
static_assert(sizeof(double) == 8);

namespace {

constexpr uint8_t kFlagFreshSeed = 1u << 0;
constexpr uint8_t kFlagExplicitPosition = 1u << 1;
constexpr uint8_t kFlagHasDeadline = 1u << 2;

template <typename T>
void Append(std::vector<char>* out, T value) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

void AppendBytes(std::vector<char>* out, const void* data, size_t len) {
  const size_t at = out->size();
  out->resize(at + len);
  std::memcpy(out->data() + at, data, len);
}

/// Bounds-checked sequential reader over a payload.
class Cursor {
 public:
  explicit Cursor(const std::vector<char>& payload) : payload_(payload) {}

  template <typename T>
  bool Read(T* value) {
    if (payload_.size() - at_ < sizeof(T)) return false;
    std::memcpy(value, payload_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return true;
  }

  bool ReadString(size_t len, std::string* value) {
    if (payload_.size() - at_ < len) return false;
    value->assign(payload_.data() + at_, len);
    at_ += len;
    return true;
  }

  bool exhausted() const { return at_ == payload_.size(); }

 private:
  const std::vector<char>& payload_;
  size_t at_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what +
                                 " frame payload");
}

}  // namespace

void EncodeRequest(const WireRequest& request, std::vector<char>* out) {
  out->clear();
  const bool has_deadline =
      request.deadline_ms != QueryRequest::kNoDeadline;
  Append<uint8_t>(out, kFrameVersion);
  uint8_t flags = 0;
  if (request.fresh_seed) flags |= kFlagFreshSeed;
  if (request.seed_position != QueryRequest::kServiceOrder) {
    flags |= kFlagExplicitPosition;
  }
  if (has_deadline) flags |= kFlagHasDeadline;
  Append<uint8_t>(out, flags);
  Append<uint16_t>(out, static_cast<uint16_t>(request.algo.size()));
  Append<uint32_t>(out, request.source);
  Append<uint32_t>(out, request.k);
  Append<uint64_t>(out, request.seed_position);
  // Budgets beyond u32 range clamp rather than wrap.
  const uint64_t deadline_ms =
      has_deadline ? std::min<uint64_t>(request.deadline_ms, UINT32_MAX) : 0;
  Append<uint32_t>(out, static_cast<uint32_t>(deadline_ms));
  AppendBytes(out, request.algo.data(), request.algo.size());
}

void EncodeResponse(const WireResponse& response, std::vector<char>* out) {
  out->clear();
  Append<uint8_t>(out, kFrameVersion);
  Append<uint8_t>(out, response.status_code);
  Append<uint16_t>(out, 0);
  Append<uint32_t>(out, response.source);
  Append<uint32_t>(out, static_cast<uint32_t>(response.scores.size()));
  Append<uint32_t>(out, static_cast<uint32_t>(response.error.size()));
  for (const auto& [node, score] : response.scores) {
    Append<uint32_t>(out, node);
    Append<double>(out, score);
  }
  AppendBytes(out, response.error.data(), response.error.size());
}

Result<WireRequest> DecodeRequest(const std::vector<char>& payload) {
  Cursor cursor(payload);
  uint8_t version = 0, flags = 0;
  uint16_t algo_len = 0;
  uint32_t deadline_ms = 0;
  WireRequest request;
  if (!cursor.Read(&version)) return Truncated("request");
  if (version != kFrameVersion) {
    return Status::InvalidArgument("unsupported request frame version " +
                                   std::to_string(version));
  }
  if (!cursor.Read(&flags) || !cursor.Read(&algo_len) ||
      !cursor.Read(&request.source) || !cursor.Read(&request.k) ||
      !cursor.Read(&request.seed_position) || !cursor.Read(&deadline_ms)) {
    return Truncated("request");
  }
  if (!cursor.ReadString(algo_len, &request.algo) || !cursor.exhausted()) {
    return Truncated("request");
  }
  if ((flags & kFlagHasDeadline) != 0) request.deadline_ms = deadline_ms;
  request.fresh_seed = (flags & kFlagFreshSeed) != 0;
  if ((flags & kFlagExplicitPosition) == 0) {
    request.seed_position = QueryRequest::kServiceOrder;
  }
  return request;
}

Result<WireResponse> DecodeResponse(const std::vector<char>& payload) {
  Cursor cursor(payload);
  uint8_t version = 0, status_code = 0;
  uint16_t reserved = 0;
  uint32_t score_count = 0, error_len = 0;
  WireResponse response;
  if (!cursor.Read(&version) || !cursor.Read(&status_code) ||
      !cursor.Read(&reserved) || !cursor.Read(&response.source) ||
      !cursor.Read(&score_count) || !cursor.Read(&error_len)) {
    return Truncated("response");
  }
  if (version != kFrameVersion) {
    return Status::InvalidArgument("unsupported response frame version " +
                                   std::to_string(version));
  }
  response.status_code = status_code;
  // score_count is bounded by the already-validated payload length; the
  // reserve below cannot overshoot the frame cap.
  if ((payload.size() - 16) / 12 < score_count) {
    return Truncated("response");
  }
  response.scores.reserve(score_count);
  for (uint32_t i = 0; i < score_count; ++i) {
    uint32_t node = 0;
    double score = 0;
    if (!cursor.Read(&node) || !cursor.Read(&score)) {
      return Truncated("response");
    }
    response.scores.emplace_back(node, score);
  }
  if (!cursor.ReadString(error_len, &response.error) || !cursor.exhausted()) {
    return Truncated("response");
  }
  return response;
}

Status WriteFrame(int fd, const std::vector<char>& payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload.size()));
  }
  const auto length = static_cast<uint32_t>(payload.size());
  PRSIM_RETURN_NOT_OK(WriteAll(fd, &length, sizeof(length)));
  return WriteAll(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, std::vector<char>* payload, bool* eof) {
  uint32_t length = 0;
  PRSIM_RETURN_NOT_OK(ReadFull(fd, &length, sizeof(length), eof));
  if (*eof) return Status::OK();
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument("frame length " + std::to_string(length) +
                                   " exceeds the " +
                                   std::to_string(kMaxFramePayload) +
                                   "-byte cap");
  }
  payload->resize(length);
  bool mid_eof = false;
  PRSIM_RETURN_NOT_OK(ReadFull(fd, payload->data(), length, &mid_eof));
  if (mid_eof) return Status::IOError("connection closed mid-frame");
  return Status::OK();
}

}  // namespace net
}  // namespace prsim
