// Wire protocol of the TCP serving front end.
//
// A connection speaks one of two framings, chosen by the client's first
// bytes:
//   - binary: the client opens with the 4-byte magic "PRSB", then exchanges
//     length-prefixed frames. Scores travel as raw IEEE-754 doubles, so a
//     response is bit-identical to the answering engine's in-process result
//     — the property the offline-vs-wire CI diff checks.
//   - text: anything else is the line protocol `serve --stdin` speaks
//     ("<source> [k]" in, "result <source> <node>:<score>,..." out), so
//     `nc` and shell loops work unchanged against the TCP transport.
//
// Frame layout (all integers little-endian host order — this is a
// same-host/same-arch transport, asserted at compile time):
//   uint32 payload_length  (bounded by kMaxFramePayload)
//   payload:
//     request:  u8 version, u8 flags (bit0 fresh_seed, bit1 explicit
//               seed_position, bit2 has_deadline), u16 algo_len,
//               u32 source, u32 k, u64 seed_position, u32 deadline_ms,
//               algo bytes
//     response: u8 version, u8 status_code (StatusCode), u16 reserved,
//               u32 source, u32 score_count, u32 error_len,
//               score_count x { u32 node, f64 score }, error bytes
//
// Every request carries the deadline_ms field; it holds a budget only when
// the has_deadline flag is set. Both directions carry kFrameVersion, and a
// frame of any other version is refused.
//
// Encode/decode are pure byte-vector transforms (unit-testable without a
// socket); ReadFrame/WriteFrame do the fd I/O.

#ifndef PRSIM_NET_FRAME_H_
#define PRSIM_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_service.h"
#include "core/single_source.h"
#include "util/status.h"

namespace prsim {
namespace net {

inline constexpr char kBinaryMagic[4] = {'P', 'R', 'S', 'B'};
/// Version 1 request frames had no deadline_ms field.
inline constexpr uint8_t kFrameVersion = 2;
/// Upper bound on one frame's payload: a full single-source result on a
/// 16M-node graph fits with room to spare; anything larger is a corrupt or
/// hostile length prefix, rejected before allocation.
inline constexpr uint32_t kMaxFramePayload = 256u << 20;

/// One query request as it travels on the wire; mirrors QueryRequest.
struct WireRequest {
  std::string algo;  ///< empty = the server's default engine
  NodeId source = 0;
  uint32_t k = 0;  ///< 0 = full single-source result
  uint64_t seed_position = QueryRequest::kServiceOrder;
  bool fresh_seed = false;
  /// Relative deadline budget (QueryRequest::kNoDeadline = none). Travels
  /// as a u32; the encoder clamps larger finite budgets to u32 max
  /// (~49 days — far beyond any real query budget).
  uint64_t deadline_ms = QueryRequest::kNoDeadline;

  QueryRequest ToQueryRequest() const {
    QueryRequest request;
    request.algo = algo;
    request.source = source;
    request.k = k;
    request.seed_position = seed_position;
    request.fresh_seed = fresh_seed;
    request.deadline_ms = deadline_ms;
    return request;
  }
};

/// One response as it travels on the wire. `status_code` is the StatusCode
/// integer (0 = OK); `error` carries the message for non-OK codes.
struct WireResponse {
  uint8_t status_code = 0;
  std::string error;
  NodeId source = 0;
  ScoreList scores;
};

/// Serializes the payload (no length prefix) into *out, replacing it.
void EncodeRequest(const WireRequest& request, std::vector<char>* out);
void EncodeResponse(const WireResponse& response, std::vector<char>* out);

/// Parses a payload produced by the encoder. Truncated, oversized, or
/// version-mismatched payloads are kInvalidArgument.
Result<WireRequest> DecodeRequest(const std::vector<char>& payload);
Result<WireResponse> DecodeResponse(const std::vector<char>& payload);

/// Writes one length-prefixed frame.
Status WriteFrame(int fd, const std::vector<char>& payload);

/// Reads one length-prefixed frame into *payload. Clean EOF at a frame
/// boundary sets *eof; EOF inside a frame or an oversized length prefix is
/// an error.
Status ReadFrame(int fd, std::vector<char>* payload, bool* eof);

}  // namespace net
}  // namespace prsim

#endif  // PRSIM_NET_FRAME_H_
