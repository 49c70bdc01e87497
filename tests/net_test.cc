// Network serving subsystem: wire frame codec round trips, the shared
// text-protocol parser/formatter, the pipelined dispatcher's ordering
// contract, and TcpServer end to end — including the PR's headline
// guarantee that answers over TCP are bit-identical to the offline query
// path at any thread or shard count.

#include "net/tcp_server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_config.h"
#include "core/query_service.h"
#include "core/shard_manifest.h"
#include "core/shard_router.h"
#include "net/frame.h"
#include "net/serve_loop.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/socket.h"

namespace prsim {
namespace {

using ::prsim::testing::MakeRandomDigraph;

EngineConfig ParseConfig(const std::string& params) {
  auto parsed = EngineConfig::Parse(params);
  parsed.status().Abort();
  return std::move(parsed).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameTest, RequestRoundTripsAllFields) {
  net::WireRequest request;
  request.algo = "prsim";
  request.source = 123456;
  request.k = 17;
  request.seed_position = 987654321;
  request.fresh_seed = false;
  std::vector<char> payload;
  net::EncodeRequest(request, &payload);
  auto decoded = net::DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const net::WireRequest& back = decoded.ValueOrDie();
  EXPECT_EQ(back.algo, "prsim");
  EXPECT_EQ(back.source, 123456u);
  EXPECT_EQ(back.k, 17u);
  EXPECT_EQ(back.seed_position, 987654321u);
  EXPECT_FALSE(back.fresh_seed);
}

TEST(FrameTest, RequestDefaultsRoundTrip) {
  net::WireRequest request;  // empty algo, service-order position
  request.fresh_seed = true;
  std::vector<char> payload;
  net::EncodeRequest(request, &payload);
  auto decoded = net::DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.ValueOrDie().algo.empty());
  EXPECT_EQ(decoded.ValueOrDie().seed_position, QueryRequest::kServiceOrder);
  EXPECT_TRUE(decoded.ValueOrDie().fresh_seed);
}

TEST(FrameTest, EveryRequestCarriesTheDeadlineField) {
  net::WireRequest request;
  request.algo = "prsim";
  request.source = 7;
  request.k = 5;
  std::vector<char> payload;
  net::EncodeRequest(request, &payload);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(static_cast<uint8_t>(payload[0]), net::kFrameVersion);
  // u8 version, u8 flags, u16 algo_len, u32 source, u32 k,
  // u64 seed_position, u32 deadline_ms, algo bytes.
  const size_t layout = 1 + 1 + 2 + 4 + 4 + 8 + 4 + request.algo.size();
  EXPECT_EQ(payload.size(), layout);
  auto decoded = net::DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().deadline_ms, QueryRequest::kNoDeadline);

  request.deadline_ms = 250;
  net::EncodeRequest(request, &payload);
  EXPECT_EQ(payload.size(), layout);
  decoded = net::DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().deadline_ms, 250u);
  EXPECT_EQ(decoded.ValueOrDie().algo, "prsim");
  EXPECT_EQ(decoded.ValueOrDie().source, 7u);

  // deadline_ms=0 (already expired) is a meaningful value and must travel.
  request.deadline_ms = 0;
  net::EncodeRequest(request, &payload);
  decoded = net::DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().deadline_ms, 0u);

  // Budgets beyond u32 range clamp rather than truncate mod 2^32.
  request.deadline_ms = (1ull << 40);
  net::EncodeRequest(request, &payload);
  decoded = net::DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().deadline_ms, 0xFFFFFFFFull);
}

TEST(FrameTest, UnknownVersionsAreRejected) {
  net::WireRequest request;
  request.algo = "prsim";
  std::vector<char> request_payload;
  net::EncodeRequest(request, &request_payload);
  net::WireResponse response;
  response.scores = {{1, 0.5}};
  std::vector<char> response_payload;
  net::EncodeResponse(response, &response_payload);
  for (const uint8_t version : {uint8_t{1}, uint8_t{3}, uint8_t{255}}) {
    SCOPED_TRACE(static_cast<int>(version));
    request_payload[0] = static_cast<char>(version);
    const auto decoded_request = net::DecodeRequest(request_payload);
    ASSERT_FALSE(decoded_request.ok());
    EXPECT_NE(decoded_request.status().message().find(
                  "unsupported request frame version " +
                  std::to_string(version)),
              std::string::npos);
    response_payload[0] = static_cast<char>(version);
    EXPECT_FALSE(net::DecodeResponse(response_payload).ok());
  }
  // A version-1 request had no deadline_ms field: it is refused by its
  // version, not misread.
  std::vector<char> v1_payload = request_payload;
  v1_payload[0] = 1;
  v1_payload.erase(v1_payload.begin() + 20, v1_payload.begin() + 24);
  const auto v1 = net::DecodeRequest(v1_payload);
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("unsupported request frame version 1"),
            std::string::npos);
}

TEST(FrameTest, ResponseRoundTripsScoresBitForBit) {
  net::WireResponse response;
  response.status_code = 0;
  response.source = 42;
  response.scores = {{7, 0.12345678901234567}, {9, 1e-300}, {11, 0.0}};
  std::vector<char> payload;
  net::EncodeResponse(response, &payload);
  auto decoded = net::DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const net::WireResponse& back = decoded.ValueOrDie();
  EXPECT_EQ(back.source, 42u);
  ASSERT_EQ(back.scores.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.scores[i].first, response.scores[i].first);
    // Bit equality, not value equality: the wire carries raw doubles.
    EXPECT_EQ(std::memcmp(&back.scores[i].second,
                          &response.scores[i].second, sizeof(double)),
              0);
  }
}

TEST(FrameTest, ErrorResponseRoundTrips) {
  net::WireResponse response;
  response.status_code = 3;
  response.error = "source 999 out of range (n = 100)";
  std::vector<char> payload;
  net::EncodeResponse(response, &payload);
  auto decoded = net::DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().status_code, 3);
  EXPECT_EQ(decoded.ValueOrDie().error, response.error);
  EXPECT_TRUE(decoded.ValueOrDie().scores.empty());
}

TEST(FrameTest, TruncatedPayloadsAreRejected) {
  net::WireRequest request;
  request.algo = "prsim";
  std::vector<char> payload;
  net::EncodeRequest(request, &payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<char> cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(net::DecodeRequest(cut).ok()) << "len=" << len;
  }
  net::WireResponse response;
  response.scores = {{1, 0.5}};
  response.error = "e";
  net::EncodeResponse(response, &payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<char> cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(net::DecodeResponse(cut).ok()) << "len=" << len;
  }
}

TEST(FrameTest, TrailingGarbageIsRejected) {
  net::WireRequest request;
  std::vector<char> payload;
  net::EncodeRequest(request, &payload);
  payload.push_back('x');
  EXPECT_FALSE(net::DecodeRequest(payload).ok());
}

TEST(FrameTest, OversizedLengthPrefixIsRejectedBeforeReading) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const uint32_t length = net::kMaxFramePayload + 1;
  ASSERT_EQ(::write(fds[1], &length, sizeof(length)),
            static_cast<ssize_t>(sizeof(length)));
  std::vector<char> payload;
  bool eof = false;
  const Status status = net::ReadFrame(fds[0], &payload, &eof);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exceeds"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FrameTest, LyingScoreCountIsRejected) {
  net::WireResponse response;
  response.scores = {{1, 0.5}};
  std::vector<char> payload;
  net::EncodeResponse(response, &payload);
  // Patch score_count (offset 8) to claim far more entries than the
  // payload holds.
  const uint32_t huge = 1u << 30;
  std::memcpy(payload.data() + 8, &huge, sizeof(huge));
  EXPECT_FALSE(net::DecodeResponse(payload).ok());
}

// ---------------------------------------------------------------------------
// Text protocol pieces
// ---------------------------------------------------------------------------

TEST(ServeLineTest, ParsesSourceAndOptionalK) {
  NodeId source = 0;
  uint32_t k = 0;
  uint64_t deadline_ms = 0;
  ASSERT_TRUE(
      net::ParseServeLine("17", 100, 20, &source, &k, &deadline_ms).ok());
  EXPECT_EQ(source, 17u);
  EXPECT_EQ(k, 20u);  // default applied
  EXPECT_EQ(deadline_ms, QueryRequest::kNoDeadline);
  ASSERT_TRUE(
      net::ParseServeLine("17 5", 100, 20, &source, &k, &deadline_ms).ok());
  EXPECT_EQ(k, 5u);
  ASSERT_TRUE(
      net::ParseServeLine("17\t5", 100, 20, &source, &k, &deadline_ms).ok());
  EXPECT_EQ(k, 5u);
}

TEST(ServeLineTest, ParsesOptionalDeadlineInEitherOrder) {
  NodeId source = 0;
  uint32_t k = 0;
  uint64_t deadline_ms = 0;
  ASSERT_TRUE(net::ParseServeLine("17 deadline_ms=250", 100, 20, &source, &k,
                                  &deadline_ms)
                  .ok());
  EXPECT_EQ(source, 17u);
  EXPECT_EQ(k, 20u);
  EXPECT_EQ(deadline_ms, 250u);
  ASSERT_TRUE(net::ParseServeLine("17 5 deadline_ms=250", 100, 20, &source,
                                  &k, &deadline_ms)
                  .ok());
  EXPECT_EQ(k, 5u);
  EXPECT_EQ(deadline_ms, 250u);
  ASSERT_TRUE(net::ParseServeLine("17 deadline_ms=250 5", 100, 20, &source,
                                  &k, &deadline_ms)
                  .ok());
  EXPECT_EQ(k, 5u);
  EXPECT_EQ(deadline_ms, 250u);
  // deadline_ms=0 is legal: an already-expired request (shed at admission
  // without consuming a seed position).
  ASSERT_TRUE(net::ParseServeLine("17 deadline_ms=0", 100, 20, &source, &k,
                                  &deadline_ms)
                  .ok());
  EXPECT_EQ(deadline_ms, 0u);
}

TEST(ServeLineTest, RejectsMalformedLinesWithHistoricalMessages) {
  NodeId source = 0;
  uint32_t k = 0;
  uint64_t deadline_ms = 0;
  Status st = net::ParseServeLine("froot", 100, 20, &source, &k, &deadline_ms);
  EXPECT_EQ(st.message(), "invalid node id 'froot' (n = 100)");
  st = net::ParseServeLine("200", 100, 20, &source, &k, &deadline_ms);
  EXPECT_EQ(st.message(), "invalid node id '200' (n = 100)");
  st = net::ParseServeLine("17 zero", 100, 20, &source, &k, &deadline_ms);
  EXPECT_EQ(st.message(), "invalid k 'zero'");
  st = net::ParseServeLine("17 0", 100, 20, &source, &k, &deadline_ms);
  EXPECT_EQ(st.message(), "invalid k '0'");
  st = net::ParseServeLine("17 5 9", 100, 20, &source, &k, &deadline_ms);
  EXPECT_EQ(st.message(),
            "expected \"<source> [k] [deadline_ms=N]\", got '17 5 9'");
  st = net::ParseServeLine("17 deadline_ms=abc", 100, 20, &source, &k,
                           &deadline_ms);
  EXPECT_EQ(st.message(), "invalid deadline_ms 'abc'");
  st = net::ParseServeLine("17 deadline_ms=1 deadline_ms=2", 100, 20,
                           &source, &k, &deadline_ms);
  EXPECT_EQ(st.message(), "invalid deadline_ms '2'");
}

TEST(ServeLineTest, TrimsAndDropsComments) {
  EXPECT_EQ(net::TrimRequestLine("  17 5 \r\n"), "17 5");
  EXPECT_EQ(net::TrimRequestLine("# comment"), "");
  EXPECT_EQ(net::TrimRequestLine("   "), "");
  EXPECT_EQ(net::TrimRequestLine(""), "");
}

TEST(ServeLineTest, FormatsResultLine) {
  EXPECT_EQ(net::FormatResultLine(5, {{7, 0.25}, {9, 0.125}}),
            "result 5 7:0.25,9:0.125");
  EXPECT_EQ(net::FormatResultLine(5, {}), "result 5");
}

// ---------------------------------------------------------------------------
// PipelinedDispatcher ordering
// ---------------------------------------------------------------------------

TEST(PipelinedDispatcherTest, DeliversInSubmissionOrderDespiteCompletion) {
  // Futures resolve in reverse submission order; responses must still come
  // out 0, 1, 2, ...
  constexpr int kCount = 8;
  std::vector<std::promise<QueryResult>> promises(kCount);
  std::vector<uint64_t> delivered;
  std::mutex delivered_mu;
  {
    int next = 0;
    net::PipelinedDispatcher dispatcher(
        /*window=*/kCount + 1,
        [&](QueryRequest) { return promises[next++].get_future(); },
        [&](uint64_t id, NodeId, const QueryResult&) {
          std::lock_guard<std::mutex> lock(delivered_mu);
          delivered.push_back(id);
        });
    for (int i = 0; i < kCount; ++i) {
      QueryRequest request;
      request.source = static_cast<NodeId>(i);
      dispatcher.Dispatch(static_cast<uint64_t>(i), std::move(request));
    }
    for (int i = kCount - 1; i >= 0; --i) {
      QueryResult result;
      if (i % 2 == 1) result.status = Status::Internal("odd ids fail");
      promises[i].set_value(std::move(result));
    }
    dispatcher.DrainAll();
    EXPECT_EQ(dispatcher.failed_responses(), kCount / 2);
  }
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(delivered[i], static_cast<uint64_t>(i));
  }
}

TEST(PipelinedDispatcherTest, ResponderFlushesWithoutFurtherDispatches) {
  // The regression the responder thread exists for: a response must reach
  // the client even when no further request ever arrives.
  std::promise<QueryResult> promise;
  std::atomic<bool> responded{false};
  net::PipelinedDispatcher dispatcher(
      4, [&](QueryRequest) { return promise.get_future(); },
      [&](uint64_t, NodeId, const QueryResult&) { responded = true; });
  dispatcher.Dispatch(1, QueryRequest{});
  promise.set_value(QueryResult{});
  for (int i = 0; i < 200 && !responded; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(responded) << "response waited for a next Dispatch / EOF";
  dispatcher.DrainAll();
}

// ---------------------------------------------------------------------------
// TcpServer end to end
// ---------------------------------------------------------------------------

struct ServedService {
  Graph graph;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::TcpServer> server;
};

ServedService StartPrsimServer(size_t threads, size_t max_connections = 16) {
  ServedService s{MakeRandomDigraph(120, 500, /*seed=*/11), nullptr, nullptr};
  QueryServiceOptions service_options;
  service_options.threads = threads;
  s.service = std::make_unique<QueryService>(service_options);
  s.service
      ->AddEngine("prsim", s.graph, ParseConfig("eps=0.4,seed=7,threads=1"))
      .Abort();
  net::TcpServerOptions options;
  options.node_count = s.graph.n();
  options.default_k = 20;
  options.max_connections = max_connections;
  QueryService* service = s.service.get();
  auto server = net::TcpServer::Start(options, [service](QueryRequest r) {
    return service->Submit(std::move(r));
  });
  server.status().Abort();
  s.server = std::move(server).ValueOrDie();
  return s;
}

/// Minimal binary-framing client: sends the magic on connect.
class BinaryClient {
 public:
  explicit BinaryClient(uint16_t port) {
    auto fd = ConnectTcp(port);
    fd.status().Abort();
    fd_ = std::move(fd).ValueOrDie();
    WriteAll(fd_.get(), net::kBinaryMagic, sizeof(net::kBinaryMagic))
        .Abort();
  }

  void Send(const net::WireRequest& request) {
    std::vector<char> payload;
    net::EncodeRequest(request, &payload);
    net::WriteFrame(fd_.get(), payload).Abort();
  }

  /// Reads one response; aborts on transport error, EXPECTs on close.
  net::WireResponse Receive() {
    std::vector<char> payload;
    bool eof = false;
    net::ReadFrame(fd_.get(), &payload, &eof).Abort();
    EXPECT_FALSE(eof) << "server closed before answering";
    if (eof) return {};
    auto decoded = net::DecodeResponse(payload);
    decoded.status().Abort();
    return std::move(decoded).ValueOrDie();
  }

  /// True when the next read sees a clean close.
  bool ReadEof() {
    std::vector<char> payload;
    bool eof = false;
    const Status st = net::ReadFrame(fd_.get(), &payload, &eof);
    return st.ok() && eof;
  }

  void SendRaw(const void* data, size_t len) {
    WriteAll(fd_.get(), data, len).Abort();
  }

  int fd() const { return fd_.get(); }

 private:
  UniqueFd fd_;
};

net::WireRequest FreshRequest(NodeId source, uint32_t k) {
  net::WireRequest request;
  request.source = source;
  request.k = k;
  request.fresh_seed = true;
  return request;
}

TEST(TcpServerTest, BinaryResponsesAreBitIdenticalToOfflineAtAnyThreads) {
  // The offline reference: fresh-seed answers from an identically
  // configured local service (the `query` CLI path).
  ServedService reference = StartPrsimServer(/*threads=*/1);
  std::vector<net::WireResponse> offline;
  for (NodeId source = 0; source < 24; ++source) {
    QueryRequest request;
    request.source = source * 5;
    request.k = 10;
    request.fresh_seed = true;
    const QueryResult result =
        reference.service->Submit(std::move(request)).get();
    ASSERT_TRUE(result.status.ok());
    net::WireResponse response;
    response.source = source * 5;
    response.scores = result.scores;
    offline.push_back(std::move(response));
  }

  for (const size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServedService served = StartPrsimServer(threads);
    BinaryClient client(served.server->port());
    // Pipelined: all requests on the wire before the first response read.
    for (NodeId source = 0; source < 24; ++source) {
      client.Send(FreshRequest(source * 5, 10));
    }
    for (NodeId source = 0; source < 24; ++source) {
      const net::WireResponse response = client.Receive();
      ASSERT_EQ(response.status_code, 0) << response.error;
      EXPECT_EQ(response.source, offline[source].source);
      ASSERT_EQ(response.scores.size(), offline[source].scores.size());
      for (size_t i = 0; i < response.scores.size(); ++i) {
        EXPECT_EQ(response.scores[i].first,
                  offline[source].scores[i].first);
        EXPECT_EQ(std::memcmp(&response.scores[i].second,
                              &offline[source].scores[i].second,
                              sizeof(double)),
                  0)
            << "score bits diverged at source " << source * 5 << " entry "
            << i;
      }
    }
  }
}

TEST(TcpServerTest, PositionalStreamOverTcpReplaysLocalService) {
  // One connection's request stream gets service-order positions 0..N-1 in
  // frame order, so a threads=3 TCP service must replay a local threads=1
  // service bit for bit.
  std::vector<QueryResult> local;
  {
    ServedService reference = StartPrsimServer(/*threads=*/1);
    std::vector<std::future<QueryResult>> futures;
    for (NodeId i = 0; i < 30; ++i) {
      QueryRequest request;
      request.source = (i * 7 + 3) % reference.graph.n();
      request.k = 8;
      futures.push_back(reference.service->Submit(std::move(request)));
    }
    for (auto& future : futures) local.push_back(future.get());
  }

  ServedService served = StartPrsimServer(/*threads=*/3);
  BinaryClient client(served.server->port());
  for (NodeId i = 0; i < 30; ++i) {
    net::WireRequest request;
    request.source = (i * 7 + 3) % served.graph.n();
    request.k = 8;
    client.Send(request);
  }
  for (NodeId i = 0; i < 30; ++i) {
    const net::WireResponse response = client.Receive();
    ASSERT_EQ(response.status_code, 0) << response.error;
    ASSERT_TRUE(local[i].status.ok());
    ASSERT_EQ(response.scores.size(), local[i].scores.size());
    for (size_t j = 0; j < response.scores.size(); ++j) {
      EXPECT_EQ(response.scores[j], local[i].scores[j])
          << "diverged at position " << i;
    }
  }
}

TEST(TcpServerTest, ShardedBackendMatchesUnshardedOverTcp) {
  const Graph graph = MakeRandomDigraph(120, 500, /*seed=*/11);
  const EngineConfig config = ParseConfig("eps=0.4,seed=7,threads=1");

  // Offline unsharded fresh answers.
  std::vector<ScoreList> offline;
  {
    QueryService service;
    service.AddEngine("prsim", graph, config).Abort();
    for (NodeId source = 0; source < 20; ++source) {
      QueryRequest request;
      request.source = source * 6 + 1;
      request.k = 10;
      request.fresh_seed = true;
      QueryResult result = service.Submit(std::move(request)).get();
      result.status.Abort();
      offline.push_back(std::move(result.scores));
    }
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("prsim_net_test_bundle_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  PartitionSpec spec;
  spec.shards = 3;
  auto manifest_path = BuildShardBundle(graph, "prsim", config, spec, dir);
  manifest_path.status().Abort();
  auto router_result = ShardRouter::Open(manifest_path.ValueOrDie());
  router_result.status().Abort();
  std::unique_ptr<ShardRouter> router =
      std::move(router_result).ValueOrDie();

  net::TcpServerOptions options;
  options.node_count = graph.n();
  auto server_result = net::TcpServer::Start(
      options, [&router](QueryRequest request) {
        return router->SubmitRequest(std::move(request));
      });
  server_result.status().Abort();
  const auto server = std::move(server_result).ValueOrDie();

  BinaryClient client(server->port());
  for (NodeId source = 0; source < 20; ++source) {
    client.Send(FreshRequest(source * 6 + 1, 10));
  }
  for (NodeId source = 0; source < 20; ++source) {
    const net::WireResponse response = client.Receive();
    ASSERT_EQ(response.status_code, 0) << response.error;
    EXPECT_EQ(response.scores, offline[source])
        << "sharded TCP answer diverged at source " << source * 6 + 1;
  }
  // A wrong algo key resolves as kNotFound over the wire.
  net::WireRequest wrong = FreshRequest(0, 5);
  wrong.algo = "sling";
  client.Send(wrong);
  EXPECT_NE(client.Receive().status_code, 0);
  std::filesystem::remove_all(dir);
}

TEST(TcpServerTest, TextSessionServesAndReportsErrorsInBand) {
  ServedService served = StartPrsimServer(/*threads=*/2);
  auto fd_result = ConnectTcp(served.server->port());
  fd_result.status().Abort();
  UniqueFd fd = std::move(fd_result).ValueOrDie();
  const std::string lines = "5 3\n# comment\nbogus\n9 2\n4 2 deadline_ms=0\n";
  WriteAll(fd.get(), lines.data(), lines.size()).Abort();
  ::shutdown(fd.get(), SHUT_WR);  // half-close: tells the session we're done
  std::string response;
  char chunk[512];
  while (true) {
    auto n = ReadSome(fd.get(), chunk, sizeof(chunk));
    if (!n.ok() || n.ValueOrDie() == 0) break;
    response.append(chunk, n.ValueOrDie());
  }
  EXPECT_NE(response.find("result 5 "), std::string::npos) << response;
  EXPECT_NE(response.find("error line 3: invalid node id 'bogus'"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("result 9 "), std::string::npos) << response;
  // deadline_ms=0 parses fine but is already expired: refused in band as a
  // failed query, so the report carries the full "<Code>: <message>" status
  // (parse errors above report the bare message).
  EXPECT_NE(response.find(
                "error line 5: Deadline exceeded: deadline expired before "
                "admission"),
            std::string::npos)
      << response;
}

TEST(TcpServerTest, MalformedBinaryPayloadDrainsThenErrorsAndCloses) {
  ServedService served = StartPrsimServer(/*threads=*/1);
  BinaryClient client(served.server->port());
  client.Send(FreshRequest(5, 4));
  // A 3-byte frame cannot hold a request header.
  const char bad[] = {3, 0, 0, 0, 'x', 'y', 'z'};
  client.SendRaw(bad, sizeof(bad));
  // The accepted request is still answered, in order, before the error.
  const net::WireResponse good = client.Receive();
  EXPECT_EQ(good.status_code, 0) << good.error;
  EXPECT_EQ(good.source, 5u);
  const net::WireResponse error = client.Receive();
  EXPECT_NE(error.status_code, 0);
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(served.server->Stats().protocol_errors, 1u);
}

TEST(TcpServerTest, ConcurrentConnectionsAllGetTheirOwnAnswers) {
  ServedService served = StartPrsimServer(/*threads=*/3);
  // Per-source fresh reference answers.
  std::vector<ScoreList> offline(10);
  for (NodeId source = 0; source < 10; ++source) {
    QueryRequest request;
    request.source = source;
    request.k = 6;
    request.fresh_seed = true;
    QueryResult result = served.service->Submit(std::move(request)).get();
    result.status.Abort();
    offline[source] = std::move(result.scores);
  }

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BinaryClient client(served.server->port());
      for (int round = 0; round < 5; ++round) {
        const NodeId source = static_cast<NodeId>((c + round) % 10);
        client.Send(FreshRequest(source, 6));
        const net::WireResponse response = client.Receive();
        if (response.status_code != 0 || response.source != source ||
            response.scores != offline[source]) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.server->Stats().requests, kClients * 5u);
}

TEST(TcpServerTest, ShutdownDrainsInFlightAndStopsAccepting) {
  ServedService served = StartPrsimServer(/*threads=*/2);
  const uint16_t port = served.server->port();
  BinaryClient client(port);
  for (NodeId i = 0; i < 10; ++i) client.Send(FreshRequest(i, 5));
  // Wait (bounded) until the server has accepted all ten requests, so the
  // shutdown below races only their execution, not their arrival.
  for (int i = 0; i < 1000 && served.server->Stats().requests < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(served.server->Stats().requests, 10u);
  // Shutdown concurrently with the in-flight batch: every accepted request
  // must still be answered, then the connection closes.
  std::thread shutdown_thread([&] { served.server->Shutdown(); });
  int answered = 0;
  for (NodeId i = 0; i < 10; ++i) {
    std::vector<char> payload;
    bool eof = false;
    if (!net::ReadFrame(client.fd(), &payload, &eof).ok() || eof) break;
    auto decoded = net::DecodeResponse(payload);
    if (decoded.ok() && decoded.ValueOrDie().status_code == 0) ++answered;
  }
  shutdown_thread.join();
  EXPECT_EQ(answered, 10);
  // After shutdown no new connection is served.
  auto late = ConnectTcp(port);
  if (late.ok()) {
    char byte = 0;
    auto n = ReadSome(late.ValueOrDie().get(), &byte, 1);
    EXPECT_TRUE(!n.ok() || n.ValueOrDie() == 0);
  }
  const ServiceStats stats = served.service->Stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
}

TEST(TcpServerTest, ExpiredDeadlineOverTcpConsumesNoSeedPosition) {
  // The determinism contract under deadlines: a refused (already-expired)
  // request never consumes a service-order position, so the surrounding
  // positional stream replays the no-deadline reference bit for bit.
  std::vector<QueryResult> local;
  {
    ServedService reference = StartPrsimServer(/*threads=*/1);
    std::vector<std::future<QueryResult>> futures;
    for (NodeId i = 0; i < 10; ++i) {
      QueryRequest request;
      request.source = (i * 7 + 3) % reference.graph.n();
      request.k = 8;
      futures.push_back(reference.service->Submit(std::move(request)));
    }
    for (auto& future : futures) local.push_back(future.get());
  }

  ServedService served = StartPrsimServer(/*threads=*/2);
  BinaryClient client(served.server->port());
  for (NodeId i = 0; i < 10; ++i) {
    if (i == 4) {
      // Dropped into the middle of the stream: must be answered (in
      // order) with kDeadlineExceeded and must not shift the positions of
      // anything behind it.
      net::WireRequest expired;
      expired.source = 1;
      expired.k = 8;
      expired.deadline_ms = 0;
      client.Send(expired);
    }
    net::WireRequest request;
    request.source = (i * 7 + 3) % served.graph.n();
    request.k = 8;
    client.Send(request);
  }
  for (NodeId i = 0; i < 10; ++i) {
    if (i == 4) {
      const net::WireResponse refused = client.Receive();
      EXPECT_EQ(refused.status_code,
                static_cast<uint8_t>(StatusCode::kDeadlineExceeded))
          << refused.error;
    }
    const net::WireResponse response = client.Receive();
    ASSERT_EQ(response.status_code, 0) << response.error;
    ASSERT_TRUE(local[i].status.ok());
    EXPECT_EQ(response.scores, local[i].scores)
        << "positions shifted at stream index " << i;
  }
  const ServiceStats stats = served.service->Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 10u);
}

TEST(TcpServerTest, ClientKilledBetweenRequestAndReplyDoesNotKillServer) {
  // Satellite regression: the reply write lands on a dead connection. With
  // SIGPIPE unblocked/un-ignored at the socket layer this would kill the
  // whole process (the test binary IS the server here); MSG_NOSIGNAL in
  // SendOrWrite turns it into an ordinary write error the session eats.
  ServedService served = StartPrsimServer(/*threads=*/1);
  {
    BinaryClient doomed(served.server->port());
    for (NodeId i = 0; i < 4; ++i) doomed.Send(FreshRequest(i, 5));
    // RST on close (instead of a graceful FIN + drain) so the server's
    // pending response writes fail hard.
    struct linger hard_close = {1, 0};
    ::setsockopt(doomed.fd(), SOL_SOCKET, SO_LINGER, &hard_close,
                 sizeof(hard_close));
  }  // ~BinaryClient closes the fd -> RST
  // The server must still be alive and serving new connections.
  BinaryClient client(served.server->port());
  client.Send(FreshRequest(3, 5));
  const net::WireResponse response = client.Receive();
  EXPECT_EQ(response.status_code, 0) << response.error;
  EXPECT_EQ(response.source, 3u);
}

TEST(TcpServerTest, AcceptLoopSurvivesInjectedFdExhaustion) {
  // Satellite regression: EMFILE from accept() must not end the accept
  // loop. The net.accept.emfile fault point forces the error path
  // deterministically; connections parked in the listen backlog are
  // picked up once a later accept round succeeds.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("net.accept.emfile=1/2", /*seed=*/7)
                  .ok());
  ServedService served = StartPrsimServer(/*threads=*/1);
  for (int round = 0; round < 4; ++round) {
    BinaryClient client(served.server->port());
    client.Send(FreshRequest(static_cast<NodeId>(round), 5));
    const net::WireResponse response = client.Receive();
    EXPECT_EQ(response.status_code, 0) << response.error;
  }
  // The injector must not be reconfigured under live evaluations, so the
  // accept loop stops first.
  served.server->Shutdown();
  FaultInjector::Global().Disable();
  EXPECT_EQ(served.server->Stats().connections, 4u);
}

TEST(TcpServerTest, IdleReaperClosesQuietConnectionsAndCountsThem) {
  ServedService s{MakeRandomDigraph(120, 500, /*seed=*/11), nullptr,
                  nullptr};
  QueryServiceOptions service_options;
  service_options.threads = 1;
  s.service = std::make_unique<QueryService>(service_options);
  s.service
      ->AddEngine("prsim", s.graph, ParseConfig("eps=0.4,seed=7,threads=1"))
      .Abort();
  net::TcpServerOptions options;
  options.node_count = s.graph.n();
  options.idle_timeout_ms = 100;
  QueryService* service = s.service.get();
  auto server = net::TcpServer::Start(options, [service](QueryRequest r) {
    return service->Submit(std::move(r));
  });
  server.status().Abort();
  s.server = std::move(server).ValueOrDie();

  BinaryClient client(s.server->port());
  client.Send(FreshRequest(5, 4));
  const net::WireResponse response = client.Receive();
  EXPECT_EQ(response.status_code, 0) << response.error;
  // Now go quiet. The reaper half-closes the connection; having received
  // every answer to a request we actually sent, we see a clean EOF.
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(s.server->Stats().idle_closed, 1u);
}

TEST(TcpServerTest, ServiceStatsJsonHasTheContractFields) {
  ServiceStats stats;
  stats.submitted = 5;
  stats.completed = 4;
  stats.failed = 1;
  stats.deadline_exceeded = 2;
  stats.shed = 7;
  stats.queue_high_water = 3;
  stats.p50_seconds = 0.002;
  const std::string json = ServiceStatsJson(stats, "tcp");
  EXPECT_NE(json.find("\"event\":\"serve_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"transport\":\"tcp\""), std::string::npos);
  EXPECT_NE(json.find("\"accepted\":5"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":4"), std::string::npos);
  EXPECT_NE(json.find("\"failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"queue_high_water\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ms\":2"), std::string::npos);
}

}  // namespace
}  // namespace prsim
