// Tests for the socket front end (src/net): wire codec round-trips and
// garbage rejection, server/client round trips that must be bit-identical
// to in-process QueryService execution, pipelined response ordering,
// deterministic backpressure (kResourceExhausted status frames), deadline
// propagation, shutdown-while-clients-connected draining, and a
// multi-connection hammer (the CI TSan job runs this file).

#include "net/client.h"
#include "net/server.h"
#include "net/wire_protocol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/rp_cosim.h"
#include "common/rng.h"
#include "core/csrplus_engine.h"
#include "core/dynamic_engine.h"
#include "core/query_engine.h"
#include "core/topk.h"
#include "graph/normalize.h"
#include "net/socket_util.h"
#include "service/engine_registry.h"
#include "service/query_service.h"
#include "test_util.h"

namespace csrplus::net {
namespace {

using csrplus::testing::RandomGraph;
using linalg::Index;

std::shared_ptr<const core::CsrPlusEngine> MakeEngine(Index nodes = 100,
                                                     int64_t edges = 700,
                                                     uint64_t seed = 11) {
  auto graph = RandomGraph(nodes, edges, seed);
  core::CsrPlusOptions options;
  options.rank = 8;
  auto engine = core::CsrPlusEngine::Precompute(graph, options);
  CSR_CHECK(engine.ok()) << engine.status().ToString();
  return std::make_shared<const core::CsrPlusEngine>(std::move(*engine));
}

/// An engine wrapper whose queries block until released (mirrors the one in
/// query_service_test.cc) — pins the dispatcher so requests pile up.
/// Entered() turns true once a query is running inside the gate.
class GatedEngine : public core::QueryEngine {
 public:
  explicit GatedEngine(const core::QueryEngine* inner) : inner_(inner) {}

  Result<linalg::DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override {
    entered_.store(true);
    while (gated_.load()) std::this_thread::yield();
    return inner_->MultiSourceQuery(queries);
  }
  Index NumNodes() const override { return inner_->NumNodes(); }
  std::string_view Name() const override { return inner_->Name(); }
  uint64_t StateFingerprint() const override {
    return inner_->StateFingerprint();
  }

  void Open() { gated_.store(false); }
  void Close() { gated_.store(true); }
  bool Entered() const { return entered_.load(); }

 private:
  const core::QueryEngine* inner_;
  mutable std::atomic<bool> gated_{false};
  mutable std::atomic<bool> entered_{false};
};

// ---------------------------------------------------------------------------
// Codec

TEST(WireProtocolTest, RequestRoundTripPreservesEveryField) {
  WireRequest request;
  request.method = Method::kQuery;
  request.exclude_query = false;
  request.top_k = 7;
  request.deadline_micros = 123456789ull;
  request.queries = {0, 42, 9999999999ll};

  std::string frame;
  AppendRequestFrame(request, &frame);
  const uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                         frame.size(), kMaxRequestFrameBytes, &payload,
                         &payload_size, &consumed),
            FrameStatus::kComplete);
  EXPECT_EQ(consumed, frame.size());

  auto decoded = DecodeRequest(payload, payload_size);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->method, Method::kQuery);
  EXPECT_FALSE(decoded->exclude_query);
  EXPECT_EQ(decoded->top_k, 7);
  EXPECT_EQ(decoded->deadline_micros, 123456789ull);
  EXPECT_EQ(decoded->queries, request.queries);
}

TEST(WireProtocolTest, ResponseRoundTripWithScoresIsBitIdentical) {
  WireResponse response;
  response.status_code = 0;
  response.batch_requests = 3;
  response.batch_queries = 5;
  response.wait_micros = 11;
  response.total_micros = 22;
  response.scores = linalg::DenseMatrix(4, 2);
  double v = 0.125;
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 2; ++j) {
      response.scores(i, j) = v;
      v = v * -1.5 + 1e-17;  // exercise signs and tiny magnitudes
    }
  }

  std::string frame;
  AppendResponseFrame(response, &frame);
  const uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                         frame.size(), kMaxResponseFrameBytes, &payload,
                         &payload_size, &consumed),
            FrameStatus::kComplete);
  auto decoded = DecodeResponse(payload, payload_size);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->batch_requests, 3u);
  EXPECT_EQ(decoded->batch_queries, 5);
  EXPECT_TRUE(decoded->scores == response.scores);  // bit-identical
}

TEST(WireProtocolTest, ResponseRoundTripWithTopKAndErrorStatus) {
  WireResponse response;
  response.status_code =
      static_cast<uint16_t>(StatusCode::kResourceExhausted);
  response.message = "queue full";
  std::string frame;
  AppendResponseFrame(response, &frame);
  auto decoded = DecodeResponse(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
      frame.size() - kFrameHeaderBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ToStatus().IsResourceExhausted());
  EXPECT_EQ(decoded->ToStatus().message(), "queue full");

  WireResponse with_topk;
  with_topk.topk = {{{3, 0.5}, {1, 0.25}}, {{7, 1.0}}};
  std::string topk_frame;
  AppendResponseFrame(with_topk, &topk_frame);
  auto topk_decoded = DecodeResponse(
      reinterpret_cast<const uint8_t*>(topk_frame.data()) + kFrameHeaderBytes,
      topk_frame.size() - kFrameHeaderBytes);
  ASSERT_TRUE(topk_decoded.ok()) << topk_decoded.status().ToString();
  ASSERT_EQ(topk_decoded->topk.size(), 2u);
  ASSERT_EQ(topk_decoded->topk[0].size(), 2u);
  EXPECT_EQ(topk_decoded->topk[0][0].node, 3);
  EXPECT_EQ(topk_decoded->topk[0][0].score, 0.5);
  EXPECT_EQ(topk_decoded->topk[1][0].node, 7);
}

TEST(WireProtocolTest, GarbageAndTruncationAreRejectedWithTypedErrors) {
  // Truncated payloads at every prefix length must error, never crash.
  WireRequest request;
  request.queries = {1, 2, 3};
  std::string frame;
  AppendRequestFrame(request, &frame);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes;
  const std::size_t payload_size = frame.size() - kFrameHeaderBytes;
  for (std::size_t len = 0; len < payload_size; ++len) {
    EXPECT_FALSE(DecodeRequest(payload, len).ok()) << "prefix " << len;
  }

  // A version mismatch is the typed kFailedPrecondition.
  std::string bad_version(payload, payload + payload_size);
  bad_version[0] = static_cast<char>(kProtocolVersion + 1);
  auto mismatched = DecodeRequest(
      reinterpret_cast<const uint8_t*>(bad_version.data()),
      bad_version.size());
  ASSERT_FALSE(mismatched.ok());
  EXPECT_TRUE(mismatched.status().IsFailedPrecondition());

  // Trailing bytes after a well-formed request are an error.
  std::string trailing(payload, payload + payload_size);
  trailing.push_back('\0');
  EXPECT_FALSE(
      DecodeRequest(reinterpret_cast<const uint8_t*>(trailing.data()),
                    trailing.size())
          .ok());

  // An over-long declared frame costs the u32 read only.
  uint8_t huge_header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  const uint8_t* out_payload = nullptr;
  std::size_t out_size = 0, out_consumed = 0;
  EXPECT_EQ(ExtractFrame(huge_header, sizeof(huge_header),
                         kMaxRequestFrameBytes, &out_payload, &out_size,
                         &out_consumed),
            FrameStatus::kTooLarge);

  // A partial header is incomplete, not an error.
  EXPECT_EQ(ExtractFrame(huge_header, 2, kMaxRequestFrameBytes, &out_payload,
                         &out_size, &out_consumed),
            FrameStatus::kIncomplete);
}

TEST(WireProtocolTest, V2QualityClassRoundTripsInRequests) {
  for (const service::QualityClass quality :
       {service::QualityClass::kExact, service::QualityClass::kApproximate,
        service::QualityClass::kBestEffort}) {
    WireRequest request;
    request.quality = quality;
    request.queries = {4, 8};
    std::string frame;
    AppendRequestFrame(request, &frame);
    auto decoded = DecodeRequest(
        reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
        frame.size() - kFrameHeaderBytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->quality, quality);
  }

  // A garbage quality byte is a typed error, not a silent downgrade. The
  // byte sits at payload offset 4: version:u16, method:u8, flags:u8.
  WireRequest request;
  request.queries = {4, 8};
  std::string frame;
  AppendRequestFrame(request, &frame);
  std::string patched(frame.begin() + kFrameHeaderBytes, frame.end());
  patched[4] = static_cast<char>(0x7F);
  auto rejected = DecodeRequest(
      reinterpret_cast<const uint8_t*>(patched.data()), patched.size());
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST(WireProtocolTest, V2ServedTierRoundTripsInResponses) {
  for (const service::ServedTier tier :
       {service::ServedTier::kExact, service::ServedTier::kApproximate,
        service::ServedTier::kUnspecified}) {
    WireResponse response;
    response.served_tier = tier;
    std::string frame;
    AppendResponseFrame(response, &frame);
    auto decoded = DecodeResponse(
        reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
        frame.size() - kFrameHeaderBytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->served_tier, tier);
  }

  // A garbage tier byte is rejected. With an empty message the byte sits at
  // offset 36: version(2) + status(2) + msg_len(4) + batch_requests(4) +
  // batch_queries(8) + wait(8) + total(8).
  WireResponse response;
  std::string frame;
  AppendResponseFrame(response, &frame);
  std::string patched(frame.begin() + kFrameHeaderBytes, frame.end());
  patched[36] = static_cast<char>(0x7F);
  auto rejected = DecodeResponse(
      reinterpret_cast<const uint8_t*>(patched.data()), patched.size());
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST(WireProtocolTest, V3GraphIdRoundTripsInRequests) {
  WireRequest request;
  request.graph_id = "tenant-a";
  request.queries = {1, 2};
  std::string frame;
  AppendRequestFrame(request, &frame);
  auto decoded = DecodeRequest(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
      frame.size() - kFrameHeaderBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph_id, "tenant-a");
  EXPECT_EQ(decoded->queries, request.queries);

  // The empty graph id (default tenant) round-trips too.
  WireRequest unnamed;
  unnamed.queries = {7};
  std::string unnamed_frame;
  AppendRequestFrame(unnamed, &unnamed_frame);
  auto unnamed_decoded = DecodeRequest(
      reinterpret_cast<const uint8_t*>(unnamed_frame.data()) +
          kFrameHeaderBytes,
      unnamed_frame.size() - kFrameHeaderBytes);
  ASSERT_TRUE(unnamed_decoded.ok());
  EXPECT_TRUE(unnamed_decoded->graph_id.empty());
}

TEST(WireProtocolTest, V2FramesAreRejected) {
  // Decoders accept exactly kProtocolVersion. A v2 request (no graph-length
  // field) and a v2-stamped response are both typed kFailedPrecondition.
  WireRequest request;
  request.top_k = 3;
  request.queries = {4, 8, 15};
  std::string frame;
  AppendRequestFrame(request, &frame);
  std::string payload(frame.begin() + kFrameHeaderBytes, frame.end());
  payload[0] = 2;  // version = 2 (little endian; high byte already 0)
  // Header prefix: version(2) method(1) flags(1) quality(1) top_k(4)
  // deadline(8) = 17 bytes, then the v3-only graph length.
  payload.erase(17, 2);
  auto v2_request = DecodeRequest(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_FALSE(v2_request.ok());
  EXPECT_TRUE(v2_request.status().IsFailedPrecondition())
      << v2_request.status().ToString();

  std::string response_frame;
  AppendResponseFrame(WireResponse{}, &response_frame);
  std::string response(response_frame.begin() + kFrameHeaderBytes,
                       response_frame.end());
  response[0] = 2;
  auto v2_response = DecodeResponse(
      reinterpret_cast<const uint8_t*>(response.data()), response.size());
  ASSERT_FALSE(v2_response.ok());
  EXPECT_TRUE(v2_response.status().IsFailedPrecondition())
      << v2_response.status().ToString();
}

TEST(WireProtocolTest, OverflowingScoreBlockDimensionsAreRejected) {
  // A hostile column-body header with no body: n * cols * 8 wraps to 0 in
  // 64-bit arithmetic, which equals the 0 bytes remaining. The decoder must
  // reject it instead of allocating an n x cols matrix.
  const auto header_only = [](int64_t n, uint32_t cols) {
    std::string frame;
    AppendResponseFrame(WireResponse{}, &frame);
    std::string payload(frame.begin() + kFrameHeaderBytes, frame.end());
    // body_kind sits at offset 37, right after the tier byte (offset 36).
    payload[37] = static_cast<char>(BodyKind::kColumns);
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<char>(static_cast<uint64_t>(n) >> (8 * i)));
    }
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<char>(cols >> (8 * i)));
    }
    return payload;
  };
  for (const auto& [n, cols] :
       {std::pair<int64_t, uint32_t>{int64_t{1} << 61, 1},
        std::pair<int64_t, uint32_t>{int64_t{1} << 31, uint32_t{1} << 31}}) {
    const std::string payload = header_only(n, cols);
    ASSERT_EQ(payload.size(), 50u);
    auto decoded = DecodeResponse(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
    ASSERT_FALSE(decoded.ok()) << "n=" << n << " cols=" << cols;
    EXPECT_TRUE(decoded.status().IsInvalidArgument())
        << decoded.status().ToString();
  }
}

TEST(WireProtocolTest, OversizedGraphIdDeclarationIsRejected) {
  WireRequest request;
  request.queries = {1};
  std::string frame;
  AppendRequestFrame(request, &frame);
  std::string payload(frame.begin() + kFrameHeaderBytes, frame.end());
  // Declare a 300-byte graph id (> kMaxGraphIdBytes) at payload offset 17.
  payload[17] = static_cast<char>(0x2C);
  payload[18] = static_cast<char>(0x01);
  auto rejected = DecodeRequest(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST(NetServerTest, QualityClassTravelsTheSocketAndTierEchoesBack) {
  // End to end over a real socket: an approximate-quality request routed to
  // the RP tier comes back bit-identical to the approximate engine, with the
  // tier echoed in the response; exact requests echo the exact tier.
  auto graph = RandomGraph(100, 700, 11);
  core::CsrPlusOptions exact_options;
  exact_options.rank = 8;
  auto built = core::CsrPlusEngine::Precompute(graph, exact_options);
  ASSERT_TRUE(built.ok());
  auto exact = std::make_shared<const core::CsrPlusEngine>(std::move(*built));
  auto transition = graph::ColumnNormalizedTransition(graph);
  baselines::RpCoSimOptions rp_options;
  rp_options.iterations = 3;
  rp_options.num_samples = 8;
  baselines::RpCosimEngine approx(&transition, rp_options);
  ASSERT_TRUE(approx.PrecomputeSketch().ok());

  service::ServiceOptions service_options;
  service_options.approximate_engine = &approx;
  service::QueryService service(exact, service_options);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WireRequest approx_request;
  approx_request.quality = service::QualityClass::kApproximate;
  approx_request.queries = {3, 41};
  auto approx_response = client->Call(approx_request);
  ASSERT_TRUE(approx_response.ok()) << approx_response.status().ToString();
  ASSERT_TRUE(approx_response->ok()) << approx_response->ToStatus().ToString();
  EXPECT_EQ(approx_response->served_tier, service::ServedTier::kApproximate);
  auto approx_direct = approx.MultiSourceQuery({3, 41});
  ASSERT_TRUE(approx_direct.ok());
  EXPECT_TRUE(approx_response->scores == *approx_direct);

  WireRequest exact_request;
  exact_request.queries = {3, 41};
  auto exact_response = client->Call(exact_request);
  ASSERT_TRUE(exact_response.ok()) << exact_response.status().ToString();
  ASSERT_TRUE(exact_response->ok());
  EXPECT_EQ(exact_response->served_tier, service::ServedTier::kExact);
  auto exact_direct = exact->MultiSourceQuery({3, 41});
  ASSERT_TRUE(exact_direct.ok());
  EXPECT_TRUE(exact_response->scores == *exact_direct);

  server.Shutdown();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Server / client round trips

TEST(NetServerTest, PingAndQueryMatchInProcessServiceBitIdentically) {
  auto engine = MakeEngine();
  service::QueryService service(engine);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());

  const std::vector<Index> queries = {3, 41, 77};
  WireRequest request;
  request.queries.assign(queries.begin(), queries.end());
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->ToStatus().ToString();

  auto direct = engine->MultiSourceQuery(queries);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(response->scores == *direct)
      << "socket round trip must be bit-identical to the engine";
  EXPECT_GE(response->batch_requests, 1u);

  // Top-k body: same entries as the in-process top-k helper.
  WireRequest topk_request;
  topk_request.queries = {3};
  topk_request.top_k = 5;
  auto topk_response = client->Call(topk_request);
  ASSERT_TRUE(topk_response.ok()) << topk_response.status().ToString();
  ASSERT_TRUE(topk_response->ok());
  ASSERT_EQ(topk_response->topk.size(), 1u);
  const auto expected =
      core::TopKOfColumn(*engine->MultiSourceQuery({3}), 0, 5, {Index{3}});
  ASSERT_EQ(topk_response->topk[0].size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(topk_response->topk[0][i].node, expected[i].node);
    EXPECT_EQ(topk_response->topk[0][i].score, expected[i].score);
  }

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, IdTranslationHooksMapWireIdsBothWays) {
  // Mirrors the CLI's text-graph serving path, where sparse original node
  // ids were compacted at load time: the wire speaks external ids, the
  // engine internal indexes. The route's hooks here shift by 1000.
  auto engine = MakeEngine();
  const int64_t n = engine->NumNodes();
  service::QueryService service(engine);
  ServerOptions::Route route;
  route.service = &service;
  route.to_internal = [n](int64_t external) -> Result<Index> {
    const int64_t internal = external - 1000;
    if (internal < 0 || internal >= n) {
      return Status::NotFound("node id " + std::to_string(external) +
                              " does not appear in the graph");
    }
    return static_cast<Index>(internal);
  };
  route.to_external = [](Index internal) {
    return static_cast<int64_t>(internal) + 1000;
  };
  ServerOptions server_options;
  server_options.router = [&route](const std::string& graph_id) {
    return graph_id.empty() ? &route : nullptr;
  };
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Column bodies are positional and must NOT be translated: the external
  // query {1007} returns exactly the engine's column for node 7.
  WireRequest request;
  request.queries = {1007};
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->ToStatus().ToString();
  auto direct = engine->MultiSourceQuery({Index{7}});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(response->scores == *direct);

  // Top-k node ids come back through to_external (scores untouched).
  WireRequest topk_request;
  topk_request.queries = {1003};
  topk_request.top_k = 4;
  auto topk_response = client->Call(topk_request);
  ASSERT_TRUE(topk_response.ok()) << topk_response.status().ToString();
  ASSERT_TRUE(topk_response->ok());
  ASSERT_EQ(topk_response->topk.size(), 1u);
  const auto expected =
      core::TopKOfColumn(*engine->MultiSourceQuery({3}), 0, 4, {Index{3}});
  ASSERT_EQ(topk_response->topk[0].size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(topk_response->topk[0][i].node, expected[i].node + 1000);
    EXPECT_EQ(topk_response->topk[0][i].score, expected[i].score);
  }

  // An id to_internal rejects becomes a typed error frame on a live
  // connection — exactly like any other invalid request.
  WireRequest unknown;
  unknown.queries = {7};  // engine-range id, but not a valid *external* id
  auto unknown_response = client->Call(unknown);
  ASSERT_TRUE(unknown_response.ok()) << unknown_response.status().ToString();
  EXPECT_TRUE(unknown_response->ToStatus().IsNotFound())
      << unknown_response->ToStatus().ToString();
  EXPECT_TRUE(client->Ping().ok());

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, PipelinedResponsesArriveInRequestOrder) {
  auto engine = MakeEngine();
  service::QueryService service(engine);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.queries = {static_cast<int64_t>(i)};
    ASSERT_TRUE(client->Send(request).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok());
    auto direct = engine->MultiSourceQuery({static_cast<Index>(i)});
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(response->scores == *direct)
        << "response " << i << " is out of order or wrong";
  }

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, InvalidQueriesComeBackAsStatusFramesOnALiveStream) {
  auto engine = MakeEngine();
  service::QueryService service(engine);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WireRequest dup;
  dup.queries = {5, 5};
  auto response = client->Call(dup);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ToStatus().IsInvalidArgument());

  // The connection survives a rejected request.
  EXPECT_TRUE(client->Ping().ok());

  // A deadline that has no chance: the service answers kDeadlineExceeded
  // (or completes in time on a fast machine — both are valid frames).
  WireRequest doomed;
  doomed.queries = {1};
  doomed.deadline_micros = 1;
  auto doomed_response = client->Call(doomed);
  ASSERT_TRUE(doomed_response.ok()) << doomed_response.status().ToString();
  EXPECT_TRUE(doomed_response->ok() ||
              doomed_response->ToStatus().IsDeadlineExceeded());

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, HostileTopKGetsANormalReplyAndTheServerStaysUp) {
  // top_k is an unchecked i32 on the wire. The top-k selection runs on the
  // dispatcher thread, so sizing anything by it would take down every
  // client of the server, not just this one.
  auto engine = MakeEngine();
  service::QueryService service(engine);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WireRequest hostile;
  hostile.queries = {3};
  hostile.top_k = 0x7fffffff;
  auto response = client->Call(hostile);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->ToStatus().ToString();
  ASSERT_EQ(response->topk.size(), 1u);
  const auto expected = core::TopKOfColumn(*engine->MultiSourceQuery({3}), 0,
                                           engine->NumNodes(), {Index{3}});
  ASSERT_EQ(response->topk[0].size(), expected.size());
  EXPECT_EQ(expected.size(), static_cast<std::size_t>(engine->NumNodes() - 1));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response->topk[0][i].node, expected[i].node);
    EXPECT_EQ(response->topk[0][i].score, expected[i].score);
  }

  // The server answers the next request.
  WireRequest next;
  next.queries = {7};
  auto next_response = client->Call(next);
  ASSERT_TRUE(next_response.ok()) << next_response.status().ToString();
  ASSERT_TRUE(next_response->ok()) << next_response->ToStatus().ToString();
  auto direct = engine->MultiSourceQuery({7});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(next_response->scores == *direct);

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, PipelineCapRejectsFloodWithResourceExhaustedFrames) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();  // hold the dispatcher: nothing completes until Open()
  service::QueryService service(gated);
  // The router sees every query frame the worker decodes, before the
  // pipeline check; counting its calls tells the test when the server has
  // taken in the whole flood.
  std::mutex mu;
  std::condition_variable cv;
  int frames_routed = 0;
  const ServerOptions::Route route{&service, nullptr, nullptr};
  ServerOptions server_options;
  server_options.max_pipeline = 2;
  server_options.router = [&](const std::string&) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ++frames_routed;
    }
    cv.notify_all();
    return &route;
  };
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Flood 20 pipelined requests. The first two occupy the connection's
  // pipeline budget; the other 18 must be answered kResourceExhausted —
  // deterministically, because frames on one connection are handled in
  // order and nothing completes until the gate opens, which waits for the
  // server to have routed all 20. The worker that routed the last frame
  // finishes handling it before it can pump the first two replies.
  constexpr int kFlood = 20;
  for (int i = 0; i < kFlood; ++i) {
    WireRequest request;
    request.queries = {static_cast<int64_t>(i % 50)};
    ASSERT_TRUE(client->Send(request).ok()) << "request " << i;
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return frames_routed == kFlood; });
  }
  gated->Open();

  int ok = 0, exhausted = 0;
  for (int i = 0; i < kFlood; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->ok()) {
      ++ok;
    } else if (response->ToStatus().IsResourceExhausted()) {
      ++exhausted;
    } else {
      FAIL() << "unexpected status: " << response->ToStatus().ToString();
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(exhausted, kFlood - 2);

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, ShutdownWithConnectedClientsDrainsInFlightRequests) {
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  service::QueryService service(gated);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 3; ++i) {
    WireRequest request;
    request.queries = {static_cast<int64_t>(i)};
    ASSERT_TRUE(client->Send(request).ok());
  }
  // Give the worker a chance to decode and submit at least some requests
  // before the shutdown races them (any interleaving must drain cleanly).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread shutter([&] { server.Shutdown(); });
  gated->Open();  // let the in-flight batch finish so the drain completes
  shutter.join();

  // Every submitted request got a terminal frame (completed or cancelled)
  // before the close; anything the worker never read ends in a clean EOF.
  int frames = 0;
  for (;;) {
    auto response = client->Receive();
    if (!response.ok()) break;  // EOF after the drain
    EXPECT_TRUE(response->ok() || response->ToStatus().IsCancelled())
        << response->ToStatus().ToString();
    ++frames;
  }
  EXPECT_LE(frames, 3);
  service.Shutdown();
}

TEST(NetServerTest, ReplyDrainedAtShutdownKeepsItsServedTier) {
  // A request the engine is still running when the server shuts down is
  // answered by the shutdown drain, not by the event loop; its reply must
  // still carry the tier that served it.
  auto engine = MakeEngine();
  auto gated = std::make_shared<GatedEngine>(engine.get());
  gated->Close();
  service::QueryService service(gated);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WireRequest request;
  request.queries = {5};
  ASSERT_TRUE(client->Send(request).ok());
  while (!gated->Entered()) std::this_thread::yield();

  // Shutdown refuses new connections before it stops the workers. Holding
  // the gate until then, plus a margin, leaves the drain as the only way
  // out for the reply.
  std::thread shutter([&] { server.Shutdown(); });
  while (Client::Connect("127.0.0.1", port).ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated->Open();
  shutter.join();

  auto response = client->Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // The drain cancels the ticket; the running batch still finishes it, as
  // cancelled, on the exact tier.
  EXPECT_TRUE(response->ToStatus().IsCancelled())
      << response->ToStatus().ToString();
  EXPECT_EQ(response->served_tier, service::ServedTier::kExact);
  service.Shutdown();
}

TEST(NetServerTest, MultiConnectionHammerStaysConsistent) {
  auto engine = MakeEngine();
  cache::ColumnCacheOptions cache_options;
  cache_options.capacity_bytes = 1 << 20;
  cache::ColumnCache cache(cache_options);
  service::ServiceOptions service_options;
  service_options.cache = &cache;
  service::QueryService service(engine, service_options);
  ServerOptions server_options;
  server_options.num_workers = 2;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (int r = 0; r < kRequests; ++r) {
        // Overlapping hot-set queries: exercises coalescing + cache.
        const Index a = static_cast<Index>((c * 7 + r) % 20);
        const Index b = static_cast<Index>((a + 31) % 100);
        WireRequest request;
        request.queries = {a, b};
        auto response = client->Call(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_TRUE(response->ok()) << response->ToStatus().ToString();
        auto direct = engine->MultiSourceQuery({a, b});
        ASSERT_TRUE(direct.ok());
        if (!(response->scores == *direct)) ++mismatches;
        ++ok_count;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kRequests);
  EXPECT_EQ(mismatches.load(), 0);

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, SingleServiceModeRejectsGraphIds) {
  auto engine = MakeEngine();
  service::QueryService service(engine);
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Without a router the server serves one unnamed graph: naming one is a
  // typed error frame, and the connection survives it.
  WireRequest named;
  named.graph_id = "anything";
  named.queries = {3};
  auto named_response = client->Call(named);
  ASSERT_TRUE(named_response.ok()) << named_response.status().ToString();
  EXPECT_TRUE(named_response->ToStatus().IsNotFound())
      << named_response->ToStatus().ToString();

  WireRequest unnamed;
  unnamed.queries = {3};
  auto unnamed_response = client->Call(unnamed);
  ASSERT_TRUE(unnamed_response.ok());
  EXPECT_TRUE(unnamed_response->ok()) << unnamed_response->ToStatus().ToString();
  EXPECT_TRUE(client->Ping().ok());

  server.Shutdown();
  service.Shutdown();
}

/// Builds the CLI-equivalent router over `registry`: name -> stable Route
/// with identity id translation (tests use engine node ids directly).
class RegistryRouter {
 public:
  explicit RegistryRouter(service::EngineRegistry* registry)
      : registry_(registry) {
    for (const std::string& name : registry->TenantNames()) {
      routes_[name].service = registry->Find(name);
    }
  }

  std::function<const ServerOptions::Route*(const std::string&)> hook() {
    return [this](const std::string& graph_id) -> const ServerOptions::Route* {
      if (registry_->Route(graph_id) == nullptr) return nullptr;
      const auto it =
          routes_.find(graph_id.empty() ? registry_->default_tenant()
                                        : graph_id);
      return it == routes_.end() ? nullptr : &it->second;
    };
  }

 private:
  service::EngineRegistry* registry_;
  std::map<std::string, ServerOptions::Route> routes_;
};

TEST(NetServerTest, RouterDispatchesGraphIdToTenantServices) {
  // Two tenants with different graphs behind one socket server; requests
  // route by wire graph_id, the empty id lands on the default tenant, and
  // unknown names come back as kNotFound frames on a surviving connection.
  service::EngineRegistry registry;
  auto graph_a = RandomGraph(60, 350, 5);
  auto graph_b = RandomGraph(80, 500, 6);
  service::TenantOptions tenant_options;
  ASSERT_TRUE(registry
                  .AddTenant("alpha", graph::ColumnNormalizedTransition(graph_a),
                             tenant_options)
                  .ok());
  ASSERT_TRUE(registry
                  .AddTenant("beta", graph::ColumnNormalizedTransition(graph_b),
                             tenant_options)
                  .ok());

  RegistryRouter router(&registry);
  ServerOptions server_options;
  server_options.router = router.hook();
  Server server(nullptr, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<Index> queries = {3, 14};
  const auto call = [&](const std::string& graph_id) {
    WireRequest request;
    request.graph_id = graph_id;
    request.queries.assign(queries.begin(), queries.end());
    return client->Call(request);
  };

  auto alpha = call("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  ASSERT_TRUE(alpha->ok()) << alpha->ToStatus().ToString();
  auto alpha_direct = registry.TenantEngine("alpha")->MultiSourceQuery(queries);
  ASSERT_TRUE(alpha_direct.ok());
  EXPECT_TRUE(alpha->scores == *alpha_direct);

  auto beta = call("beta");
  ASSERT_TRUE(beta.ok()) << beta.status().ToString();
  ASSERT_TRUE(beta->ok()) << beta->ToStatus().ToString();
  auto beta_direct = registry.TenantEngine("beta")->MultiSourceQuery(queries);
  ASSERT_TRUE(beta_direct.ok());
  EXPECT_TRUE(beta->scores == *beta_direct);
  EXPECT_EQ(beta->scores.rows(), 80);
  EXPECT_NE(alpha->scores.rows(), beta->scores.rows());

  // Empty graph id = the default (first-added) tenant.
  auto unnamed = call("");
  ASSERT_TRUE(unnamed.ok());
  ASSERT_TRUE(unnamed->ok()) << unnamed->ToStatus().ToString();
  EXPECT_TRUE(unnamed->scores == *alpha_direct);

  auto ghost = call("ghost");
  ASSERT_TRUE(ghost.ok()) << ghost.status().ToString();
  EXPECT_TRUE(ghost->ToStatus().IsNotFound()) << ghost->ToStatus().ToString();
  EXPECT_TRUE(client->Ping().ok());

  server.Shutdown();
  registry.Shutdown();
}

TEST(NetServerTest, MutateWhileServeHammerAcrossTenants) {
  // The CI mutate-while-serve hammer (TSan job): concurrent writers stream
  // mixed insert/delete batches into two dynamic tenants through
  // EngineRegistry::ApplyUpdates while socket clients keep querying both.
  // Every response must be a well-formed success frame of the right shape —
  // queries never block on, or tear under, concurrent publication.
  constexpr Index kNodesA = 60;
  constexpr Index kNodesB = 45;
  service::EngineRegistry registry;
  service::TenantOptions tenant_options;
  tenant_options.kind = service::EngineKind::kDynamic;
  tenant_options.config.rank = 6;
  tenant_options.config.max_incremental_updates = 8;
  tenant_options.cache_capacity_bytes = 1 << 20;
  ASSERT_TRUE(registry
                  .AddTenant("alpha",
                             graph::ColumnNormalizedTransition(
                                 RandomGraph(kNodesA, 320, 17)),
                             tenant_options)
                  .ok());
  ASSERT_TRUE(registry
                  .AddTenant("beta",
                             graph::ColumnNormalizedTransition(
                                 RandomGraph(kNodesB, 220, 19)),
                             tenant_options)
                  .ok());

  RegistryRouter router(&registry);
  ServerOptions server_options;
  server_options.router = router.hook();
  server_options.num_workers = 2;
  Server server(nullptr, server_options);
  ASSERT_TRUE(server.Start().ok());

  const auto writer = [&registry](const std::string& tenant, Index nodes,
                                  uint64_t seed) {
    Rng rng(seed);
    for (int batch = 0; batch < 30; ++batch) {
      std::vector<core::EdgeUpdate> updates;
      while (updates.size() < 4) {
        const Index u = static_cast<Index>(
            rng.Below(static_cast<uint64_t>(nodes)));
        const Index v = static_cast<Index>(
            rng.Below(static_cast<uint64_t>(nodes)));
        if (u == v) continue;
        updates.push_back(updates.size() % 2 == 0
                              ? core::EdgeUpdate::Insert(u, v)
                              : core::EdgeUpdate::Delete(u, v));
      }
      auto receipt = registry.ApplyUpdates(tenant, updates);
      ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    }
  };
  std::thread writer_a(writer, "alpha", kNodesA, 0xA11CE);
  std::thread writer_b(writer, "beta", kNodesB, 0xB0B);

  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      const bool alpha = (c % 2 == 0);
      const Index nodes = alpha ? kNodesA : kNodesB;
      for (int r = 0; r < kRequests; ++r) {
        WireRequest request;
        request.graph_id = alpha ? "alpha" : "beta";
        request.queries = {static_cast<int64_t>((c * 5 + r) % nodes),
                           static_cast<int64_t>((c + r * 3) % nodes)};
        if (request.queries[0] == request.queries[1]) continue;
        auto response = client->Call(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_TRUE(response->ok()) << response->ToStatus().ToString();
        ASSERT_EQ(response->scores.rows(), nodes);
        ASSERT_EQ(response->scores.cols(), 2);
        ++ok_count;
      }
    });
  }
  for (auto& t : clients) t.join();
  writer_a.join();
  writer_b.join();
  EXPECT_GT(ok_count.load(), 0);

  server.Shutdown();
  registry.Shutdown();
}

TEST(NetServerTest, ParseHostPortAcceptsAndRejects) {
  auto good = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->first, "127.0.0.1");
  EXPECT_EQ(good->second, 8080);
  auto any = ParseHostPort(":0");
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(any->first, "");
  EXPECT_EQ(any->second, 0);
  EXPECT_FALSE(ParseHostPort("no-port").ok());
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort("host:70000").ok());
  EXPECT_FALSE(ParseHostPort("host:12x").ok());
}

}  // namespace
}  // namespace csrplus::net
