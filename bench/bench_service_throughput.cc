// Service throughput — batched vs serialized dispatch under concurrency.
//
// Theorem 3.5 makes a merged multi-source evaluation strictly cheaper than
// its parts; service::QueryService exploits that by coalescing concurrent
// requests into micro-batches. This bench quantifies the serving-time win:
// the same client load (N threads, each issuing multi-source requests drawn
// from a hot set) runs once against a coalescing service and once against
// the serialized arm (max_batch_requests = 1, one engine call per request),
// and reports QPS plus tail latency for each.
//
// A third arm drives the same coalescing service through the real socket
// front end (net::Server on loopback, one blocking net::Client per client
// thread) to measure what the wire protocol + epoll loop cost on top of
// in-process dispatch. The issue's acceptance bar: socket QPS >= 70% of the
// in-process batched arm at 8 connections.
//
// Knobs (env): COSIM_SERVICE_N (nodes), COSIM_SERVICE_CLIENTS (max client
// threads), COSIM_SERVICE_REQUESTS (requests per client), COSIM_SERVICE_Q
// (queries per request).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "graph/generators/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_protocol.h"
#include "service/query_service.h"

namespace {

using namespace csrplus;
using namespace csrplus::bench;

struct LoadResult {
  double seconds = 0.0;
  int ok = 0;
  int failed = 0;
  double avg_batch_requests = 0.0;
  uint64_t p50_us = 0, p95_us = 0, p99_us = 0;

  double qps() const { return ok / seconds; }
};

LoadResult RunLoad(std::shared_ptr<const core::QueryEngine> engine,
                   bool coalesce, int num_clients, int requests_per_client,
                   Index qsize, Index hot_set) {
  service::ServiceOptions options;
  if (!coalesce) options.max_batch_requests = 1;
  service::QueryService service(std::move(engine), options);

  std::atomic<int> ok{0}, failed{0};
  std::atomic<int64_t> batch_requests_sum{0};
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<std::size_t>(num_clients));

  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xB41Cull + static_cast<uint64_t>(c) * 977);
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        service::QueryRequest request;
        while (static_cast<Index>(request.queries.size()) < qsize) {
          const Index q = static_cast<Index>(
              rng.Below(static_cast<uint64_t>(hot_set)));
          if (std::find(request.queries.begin(), request.queries.end(), q) ==
              request.queries.end()) {
            request.queries.push_back(q);
          }
        }
        service::QueryResponse response = service.Query(std::move(request));
        if (response.status.ok()) {
          ++ok;
          batch_requests_sum += response.batch_requests;
          mine.push_back(response.total_micros);
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  LoadResult result;
  result.seconds = timer.ElapsedSeconds();
  service.Shutdown();
  result.ok = ok.load();
  result.failed = failed.load();
  if (result.ok > 0) {
    result.avg_batch_requests =
        static_cast<double>(batch_requests_sum.load()) / result.ok;
    std::vector<uint64_t> all;
    for (const auto& mine : latencies) {
      all.insert(all.end(), mine.begin(), mine.end());
    }
    std::sort(all.begin(), all.end());
    const auto pct = [&](double p) {
      return all[static_cast<std::size_t>(p *
                                          static_cast<double>(all.size() - 1))];
    };
    result.p50_us = pct(0.50);
    result.p95_us = pct(0.95);
    result.p99_us = pct(0.99);
  }
  return result;
}

// Same hot-set load as RunLoad, but through the socket front end: a
// coalescing service behind net::Server, one blocking net::Client per
// client thread. Request generation is identical so the QPS ratio isolates
// the wire + event-loop overhead.
LoadResult RunSocketLoad(std::shared_ptr<const core::QueryEngine> engine,
                         int num_clients, int requests_per_client, Index qsize,
                         Index hot_set) {
  service::QueryService service(std::move(engine));
  net::ServerOptions server_options;
  // Encode + flush of an n x |Q| response per request is the socket arm's
  // real work; spread it so it overlaps the next engine batch.
  server_options.num_workers = std::max(2, num_clients / 2);
  net::Server server(&service, server_options);
  CSR_CHECK(server.Start().ok());
  const int port = server.port();

  std::atomic<int> ok{0}, failed{0};
  std::atomic<int64_t> batch_requests_sum{0};
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<std::size_t>(num_clients));

  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", port);
      CSR_CHECK(client.ok()) << client.status().ToString();
      Rng rng(0xB41Cull + static_cast<uint64_t>(c) * 977);
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        net::WireRequest request;
        while (static_cast<Index>(request.queries.size()) < qsize) {
          const auto q =
              static_cast<int64_t>(rng.Below(static_cast<uint64_t>(hot_set)));
          if (std::find(request.queries.begin(), request.queries.end(), q) ==
              request.queries.end()) {
            request.queries.push_back(q);
          }
        }
        auto response = client->Call(request);
        if (response.ok() && response->ok()) {
          ++ok;
          batch_requests_sum += response->batch_requests;
          mine.push_back(response->total_micros);
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  LoadResult result;
  result.seconds = timer.ElapsedSeconds();
  server.Shutdown();
  service.Shutdown();
  result.ok = ok.load();
  result.failed = failed.load();
  if (result.ok > 0) {
    result.avg_batch_requests =
        static_cast<double>(batch_requests_sum.load()) / result.ok;
    std::vector<uint64_t> all;
    for (const auto& mine : latencies) {
      all.insert(all.end(), mine.begin(), mine.end());
    }
    std::sort(all.begin(), all.end());
    const auto pct = [&](double p) {
      return all[static_cast<std::size_t>(p *
                                          static_cast<double>(all.size() - 1))];
    };
    result.p50_us = pct(0.50);
    result.p95_us = pct(0.95);
    result.p99_us = pct(0.99);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  RunConfig config = PaperDefaults();
  // Default to a heavier rank than the CI-scale figures: coalescing wins by
  // deduplicating the shared Z U_Q^T evaluation, so the engine work per
  // column has to dominate the fixed per-request cost (scatter + wakeup)
  // for the batched arm to show its real margin.
  config.rank = GetEnvInt64("COSIM_RANK", 64);
  PrintBanner("Service throughput",
              "batched vs serialized concurrent dispatch", config);

  const Index n = static_cast<Index>(GetEnvInt64("COSIM_SERVICE_N", 20000));
  const int max_clients =
      static_cast<int>(GetEnvInt64("COSIM_SERVICE_CLIENTS", 16));
  const int requests =
      static_cast<int>(GetEnvInt64("COSIM_SERVICE_REQUESTS", 40));
  const Index qsize = static_cast<Index>(GetEnvInt64("COSIM_SERVICE_Q", 8));
  const Index hot_set = std::min<Index>(n, 4 * qsize);

  auto graph = graph::ErdosRenyi(n, 8 * n, 0xC051);
  CSR_CHECK(graph.ok()) << graph.status().ToString();
  std::printf("graph: %s\n", graph::ToString(graph::ComputeStats(*graph)).c_str());

  core::CsrPlusOptions engine_options;
  engine_options.rank = std::min<Index>(config.rank, n);
  engine_options.damping = config.damping;
  WallTimer timer;
  auto built = core::CsrPlusEngine::Precompute(*graph, engine_options);
  CSR_CHECK(built.ok()) << built.status().ToString();
  const auto engine =
      std::make_shared<const core::CsrPlusEngine>(std::move(*built));
  std::printf("precompute: rank %ld in %s\n\n",
              static_cast<long>(engine->rank()),
              eval::FormatTime(timer.ElapsedSeconds()).c_str());

  eval::TablePrinter table({"clients", "mode", "ok", "QPS", "avg batch",
                            "p50 us", "p95 us", "p99 us"});
  std::vector<int> client_counts;
  for (int c = 1; c <= max_clients; c *= 2) client_counts.push_back(c);

  double speedup_at_max = 0.0;
  double socket_ratio_at_max = 0.0;
  for (int num_clients : client_counts) {
    LoadResult serialized =
        RunLoad(engine, /*coalesce=*/false, num_clients, requests, qsize,
                hot_set);
    LoadResult batched = RunLoad(engine, /*coalesce=*/true, num_clients,
                                 requests, qsize, hot_set);
    LoadResult socket =
        RunSocketLoad(engine, num_clients, requests, qsize, hot_set);
    const std::pair<const char*, const LoadResult*> arms[] = {
        {"serialized", &serialized},
        {"batched", &batched},
        {"socket", &socket}};
    for (const auto& [mode, r] : arms) {
      char batch_cell[32];
      std::snprintf(batch_cell, sizeof(batch_cell), "%.2f",
                    r->avg_batch_requests);
      table.AddRow({std::to_string(num_clients), mode, std::to_string(r->ok),
                    std::to_string(static_cast<int64_t>(r->qps())),
                    batch_cell, std::to_string(r->p50_us),
                    std::to_string(r->p95_us), std::to_string(r->p99_us)});
    }
    if (num_clients == client_counts.back() && serialized.ok > 0) {
      speedup_at_max = batched.qps() / serialized.qps();
      if (batched.ok > 0) socket_ratio_at_max = socket.qps() / batched.qps();
    }
  }
  std::printf("\n");
  table.Print();
  std::printf("\nbatched/serialized QPS at %d clients: %.2fx "
              "(coalescing dedups overlapping hot-set queries into one "
              "shared evaluation)\n",
              client_counts.back(), speedup_at_max);
  std::printf("socket/in-process QPS at %d clients: %.2fx "
              "(wire codec + epoll loop overhead on loopback; acceptance "
              "bar is >= 0.70x at 8 connections)\n",
              client_counts.back(), socket_ratio_at_max);
  return 0;
}
