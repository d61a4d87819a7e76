// Shared helpers for the figure/table reproduction benches and the serving
// gates.
//
// Every bench binary prints a banner naming the paper artefact it
// regenerates, loads datasets through the registry (cached under data/),
// and emits one aligned table whose rows correspond to the paper's plotted
// series. COSIM_SCALE=full switches to the large dataset configurations.
//
// The serving gates (bench_cache_hit, bench_mutation, bench_warm_start,
// bench_degradation, bench_table3_accuracy) share one closed-loop driver,
// one request maker, one percentile and one gate reporter, `Gates`: every
// check prints one line, and under --enforce=1 (COSIM_ENFORCE) the binary
// exits 1 when a check failed or never ran.

#ifndef CSRPLUS_BENCH_BENCH_UTIL_H_
#define CSRPLUS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csrplus.h"
#include "e2e_util.h"

namespace csrplus::bench {

using eval::RunConfig;
using eval::RunOutcome;
using graph::Graph;
using linalg::CsrMatrix;
using linalg::Index;
using service::EngineKind;

/// A dataset ready for experiments: the graph, its transition matrix, and a
/// default query sample.
struct Workload {
  std::string key;
  Graph graph;
  CsrMatrix transition;
  std::vector<Index> queries;
};

/// Loads dataset `key` at the ambient scale and samples `num_queries`
/// distinct query nodes (seeded deterministically per dataset).
inline Result<Workload> LoadWorkload(const std::string& key,
                                     Index num_queries) {
  Workload w;
  w.key = key;
  CSR_ASSIGN_OR_RETURN(w.graph,
                       eval::LoadOrGenerate(key, GetBenchScale(), "data"));
  w.transition = graph::ColumnNormalizedTransition(w.graph);
  w.queries = eval::SampleQueries(w.graph, num_queries,
                                  0x9E3779B9u ^ std::hash<std::string>{}(key));
  return w;
}

/// Prints the standard banner: which paper artefact, which build version,
/// which scale, and the shared parameters.
inline void PrintBanner(const char* artefact, const char* description,
                        const RunConfig& config) {
  const bool full = GetBenchScale() == BenchScale::kFull;
  std::printf("=== %s — %s ===\n", artefact, description);
  std::printf("%s  scale=%s  r=%ld  c=%.1f  eps=%.0e  threads=%d  "
              "memory_budget=%s  (COSIM_SCALE=full for paper-scale graphs)\n\n",
              VersionString(), full ? "full" : "ci",
              static_cast<long>(config.rank), config.damping, config.epsilon,
              GetNumThreads(),
              FormatBytes(MemoryBudget::Global().limit_bytes()).c_str());
}

/// Shared bench knob parsing, unifying flag spelling with the CLI.
///
/// Canonical form is the CLI's dashed style: `--rank=5`, `--threads=4`,
/// `--scale=full`, `--cache-n=2000`, ... Each `--some-knob=value` maps to
/// the `COSIM_SOME_KNOB` environment variable the benches already read
/// (`--threads=` maps to the process-wide pool width), so flags and env vars
/// are interchangeable and flags win by being applied last. Anything else is
/// an error so typos cannot silently run a default configuration.
inline bool ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "error: unrecognised argument '%s' "
                   "(expected --knob=value)\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
      std::fprintf(stderr, "error: expected --knob=value, got '%s'\n",
                   argv[i]);
      return false;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "threads") {
      SetNumThreads(std::atoi(value.c_str()));
      continue;
    }
    std::string env = "COSIM_";
    for (char c : key) {
      env.push_back(c == '-' ? '_'
                             : static_cast<char>(std::toupper(
                                   static_cast<unsigned char>(c))));
    }
    ::setenv(env.c_str(), value.c_str(), /*overwrite=*/1);
  }
  return true;
}

/// One line describing a loaded workload.
inline void PrintWorkload(const Workload& w) {
  std::printf("dataset %-4s %s\n", w.key.c_str(),
              graph::ToString(graph::ComputeStats(w.graph)).c_str());
}

/// "1.23s" / "FAIL(mem)" cell for a phase or total.
inline std::string TimeCell(const RunOutcome& outcome, double seconds) {
  if (!outcome.status.ok()) return eval::OutcomeLabel(outcome);
  return eval::FormatTime(seconds);
}

/// "12.3 MiB" / "FAIL(mem)" cell.
inline std::string BytesCell(const RunOutcome& outcome, int64_t bytes) {
  if (!outcome.status.ok()) return eval::OutcomeLabel(outcome);
  if (!MemoryTrackingActive()) return "(hooks off)";
  return FormatBytes(bytes);
}

/// Default paper parameters (|Q| = 100, c = 0.6, r = 5, eps = 1e-5).
inline RunConfig PaperDefaults() {
  RunConfig config;
  config.rank = GetEnvInt64("COSIM_RANK", 5);
  config.damping = GetEnvDouble("COSIM_DAMPING", 0.6);
  config.epsilon = GetEnvDouble("COSIM_EPSILON", 1e-5);
  config.keep_scores = false;
  return config;
}

/// Default multi-source query size (paper: 100), overridable via COSIM_Q.
inline Index DefaultQuerySize() {
  return static_cast<Index>(GetEnvInt64("COSIM_Q", 100));
}

// --- Serving gates ---------------------------------------------------------

using e2e::ZipfSampler;

/// The sample at rank floor(p * (n - 1)); 0 for no samples.
inline double Percentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::ptrdiff_t>(
      p * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[static_cast<std::size_t>(rank)]);
}

/// A request of `qsize` distinct query nodes, each drawn by `draw()` until
/// it differs from the ones already taken.
template <typename Draw>
service::QueryRequest DistinctRequest(Index qsize, Draw&& draw) {
  service::QueryRequest request;
  while (static_cast<Index>(request.queries.size()) < qsize) {
    const Index q = draw();
    if (std::find(request.queries.begin(), request.queries.end(), q) ==
        request.queries.end()) {
      request.queries.push_back(q);
    }
  }
  return request;
}

/// Outcome of one closed-loop run.
struct LoadResult {
  double seconds = 0.0;
  int ok = 0;
  int failed = 0;
  std::vector<uint64_t> latencies_us;  ///< total_micros of each ok response
  int64_t batch_requests = 0;          ///< summed over the ok responses

  double qps() const { return seconds > 0.0 ? ok / seconds : 0.0; }
  double mean_batch() const {
    return ok > 0 ? static_cast<double>(batch_requests) / ok : 0.0;
  }
};

/// Closed loop: `num_clients` threads, client c seeded with
/// `seed + c * seed_stride`, each sending `requests_per_client` requests
/// `make_request(rng)` back to back through `service`.
template <typename MakeRequest>
LoadResult RunClosedLoop(service::QueryService& service, int num_clients,
                         int requests_per_client, uint64_t seed,
                         uint64_t seed_stride,
                         const MakeRequest& make_request) {
  std::vector<LoadResult> per_client(static_cast<std::size_t>(num_clients));
  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(per_client.size());
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      LoadResult& mine = per_client[static_cast<std::size_t>(c)];
      mine.latencies_us.reserve(static_cast<std::size_t>(requests_per_client));
      Rng rng(seed + static_cast<uint64_t>(c) * seed_stride);
      for (int r = 0; r < requests_per_client; ++r) {
        const service::QueryResponse response =
            service.Query(make_request(rng));
        if (!response.status.ok()) {
          ++mine.failed;
          continue;
        }
        ++mine.ok;
        mine.latencies_us.push_back(response.total_micros);
        mine.batch_requests += response.batch_requests;
      }
    });
  }
  for (auto& t : clients) t.join();

  LoadResult result;
  result.seconds = timer.ElapsedSeconds();
  for (const LoadResult& mine : per_client) {
    result.ok += mine.ok;
    result.failed += mine.failed;
    result.batch_requests += mine.batch_requests;
    result.latencies_us.insert(result.latencies_us.end(),
                               mine.latencies_us.begin(),
                               mine.latencies_us.end());
  }
  return result;
}

/// Sends nodes [0, universe) through `service` in requests of `qsize`, so a
/// cache that fits the universe holds all of it: the steady state of a
/// repeated workload.
inline void WarmCache(service::QueryService& service, Index universe,
                      Index qsize) {
  for (Index base = 0; base < universe; base += qsize) {
    service::QueryRequest request;
    for (Index q = base; q < std::min<Index>(base + qsize, universe); ++q) {
      request.queries.push_back(q);
    }
    const service::QueryResponse response = service.Query(std::move(request));
    CSR_CHECK(response.status.ok()) << response.status.ToString();
  }
}

/// Hit rate over the lookups between two snapshots of one cache's stats,
/// so the cold misses before `before` do not dilute it.
inline double SteadyHitRate(const cache::ColumnCacheStats& before,
                            const cache::ColumnCacheStats& after) {
  const int64_t lookups =
      (after.hits + after.misses) - (before.hits + before.misses);
  return lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups
                     : 0.0;
}

/// The checks of one serving gate, declared up front. Finish() prints one
/// line per recorded outcome and one per check that never ran, and returns
/// the exit code: 1 under --enforce=1 (COSIM_ENFORCE) when a check failed or
/// never ran, else 0.
class Gates {
 public:
  explicit Gates(std::vector<std::string> checks) {
    for (std::string& name : checks) checks_.push_back({std::move(name)});
  }

  /// One outcome of `check`, measured on `cell` (printed when set). A
  /// check recorded on several cells passes only if every outcome does.
  void AtLeast(const std::string& check, double value, double bound,
               const std::string& cell = "") {
    Record(check, value >= bound, value, ">=", bound, cell);
  }
  void AtMost(const std::string& check, double value, double bound,
              const std::string& cell = "") {
    Record(check, value <= bound, value, "<=", bound, cell);
  }

  int Finish() const {
    for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
    bool pass = true;
    for (const Check& c : checks_) {
      if (!c.ran) std::printf("gate %s: never ran FAIL\n", c.name.c_str());
      pass = pass && c.ran && c.pass;
    }
    const bool enforce = GetEnvInt64("COSIM_ENFORCE", 0) != 0;
    std::printf("gates: %s%s\n", pass ? "PASS" : "FAIL",
                enforce ? "" : " (informational; --enforce=1 makes a failure "
                               "exit 1)");
    return enforce && !pass ? 1 : 0;
  }

 private:
  struct Check {
    std::string name;
    bool ran = false;
    bool pass = true;
  };

  void Record(const std::string& check, bool pass, double value,
              const char* op, double bound, const std::string& cell) {
    for (Check& c : checks_) {
      if (c.name != check) continue;
      c.ran = true;
      c.pass = c.pass && pass;
      std::string line =
          StrPrintf("gate %s: %.4g %s %.4g", check.c_str(), value, op, bound);
      if (!cell.empty()) line += " (" + cell + ")";
      lines_.push_back(line + (pass ? " ok" : " FAIL"));
      return;
    }
    CSR_CHECK(false) << "undeclared gate check '" << check << "'";
  }

  std::vector<Check> checks_;
  std::vector<std::string> lines_;
};

}  // namespace csrplus::bench

#endif  // CSRPLUS_BENCH_BENCH_UTIL_H_
