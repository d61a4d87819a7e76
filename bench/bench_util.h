// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints a banner naming the paper artefact it
// regenerates, loads datasets through the registry (cached under data/),
// and emits one aligned table whose rows correspond to the paper's plotted
// series. COSIM_SCALE=full switches to the large dataset configurations.

#ifndef CSRPLUS_BENCH_BENCH_UTIL_H_
#define CSRPLUS_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "csrplus.h"

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
/// `--scale=full`, `--service-n=20000`, ... Each `--some-knob=value` maps to
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

}  // namespace csrplus::bench

#endif  // CSRPLUS_BENCH_BENCH_UTIL_H_
