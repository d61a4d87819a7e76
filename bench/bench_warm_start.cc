// Warm start — cold precompute (SVD + repeated squaring) vs restoring the
// same state from a precompute artifact, for both artifact load modes.
//
// Expected shape: the artifact is O(rn) doubles, so a heap load tracks disk
// bandwidth and sits orders of magnitude below the cold SVD path; the
// speedup column is the amortisation argument for persisting factors in a
// serving deployment. The mmap column should beat even that: mapping defers
// page-in and checksums to first touch, so time-to-first-result is bounded
// by the pages one query actually reads, not the whole file.
//
// Gate (--enforce=1): at rank 128 on a synthetic graph of COSIM_WARM_N
// nodes,
//   1. mmap load + first query completes in <= 0.2x the heap-verified
//      load + first query time (the zero-copy warm-start claim), and
//   2. steady-state mapped QPS is within 5% of heap QPS (views serve as
//      fast as owned factors once pages are resident).

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/csrplus_engine.h"
#include "core/precompute_io.h"
#include "graph/generators/generators.h"

namespace {

using namespace csrplus;
using namespace csrplus::bench;

constexpr Index kGateRank = 128;
constexpr int kSteadyQueries = 200;

struct ArmResult {
  double load_seconds = 0.0;         // LoadPrecompute wall time
  double first_query_seconds = 0.0;  // first one-source query after load
  double steady_qps = 0.0;           // one-source queries per second, warm
};

/// One load-mode arm: load the artifact, answer a first query (for mmap this
/// is what faults in the working set), then measure steady-state QPS over a
/// fixed budget of one-source MultiSourceQuery calls.
Result<ArmResult> RunArm(const std::string& path, core::LoadMode mode,
                         Index n, int steady_queries) {
  ArmResult r;
  core::LoadOptions options;
  options.mode = mode;
  // Checksums settle inline (heap) or on the Verify call below (mmap); a
  // background thread would race the steady-state measurement.
  options.background_verify = false;
  WallTimer timer;
  CSR_ASSIGN_OR_RETURN(core::CsrPlusEngine engine,
                       core::CsrPlusEngine::LoadPrecompute(path, options));
  r.load_seconds = timer.ElapsedSeconds();

  timer.Restart();
  CSR_RETURN_IF_ERROR(engine.MultiSourceQuery({0}).status());
  r.first_query_seconds = timer.ElapsedSeconds();

  // Settle the deferred checksums before the steady window so both arms
  // measure pure query work against fully resident, verified state.
  CSR_RETURN_IF_ERROR(engine.VerifyMappedSections());
  timer.Restart();
  for (int q = 0; q < steady_queries; ++q) {
    CSR_RETURN_IF_ERROR(
        engine.MultiSourceQuery({static_cast<Index>(q) % n}).status());
  }
  r.steady_qps = static_cast<double>(steady_queries) / timer.ElapsedSeconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;

  RunConfig config = PaperDefaults();
  PrintBanner("Warm start", "cold precompute vs artifact load (heap, mmap)",
              config);

  const std::vector<std::string> datasets = {"fb", "p2p", "yt", "wt"};
  const Index num_queries = DefaultQuerySize();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csrplus_bench_warm_start";
  std::filesystem::create_directories(dir);

  eval::TablePrinter table({"dataset", "cold", "save", "heap load",
                            "mmap load", "speedup", "artifact", "query"});

  for (const std::string& key : datasets) {
    auto workload = LoadWorkload(key, num_queries);
    if (!workload.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", key.c_str(),
                   workload.status().ToString().c_str());
      continue;
    }
    PrintWorkload(*workload);

    core::CsrPlusOptions options;
    options.rank = config.rank;
    options.damping = config.damping;
    options.epsilon = config.epsilon;

    WallTimer timer;
    auto cold = core::CsrPlusEngine::PrecomputeFromTransition(
        workload->transition, options);
    const double cold_seconds = timer.ElapsedSeconds();
    if (!cold.ok()) {
      std::fprintf(stderr, "  precompute failed: %s\n",
                   cold.status().ToString().c_str());
      continue;
    }

    const std::string path = (dir / (key + ".cspc")).string();
    timer.Restart();
    Status saved = cold->SavePrecompute(path);
    const double save_seconds = timer.ElapsedSeconds();
    if (!saved.ok()) {
      std::fprintf(stderr, "  save failed: %s\n", saved.ToString().c_str());
      continue;
    }

    timer.Restart();
    auto warm = core::CsrPlusEngine::LoadPrecompute(path, core::LoadOptions{});
    const double heap_seconds = timer.ElapsedSeconds();
    if (!warm.ok()) {
      std::fprintf(stderr, "  load failed: %s\n",
                   warm.status().ToString().c_str());
      continue;
    }

    core::LoadOptions mapped_options;
    mapped_options.mode = core::LoadMode::kMapped;
    timer.Restart();
    auto mapped = core::CsrPlusEngine::LoadPrecompute(path, mapped_options);
    const double mmap_seconds = timer.ElapsedSeconds();
    if (!mapped.ok()) {
      std::fprintf(stderr, "  mmap load failed: %s\n",
                   mapped.status().ToString().c_str());
      continue;
    }

    timer.Restart();
    auto scores = warm->MultiSourceQuery(workload->queries);
    const double query_seconds = timer.ElapsedSeconds();

    table.AddRow(
        {key, eval::FormatTime(cold_seconds), eval::FormatTime(save_seconds),
         eval::FormatTime(heap_seconds), eval::FormatTime(mmap_seconds),
         StrPrintf("%.0fx", cold_seconds / heap_seconds),
         FormatBytes(static_cast<int64_t>(std::filesystem::file_size(path))),
         scores.ok() ? eval::FormatTime(query_seconds)
                     : "FAIL(" +
                           std::string(StatusCodeToString(
                               scores.status().code())) +
                           ")"});
  }
  std::printf("\n");
  table.Print();
  std::printf("\nspeedup = cold precompute / heap load: what persisting the "
              "factor state buys a restarting server.\n");

  // --- Load-mode gate: heap-verified vs mmap at serving rank. -------------
  const Index gate_n = static_cast<Index>(GetEnvInt64("COSIM_WARM_N", 20000));
  std::printf("\n--- load-mode gate: n=%ld rank=%ld, %d steady queries ---\n",
              static_cast<long>(gate_n), static_cast<long>(kGateRank),
              kSteadyQueries);
  auto gate_graph = graph::ErdosRenyi(gate_n, 8 * gate_n, 0x3A9);
  CSR_CHECK(gate_graph.ok()) << gate_graph.status().ToString();
  core::CsrPlusOptions gate_options;
  gate_options.rank = std::min<Index>(kGateRank, gate_n);
  gate_options.damping = config.damping;
  auto gate_engine = core::CsrPlusEngine::Precompute(*gate_graph,
                                                     gate_options);
  CSR_CHECK(gate_engine.ok()) << gate_engine.status().ToString();
  const std::string gate_path = (dir / "gate.cspc").string();
  Status gate_saved = gate_engine->SavePrecompute(gate_path);
  CSR_CHECK(gate_saved.ok()) << gate_saved.ToString();

  auto heap_arm = RunArm(gate_path, core::LoadMode::kHeapVerified, gate_n,
                         kSteadyQueries);
  auto mmap_arm =
      RunArm(gate_path, core::LoadMode::kMapped, gate_n, kSteadyQueries);
  CSR_CHECK(heap_arm.ok()) << heap_arm.status().ToString();
  CSR_CHECK(mmap_arm.ok()) << mmap_arm.status().ToString();

  eval::TablePrinter gate_table(
      {"mode", "load", "first query", "load+first", "steady QPS"});
  const std::pair<const char*, const ArmResult*> arms[] = {
      {"heap", &*heap_arm}, {"mmap", &*mmap_arm}};
  for (const auto& [mode, arm] : arms) {
    gate_table.AddRow(
        {mode, eval::FormatTime(arm->load_seconds),
         eval::FormatTime(arm->first_query_seconds),
         eval::FormatTime(arm->load_seconds + arm->first_query_seconds),
         StrPrintf("%.1f", arm->steady_qps)});
  }
  std::printf("\n");
  gate_table.Print();

  const double heap_ttfr =
      heap_arm->load_seconds + heap_arm->first_query_seconds;
  const double mmap_ttfr =
      mmap_arm->load_seconds + mmap_arm->first_query_seconds;
  std::printf("\n");
  std::filesystem::remove_all(dir);

  Gates gates({"mmap/heap time-to-first-result", "mmap/heap steady QPS"});
  gates.AtMost("mmap/heap time-to-first-result", mmap_ttfr / heap_ttfr, 0.2);
  gates.AtLeast("mmap/heap steady QPS",
                mmap_arm->steady_qps / heap_arm->steady_qps, 0.95);
  return gates.Finish();
}
