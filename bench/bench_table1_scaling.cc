// Table 1 — complexity comparison, verified empirically.
//
// The paper's Table 1 lists asymptotic time/memory for each algorithm; this
// bench measures total time on a family of Erdős–Rényi graphs of doubling
// size (fixed m/n) and prints the growth factor per doubling. Expected
// factors per n-doubling at fixed r, |Q|:
//
//   CSR+     O(r(m + n(r + |Q|)))  ->  ~2x
//   CSR-RLS  O(r m |Q|)            ->  ~2x (but a much larger constant)
//   CSR-IT   O(r n m)              ->  ~4x
//   CSR-NI   O(r^4 n^2)            ->  ~4x (largest constant; memory r^2n^2)

#include "bench_util.h"
#include "graph/generators/generators.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  PrintBanner("Table 1", "empirical growth-rate check of the complexity table",
              config);

  const bool full = GetBenchScale() == BenchScale::kFull;
  std::vector<Index> sizes = {250, 500, 1000, 2000};
  if (full) sizes.push_back(4000);
  const Index queries_per_run = 50;

  eval::TablePrinter table(
      {"n", "m", "CSR+", "CSR-RLS", "CSR-IT", "CSR-NI"});
  std::vector<std::vector<double>> times;  // per size, per method

  for (Index n : sizes) {
    auto g = graph::ErdosRenyi(n, n * 6, /*seed=*/0x7AB1E);
    CSR_CHECK_OK(g.status());
    const CsrMatrix transition = graph::ColumnNormalizedTransition(*g);
    const std::vector<Index> queries =
        eval::SampleQueries(*g, queries_per_run, 99);

    std::vector<std::string> row = {std::to_string(n),
                                    std::to_string(g->num_edges())};
    std::vector<double> method_times;
    for (EngineKind method : eval::PaperMethods()) {
      const RunOutcome outcome =
          eval::RunMethod(method, transition, queries, config);
      method_times.push_back(outcome.status.ok() ? outcome.total_seconds()
                                                 : -1.0);
      row.push_back(TimeCell(outcome, outcome.total_seconds()));
    }
    times.push_back(std::move(method_times));
    table.AddRow(std::move(row));
  }
  table.Print();

  std::printf("\ngrowth factor per n-doubling (expect ~2x for CSR+/CSR-RLS, "
              "~4x for CSR-IT/CSR-NI):\n");
  const char* names[] = {"CSR+", "CSR-RLS", "CSR-IT", "CSR-NI"};
  for (std::size_t method = 0; method < 4; ++method) {
    std::printf("  %-8s", names[method]);
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i][method] > 0 && times[i - 1][method] > 0) {
        std::printf("  %.1fx", times[i][method] / times[i - 1][method]);
      } else {
        std::printf("  -");
      }
    }
    std::printf("\n");
  }
  return 0;
}
