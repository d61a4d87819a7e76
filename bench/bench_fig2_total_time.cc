// Figure 2 — total time (preprocessing + query) of CSR+, CSR-RLS, CSR-IT
// and CSR-NI for a |Q| = 100 multi-source query on every dataset.
//
// Paper shape to match: CSR+ is 1–3 orders of magnitude faster everywhere;
// CSR-RLS is the closest rival on small graphs but falls behind on medium
// ones; CSR-IT and CSR-NI fail on medium graphs (memory) and only CSR+
// completes on the TW/WB-scale datasets.

#include "bench_util.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  PrintBanner("Figure 2", "total time for multi-source queries (|Q|=100)",
              config);

  const std::vector<std::string> datasets = {"fb", "p2p", "yt",
                                             "wt", "tw", "wb"};
  eval::TablePrinter table(
      {"dataset", "method", "precompute", "query", "total", "status"});

  for (const std::string& key : datasets) {
    auto workload = LoadWorkload(key, DefaultQuerySize());
    if (!workload.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", key.c_str(),
                   workload.status().ToString().c_str());
      continue;
    }
    PrintWorkload(*workload);
    for (EngineKind method : eval::PaperMethods()) {
      const RunOutcome outcome = eval::RunMethod(
          method, workload->transition, workload->queries, config);
      table.AddRow({workload->key, std::string(service::EngineKindName(method)),
                    TimeCell(outcome, outcome.precompute.seconds),
                    TimeCell(outcome, outcome.query.seconds),
                    TimeCell(outcome, outcome.total_seconds()),
                    eval::OutcomeLabel(outcome)});
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
