// Figure 6 — total memory of CSR+, CSR-RLS, CSR-IT and CSR-NI on every
// dataset (|Q| = 100).
//
// Memory is the tracked-allocation high-water mark (operator new/delete
// hooks linked into this binary). Paper shape to match: CSR+ is 1–4 orders
// of magnitude smaller than every rival (10,000x vs CSR-NI on p2p), and
// only CSR+ fits the budget on the large datasets.

#include "bench_util.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  PrintBanner("Figure 6", "total memory for multi-source queries (|Q|=100)",
              config);

  const std::vector<std::string> datasets = {"fb", "p2p", "yt",
                                             "wt", "tw", "wb"};
  eval::TablePrinter table(
      {"dataset", "method", "precompute-mem", "query-mem", "peak", "status"});

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
                    BytesCell(outcome, outcome.precompute.peak_bytes),
                    BytesCell(outcome, outcome.query.peak_bytes),
                    BytesCell(outcome, outcome.peak_bytes()),
                    eval::OutcomeLabel(outcome)});
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
