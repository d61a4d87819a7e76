// Figure 4 — effect of the low rank r on total time for all four methods.
//
// Paper shape to match: CSR+, CSR-RLS and CSR-IT grow mildly with r, while
// CSR-NI grows steeply (its O(r^4 n^2) tensor products) and crosses above
// CSR-IT around r = 20; CSR+ stays 1–2 orders of magnitude below everyone.
//
// The faithful NI arithmetic makes a full-size FB sweep take hours on one
// core, so the ci scale sweeps the size-reduced fb-mini/p2p-mini datasets
// (the r^4-vs-r crossover is scale-free); COSIM_SCALE=full doubles them.

#include "bench_util.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  PrintBanner("Figure 4", "effect of low rank r on total CPU time", config);

  const std::vector<std::string> datasets = {"fb-mini", "p2p-mini"};
  const std::vector<Index> ranks = {5, 10, 15, 20};
  eval::TablePrinter table({"dataset", "r", "CSR+", "CSR-RLS", "CSR-IT",
                            "CSR-NI"});

  for (const std::string& key : datasets) {
    auto workload = LoadWorkload(key, DefaultQuerySize());
    if (!workload.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", key.c_str(),
                   workload.status().ToString().c_str());
      continue;
    }
    PrintWorkload(*workload);
    for (Index r : ranks) {
      RunConfig swept = config;
      swept.rank = r;
      std::vector<std::string> row = {workload->key, std::to_string(r)};
      for (EngineKind method : eval::PaperMethods()) {
        const RunOutcome outcome = eval::RunMethod(
            method, workload->transition, workload->queries, swept);
        row.push_back(TimeCell(outcome, outcome.total_seconds()));
      }
      table.AddRow(std::move(row));
    }
  }
  std::printf("\n");
  table.Print();
  std::printf("\nexpected: CSR-NI column grows ~r^4 and overtakes CSR-IT "
              "near r = 20.\n");
  return 0;
}
