// Figure 8 — effect of the low rank r on memory for all methods.
//
// Paper shape to match: CSR+ memory grows gently (O(rn)); CSR-NI grows
// rapidly (its O(r^2 n^2) tensor factors); CSR-IT/CSR-RLS are flat in r but
// far above CSR+. On larger datasets every rival fails while CSR+ survives.
// Size-reduced sweep datasets as in Figure 4 (the growth laws are
// scale-free).

#include "bench_util.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  PrintBanner("Figure 8", "effect of low rank r on memory", config);

  const std::vector<std::string> datasets = {"fb-mini", "p2p-mini"};
  const std::vector<Index> ranks = {5, 10, 15, 20};
  eval::TablePrinter table(
      {"dataset", "r", "CSR+", "CSR-RLS", "CSR-IT", "CSR-NI"});

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
        row.push_back(BytesCell(outcome, outcome.peak_bytes()));
      }
      table.AddRow(std::move(row));
    }
  }
  std::printf("\n");
  table.Print();
  std::printf("\nexpected: CSR-NI column grows ~r^2 (tensor factors); CSR+ "
              "grows ~r; CSR-IT flat.\n");
  return 0;
}
