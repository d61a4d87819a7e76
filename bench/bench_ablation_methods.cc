// Ablation — the two Table 1 rows the paper does not benchmark:
// CoSimMate (repeated squaring in n-space) and RP-CoSim (Gaussian random
// projections), compared against CSR+ on time, memory and accuracy.
//
// Expected: CoSimMate is accurate but O(n^2)-bound like CSR-IT (it is the
// n-space version of the very recurrence CSR+ runs in r-space); RP-CoSim
// matches CSR+'s memory profile but pays Monte-Carlo variance for accuracy.

#include "bench_util.h"
#include "core/cosimrank.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  config.keep_scores = true;
  PrintBanner("Ablation: extension baselines",
              "CoSimMate and RP-CoSim vs CSR+", config);

  eval::TablePrinter table(
      {"dataset", "method", "total-time", "peak-mem", "AvgDiff", "status"});

  // CoSimMate multiplies dense n x n matrices (O(n^3) per squaring step),
  // so this ablation runs on the size-reduced sweep datasets.
  for (const std::string& key : {std::string("fb-mini"), std::string("p2p-mini")}) {
    auto workload = LoadWorkload(key, DefaultQuerySize());
    if (!workload.ok()) continue;
    PrintWorkload(*workload);

    core::CoSimRankOptions exact_options;
    exact_options.damping = config.damping;
    exact_options.epsilon = 1e-10;
    auto exact = core::ReferenceEngine(&workload->transition, exact_options)
                     .MultiSourceQuery(workload->queries);
    CSR_CHECK_OK(exact.status());

    for (EngineKind method :
         {EngineKind::kCsrPlus, EngineKind::kCoSimMate, EngineKind::kRpCoSim}) {
      const RunOutcome outcome = eval::RunMethod(
          method, workload->transition, workload->queries, config);
      std::string avgdiff = "-";
      if (outcome.status.ok()) {
        avgdiff = eval::FormatSci(eval::AvgDiff(outcome.scores, *exact));
      }
      table.AddRow({workload->key, std::string(service::EngineKindName(method)),
                    TimeCell(outcome, outcome.total_seconds()),
                    BytesCell(outcome, outcome.peak_bytes()), avgdiff,
                    eval::OutcomeLabel(outcome)});
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
