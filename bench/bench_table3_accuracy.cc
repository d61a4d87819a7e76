// Table 3 — AvgDiff of CSR+ (and CSR-NI where it survives) against exact
// CoSimRank on fb and p2p, for r in {25, 50, 100, 200}, |Q| = 100.
//
// Paper shape to match: AvgDiff is small (1e-3..1e-4) and decreases mildly
// as r grows; CSR+ and CSR-NI agree exactly wherever NI survives
// (losslessness, Theorems 3.1-3.5). NI runs in mixed-product fidelity here:
// the faithful arithmetic at r = 200 would take days, and fidelity does not
// change the output (tests/theorems_test.cc proves the identity).
//
// Gate (--enforce=1), over every workload cell: the float32 serving tier
// stays within max|f32 - f64| <= 1e-4 with top-10 overlap >= 0.99, and
// RP-CoSim's measured AvgDiff sits under its advertised error bound.

#include <algorithm>

#include "bench_util.h"
#include "baselines/ni_sim.h"
#include "baselines/rp_cosim.h"
#include "core/cosimrank.h"
#include "core/csrplus_engine.h"

int main(int argc, char** argv) {
  if (!csrplus::bench::ParseBenchArgs(argc, argv)) return 2;
  using namespace csrplus;
  using namespace csrplus::bench;

  RunConfig config = PaperDefaults();
  PrintBanner("Table 3", "AvgDiff of CSR+/CSR-NI vs exact CoSimRank", config);

  const std::vector<Index> ranks = {25, 50, 100, 200};
  eval::TablePrinter table({"dataset", "r", "AvgDiff(CSR+)", "AvgDiff(CSR-NI)",
                            "MaxDiff(CSR+ vs NI)"});
  // The float32 serving tier rides the same workloads: quantised factors +
  // SIMD f32 kernels vs the double engine.
  eval::TablePrinter f32_table(
      {"dataset", "r", "MaxDiff(f32 vs f64)", "minTop10Overlap"});
  // RP-CoSim advertises an a-priori error bound through its AccuracyTag
  // (RpCoSimErrorBound); the serving-tier contract only holds if measured
  // error actually sits under it.
  eval::TablePrinter rp_table(
      {"dataset", "d", "AvgDiff(RP)", "advertised bound"});
  Gates gates({"f32 MaxDiff", "f32 top-10 overlap", "RP-CoSim AvgDiff"});

  for (const std::string& key : {std::string("fb"), std::string("p2p")}) {
    auto workload = LoadWorkload(key, DefaultQuerySize());
    if (!workload.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", key.c_str(),
                   workload.status().ToString().c_str());
      continue;
    }
    PrintWorkload(*workload);

    // Exact ground truth via the per-query reference scheme.
    core::CoSimRankOptions exact_options;
    exact_options.damping = config.damping;
    exact_options.epsilon = 1e-10;
    auto exact = core::ReferenceEngine(&workload->transition, exact_options)
                     .MultiSourceQuery(workload->queries);
    if (!exact.ok()) {
      std::fprintf(stderr, "  exact reference failed: %s\n",
                   exact.status().ToString().c_str());
      continue;
    }

    for (Index r : ranks) {
      core::CsrPlusOptions plus_options;
      plus_options.rank = r;
      plus_options.damping = config.damping;
      plus_options.epsilon = 1e-8;
      auto plus = core::CsrPlusEngine::PrecomputeFromTransition(
          workload->transition, plus_options);
      if (!plus.ok()) {
        table.AddRow({workload->key, std::to_string(r), "FAIL", "-", "-"});
        continue;
      }
      auto plus_scores = plus->MultiSourceQuery(workload->queries);
      CSR_CHECK_OK(plus_scores.status());
      const double plus_avgdiff = eval::AvgDiff(*plus_scores, *exact);

      // NI must invert the r^2 x r^2 Lambda: beyond r ~ 50 that alone is
      // O(r^6) = 1e12+ flops and a multi-GiB matrix — the regime where the
      // paper reports NI not surviving.
      if (r > 50) {
        table.AddRow({workload->key, std::to_string(r),
                      eval::FormatSci(plus_avgdiff), "DNF(r^6 inverse)", "-"});
        continue;
      }
      baselines::NiSimOptions ni_options;
      ni_options.rank = r;
      ni_options.damping = config.damping;
      ni_options.fidelity = baselines::NiFidelity::kMixedProduct;
      auto ni = baselines::NiSimEngine::Precompute(workload->transition,
                                                   ni_options);
      std::string ni_cell = "FAIL";
      std::string agreement_cell = "-";
      if (ni.ok()) {
        auto ni_scores = ni->MultiSourceQuery(workload->queries);
        if (ni_scores.ok()) {
          ni_cell = eval::FormatSci(eval::AvgDiff(*ni_scores, *exact));
          agreement_cell =
              eval::FormatSci(eval::MaxDiff(*plus_scores, *ni_scores));
        }
      } else if (ni.status().IsNumericalError()) {
        ni_cell = "FAIL(sigma~0)";
      }
      table.AddRow({workload->key, std::to_string(r),
                    eval::FormatSci(plus_avgdiff), ni_cell, agreement_cell});
    }

    // --- float32 serving tier vs the double engine -------------------------
    for (Index r : ranks) {
      core::CsrPlusOptions tier_options;
      tier_options.rank = r;
      tier_options.damping = config.damping;
      tier_options.epsilon = 1e-8;
      auto f64_engine = core::CsrPlusEngine::PrecomputeFromTransition(
          workload->transition, tier_options);
      if (!f64_engine.ok()) {
        f32_table.AddRow({workload->key, std::to_string(r), "FAIL", "-"});
        continue;
      }
      tier_options.precision = core::Precision::kF32;
      auto f32_engine = core::CsrPlusEngine::PrecomputeFromTransition(
          workload->transition, tier_options);
      CSR_CHECK_OK(f32_engine.status());
      auto f64_scores = f64_engine->MultiSourceQuery(workload->queries);
      auto f32_scores = f32_engine->MultiSourceQuery(workload->queries);
      CSR_CHECK_OK(f64_scores.status());
      CSR_CHECK_OK(f32_scores.status());
      const double max_diff = eval::MaxDiff(*f32_scores, *f64_scores);
      double min_overlap = 1.0;
      for (Index j = 0; j < static_cast<Index>(workload->queries.size());
           ++j) {
        min_overlap = std::min(
            min_overlap, eval::TopKOverlap(*f32_scores, *f64_scores, j, 10));
      }
      const std::string cell = workload->key + " r=" + std::to_string(r);
      gates.AtMost("f32 MaxDiff", max_diff, 1e-4, cell);
      gates.AtLeast("f32 top-10 overlap", min_overlap, 0.99, cell);
      f32_table.AddRow({workload->key, std::to_string(r),
                        eval::FormatSci(max_diff),
                        StrPrintf("%.3f", min_overlap)});
    }

    // --- RP-CoSim advertised error bound vs measured error -----------------
    for (Index d : {Index{50}, Index{200}}) {
      baselines::RpCoSimOptions rp_options;
      rp_options.damping = config.damping;
      rp_options.num_samples = d;
      baselines::RpCosimEngine rp_engine(&workload->transition, rp_options);
      CSR_CHECK_OK(rp_engine.PrecomputeSketch());
      auto rp_scores = rp_engine.MultiSourceQuery(workload->queries);
      CSR_CHECK_OK(rp_scores.status());
      const double rp_avgdiff = eval::AvgDiff(*rp_scores, *exact);
      const double bound = rp_engine.Accuracy().error_bound;
      gates.AtMost("RP-CoSim AvgDiff", rp_avgdiff, bound,
                   workload->key + " d=" + std::to_string(d));
      rp_table.AddRow({workload->key, std::to_string(d),
                       eval::FormatSci(rp_avgdiff), eval::FormatSci(bound)});
    }
  }
  std::printf("\n");
  table.Print();
  std::printf("\nexpected: AvgDiff decreases mildly with r; the last column "
              "(CSR+ vs NI) is ~1e-12 wherever NI survives.\n");

  std::printf("\nfloat32 serving tier:\n\n");
  f32_table.Print();
  std::printf("\nRP-CoSim approximate tier (bound: the advertised "
              "AccuracyTag error bound):\n\n");
  rp_table.Print();
  std::printf("\n");
  return gates.Finish();
}
