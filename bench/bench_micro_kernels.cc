// Micro-benchmarks (google-benchmark) for the kernels every algorithm in
// this repository is built from: SpMV/SpMM on the transition matrix, thin
// QR, truncated SVD, the r x r repeated-squaring loop, and the CSR+ query.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "csrplus.h"

namespace {

using namespace csrplus;
using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

CsrMatrix MakeTransition(Index n, Index avg_degree) {
  auto g = graph::ErdosRenyi(n, n * avg_degree, /*seed=*/1234);
  CSR_CHECK_OK(g.status());
  return graph::ColumnNormalizedTransition(*g);
}

void BM_SpMV(benchmark::State& state) {
  const Index n = state.range(0);
  const CsrMatrix q = MakeTransition(n, 8);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  for (auto _ : state) {
    auto y = q.Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * q.nnz());
}
BENCHMARK(BM_SpMV)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_SpMVTranspose(benchmark::State& state) {
  const Index n = state.range(0);
  const CsrMatrix q = MakeTransition(n, 8);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  for (auto _ : state) {
    auto y = q.MultiplyTranspose(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * q.nnz());
}
BENCHMARK(BM_SpMVTranspose)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_SpMMDense(benchmark::State& state) {
  const Index n = state.range(0);
  const Index cols = state.range(1);
  const int threads = static_cast<int>(state.range(2));
  const CsrMatrix q = MakeTransition(n, 8);
  DenseMatrix b(n, cols);
  for (Index i = 0; i < b.size(); ++i) b.data()[i] = 0.5;
  const int prev = GetNumThreads();
  SetNumThreads(threads);
  for (auto _ : state) {
    DenseMatrix c = q.MultiplyDense(b);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(prev);
  state.SetItemsProcessed(state.iterations() * q.nnz() * cols);
}
BENCHMARK(BM_SpMMDense)
    ->Args({1 << 14, 8, 1})
    ->Args({1 << 14, 32, 1})
    ->Args({1 << 16, 8, 1})
    ->Args({1 << 16, 8, 2})
    ->Args({1 << 16, 8, 4});

void BM_GemmDense(benchmark::State& state) {
  const Index m = state.range(0);
  const Index k = state.range(1);
  const int threads = static_cast<int>(state.range(2));
  Rng rng(5);
  DenseMatrix a(m, k);
  DenseMatrix b(k, k);
  for (Index i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (Index i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
  const int prev = GetNumThreads();
  SetNumThreads(threads);
  for (auto _ : state) {
    DenseMatrix c = linalg::Gemm(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(prev);
  state.SetItemsProcessed(state.iterations() * m * k * k);
}
BENCHMARK(BM_GemmDense)
    ->Args({1 << 14, 64, 1})
    ->Args({1 << 14, 64, 2})
    ->Args({1 << 14, 64, 4});

void BM_HouseholderQr(benchmark::State& state) {
  const Index n = state.range(0);
  const Index k = state.range(1);
  Rng rng(7);
  DenseMatrix a(n, k);
  for (Index i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (auto _ : state) {
    auto qr = linalg::HouseholderQr(a);
    benchmark::DoNotOptimize(qr->q.data());
  }
}
BENCHMARK(BM_HouseholderQr)->Args({1 << 14, 8})->Args({1 << 14, 32})
    ->Args({1 << 16, 16});

void BM_TruncatedSvd(benchmark::State& state) {
  const Index n = state.range(0);
  const Index rank = state.range(1);
  const bool lanczos = state.range(2) != 0;
  const CsrMatrix q = MakeTransition(n, 8);
  svd::SvdOptions options;
  options.rank = rank;
  options.algorithm =
      lanczos ? svd::SvdAlgorithm::kLanczos : svd::SvdAlgorithm::kRandomized;
  for (auto _ : state) {
    auto factors = svd::ComputeTruncatedSvd(q, options);
    benchmark::DoNotOptimize(factors->sigma.data());
  }
}
BENCHMARK(BM_TruncatedSvd)
    ->Args({1 << 13, 5, 0})
    ->Args({1 << 13, 5, 1})
    ->Args({1 << 15, 5, 0})
    ->Args({1 << 13, 20, 0});

void BM_RepeatedSquaringSubspace(benchmark::State& state) {
  // The r x r P-iteration (Algorithm 1 lines 4-5) in isolation.
  const Index r = state.range(0);
  Rng rng(11);
  DenseMatrix h(r, r);
  for (Index i = 0; i < h.size(); ++i) h.data()[i] = 0.3 * rng.Gaussian();
  const int max_k = core::RepeatedSquaringIterations(0.6, 1e-5);
  for (auto _ : state) {
    DenseMatrix hk = h;
    DenseMatrix p = DenseMatrix::Identity(r);
    double c_pow = 0.6;
    for (int k = 0; k <= max_k; ++k) {
      DenseMatrix hp = linalg::Gemm(hk, p);
      DenseMatrix hpht = linalg::Gemm(hp, hk, linalg::Transpose::kNo,
                                      linalg::Transpose::kYes);
      linalg::AddScaled(c_pow, hpht, &p);
      hk = linalg::Gemm(hk, hk);
      c_pow *= c_pow;
    }
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_RepeatedSquaringSubspace)->Arg(5)->Arg(20)->Arg(100)->Arg(200);

void BM_CsrPlusPrecompute(benchmark::State& state) {
  const Index n = state.range(0);
  auto g = graph::ErdosRenyi(n, n * 8, 1234);
  CSR_CHECK_OK(g.status());
  core::CsrPlusOptions options;
  options.rank = 5;
  for (auto _ : state) {
    auto engine = core::CsrPlusEngine::Precompute(*g, options);
    benchmark::DoNotOptimize(engine->z().data());
  }
}
BENCHMARK(BM_CsrPlusPrecompute)->Arg(1 << 13)->Arg(1 << 15);

void BM_CsrPlusQuery(benchmark::State& state) {
  const Index n = state.range(0);
  const Index num_queries = state.range(1);
  auto g = graph::ErdosRenyi(n, n * 8, 1234);
  CSR_CHECK_OK(g.status());
  core::CsrPlusOptions options;
  options.rank = 5;
  auto engine = core::CsrPlusEngine::Precompute(*g, options);
  CSR_CHECK_OK(engine.status());
  auto queries = eval::SampleQueries(*g, num_queries, 3);
  for (auto _ : state) {
    auto scores = engine->MultiSourceQuery(queries);
    benchmark::DoNotOptimize(scores->data());
  }
  state.SetItemsProcessed(state.iterations() * n * num_queries);
}
BENCHMARK(BM_CsrPlusQuery)->Args({1 << 15, 100})->Args({1 << 15, 700})
    ->Args({1 << 17, 100});

// --- Observability overhead -----------------------------------------------
//
// The same kernels with metric recording toggled at runtime (arg 0 = off,
// 1 = on). Benchmark names are identical in the default and the
// -DCSRPLUS_OBS_DISABLED=ON build, so tools/check_microbench.py can
// compare the two builds' JSON output and fail CI if the instrumented
// query is more than 5% slower than the compiled-out one. Both variants
// run single-threaded: the hooks under test cost the same per call either
// way, and thread-pool scheduling jitter on shared CI runners would
// otherwise swamp the 5% budget with noise unrelated to observability.

void BM_SpMMDenseObs(benchmark::State& state) {
  const Index n = state.range(0);
  const Index cols = state.range(1);
  const bool metrics = state.range(2) != 0;
  const CsrMatrix q = MakeTransition(n, 8);
  DenseMatrix b(n, cols);
  for (Index i = 0; i < b.size(); ++i) b.data()[i] = 0.5;
  // The Into variant reuses a preallocated output: per-iteration 1 MB
  // allocations would make the timing hostage to glibc's adaptive mmap
  // threshold, which shifts with unrelated allocation history and would
  // masquerade as cross-build overhead.
  DenseMatrix c(q.cols(), cols);
  const int prev_threads = GetNumThreads();
  SetNumThreads(1);
  const bool prev = obs::MetricsEnabled();
  obs::SetMetricsEnabled(metrics);
  for (auto _ : state) {
    q.MultiplyTransposeDenseInto(b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  obs::SetMetricsEnabled(prev);
  SetNumThreads(prev_threads);
  state.SetItemsProcessed(state.iterations() * q.nnz() * cols);
}
// Cache-resident shapes only: they have the highest hook-to-work ratio
// (most sensitive to an accidentally hot hook) and, unlike L3-spilling
// sizes, are not hostage to co-tenant cache pressure on shared runners.
BENCHMARK(BM_SpMMDenseObs)
    ->Args({1 << 13, 8, 0})
    ->Args({1 << 13, 8, 1})
    ->Args({1 << 14, 8, 0})
    ->Args({1 << 14, 8, 1});

void BM_CsrPlusQueryObs(benchmark::State& state) {
  // RMAT graph: the skewed-degree shape of the paper's web graphs, scaled
  // down for CI; the per-query work is identical to BM_CsrPlusQuery.
  const int scale = static_cast<int>(state.range(0));
  const Index num_queries = state.range(1);
  const bool metrics = state.range(2) != 0;
  auto g = graph::Rmat(scale, (int64_t{1} << scale) * 8, 1234);
  CSR_CHECK_OK(g.status());
  core::CsrPlusOptions options;
  options.rank = 5;
  auto engine = core::CsrPlusEngine::Precompute(*g, options);
  CSR_CHECK_OK(engine.status());
  auto queries = eval::SampleQueries(*g, num_queries, 3);
  const int prev_threads = GetNumThreads();
  SetNumThreads(1);
  const bool prev = obs::MetricsEnabled();
  obs::SetMetricsEnabled(metrics);
  for (auto _ : state) {
    auto scores = engine->MultiSourceQuery(queries);
    benchmark::DoNotOptimize(scores->data());
  }
  obs::SetMetricsEnabled(prev);
  SetNumThreads(prev_threads);
  state.SetItemsProcessed(state.iterations() * g->num_nodes() * num_queries);
}
BENCHMARK(BM_CsrPlusQueryObs)
    ->Args({14, 100, 0})
    ->Args({14, 100, 1})
    ->Args({15, 400, 0})
    ->Args({15, 400, 1});

// --- Kernel ISA dispatch ---------------------------------------------------
//
// Single-thread benchmarks of the dispatch-table kernels on the CSR+ query
// shapes, registered dynamically (one per precision per ISA this binary and
// CPU can run) as BM_QueryGemm/<isa>/<f64|f32> and
// BM_QueryDotRows/<isa>/<f64|f32>, each reporting a FLOPS rate counter
// (read it as GFLOP/s). tools/check_microbench.py gates the serving
// claim in CI: the dispatched SIMD f32 GEMM must be >= 2x the portable f64
// baseline on the same shape.

template <typename T>
void BM_QueryGemm(benchmark::State& state,
                  const linalg::kernels::KernelTable<T>* kt) {
  // The multi-source query block: Z (n x r) times [U]_{Q,*}^T (r x |Q|),
  // at the paper's largest rank.
  const Index n = 1 << 14, r = 200, nq = 64;
  Rng rng(3);
  std::vector<T> a(static_cast<std::size_t>(n * r));
  std::vector<T> b(static_cast<std::size_t>(r * nq));
  std::vector<T> c(static_cast<std::size_t>(n * nq));
  for (auto& v : a) v = static_cast<T>(rng.Gaussian());
  for (auto& v : b) v = static_cast<T>(rng.Gaussian());
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), T(0));
    linalg::kernels::GemmNnTiled(*kt, a.data(), r, b.data(), nq, c.data(), nq,
                                 n, r, nq);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * r * nq,
      benchmark::Counter::kIsRate);
}

template <typename T>
void BM_QueryDotRows(benchmark::State& state,
                     const linalg::kernels::KernelTable<T>* kt) {
  // The MatVec row-dot kernel: every row of an n x r matrix dotted with
  // one r-vector (the shape of one Z row-block against one U query row).
  const Index n = 1 << 16, r = 200;
  Rng rng(5);
  std::vector<T> z(static_cast<std::size_t>(n * r));
  std::vector<T> u(static_cast<std::size_t>(r));
  std::vector<T> y(static_cast<std::size_t>(n));
  for (auto& v : z) v = static_cast<T>(rng.Gaussian());
  for (auto& v : u) v = static_cast<T>(rng.Gaussian());
  for (auto _ : state) {
    kt->dot_rows(z.data(), r, u.data(), y.data(), n, r);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * r,
      benchmark::Counter::kIsRate);
}

void RegisterKernelIsaBenchmarks() {
  namespace kernels = csrplus::linalg::kernels;
  for (kernels::Isa isa : kernels::SupportedIsas()) {
    const std::string tag(kernels::IsaName(isa));
    benchmark::RegisterBenchmark(("BM_QueryGemm/" + tag + "/f64").c_str(),
                                 BM_QueryGemm<double>, kernels::TableF64(isa));
    benchmark::RegisterBenchmark(("BM_QueryGemm/" + tag + "/f32").c_str(),
                                 BM_QueryGemm<float>, kernels::TableF32(isa));
    benchmark::RegisterBenchmark(("BM_QueryDotRows/" + tag + "/f64").c_str(),
                                 BM_QueryDotRows<double>,
                                 kernels::TableF64(isa));
    benchmark::RegisterBenchmark(("BM_QueryDotRows/" + tag + "/f32").c_str(),
                                 BM_QueryDotRows<float>,
                                 kernels::TableF32(isa));
  }
}

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): the kernel ISA benchmarks only
// exist for the ISAs this machine can execute, so they must be registered
// at runtime. All statically BENCHMARK()-ed names above are unaffected —
// the obs-overhead CI gate keys on them staying identical across builds.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RegisterKernelIsaBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
