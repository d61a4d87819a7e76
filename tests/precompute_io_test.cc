// Round-trip properties of the precompute artifact format: save -> load
// must be bit-identical at the state *and* the query level, across graph
// shapes, ranks, damping factors and thread counts — plus the checked-in
// golden artifact that pins format version 1 forever (any layout change
// must consciously bump kFormatVersion and keep a v1 loader).

#include "core/precompute_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/csrplus_engine.h"
#include "graph/generators/generators.h"
#include "graph/io.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::QueryColumn;
using csrplus::testing::ScopedNumThreads;
using csrplus::testing::TopKPerQuery;

class PrecomputeIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("csrplus_precompute_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::filesystem::path dir_;
};

// The three graph shapes of the sweep: near-uniform sparse (ER), power-law
// in-degree (BA), small-world lattice (WS) — matching the generator families
// the benchmark datasets are built from.
std::vector<graph::Graph> SweepGraphs() {
  std::vector<graph::Graph> graphs;
  graphs.push_back(*graph::ErdosRenyi(200, 1400, 0xA1));
  graphs.push_back(*graph::BarabasiAlbert(160, 4, 0xA2));
  graphs.push_back(*graph::WattsStrogatz(120, 6, 0.15, 0xA3));
  return graphs;
}

void ExpectEnginesBitIdentical(const CsrPlusEngine& a, const CsrPlusEngine& b) {
  EXPECT_TRUE(a.u() == b.u());
  EXPECT_TRUE(a.v() == b.v());
  EXPECT_TRUE(a.z() == b.z());
  EXPECT_TRUE(a.p() == b.p());
  EXPECT_EQ(a.sigma(), b.sigma());
  EXPECT_EQ(a.damping(), b.damping());
  EXPECT_EQ(a.epsilon(), b.epsilon());
  EXPECT_TRUE(a.fingerprint() == b.fingerprint());
}

// Queries must match bit for bit, not just to rounding: the loaded state is
// byte-identical and the query kernels are width-deterministic.
void ExpectQueriesBitIdentical(const CsrPlusEngine& a, const CsrPlusEngine& b,
                               const std::vector<Index>& queries) {
  auto block_a = a.MultiSourceQuery(queries);
  auto block_b = b.MultiSourceQuery(queries);
  ASSERT_TRUE(block_a.ok() && block_b.ok());
  EXPECT_TRUE(*block_a == *block_b);

  for (Index q : queries) {
    auto col_a = QueryColumn(a, q);
    auto col_b = QueryColumn(b, q);
    ASSERT_TRUE(col_a.ok() && col_b.ok());
    EXPECT_EQ(*col_a, *col_b) << "query " << q;
  }
}

TEST_F(PrecomputeIoTest, RoundTripSweepIsBitIdentical) {
  ScopedNumThreads ambient(2);
  int case_id = 0;
  for (const graph::Graph& g : SweepGraphs()) {
    const std::vector<Index> queries = {0, g.num_nodes() / 2,
                                        g.num_nodes() - 1};
    for (const auto& [rank, damping] :
         std::vector<std::pair<Index, double>>{{4, 0.6}, {9, 0.8}}) {
      CsrPlusOptions options;
      options.rank = rank;
      options.damping = damping;
      auto engine = CsrPlusEngine::Precompute(g, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      ASSERT_FALSE(engine->fingerprint().empty());

      const std::string path = Path("rt" + std::to_string(case_id++) + ".cspc");
      ASSERT_TRUE(engine->SavePrecompute(path).ok());
      auto loaded = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

      ExpectEnginesBitIdentical(*engine, *loaded);
      ExpectQueriesBitIdentical(*engine, *loaded, queries);

      // The mapped tier serves the same bytes through views; every result
      // must still be bit-identical to the in-memory engine's.
      LoadOptions mapped_options;
      mapped_options.mode = LoadMode::kMapped;
      auto mapped = CsrPlusEngine::LoadPrecompute(path, mapped_options);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      EXPECT_TRUE(mapped->is_mapped());
      ExpectEnginesBitIdentical(*engine, *mapped);
      ExpectQueriesBitIdentical(*engine, *mapped, queries);
      EXPECT_TRUE(mapped->VerifyMappedSections().ok());
    }
  }
}

TEST_F(PrecomputeIoTest, ArtifactWrittenUnderTThreadsServesUnderOtherWidths) {
  ScopedNumThreads ambient(1);
  const graph::Graph g = *graph::ErdosRenyi(300, 2400, 0xB7);
  const std::vector<Index> queries = {3, 150, 299};
  for (const auto& [write_threads, serve_threads] :
       std::vector<std::pair<int, int>>{{1, 8}, {8, 1}, {2, 8}}) {
    CsrPlusOptions options;
    options.rank = 6;
    options.num_threads = write_threads;
    auto writer = CsrPlusEngine::Precompute(g, options);
    ASSERT_TRUE(writer.ok());
    const std::string path =
        Path("t" + std::to_string(write_threads) + ".cspc");
    ASSERT_TRUE(writer->SavePrecompute(path).ok());

    SetNumThreads(serve_threads);
    auto served = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectEnginesBitIdentical(*writer, *served);
    // Same serving width for both engines: results must be bit-equal.
    ExpectQueriesBitIdentical(*writer, *served, queries);
    auto topk_w = TopKPerQuery(*writer, queries, 7);
    auto topk_s = TopKPerQuery(*served, queries, 7);
    ASSERT_TRUE(topk_w.ok() && topk_s.ok());
    EXPECT_EQ(*topk_w, *topk_s);
    SetNumThreads(1);
  }
}

TEST_F(PrecomputeIoTest, SaveIsDeterministicAndStableThroughReload) {
  const graph::Graph g = *graph::BarabasiAlbert(90, 3, 0xC4);
  CsrPlusOptions options;
  options.rank = 5;
  auto engine = CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->SavePrecompute(Path("a.cspc")).ok());
  ASSERT_TRUE(engine->SavePrecompute(Path("b.cspc")).ok());
  EXPECT_EQ(ReadFileBytes(Path("a.cspc")), ReadFileBytes(Path("b.cspc")));

  // Saving a *loaded* engine reproduces the original file byte for byte.
  auto loaded = CsrPlusEngine::LoadPrecompute(Path("a.cspc"), LoadOptions{});
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->SavePrecompute(Path("c.cspc")).ok());
  EXPECT_EQ(ReadFileBytes(Path("a.cspc")), ReadFileBytes(Path("c.cspc")));

  // A *mapped* engine saves through the same view-based writer, so the
  // round trip holds without ever materialising the factors on the heap.
  LoadOptions mapped_options;
  mapped_options.mode = LoadMode::kMapped;
  auto mapped = CsrPlusEngine::LoadPrecompute(Path("a.cspc"), mapped_options);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped->SavePrecompute(Path("d.cspc")).ok());
  EXPECT_EQ(ReadFileBytes(Path("a.cspc")), ReadFileBytes(Path("d.cspc")));
}

TEST_F(PrecomputeIoTest, FingerprintGuardAcceptsSameGraphRejectsOthers) {
  const graph::Graph g = *graph::ErdosRenyi(80, 500, 0xD1);
  CsrPlusOptions options;
  options.rank = 4;
  auto engine = CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->SavePrecompute(Path("fp.cspc")).ok());

  const GraphFingerprint same =
      FingerprintTransition(graph::ColumnNormalizedTransition(g));
  EXPECT_TRUE(same == engine->fingerprint());
  LoadOptions match;
  match.expected_fingerprint = same;
  EXPECT_TRUE(CsrPlusEngine::LoadPrecompute(Path("fp.cspc"), match).ok());

  const graph::Graph other = *graph::ErdosRenyi(80, 500, 0xD2);
  LoadOptions mismatch;
  mismatch.expected_fingerprint =
      FingerprintTransition(graph::ColumnNormalizedTransition(other));
  auto rejected = CsrPlusEngine::LoadPrecompute(Path("fp.cspc"), mismatch);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsFailedPrecondition());

  // The fingerprint guard is part of the eager (pre-map-publish) checks, so
  // it rejects identically in mapped mode.
  mismatch.mode = LoadMode::kMapped;
  auto mapped_rejected =
      CsrPlusEngine::LoadPrecompute(Path("fp.cspc"), mismatch);
  ASSERT_FALSE(mapped_rejected.ok());
  EXPECT_TRUE(mapped_rejected.status().IsFailedPrecondition());
}

TEST_F(PrecomputeIoTest, ArtifactInfoReportsHeaderFields) {
  const graph::Graph g = *graph::ErdosRenyi(70, 420, 0xE0);
  CsrPlusOptions options;
  options.rank = 7;
  options.damping = 0.75;
  auto engine = CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->SavePrecompute(Path("info.cspc")).ok());

  auto info = precompute_io::ReadArtifactInfo(Path("info.cspc"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, precompute_io::kFormatVersion);
  EXPECT_EQ(info->rank, 7);
  EXPECT_EQ(info->num_nodes, 70);
  EXPECT_EQ(info->damping, 0.75);
  EXPECT_TRUE(info->fingerprint == engine->fingerprint());
  EXPECT_EQ(info->file_bytes,
            static_cast<int64_t>(ReadFileBytes(Path("info.cspc")).size()));
}

// ---------------------------------------------------------------------------
// Golden artifact: data/karate-golden.cspc was produced by `csrplus
// precompute` from data/karate.csrg (Zachary's karate club, symmetrized) at
// rank 8, c = 0.6. This test must keep passing on every future commit
// without regenerating the file; if it breaks, the on-disk format changed
// and kFormatVersion must be bumped (with a loader kept for v1).
// ---------------------------------------------------------------------------

constexpr char kGoldenGraph[] = CSRPLUS_DATA_DIR "/karate.csrg";
constexpr char kGoldenArtifact[] = CSRPLUS_DATA_DIR "/karate-golden.cspc";

TEST_F(PrecomputeIoTest, GoldenArtifactLoadsAndMatchesItsGraph) {
  auto g = graph::LoadBinary(kGoldenGraph);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 34);

  auto info = precompute_io::ReadArtifactInfo(kGoldenArtifact);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->rank, 8);
  EXPECT_EQ(info->num_nodes, 34);
  EXPECT_EQ(info->damping, 0.6);

  LoadOptions options;
  options.expected_fingerprint =
      FingerprintTransition(graph::ColumnNormalizedTransition(*g));
  auto engine = CsrPlusEngine::LoadPrecompute(kGoldenArtifact, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->rank(), 8);
  EXPECT_EQ(engine->num_nodes(), 34);

  // The v1 golden (unpadded sections) must also load through the mmap
  // path: alignment is a v2 luxury, not a mapped-mode requirement.
  options.mode = LoadMode::kMapped;
  auto mapped = CsrPlusEngine::LoadPrecompute(kGoldenArtifact, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_EQ(mapped->rank(), 8);
  EXPECT_EQ(mapped->num_nodes(), 34);
  EXPECT_TRUE(mapped->VerifyMappedSections().ok());
}

TEST_F(PrecomputeIoTest, GoldenArtifactTopKMatchesRecordedValues) {
  auto engine = CsrPlusEngine::LoadPrecompute(kGoldenArtifact, LoadOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Expected values recorded when the golden was minted (see the note
  // above). Node ranks must match exactly; scores to 1e-9 (query kernels
  // are deterministic — the slack only covers future FP-contraction
  // differences across compilers).
  struct Expected {
    Index query;
    std::vector<Index> nodes;
    std::vector<double> scores;
  };
  const std::vector<Expected> expected = {
      {0,
       {16, 7, 28, 13, 10},
       {0.077137015581498686, 0.046082147673131645, 0.04065443666137656,
        0.037752553203075863, 0.037667239120082255}},
      {33,
       {24, 25, 23, 28, 14},
       {0.055300731017658512, 0.040661598849214706, 0.032289134775548574,
        0.030600541071880333, 0.027789035775189572}},
  };

  for (const Expected& e : expected) {
    auto topk = TopKPerQuery(*engine, {e.query}, 5);
    ASSERT_TRUE(topk.ok());
    ASSERT_EQ((*topk)[0].size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ((*topk)[0][i].node, e.nodes[i])
          << "query " << e.query << " rank " << i;
      EXPECT_NEAR((*topk)[0][i].score, e.scores[i], 1e-9)
          << "query " << e.query << " rank " << i;
    }
  }
}

// Both load modes over the pinned golden artifact must agree bit for bit
// on every query surface — the serving contract behind --artifact-mode=.
TEST_F(PrecomputeIoTest, GoldenArtifactLoadModesAreBitIdentical) {
  auto heap = CsrPlusEngine::LoadPrecompute(kGoldenArtifact, LoadOptions{});
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  LoadOptions mapped_options;
  mapped_options.mode = LoadMode::kMapped;
  auto mapped = CsrPlusEngine::LoadPrecompute(kGoldenArtifact, mapped_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ExpectEnginesBitIdentical(*heap, *mapped);
  const std::vector<Index> queries = {0, 17, 33};
  ExpectQueriesBitIdentical(*heap, *mapped, queries);
  auto topk_heap = TopKPerQuery(*heap, queries, 5);
  auto topk_mapped = TopKPerQuery(*mapped, queries, 5);
  ASSERT_TRUE(topk_heap.ok() && topk_mapped.ok());
  EXPECT_EQ(*topk_heap, *topk_mapped);
}

}  // namespace
}  // namespace csrplus::core
