// Tests for the observability layer (src/obs): metric correctness under
// concurrency, stable histogram boundaries, span nesting, snapshot/trace
// JSON well-formedness, the CSRPLUS_OBS_DISABLED no-op build, and the
// registry-vs-documentation diff that keeps docs/observability.md honest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csrplus.h"
#include "test_util.h"

namespace csrplus {
namespace {

using csrplus::testing::ScopedNumThreads;
using linalg::Index;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader, enough to validate the snapshot
// and trace documents this module emits (objects, arrays, strings with
// escapes, numbers, bools, null). Deliberately local to the test: the
// library itself must not grow a JSON dependency.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            // Escaped control characters only appear for ASCII here; keep
            // the low byte, which is exact for them.
            *out += static_cast<char>(
                std::stoi(std::string(text_.substr(pos_ + 2, 2)), nullptr, 16));
            pos_ += 4;
            break;
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      while (true) {
        std::string key;
        JsonValue value;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume('}')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(']')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return ParseLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return ParseLiteral("null");
    }
    out->kind = JsonValue::kNumber;
    std::size_t consumed = 0;
    try {
      out->number = std::stod(std::string(text_.substr(pos_)), &consumed);
    } catch (...) {
      return false;
    }
    pos_ += consumed;
    return consumed > 0;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Synthetic metrics created by this file use the "csrplus.test." prefix;
// the documentation diff below skips them (they are not part of the ops
// surface).
constexpr char kTestPrefix[] = "csrplus.test.";

#if !defined(CSRPLUS_OBS_DISABLED)

TEST(ObsCounterTest, ConcurrentIncrementsSumExactly) {
  ScopedNumThreads threads(8);
  obs::SetMetricsEnabled(true);
  obs::Counter* counter = obs::StatsRegistry::Global().FindOrCreateCounter(
      "csrplus.test.concurrent_counter", "calls", "obs_test scratch");
  counter->Reset();
  constexpr int64_t kPerShard = 200000;
  constexpr int kShards = 8;
  ParallelForShards(kShards, kShards, [&](int, int64_t begin, int64_t end) {
    for (int64_t s = begin; s < end; ++s) {
      for (int64_t i = 0; i < kPerShard; ++i) counter->Increment();
    }
  });
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kShards) * static_cast<uint64_t>(kPerShard));
}

TEST(ObsCounterTest, MacroCachesAndAccumulates) {
  obs::SetMetricsEnabled(true);
  for (int i = 0; i < 10; ++i) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.test.macro_counter", "calls",
                            "obs_test scratch", 3);
  }
  obs::Counter* counter = obs::StatsRegistry::Global().FindOrCreateCounter(
      "csrplus.test.macro_counter", "calls", "obs_test scratch");
  EXPECT_EQ(counter->value(), 30u);
  // Disabled recording must drop the update entirely.
  obs::SetMetricsEnabled(false);
  CSRPLUS_OBS_COUNTER_ADD("csrplus.test.macro_counter", "calls",
                          "obs_test scratch", 3);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(counter->value(), 30u);
}

TEST(ObsGaugeTest, ConcurrentSetMaxKeepsMaximum) {
  ScopedNumThreads threads(8);
  obs::Gauge* gauge = obs::StatsRegistry::Global().FindOrCreateGauge(
      "csrplus.test.max_gauge", "units", "obs_test scratch");
  gauge->Reset();
  constexpr int64_t kN = 100000;
  ParallelForShards(8, 8, [&](int shard, int64_t, int64_t) {
    for (int64_t i = 0; i < kN; ++i) gauge->SetMax(shard * kN + i);
  });
  EXPECT_EQ(gauge->value(), 7 * kN + (kN - 1));
}

TEST(ObsHistogramTest, BucketBoundariesAreStablePowersOfTwo) {
  using obs::Histogram;
  // Bucket i covers (2^{i-1}, 2^i]; bucket 0 covers [0, 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 3);
  EXPECT_EQ(Histogram::BucketIndex(9), 4);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 47), 47);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 47) + 1),
            Histogram::kNumFiniteBuckets);  // overflow bucket
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kNumFiniteBuckets);
  for (int i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketUpperBound(i), uint64_t{1} << i);
    // Every finite upper bound lands in its own bucket.
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)),
              i == 0 ? 0 : i);
  }

  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(1000);
  h.Record(uint64_t{1} << 50);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 1000 + (uint64_t{1} << 50));
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kNumFiniteBuckets), 1u);
}

TEST(ObsSnapshotTest, JsonParsesAndCoversRegisteredNames) {
  obs::SetMetricsEnabled(true);
  CSRPLUS_OBS_COUNTER_ADD("csrplus.test.snapshot_counter", "calls",
                          "obs_test scratch", 1);
  CSRPLUS_OBS_GAUGE_SET("csrplus.test.snapshot_gauge", "units",
                        "obs_test scratch", -17);
  CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.test.snapshot_hist", "us",
                               "obs_test \"quoted\" help\n", 42);

  const std::string json = obs::StatsRegistry::Global().SnapshotJson();
  JsonValue doc;
  ASSERT_TRUE(JsonReader(json).Parse(&doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::kObject);
  ASSERT_NE(doc.Get("version"), nullptr);
  EXPECT_EQ(doc.Get("version")->number, 1.0);
  ASSERT_NE(doc.Get("uptime_us"), nullptr);
  EXPECT_GT(doc.Get("uptime_us")->number, 0.0);

  std::set<std::string> snapshot_names;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* array = doc.Get(section);
    ASSERT_NE(array, nullptr) << section;
    ASSERT_EQ(array->kind, JsonValue::kArray);
    for (const JsonValue& entry : array->array) {
      const JsonValue* name = entry.Get("name");
      ASSERT_NE(name, nullptr);
      snapshot_names.insert(name->str);
      ASSERT_NE(entry.Get("unit"), nullptr);
      ASSERT_NE(entry.Get("help"), nullptr);
    }
  }
  // The snapshot must contain exactly the registered names.
  const std::vector<std::string> registered =
      obs::StatsRegistry::Global().Names();
  EXPECT_EQ(snapshot_names.size(), registered.size());
  for (const std::string& name : registered) {
    EXPECT_TRUE(snapshot_names.count(name)) << name;
  }

  // Escaped help string round-trips.
  bool found_hist = false;
  for (const JsonValue& entry : doc.Get("histograms")->array) {
    if (entry.Get("name")->str == "csrplus.test.snapshot_hist") {
      found_hist = true;
      EXPECT_EQ(entry.Get("help")->str, "obs_test \"quoted\" help\n");
      EXPECT_GE(entry.Get("count")->number, 1.0);
    }
  }
  EXPECT_TRUE(found_hist);
}

TEST(ObsTraceTest, SpanNestingReconstructsUnderParallelFor) {
  ScopedNumThreads threads(4);
  obs::ClearTraceBuffers();
  obs::SetTracingEnabled(true);
  {
    obs::TraceSpan outer("test_outer");
    outer.AddArg("tag", 7);
    {
      obs::TraceSpan inner("test_inner");
      // Give the span a measurable width so containment checks below are
      // strict even at microsecond resolution.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ParallelForShards(4, 4, [&](int, int64_t, int64_t) {
      obs::TraceSpan shard_span("test_shard");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }
  obs::SetTracingEnabled(false);

  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::DumpTraceJson()).Parse(&doc));
  const JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  int shard_spans = 0;
  for (const JsonValue& e : events->array) {
    const std::string& name = e.Get("name")->str;
    EXPECT_EQ(e.Get("ph")->str, "X");
    if (name == "test_outer") outer = &e;
    if (name == "test_inner") inner = &e;
    if (name == "test_shard") ++shard_spans;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(shard_spans, 4);

  // Parent/child: same thread, depth one deeper, time-contained.
  EXPECT_EQ(outer->Get("tid")->number, inner->Get("tid")->number);
  const JsonValue* outer_args = outer->Get("args");
  const JsonValue* inner_args = inner->Get("args");
  ASSERT_NE(outer_args, nullptr);
  ASSERT_NE(inner_args, nullptr);
  EXPECT_EQ(inner_args->Get("depth")->number,
            outer_args->Get("depth")->number + 1);
  EXPECT_EQ(outer_args->Get("tag")->number, 7.0);
  const double outer_start = outer->Get("ts")->number;
  const double outer_end = outer_start + outer->Get("dur")->number;
  for (const JsonValue& e : events->array) {
    const std::string& name = e.Get("name")->str;
    if (name != "test_inner" && name != "test_shard" && name != "pool_region") {
      continue;
    }
    // Everything issued inside the outer scope is time-contained in it,
    // whichever thread it ran on.
    EXPECT_GE(e.Get("ts")->number, outer_start) << name;
    EXPECT_LE(e.Get("ts")->number + e.Get("dur")->number, outer_end) << name;
  }
}

TEST(ObsTraceTest, DisabledTracingRecordsNothing) {
  obs::ClearTraceBuffers();
  obs::SetTracingEnabled(false);
  { obs::TraceSpan span("test_should_not_appear"); }
  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::DumpTraceJson()).Parse(&doc));
  for (const JsonValue& e : doc.Get("traceEvents")->array) {
    EXPECT_NE(e.Get("name")->str, "test_should_not_appear");
  }
}

#else  // CSRPLUS_OBS_DISABLED

TEST(ObsDisabledTest, HooksCompileToNoOpsAndRegistryStaysEmpty) {
  // The macros must compile (and cost nothing) in the disabled build.
  CSRPLUS_OBS_COUNTER_ADD("csrplus.test.disabled_counter", "calls", "help", 1);
  CSRPLUS_OBS_GAUGE_SET("csrplus.test.disabled_gauge", "units", "help", 1);
  CSRPLUS_OBS_GAUGE_SET_MAX("csrplus.test.disabled_gauge2", "units", "help", 1);
  CSRPLUS_OBS_HISTOGRAM_RECORD("csrplus.test.disabled_hist", "us", "help", 1);
  {
    CSRPLUS_OBS_SCOPED_US("csrplus.test.disabled_scope", "help");
    CSRPLUS_TRACE_SPAN(span, "test_disabled");
    CSRPLUS_TRACE_ARG(span, "k", 1);
  }
  // Registry tenants name their counters at runtime; they must not leak
  // into the disabled build's registry either.
  service::EngineRegistry tenants;
  ASSERT_TRUE(tenants
                  .AddTenant("doc",
                             graph::ColumnNormalizedTransition(
                                 testing::Figure1Graph()),
                             service::TenantOptions{})
                  .ok());
  EXPECT_TRUE(obs::StatsRegistry::Global().Names().empty());

  // The snapshot is still a valid (empty) document.
  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::StatsRegistry::Global().SnapshotJson()).Parse(&doc));
  EXPECT_TRUE(doc.Get("counters")->array.empty());
  EXPECT_TRUE(doc.Get("gauges")->array.empty());
  EXPECT_TRUE(doc.Get("histograms")->array.empty());
}

TEST(ObsDisabledTest, InstrumentedPipelineStillWorks) {
  // End-to-end smoke: the instrumented precompute/query path runs
  // identically with every hook compiled out.
  auto g = testing::Figure1Graph();
  core::CsrPlusOptions options;
  options.rank = 4;
  auto engine = core::CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto scores = engine->MultiSourceQuery({0, 3});
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores->rows(), 6);
  EXPECT_EQ(scores->cols(), 2);
}

#endif  // CSRPLUS_OBS_DISABLED

// ---------------------------------------------------------------------------
// Documentation diff: run a workload that touches every instrumented
// subsystem, then require each registered metric name and span constant to
// appear in docs/observability.md. In the CSRPLUS_OBS_DISABLED build the
// registry is empty and the span check still runs (the taxonomy is part of
// the source either way).

TEST(ObsDocumentationTest, EveryEmittedMetricIsDocumented) {
#if !defined(CSRPLUS_OBS_DISABLED)
  obs::SetMetricsEnabled(true);
#endif
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csrplus_obs_doc_test";
  std::filesystem::create_directories(dir);

  // Touch every instrumented subsystem so its metrics register.
  auto loaded = graph::LoadBinary(CSRPLUS_DATA_DIR "/karate.csrg");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const graph::Graph& g = *loaded;

  core::CsrPlusOptions options;
  options.rank = 8;
  auto engine = core::CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::string artifact = (dir / "doc_test.cspc").string();
  ASSERT_TRUE(engine->SavePrecompute(artifact).ok());
  ASSERT_TRUE(
      core::CsrPlusEngine::LoadPrecompute(artifact, core::LoadOptions{}).ok());
  // Registers the mmap + verify-failure counters.
  core::LoadOptions mapped_options;
  mapped_options.mode = core::LoadMode::kMapped;
  ASSERT_TRUE(
      core::CsrPlusEngine::LoadPrecompute(artifact, mapped_options).ok());
  // Registers the load-failure counter.
  EXPECT_FALSE(core::CsrPlusEngine::LoadPrecompute(
                   (dir / "missing.cspc").string(), core::LoadOptions{})
                   .ok());

  ASSERT_TRUE(engine->MultiSourceQuery({0, 1}).ok());
  ASSERT_TRUE(engine->SinglePairQuery(0, 33).ok());

  baselines::RlsOptions rls_options;
  ASSERT_TRUE(baselines::RlsMultiSource(graph::ColumnNormalizedTransition(g),
                                        {0}, rls_options)
                  .ok());
  baselines::CoSimMateOptions csm_options;
  ASSERT_TRUE(baselines::CoSimMateMultiSource(
                  graph::ColumnNormalizedTransition(g), {0}, csm_options)
                  .ok());
  baselines::RpCoSimOptions rp_options;
  ASSERT_TRUE(baselines::RpCoSimMultiSource(
                  graph::ColumnNormalizedTransition(g), {0}, rp_options)
                  .ok());
  baselines::NiSimOptions ni_options;
  ni_options.rank = 4;
  auto ni = baselines::NiSimEngine::Precompute(
      graph::ColumnNormalizedTransition(g), ni_options);
  ASSERT_TRUE(ni.ok()) << ni.status().ToString();
  ASSERT_TRUE(ni->MultiSourceQuery({0}).ok());
  baselines::IterativeOptions it_options;
  ASSERT_TRUE(baselines::IterativeAllPairsEngine::Precompute(
                  graph::ColumnNormalizedTransition(g), it_options)
                  .ok());

  // Service layer: a batched request (admission, queue, batch, latency
  // metrics) plus a cancelled-or-expired request so the failure counters
  // register too (which of the two fires depends on dispatcher timing;
  // both are documented).
  const auto served =
      std::make_shared<const core::CsrPlusEngine>(std::move(*engine));
  {
    service::QueryService service(served);
    service::QueryRequest request;
    request.queries = {0, 1};
    request.top_k = 3;
    ASSERT_TRUE(service.Query(std::move(request)).status.ok());
    service::QueryRequest doomed;
    doomed.queries = {2};
    doomed.timeout_micros = 1;
    auto ticket = service.Submit(std::move(doomed));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    ticket->Cancel();
    ticket->Wait();
    service.Shutdown();
  }

  // Tiered service: an approximate-quality request plus a best-effort
  // request shed via deadline headroom (deterministic — no queue-depth
  // race), so the approximate side of csrplus.service.tier.*, the shed
  // counter, the tier_route span and the RP-CoSim sketch_us histogram all
  // register.
  {
    const auto tier_transition = graph::ColumnNormalizedTransition(g);
    baselines::RpCoSimOptions tier_rp;
    tier_rp.iterations = 2;
    tier_rp.num_samples = 4;
    baselines::RpCosimEngine approx(&tier_transition, tier_rp);
    ASSERT_TRUE(approx.PrecomputeSketch().ok());
    service::ServiceOptions tier_options;
    tier_options.approximate_engine = &approx;
    tier_options.shed_headroom_micros = uint64_t{1} << 40;
    service::QueryService tiered(served, tier_options);
    service::QueryRequest approx_request;
    approx_request.queries = {0};
    approx_request.quality = service::QualityClass::kApproximate;
    auto approx_response = tiered.Query(std::move(approx_request));
    ASSERT_TRUE(approx_response.status.ok());
    EXPECT_EQ(approx_response.served_tier, service::ServedTier::kApproximate);
    service::QueryRequest shed_request;
    shed_request.queries = {1};
    shed_request.quality = service::QualityClass::kBestEffort;
    shed_request.timeout_micros = 60'000'000;  // far below the headroom
    auto shed_response = tiered.Query(std::move(shed_request));
    ASSERT_TRUE(shed_response.status.ok());
    EXPECT_EQ(shed_response.served_tier, service::ServedTier::kApproximate);
    tiered.Shutdown();
  }

  // Column cache: a miss, a hit, an insert, an LRU eviction, a rejection
  // and an invalidation, so every csrplus.cache.* metric (and the
  // cache_lookup / cache_insert spans) registers.
  {
    cache::ColumnCacheOptions cache_options;
    cache_options.capacity_bytes = 2 * static_cast<int64_t>(sizeof(double));
    cache::ColumnCache cache(cache_options);
    const double value = 1.0;
    std::vector<double> out;
    EXPECT_FALSE(cache.Lookup(1, 0, &out));       // miss
    EXPECT_TRUE(cache.Insert(1, 0, &value, 1));   // insert (+ gauges)
    EXPECT_TRUE(cache.Lookup(1, 0, &out));        // hit
    EXPECT_TRUE(cache.Insert(1, 1, &value, 1));
    EXPECT_TRUE(cache.Insert(1, 2, &value, 1));   // evicts the LRU column
    EXPECT_FALSE(cache.Insert(0, 3, &value, 1));  // rejected: fingerprint 0
    EXPECT_EQ(cache.EvictEngine(1), 2);           // invalidations
  }

  // Socket front end: accept, ping, one top-k query and one rejected
  // submission, so the csrplus.net.* metrics and net_* spans register.
  {
    service::QueryService net_service(served);
    net::ServerOptions server_options;
    server_options.num_workers = 1;
    net::Server server(&net_service, server_options);
    ASSERT_TRUE(server.Start().ok());
    auto client = net::Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->Ping().ok());
    net::WireRequest request;
    request.queries = {0, 1};
    request.top_k = 3;
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok());
    net::WireRequest dup;
    dup.queries = {0, 0};  // duplicate ids: admission fails, reply is a
                           // kInvalidArgument status frame
    auto rejected = client->Call(dup);
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_FALSE(rejected->ok());
    net::WireRequest misrouted;
    misrouted.queries = {0};
    misrouted.graph_id = "ghost";  // single-service mode: NotFound +
                                   // csrplus.net.unknown_graph registers
    auto unknown = client->Call(misrouted);
    ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
    EXPECT_FALSE(unknown->ok());
    server.Shutdown();
    net_service.Shutdown();
  }

  // Multi-graph registry: adding a tenant registers the per-tenant
  // csrplus.tenant.<graph>.* counters; one routed request and one update
  // batch exercise them (and the engine_publishes counter) end to end.
  {
    service::EngineRegistry registry;
    service::TenantOptions tenant_options;
    tenant_options.kind = service::EngineKind::kDynamic;
    tenant_options.config.rank = 4;
    ASSERT_TRUE(registry
                    .AddTenant("doc", graph::ColumnNormalizedTransition(g),
                               tenant_options)
                    .ok());
    service::QueryRequest routed;
    routed.queries = {0};
    ASSERT_TRUE(registry.Route("doc")->Query(std::move(routed)).status.ok());
    const core::EdgeUpdate update = core::EdgeUpdate::Insert(0, 9);
    auto receipt = registry.ApplyUpdates("doc", {&update, 1});
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    registry.Shutdown();
  }

  // Budget paths: one granted, one rejected.
  EXPECT_TRUE(MemoryBudget::Global().TryReserve(1024, "obs_test ok").ok());
  EXPECT_FALSE(MemoryBudget::Global()
                   .TryReserve(int64_t{1} << 62, "obs_test reject")
                   .ok());

  // A pooled region, so the pool's dispatch metrics register too.
  {
    ScopedNumThreads threads(4);
    ParallelForShards(8, 4, [](int, int64_t, int64_t) {});
  }

  std::filesystem::remove_all(dir);

  std::ifstream doc_file(CSRPLUS_DATA_DIR "/../docs/observability.md");
  ASSERT_TRUE(doc_file.good())
      << "docs/observability.md is missing — every runtime metric must be "
         "documented there";
  std::stringstream buffer;
  buffer << doc_file.rdbuf();
  const std::string doc = buffer.str();

  for (const std::string& name : obs::StatsRegistry::Global().Names()) {
    if (name.rfind(kTestPrefix, 0) == 0) continue;  // test-only scratch
    // Per-tenant metrics embed the tenant name; the doc documents them once
    // as the csrplus.tenant.<graph>.* template.
    std::string doc_name = name;
    const std::string tenant_prefix = "csrplus.tenant.";
    if (doc_name.rfind(tenant_prefix, 0) == 0) {
      const std::size_t suffix_dot = doc_name.find('.', tenant_prefix.size());
      ASSERT_NE(suffix_dot, std::string::npos) << name;
      doc_name = tenant_prefix + "<graph>" + doc_name.substr(suffix_dot);
    }
    EXPECT_NE(doc.find("`" + doc_name + "`"), std::string::npos)
        << "metric \"" << name
        << "\" is emitted at runtime but not documented in "
           "docs/observability.md (as `" << doc_name << "`)";
  }
  for (const char* span : {obs::spans::kGraphLoad, obs::spans::kNormalize,
                           obs::spans::kFingerprint, obs::spans::kSvd,
                           obs::spans::kPrecompute,
                           obs::spans::kRepeatedSquaring, obs::spans::kZMemoise,
                           obs::spans::kQuery,
                           obs::spans::kArtifactLoad, obs::spans::kArtifactSave,
                           obs::spans::kPoolRegion, obs::spans::kBaseline,
                           obs::spans::kServiceRequest,
                           obs::spans::kServiceBatch,
                           obs::spans::kTierRoute,
                           obs::spans::kCacheLookup,
                           obs::spans::kCacheInsert, obs::spans::kNetRead,
                           obs::spans::kNetDispatch, obs::spans::kNetWrite}) {
    EXPECT_NE(doc.find("`" + std::string(span) + "`"), std::string::npos)
        << "span \"" << span << "\" is not documented in the span taxonomy";
  }
}

}  // namespace
}  // namespace csrplus
