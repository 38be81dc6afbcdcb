// Run-granular propagation: segmenter unit tests plus the runtime's
// end-to-end contract against an independent oracle. For every engine kind,
// shard count and producer count, each emission must equal the brute-force
// enumerator's value for its (query, group, window) (tests/
// brute_reference.h), and every window holding a relevant event must be
// emitted exactly once. Run dispatch is the runtime's only path to the
// engines, so this matrix covers staging, predicate kernels, segmentation,
// sharding and multi-producer sequencing together.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/baselines/sharon_engine.h"
#include "src/benchlib/workloads.h"
#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/query/run_segmenter.h"
#include "src/runtime/executor.h"
#include "src/runtime/sharded_session.h"
#include "tests/brute_reference.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

// ---------------------------------------------------------------------------
// SegmentRuns unit tests: hand-built batches and masks, exact span layout.

EventBatch MakeBatch(const std::vector<std::pair<Timestamp, TypeId>>& rows) {
  EventBatch batch(1);
  for (const auto& [time, type] : rows) {
    Event e;
    e.time = time;
    e.type = type;
    e.num_attrs = 1;
    batch.Append(e);
  }
  return batch;
}

SelectionMask MaskOf(const std::vector<uint8_t>& bytes01) {
  SelectionMask m;
  PackMask(bytes01.data(), static_cast<int>(bytes01.size()), &m);
  return m;
}

TEST(RunSegmenter, SplitsOnTypeChange) {
  EventBatch batch = MakeBatch({{1, 5}, {2, 5}, {3, 7}, {4, 7}, {5, 7}});
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(2),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].type, 5);
  EXPECT_EQ(runs[0].row_begin, 0);
  EXPECT_EQ(runs[0].row_end, 2);
  EXPECT_EQ(runs[1].type, 7);
  EXPECT_EQ(runs[1].row_begin, 2);
  EXPECT_EQ(runs[1].row_end, 5);
  EXPECT_EQ(runs[0].passes, QuerySet::FirstN(2));
  EXPECT_EQ(runs[1].passes, QuerySet::FirstN(2));
}

TEST(RunSegmenter, SplitsOnPaneBoundary) {
  EventBatch batch = MakeBatch({{1, 3}, {9, 3}, {10, 3}, {12, 3}});
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/10, QuerySet::FirstN(1),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].row_end, 2);  // times 1, 9 -> pane 0
  EXPECT_EQ(runs[1].row_begin, 2);
  EXPECT_EQ(runs[1].row_end, 4);  // times 10, 12 -> pane 10

  // pane_size <= 0 disables pane splitting: one run.
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(1),
              /*predicated_queries=*/{}, /*masks=*/{}, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].row_begin, 0);
  EXPECT_EQ(runs[0].row_end, 4);
}

TEST(RunSegmenter, SplitsOnPassSetFlipAcrossMaskWords) {
  // 130 same-type rows; query 1's predicate passes rows [0, 65) only, so
  // the flip sits past the first 64-bit mask word — exercising the
  // carry between words in the flip-bitmap build.
  std::vector<std::pair<Timestamp, TypeId>> rows;
  std::vector<uint8_t> bytes01;
  for (int i = 0; i < 130; ++i) {
    rows.push_back({i + 1, 4});
    bytes01.push_back(i < 65 ? 1 : 0);
  }
  EventBatch batch = MakeBatch(rows);
  std::vector<SelectionMask> masks;
  masks.push_back(MaskOf(bytes01));
  std::vector<RunSpan> runs;
  SegmentRuns(batch, batch.size(), /*pane_size=*/0, QuerySet::FirstN(3),
              /*predicated_queries=*/{1}, masks, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].row_begin, 0);
  EXPECT_EQ(runs[0].row_end, 65);
  EXPECT_EQ(runs[0].passes, QuerySet::FirstN(3));
  EXPECT_EQ(runs[1].row_begin, 65);
  EXPECT_EQ(runs[1].row_end, 130);
  QuerySet minus1 = QuerySet::FirstN(3);
  minus1.Erase(1);
  EXPECT_EQ(runs[1].passes, minus1);
}

// ---------------------------------------------------------------------------
// End-to-end matrix against the brute-force reference.

void FeedProducers(ShardedSession* session, const EventVector& ev,
                   int num_producers) {
  std::vector<std::unique_ptr<ShardedSession::Producer>> producers;
  for (int p = 0; p < num_producers; ++p) {
    producers.push_back(session->AddProducer().value());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < num_producers; ++p) {
    threads.emplace_back([&, p] {
      ShardedSession::Producer& producer = *producers[static_cast<size_t>(p)];
      for (size_t i = static_cast<size_t>(p); i < ev.size();
           i += static_cast<size_t>(num_producers)) {
        ASSERT_TRUE(producer.Push(ev[i]).ok());
      }
      if (!ev.empty()) {
        ASSERT_TRUE(producer.AdvanceTo(ev.back().time).ok());
      }
      ASSERT_TRUE(producer.Close().ok());
    });
  }
  for (std::thread& t : threads) t.join();
}

// Runs `ev` through every engine kind x 1/2/4 shards x (chunked session
// PushBatch, 1 producer, 2 producers) and checks each run against the
// brute-force reference (`rel_tol`: see test::ExpectEmissionsMatch).
void CheckAllEnginesAgainstBruteReference(const WorkloadPlan& plan,
                                          const EventVector& ev,
                                          double rel_tol = 0.0) {
  ASSERT_FALSE(ev.empty());
  const test::ReferenceMap ref = test::BruteReference(plan, ev);
  // SHARON emits nothing for patterns it cannot flatten.
  const SharonEngine sharon(plan, QuerySet::FirstN(plan.num_exec()),
                            RunConfig().sharon_max_length);
  for (EngineKind kind : kAllKinds) {
    auto expect_emits = [&](QueryId q) {
      if (kind != EngineKind::kSharon) return true;
      const CompositionRule& rule =
          plan.compositions[static_cast<size_t>(q)];
      for (int exec : rule.exec_ids) {
        if (!sharon.Supported(exec)) return false;
      }
      return true;
    };
    for (int shards : {1, 2, 4}) {
      for (int producers : {0, 1, 2}) {
        const std::string label =
            std::string(EngineKindName(kind)) +
            "/N=" + std::to_string(shards) +
            (producers == 0 ? "/session" : "/P=" + std::to_string(producers));
        SCOPED_TRACE(label);
        RunConfig config;
        config.kind = kind;
        config.num_shards = shards;
        CollectingSink sink;
        Result<std::unique_ptr<ShardedSession>> opened =
            ShardedSession::Open(plan, config, &sink);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        ShardedSession& session = *opened.value();
        if (producers == 0) {
          // Session-level chunked PushBatch: chunk length 48 keeps most
          // bursts whole while still exercising mid-burst chunk seams.
          for (size_t j = 0; j < ev.size(); j += 48) {
            const size_t len = std::min<size_t>(48, ev.size() - j);
            ASSERT_TRUE(
                session.PushBatch(std::span<const Event>(ev.data() + j, len))
                    .ok());
          }
          ASSERT_TRUE(session.AdvanceTo(ev.back().time).ok());
        } else {
          FeedProducers(&session, ev, producers);
        }
        Result<RunMetrics> metrics = session.Close();
        ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
        const std::vector<Emission> emissions = sink.Take();
        test::ExpectEmissionsMatch(emissions, ref, label, rel_tol);
        test::ExpectRelevantWindowsEmitted(emissions, plan, ev, label,
                                           expect_emits);
        EXPECT_EQ(metrics.value().events, static_cast<int64_t>(ev.size()))
            << label;
        EXPECT_EQ(metrics.value().emissions,
                  static_cast<int64_t>(emissions.size()))
            << label;
        EXPECT_EQ(metrics.value().dnf_windows, 0) << label;
        // The log2 run-length histogram partitions exactly the dispatched
        // runs, and every event reaches the engines inside some run.
        int64_t hist_total = 0;
        for (int64_t bucket : metrics.value().run_len_hist)
          hist_total += bucket;
        EXPECT_GT(metrics.value().runs, 0) << label;
        EXPECT_LE(metrics.value().runs, metrics.value().events) << label;
        EXPECT_EQ(hist_total, metrics.value().runs) << label;
      }
    }
  }
}

TEST(RunPropagation, AllEnginesMatchBruteReferenceAcrossShardsAndProducers) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 0xCAFE;
  gen.events_per_minute = 900;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  gen.burstiness = 0.7;  // bursty: real multi-row runs, not length-1 spans
  gen.max_burst = 10;
  CheckAllEnginesAgainstBruteReference(*bw.plan, bw.generator->Generate(gen));
}

// The [driver] equivalence edge predicate on every query: HAMLET's
// equality-keyed shared scan, checked end to end, per engine.
TEST(RunPropagation, EqualityEdgePredicateMatchesBruteReference) {
  BenchWorkload bw = MakeWorkload1("ridesharing", 5,
                                   /*window_ms=*/5 * kMillisPerSecond,
                                   /*with_predicate=*/true);
  GeneratorConfig gen;
  gen.seed = 1234;
  gen.events_per_minute = 500;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  CheckAllEnginesAgainstBruteReference(*bw.plan, bw.generator->Generate(gen));
}

// Selective event predicates that differ per query: the compiled kernels'
// selection bitmaps and the segmenter's pass-set splits decide which rows
// each query sees, so a wrong pass-set shows up as a wrong value.
TEST(RunPropagation, SelectiveEventPredicatesMatchBruteReference) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > 4 GROUPBY g "
        "WITHIN 40 ms",
        "RETURN SUM(B.v) PATTERN SEQ(C, B+) WHERE B.v < 7 GROUPBY g "
        "WITHIN 40 ms",
        "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE A.v >= 3 GROUPBY g "
        "WITHIN 40 ms SLIDE 20 ms"}) {
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  Rng rng(4242);
  EventVector ev;
  Timestamp t = 1;
  const char* alphabet[] = {"A", "B", "B", "C"};
  for (int i = 0; i < 400; ++i) {
    Event e(t, schema.AddType(alphabet[rng.NextBelow(4)]));
    e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
    e.set_attr(1, static_cast<double>(rng.NextInt(0, 2)));
    ev.push_back(e);
    t += 1 + static_cast<Timestamp>(rng.NextBelow(2));
  }
  CheckAllEnginesAgainstBruteReference(plan, ev);
}

// Workload 2: diverse Kleene patterns, windows and aggregates (COUNT/SUM/
// AVG/MAX), event predicates on several types and edge predicates. Kept
// small: the brute-force reference and the two-step baseline both
// enumerate trends, which grow exponentially with Kleene-run length. Its
// SUM windows reach ~1e7 over millions of trends, so values compare to a
// 1e-12 relative tolerance instead of 4 ULPs.
TEST(RunPropagation, DiverseWorkloadMatchesBruteReference) {
  BenchWorkload bw = MakeWorkload2(6);
  GeneratorConfig gen;
  gen.seed = 99;
  gen.events_per_minute = 150;
  gen.duration_minutes = 1;
  gen.num_groups = 4;
  gen.burstiness = 0.5;
  gen.max_burst = 4;
  CheckAllEnginesAgainstBruteReference(*bw.plan, bw.generator->Generate(gen),
                                       /*rel_tol=*/1e-12);
}

}  // namespace
}  // namespace hamlet
