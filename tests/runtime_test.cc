// StreamExecutor tests: pane management, tumbling/sliding windows, group-by
// partitioning, and cross-engine agreement. The reference is the brute-force
// enumerator applied per (query, group, window instance).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/stream/stream_builder.h"
#include "tests/brute_reference.h"

namespace hamlet {
namespace {

using test::BruteReference;
using test::ExpectEmissionsMatch;

class RuntimeFixture : public ::testing::Test {
 protected:
  void Add(const std::string& text) {
    Query q = ParseQuery(text).value();
    ASSERT_TRUE(workload_.Add(q).ok());
  }
  WorkloadPlan Analyze() {
    Result<WorkloadPlan> plan = AnalyzeWorkload(workload_);
    HAMLET_CHECK(plan.ok());
    return std::move(plan).value();
  }
  // Random stream: timestamps 1ms apart starting at 1, types from alphabet,
  // attrs: v (0), g (1) in [0, groups).
  EventVector RandomStream(Rng& rng, int len,
                           const std::vector<const char*>& alphabet,
                           int groups, Timestamp spacing = 1) {
    EventVector ev;
    Timestamp t = 1;
    for (int i = 0; i < len; ++i) {
      Event e(t, schema_.AddType(alphabet[rng.NextBelow(alphabet.size())]));
      e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
      e.set_attr(1, static_cast<double>(rng.NextInt(0, groups - 1)));
      ev.push_back(e);
      t += 1 + static_cast<Timestamp>(rng.NextBelow(
               static_cast<uint64_t>(spacing)));
    }
    return ev;
  }
  Schema schema_;
  Workload workload_{&schema_};
};

TEST_F(RuntimeFixture, TumblingWindowsAllEngines) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 40 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 40 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(2024);
  EventVector ev = RandomStream(rng, 60, {"A", "B", "C"}, 1, 3);
  auto ref = BruteReference(plan, ev);
  for (EngineKind kind :
       {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
        EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
        EngineKind::kGretaPrefix, EngineKind::kTwoStep, EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    RunOutput run = executor.Run(ev);
    ExpectEmissionsMatch(run.emissions, ref, EngineKindName(kind));
    EXPECT_EQ(run.metrics.events, 60);
    EXPECT_GT(run.metrics.throughput_eps, 0);
  }
}

TEST_F(RuntimeFixture, SlidingWindowsReplicateCorrectly) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 30 ms SLIDE 10 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 30 ms SLIDE 10 ms");
  WorkloadPlan plan = Analyze();
  EXPECT_EQ(plan.pane_size, 10);
  Rng rng(7);
  EventVector ev = RandomStream(rng, 50, {"A", "B", "C"}, 1, 3);
  auto ref = BruteReference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kGretaGraph,
                          EngineKind::kTwoStep}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    ExpectEmissionsMatch(executor.Run(ev).emissions, ref,
                         EngineKindName(kind));
  }
}

TEST_F(RuntimeFixture, DiverseWindowsShareViaPanes) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  // Different tumbling windows, pane = gcd = 20ms; the HAMLET component
  // still shares B+ across the queries.
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 40 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 60 ms");
  WorkloadPlan plan = Analyze();
  EXPECT_EQ(plan.pane_size, 20);
  ASSERT_EQ(plan.share_groups.size(), 1u);
  Rng rng(99);
  EventVector ev = RandomStream(rng, 80, {"A", "B", "C"}, 1, 3);
  auto ref = BruteReference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
                          EngineKind::kGretaGraph}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    RunOutput run = executor.Run(ev);
    ExpectEmissionsMatch(run.emissions, ref, EngineKindName(kind));
    if (kind == EngineKind::kHamletStatic) {
      EXPECT_GT(run.metrics.hamlet.bursts_shared, 0);
    }
  }
}

TEST_F(RuntimeFixture, GroupByPartitionsStreams) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 50 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) GROUPBY g WITHIN 50 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(31);
  EventVector ev = RandomStream(rng, 90, {"A", "B", "C"}, 3, 2);
  auto ref = BruteReference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kGretaGraph,
                          EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    ExpectEmissionsMatch(executor.Run(ev).emissions, ref,
                         EngineKindName(kind));
  }
}

TEST_F(RuntimeFixture, SumAndAvgAcrossWindows) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN SUM(B.v) PATTERN SEQ(A, B+) WITHIN 30 ms");
  Add("RETURN AVG(B.v) PATTERN SEQ(C, B+) WITHIN 30 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(55);
  EventVector ev = RandomStream(rng, 70, {"A", "B", "C"}, 1, 2);
  auto ref = BruteReference(plan, ev);
  for (EngineKind kind : {EngineKind::kHamletDynamic, EngineKind::kGretaGraph,
                          EngineKind::kTwoStep, EngineKind::kSharon}) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(plan, config);
    ExpectEmissionsMatch(executor.Run(ev).emissions, ref,
                         EngineKindName(kind));
  }
}

TEST_F(RuntimeFixture, OrCompositionAcrossComponents) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A,B+) OR SEQ(C,D+) WITHIN 40 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(66);
  EventVector ev = RandomStream(rng, 60, {"A", "B", "C", "D"}, 1, 2);
  auto ref = BruteReference(plan, ev);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(plan, config);
  ExpectEmissionsMatch(executor.Run(ev).emissions, ref, "or_composition");
}

TEST_F(RuntimeFixture, TwoStepBudgetProducesDnf) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN B+ WITHIN 100 ms");
  WorkloadPlan plan = Analyze();
  StreamBuilder sb(&schema_);
  sb.AddRun(40, "B");  // 2^40 trends: hopeless for construction
  RunConfig config;
  config.kind = EngineKind::kTwoStep;
  config.two_step_budget = 10'000;
  StreamExecutor executor(plan, config);
  RunOutput run = executor.Run(sb.Take());
  EXPECT_GT(run.metrics.dnf_windows, 0);
}

TEST_F(RuntimeFixture, MetricsArePopulated) {
  schema_.AddAttr("v");
  schema_.AddAttr("g");
  Add("RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 50 ms");
  Add("RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 50 ms");
  WorkloadPlan plan = Analyze();
  Rng rng(5);
  EventVector ev = RandomStream(rng, 200, {"A", "B", "C"}, 1, 1);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(plan, config);
  RunOutput run = executor.Run(ev);
  EXPECT_EQ(run.metrics.events, 200);
  EXPECT_GT(run.metrics.emissions, 0);
  EXPECT_GT(run.metrics.peak_memory_bytes, 0);
  EXPECT_GT(run.metrics.decisions, 0);
  EXPECT_GE(run.metrics.avg_latency_seconds, 0);
  EXPECT_GE(run.metrics.max_latency_seconds, run.metrics.avg_latency_seconds);
}

}  // namespace
}  // namespace hamlet
