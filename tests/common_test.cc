// Unit tests for src/common: QuerySet, Rng, Status/Result, Table, stats.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/id_ring.h"
#include "src/common/memory_meter.h"
#include "src/common/query_set.h"
#include "src/common/rng.h"
#include "src/common/spsc_queue.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"

namespace hamlet {
namespace {

TEST(QuerySetTest, InsertContainsErase) {
  QuerySet s;
  EXPECT_TRUE(s.Empty());
  s.Insert(0);
  s.Insert(63);
  s.Insert(64);
  s.Insert(255);
  EXPECT_EQ(s.Count(), 4);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(255));
  EXPECT_FALSE(s.Contains(1));
  s.Erase(63);
  EXPECT_FALSE(s.Contains(63));
  EXPECT_EQ(s.Count(), 3);
}

TEST(QuerySetTest, SetAlgebra) {
  QuerySet a = QuerySet::FirstN(5);           // {0..4}
  QuerySet b;
  b.Insert(3);
  b.Insert(4);
  b.Insert(7);
  EXPECT_EQ(a.Union(b).Count(), 6);
  EXPECT_EQ(a.Intersect(b).Count(), 2);
  EXPECT_EQ(a.Minus(b).Count(), 3);
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(a));
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(b));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(QuerySetTest, ForEachVisitsInOrder) {
  QuerySet s;
  s.Insert(70);
  s.Insert(2);
  s.Insert(130);
  std::vector<QueryId> seen;
  s.ForEach([&](QueryId q) { seen.push_back(q); });
  EXPECT_EQ(seen, (std::vector<QueryId>{2, 70, 130}));
  EXPECT_EQ(s.First(), 2);
  EXPECT_EQ(s.ToString(), "{2,70,130}");
}

TEST(QuerySetTest, SingleAndFirstN) {
  EXPECT_EQ(QuerySet::Single(9).Count(), 1);
  EXPECT_TRUE(QuerySet::Single(9).Contains(9));
  EXPECT_EQ(QuerySet::FirstN(0).Count(), 0);
  EXPECT_EQ(QuerySet::FirstN(100).Count(), 100);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, RangesRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, BurstLengthDistribution) {
  Rng rng(11);
  double total = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.NextBurstLength(0.9, 1000);
  // Mean of 1 + Geometric(0.9) is 10.
  EXPECT_NEAR(total / kSamples, 10.0, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_LE(rng.NextBurstLength(0.99, 7), 7);
}

TEST(RngTest, PoissonMean) {
  Rng rng(13);
  double total = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.NextPoisson(4.0);
  EXPECT_NEAR(total / kSamples, 4.0, 0.15);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad");
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(TableTest, AlignedAndCsv) {
  Table t({"a", "metric"});
  t.AddRow({"1", "2.5"});
  t.AddRow({"1000", "x"});
  std::string aligned = t.ToAligned();
  EXPECT_NE(aligned.find("| a    | metric |"), std::string::npos);
  EXPECT_EQ(t.ToCsv(), "a,metric\n1,2.5\n1000,x\n");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(2.5, 1), "2.5");
  EXPECT_EQ(Table::Num(0.0), "0.000");
  // Very large/small magnitudes switch to scientific notation.
  EXPECT_NE(Table::Num(1e9).find("e"), std::string::npos);
}

TEST(RunningStatsTest, Moments) {
  RunningStats s;
  s.Add(1.0);
  s.Add(3.0);
  s.Add(5.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(PercentilesTest, InterpolatedQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Percentile(50), 50.5, 0.01);
  EXPECT_DOUBLE_EQ(p.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 100.0);
}

TEST(MemoryMeterTest, TracksPeak) {
  MemoryMeter m;
  m.Add(100);
  m.Add(50);
  m.Sub(120);
  EXPECT_EQ(m.current(), 30);
  EXPECT_EQ(m.peak(), 150);
  m.SetCurrent(500);
  EXPECT_EQ(m.peak(), 500);
}

TEST(IdRingTest, IdsGrowAndRetiredSlotsAreReused) {
  IdRing<std::vector<int>> ring;
  EXPECT_TRUE(ring.empty());
  // A live range of 3 ids sliding over 100 ids: the ring never grows past
  // its first size, and a reused slot comes back with its capacity.
  for (int i = 0; i < 100; ++i) {
    const IdRing<std::vector<int>>::Id id = ring.PushBack();
    EXPECT_EQ(id, i);
    std::vector<int>& v = ring[id];
    if (i >= 4) {
      EXPECT_GE(v.capacity(), 8u);  // warmed by id - 4
    }
    v.clear();
    v.reserve(8);
    v.push_back(i);
    if (i >= 2) ring.PopFront();
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.front_id(), 98);
  EXPECT_EQ(ring.next_id(), 100);
  EXPECT_EQ(ring[98].front(), 98);
  EXPECT_EQ(ring[99].front(), 99);
}

TEST(IdRingTest, GrowKeepsLiveRangeInOrder) {
  IdRing<int> ring;
  for (int i = 0; i < 3; ++i) ring[ring.PushBack()] = i;
  ring.PopFront();
  ring.PopFront();  // head has wrapped past slot 0
  for (int i = 3; i < 20; ++i) ring[ring.PushBack()] = i;
  EXPECT_EQ(ring.capacity(), 32u);
  for (int id = ring.front_id(); id < ring.next_id(); ++id)
    EXPECT_EQ(ring[id], id);
}

TEST(SpscQueueTest, PushPopFifoAndCapacity) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.ApproxSize(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(std::move(i)));
  EXPECT_EQ(q.ApproxSize(), 4u);
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow, 99);  // left intact for retry
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    EXPECT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  int out;
  EXPECT_FALSE(q.TryPop(&out));
}

// Regression: TryPop used to leave the moved-from payload in its ring slot,
// so up to `capacity` popped heap-backed buffers (the sharded runtime's
// event batches) stayed alive inside the queue — retained memory invisible
// to the memory meter. A popped slot must release its payload immediately.
TEST(SpscQueueTest, PopReleasesSlotPayload) {
  SpscQueue<std::shared_ptr<int>> q(8);
  const size_t cap = q.capacity();
  std::vector<std::shared_ptr<int>> payloads;
  // Several laps around the ring so every slot has held a payload.
  for (size_t lap = 0; lap < 3; ++lap) {
    for (size_t i = 0; i < cap; ++i) {
      auto p = std::make_shared<int>(static_cast<int>(i));
      payloads.push_back(p);
      ASSERT_TRUE(q.TryPush(std::move(p)));
    }
    for (size_t i = 0; i < cap; ++i) {
      std::shared_ptr<int> out;
      ASSERT_TRUE(q.TryPop(&out));
      ASSERT_NE(out, nullptr);
      out.reset();
    }
  }
  // The queue is empty and every pop consumer released its copy: nothing
  // may still co-own the payloads. Pre-fix, the last `cap` pushes were
  // still referenced by their ring slots (use_count 2).
  for (const auto& p : payloads) {
    EXPECT_EQ(p.use_count(), 1) << "ring slot retains a popped payload";
  }
}

}  // namespace
}  // namespace hamlet
