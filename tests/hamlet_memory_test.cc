// HAMLET memory metering.
//
// HamletEngine::MemoryBytes() is a running count charged where capacity is
// acquired or released; SweepMemoryBytes() recomputes the same definition
// by walking every graphlet, node, snapshot column, context slot and
// equality-keyed total. These
// tests pin (1) that the two agree at every pane boundary of the seeded
// session streams, for every sharing policy, and (2) that engine state is
// bounded: a 16x longer stream ends with the same footprint and the same
// number of context slots as a 1x stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>

#include "src/benchlib/workloads.h"
#include "src/common/rng.h"
#include "src/optimizer/policies.h"
#include "src/query/parser.h"
#include "src/runtime/session.h"

namespace hamlet {
namespace {

enum class Share { kNever, kAlways, kDynamic };
constexpr Share kAllShares[] = {Share::kNever, Share::kAlways,
                                Share::kDynamic};

const char* ShareName(Share s) {
  switch (s) {
    case Share::kNever:
      return "never";
    case Share::kAlways:
      return "always";
    case Share::kDynamic:
      return "dynamic";
  }
  return "?";
}

std::unique_ptr<SharingPolicy> MakePolicy(Share s) {
  switch (s) {
    case Share::kNever:
      return std::make_unique<NeverSharePolicy>();
    case Share::kAlways:
      return std::make_unique<AlwaysSharePolicy>();
    case Share::kDynamic:
      return std::make_unique<DynamicBenefitPolicy>();
  }
  return nullptr;
}

/// What one engine went through in ReplayPerGroup.
struct EngineTrace {
  int64_t boundaries = 0;
  int64_t mismatches = 0;  ///< boundaries where meter != sweep
  std::string first_mismatch;
  int max_open = 0;  ///< most contexts open at once
  int slots = 0;     ///< context-slot ring size at the end
};

/// Replays `ev` through one HamletEngine per group key with the runtime's
/// pane lifecycle: at every pane boundary the previous pane ends, windows
/// ending there close, windows starting there open, and the new pane
/// starts. The meter is compared with the sweep after each step.
std::map<int64_t, EngineTrace> ReplayPerGroup(const WorkloadPlan& plan,
                                              const EventVector& ev,
                                              Share share) {
  const AttrId group_by = plan.exec_queries.front().group_by;
  std::map<int64_t, EventVector> groups;
  for (const Event& e : ev) {
    const int64_t key = group_by == Schema::kInvalidId
                            ? 0
                            : static_cast<int64_t>(e.attr(group_by));
    groups[key].push_back(e);
  }
  const Timestamp pane = plan.pane_size;

  std::map<int64_t, EngineTrace> traces;
  for (const auto& [key, events] : groups) {
    std::unique_ptr<SharingPolicy> policy = MakePolicy(share);
    HamletEngine engine(plan, plan.AllExec(), policy.get());
    EngineTrace& trace = traces[key];
    auto check = [&](const char* where, Timestamp b) {
      ++trace.boundaries;
      const int64_t meter = engine.MemoryBytes();
      const int64_t sweep = engine.SweepMemoryBytes();
      if (meter == sweep) return;
      if (trace.mismatches++ == 0) {
        trace.first_mismatch = std::string(where) + " @" + std::to_string(b) +
                               ": meter " + std::to_string(meter) +
                               " sweep " + std::to_string(sweep);
      }
    };
    struct Open {
      ContextId id;
      Timestamp we;
    };
    std::vector<Open> open;
    const Timestamp last = events.back().time;
    size_t next = 0;
    for (Timestamp b = 0; b <= last || !open.empty(); b += pane) {
      if (b > 0) {
        engine.OnPaneEnd();
        check("pane end", b);
      }
      for (size_t i = 0; i < open.size();) {
        if (open[i].we <= b) {
          engine.CloseContext(open[i].id);
          open[i] = open.back();
          open.pop_back();
        } else {
          ++i;
        }
      }
      check("after close", b);
      if (b <= last) {
        for (const ExecQuery& eq : plan.exec_queries) {
          if (b % eq.window.slide != 0) continue;
          open.push_back({engine.OpenContext(eq.exec_id, b,
                                             b + eq.window.within),
                          b + eq.window.within});
        }
      }
      trace.max_open =
          std::max(trace.max_open, static_cast<int>(open.size()));
      engine.OnPaneStart(b);
      check("pane start", b);
      while (next < events.size() && events[next].time < b + pane)
        engine.OnEvent(events[next++]);
    }
    trace.slots = engine.num_context_slots();
  }
  return traces;
}

void ExpectMeterEqualsSweep(const WorkloadPlan& plan, const EventVector& ev,
                            const std::string& label) {
  for (Share share : kAllShares) {
    for (const auto& [key, trace] : ReplayPerGroup(plan, ev, share)) {
      EXPECT_GT(trace.boundaries, 2) << label;
      EXPECT_EQ(trace.mismatches, 0)
          << label << "/" << ShareName(share) << " group " << key << ": "
          << trace.first_mismatch;
    }
  }
}

// The seeded streams of session_test's chunk-equivalence suite.
TEST(MeterEqualsSweep, Workload1) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = 77;
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = 3;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  ExpectMeterEqualsSweep(*bw.plan, bw.generator->Generate(gen), "w1");
}

TEST(MeterEqualsSweep, Workload2) {
  // Sliding 5-20 min windows, equality and range edge predicates, retained
  // history, per-event snapshots: every metered structure moves.
  BenchWorkload bw = MakeWorkload2(8);
  GeneratorConfig gen;
  gen.seed = 5;
  gen.events_per_minute = 100;
  gen.duration_minutes = 6;
  gen.num_groups = 2;
  gen.burstiness = 0.9;
  gen.max_burst = 40;
  ExpectMeterEqualsSweep(*bw.plan, bw.generator->Generate(gen), "w2");
  // The same generator past the 20 min horizon, so retained graphlets age
  // out and recycle (releasing their nodes' payloads).
  gen.duration_minutes = 30;
  ExpectMeterEqualsSweep(*bw.plan, bw.generator->Generate(gen), "w2/30min");
}

// A random A/B/C stream over `queries`: `n` events, values 0..`max_v`.
void ExpectMeterEqualsSweepOn(std::initializer_list<const char*> queries,
                              int n, int max_v, const std::string& label) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text : queries)
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  Rng rng(17);
  EventVector ev;
  Timestamp t = 1;
  const char* alphabet[] = {"A", "B", "C"};
  for (int i = 0; i < n; ++i) {
    Event e(t, schema.AddType(alphabet[rng.NextBelow(3)]));
    e.set_attr(0, static_cast<double>(rng.NextInt(0, max_v)));
    e.set_attr(1, 0.0);
    ev.push_back(e);
    t += 1 + static_cast<Timestamp>(rng.NextBelow(3));
  }
  ExpectMeterEqualsSweep(plan, ev, label);
}

TEST(MeterEqualsSweep, SlidingWindows) {
  ExpectMeterEqualsSweepOn(
      {"RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 30 ms SLIDE 10 ms",
       "RETURN SUM(B.v) PATTERN SEQ(C, B+) WITHIN 30 ms SLIDE 10 ms"},
      120, 9, "sliding");
}

// Equality edge predicates retain scanned history and key the shared scan;
// four overlapping windows spill every per-context map; a stream 30x the
// horizon recycles retained graphlets with all of that payload.
TEST(MeterEqualsSweep, RetainedHistoryRecycles) {
  ExpectMeterEqualsSweepOn(
      {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [v] WITHIN 40 ms SLIDE 10 ms",
       "RETURN SUM(B.v) PATTERN SEQ(C, B+) WHERE [v] WITHIN 40 ms SLIDE 10 ms",
       "RETURN MAX(B.v) PATTERN SEQ(A, B+) WITHIN 40 ms SLIDE 10 ms"},
      600, 3, "retained");
}

// Bounded state: 64 groups, the same generator at 1x
// and 16x stream length. Engine state must be a function of what is open at
// once (windows, bursts, snapshot variables within one window span), never
// of how much stream went by.
class BoundedState : public ::testing::Test {
 protected:
  static EventVector Stream(const BenchWorkload& bw, int minutes) {
    GeneratorConfig gen;
    gen.seed = 11;
    gen.events_per_minute = 6000;
    gen.duration_minutes = minutes;
    gen.num_groups = 64;
    return bw.generator->Generate(gen);
  }
};

TEST_F(BoundedState, SessionFootprintIsFlatOverStreamLength) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 8, /*window_ms=*/2 * kMillisPerSecond);
  const EventVector short_ev = Stream(bw, 1);
  const EventVector long_ev = Stream(bw, 16);
  for (EngineKind kind :
       {EngineKind::kHamletNoShare, EngineKind::kHamletStatic,
        EngineKind::kHamletDynamic}) {
    auto end_of_stream = [&](const EventVector& ev) {
      RunConfig config;
      config.kind = kind;
      Result<std::unique_ptr<Session>> session =
          Session::Open(*bw.plan, config, nullptr);
      HAMLET_CHECK(session.ok());
      HAMLET_CHECK(session.value()->PushBatch(ev).ok());
      return session.value()->Close().value().current_memory_bytes;
    };
    const int64_t short_bytes = end_of_stream(short_ev);
    const int64_t long_bytes = end_of_stream(long_ev);
    ASSERT_GT(short_bytes, 0) << EngineKindName(kind);
    EXPECT_LE(std::llabs(long_bytes - short_bytes), short_bytes / 20)
        << EngineKindName(kind) << ": 1x " << short_bytes << " B, 16x "
        << long_bytes << " B";
  }
}

TEST_F(BoundedState, ContextSlotsTrackOpenWindows) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 8, /*window_ms=*/2 * kMillisPerSecond);
  const EventVector short_ev = Stream(bw, 1);
  const EventVector long_ev = Stream(bw, 16);
  for (Share share : kAllShares) {
    auto short_traces = ReplayPerGroup(*bw.plan, short_ev, share);
    auto long_traces = ReplayPerGroup(*bw.plan, long_ev, share);
    ASSERT_EQ(short_traces.size(), 64u);
    ASSERT_EQ(long_traces.size(), 64u);
    for (const auto& [key, trace] : long_traces) {
      const EngineTrace& short_trace = short_traces.at(key);
      EXPECT_EQ(trace.mismatches, 0) << trace.first_mismatch;
      // The ring doubles only when the open span outgrows it.
      EXPECT_LE(trace.slots, 2 * trace.max_open)
          << ShareName(share) << " group " << key;
      EXPECT_EQ(trace.slots, short_trace.slots)
          << ShareName(share) << " group " << key;
    }
  }
}

// Equality-keyed totals (Lane::key_totals) are per key and per context: a
// key leaves once the last window holding a total for it closes. The
// equality attribute takes fresh values every window, so a list that kept
// every key ever seen would grow with stream length. The stream is
// periodic (types, gaps and keys repeat every 120 ms), so every other
// structure reaches its steady size within the 1x stream.
TEST(BoundedKeyTotals, FreshEqualityKeysDoNotAccumulate) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [v] WITHIN 40 ms SLIDE 10 ms",
        "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE [v] "
        "WITHIN 40 ms SLIDE 10 ms"}) {
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  ASSERT_EQ(plan.share_groups.size(), 1u);
  auto stream = [&](int n) {
    static constexpr const char* kCycle[] = {"A", "C", "B", "B", "B", "B"};
    EventVector ev;
    Timestamp t = 1;
    for (int i = 0; i < n; ++i) {
      Event e(t, schema.AddType(kCycle[i % 6]));
      // Four keys per 40 ms window, none of them seen in earlier windows.
      e.set_attr(0, static_cast<double>((t / 40) * 4 + i % 4));
      e.set_attr(1, 0.0);
      ev.push_back(e);
      t += 1 + i % 3;
    }
    return ev;
  };
  const EventVector short_ev = stream(600);
  const EventVector long_ev = stream(16 * 600);
  ExpectMeterEqualsSweep(plan, short_ev, "fresh_keys");
  for (EngineKind kind :
       {EngineKind::kHamletNoShare, EngineKind::kHamletStatic,
        EngineKind::kHamletDynamic}) {
    auto end_of_stream = [&](const EventVector& ev) {
      RunConfig config;
      config.kind = kind;
      Result<std::unique_ptr<Session>> session =
          Session::Open(plan, config, nullptr);
      HAMLET_CHECK(session.ok());
      HAMLET_CHECK(session.value()->PushBatch(ev).ok());
      return session.value()->Close().value().current_memory_bytes;
    };
    const int64_t short_bytes = end_of_stream(short_ev);
    const int64_t long_bytes = end_of_stream(long_ev);
    ASSERT_GT(short_bytes, 0) << EngineKindName(kind);
    EXPECT_LE(std::llabs(long_bytes - short_bytes), short_bytes / 20)
        << EngineKindName(kind) << ": 1x " << short_bytes << " B, 16x "
        << long_bytes << " B";
  }
}

}  // namespace
}  // namespace hamlet
