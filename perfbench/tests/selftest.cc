// Self-tests of the benchmark itself, on tiny streams: metric names and
// units, the reference check, span self times, and seed handling. Exits
// non-zero if any expectation fails. Build and run with
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "perfbench.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using perfbench::Emitted;

Emitted E(int query, int64_t group, int64_t start, double value) {
  Emitted e;
  e.query = query;
  e.group = group;
  e.window_start = start;
  e.window_end = start + 2000;
  e.value = value;
  return e;
}

const perfbench::Metric* Find(const perfbench::RunReport& r,
                              const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// Every named metric is reported with its unit, and the result line carries
// the gated ones as {"value", "unit"}.
void TestMetricsPrintWithUnits() {
  for (const auto& w : perfbench::AllWorkloads()) {
    perfbench::Stream s;
    EXPECT(perfbench::MakeStream(w.name, 1, perfbench::Scale::kTiny, &s));
    const auto ref = perfbench::ComputeReference(s);
    EXPECT(!ref.empty());

    const perfbench::RunReport plain = perfbench::RunUntraced(s, ref, 0.01);
    const std::string plain_json = perfbench::ResultJson(plain, false);
    for (const auto& def : perfbench::EndToEndMetrics()) {
      const perfbench::Metric* m = Find(plain, def.name);
      EXPECT(m != nullptr);
      if (m == nullptr) continue;
      EXPECT(m->unit == def.unit);
      EXPECT(std::isfinite(m->value));
      const std::string field = std::string("\"") + def.name + "\": {";
      const bool gated = std::string(def.name) != "failed_frac";
      EXPECT((plain_json.find(field) != std::string::npos) == gated);
      if (gated) {
        EXPECT(plain_json.find(std::string("\"unit\": \"") + def.unit +
                               "\"") != std::string::npos);
      }
    }
    EXPECT(plain.correct);
    EXPECT(plain.failed == 0);
    EXPECT(plain.attempted > 0);

    const perfbench::RunReport traced = perfbench::RunTraced(s, ref, "");
    const std::string traced_json = perfbench::ResultJson(traced, true);
    for (const auto& def : perfbench::PerLayerMetrics()) {
      const perfbench::Metric* m = Find(traced, def.name);
      EXPECT(m != nullptr);
      if (m == nullptr) continue;
      EXPECT(m->unit == def.unit);
      if (!std::isfinite(m->value)) {
        std::fprintf(stderr, "%s %s: not finite\n", w.name, def.name);
      }
      EXPECT(std::isfinite(m->value));
      EXPECT(traced_json.find(std::string("\"") + def.name + "\": {") !=
             std::string::npos);
    }
    EXPECT(traced.correct);
  }
}

void TestReferenceCheck() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Emitted> ref = {E(0, 1, 0, 5.0), E(0, 1, 2000, 1e300),
                                    E(1, 1, 0, inf), E(1, 2, 0, nan)};

  perfbench::CheckResult c = perfbench::CompareEmissions(ref, ref);
  EXPECT(c.failures() == 0);
  EXPECT(c.reference == 4);

  // Order does not matter; rounding differences do not count.
  std::vector<Emitted> got = {ref[3], ref[2], ref[1], ref[0]};
  got[2].value *= 1.0 + 4.2e-15;
  c = perfbench::CompareEmissions(ref, got);
  EXPECT(c.failures() == 0);

  got = ref;
  got[0].value = 6.0;
  c = perfbench::CompareEmissions(ref, got);
  EXPECT(c.unequal == 1 && c.failures() == 1);

  got = ref;
  got.erase(got.begin() + 1);
  c = perfbench::CompareEmissions(ref, got);
  EXPECT(c.missing == 1 && c.failures() == 1);

  got = ref;
  got.push_back(ref[0]);
  got.push_back(E(5, 9, 0, 1.0));
  c = perfbench::CompareEmissions(ref, got);
  EXPECT(c.extra == 2 && c.failures() == 2);

  // NaN where the reference has +inf (AVG over overflowed counts).
  got = ref;
  got[2].value = nan;
  c = perfbench::CompareEmissions(ref, got);
  EXPECT(c.unequal == 1 && c.failures() == 1);

  EXPECT(perfbench::ValuesMatch(inf, inf));
  EXPECT(!perfbench::ValuesMatch(inf, -inf));
  EXPECT(perfbench::ValuesMatch(nan, nan));
  EXPECT(!perfbench::ValuesMatch(nan, inf));
  EXPECT(!perfbench::ValuesMatch(1.0, nan));
  EXPECT(perfbench::ValuesMatch(0.0, 0.0));
  EXPECT(!perfbench::ValuesMatch(1.0, 1.0 + 1e-6));
}

// A span's self time plus the time its children cover equals its duration.
void TestSpanSelfTimes() {
  perfbench::Tracer t;
  const int32_t root = t.Add("batch", 0, -1, 10.0, 20.0);
  t.Add("a", 0, root, 11.0, 13.0);
  t.Add("b", 0, root, 14.0, 17.5);
  t.Add("c", 0, root, 15.0, 16.0);  // inside b: counted once
  t.Add("emission", 0, root, 15.5, 15.5);
  const std::vector<double> self = t.SelfTimes();
  EXPECT(std::fabs(self[static_cast<size_t>(root)] - 4.5) < 1e-12);
  EXPECT(std::fabs(self[1] - 2.0) < 1e-12);

  // The same identity over a real traced replay: children of a batch run one
  // after another, so their durations add up.
  perfbench::Stream s;
  EXPECT(perfbench::MakeStream("ride_64g", 3, perfbench::Scale::kTiny, &s));
  perfbench::Tracer traced;
  perfbench::Replay(s, s.events.size(), nullptr, &traced);
  const auto& spans = traced.spans();
  const std::vector<double> selfs = traced.SelfTimes();
  std::vector<double> child_sum(spans.size(), 0.0);
  for (const auto& sp : spans) {
    if (sp.parent >= 0) {
      child_sum[static_cast<size_t>(sp.parent)] += sp.end_s - sp.start_s;
    }
  }
  int roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "batch") continue;
    ++roots;
    const double dur = spans[i].end_s - spans[i].start_s;
    EXPECT(std::fabs(selfs[i] + child_sum[i] - dur) <= 1e-9);
    EXPECT(selfs[i] >= 0.0);
  }
  EXPECT(roots > 0);
}

// The seed decides the stream: one seed repeats exactly, another differs and
// also checks clean against its reference.
void TestSeeds() {
  perfbench::Stream a;
  perfbench::Stream b;
  perfbench::Stream c;
  EXPECT(perfbench::MakeStream("stock_w2", 7, perfbench::Scale::kTiny, &a));
  EXPECT(perfbench::MakeStream("stock_w2", 7, perfbench::Scale::kTiny, &b));
  EXPECT(perfbench::MakeStream("stock_w2", 8, perfbench::Scale::kTiny, &c));
  EXPECT(a.events.size() == b.events.size());
  bool same = a.events.size() == b.events.size();
  for (size_t i = 0; same && i < a.events.size(); ++i) {
    same = a.events[i].time == b.events[i].time &&
           a.events[i].type == b.events[i].type &&
           a.events[i].attrs == b.events[i].attrs;
  }
  EXPECT(same);
  bool differs = a.events.size() != c.events.size();
  for (size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].type != c.events[i].type ||
              a.events[i].attrs != c.events[i].attrs;
  }
  EXPECT(differs);

  for (uint64_t seed : {11u, 12u}) {
    perfbench::Stream s;
    EXPECT(perfbench::MakeStream("ride_1g", seed, perfbench::Scale::kTiny, &s));
    const auto ref = perfbench::ComputeReference(s);
    const perfbench::ReplayResult r =
        perfbench::Replay(s, s.events.size(), &ref, nullptr);
    EXPECT(r.non_ok == 0);
    EXPECT(r.check.failures() == 0);
    EXPECT(r.check.reference > 0);
  }
}

}  // namespace

int main() {
  TestReferenceCheck();
  TestSpanSelfTimes();
  TestSeeds();
  TestMetricsPrintWithUnits();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
