#include "perfbench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "src/common/stats.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/policies.h"
#include "src/query/run_segmenter.h"
#include "src/runtime/sharded_session.h"

namespace perfbench {

using hamlet::Event;
using hamlet::EventBatch;
using hamlet::GeneratorConfig;
using hamlet::RunMetrics;

namespace {

/// Events handed to one closed-loop PushBatch, and the most one open-loop
/// PushBatch may carry when the generator has fallen behind.
constexpr int kBatchSize = 512;
/// Replays read RSS every this many PushBatch calls (a /proc read costs a few
/// microseconds).
constexpr int kRssEveryBatches = 16;
/// The traced replay takes a MetricsSnapshot every this many batches.
constexpr int kSnapshotEveryBatches = 64;
/// Set-up cycles timed before each replay; one cycle takes tens of
/// microseconds (about a millisecond with shard threads to start).
constexpr int kSetupCyclesPerReplay = 100;

double Now() { return hamlet::MonotonicSeconds(); }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Resident set size of this process, in MB (1e6 bytes).
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long long size = 0;
  long long resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  static const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident) * page / 1e6;
}

struct StreamShape {
  const char* dataset;  ///< "ridesharing" (workload 1) or "stock" (workload 2)
  int num_groups;
  int events_per_minute;
  int duration_minutes;
  double burstiness;  ///< < 0: the generator default
  int max_burst;      ///< < 0: the generator default
};

struct WorkloadDef {
  WorkloadInfo info;
  StreamShape full;
  StreamShape tiny;
  int num_shards;
  double offered_eps;  ///< > 0: open loop at this rate
  double tiny_offered_eps;
};

// Sizes: see DESIGN.md, "Workloads". Each full stream replays in a few
// seconds, so a run holds several replays, and every replay closes at least
// 1000 windows, enough for a p99 latency.
const std::vector<WorkloadDef>& Defs() {
  static const std::vector<WorkloadDef> defs = {
      {{"ride_1g",
        "1 district, long same-type runs: graphlet propagation and "
        "segmentation carry the work, per-group and per-window machinery "
        "is small"},
       {"ridesharing", 1, 200'000, 6, -1, -1},
       {"ridesharing", 1, 3'000, 5, -1, -1},
       1,
       0.0,
       0.0},
      {{"ride_64g",
        "64 districts interleave (runs of ~1.2 rows), 512 windows close "
        "every 2 s: pane advance, window open/close, dispatch and metering "
        "dominate"},
       {"ridesharing", 64, 60'000, 10, -1, -1},
       {"ridesharing", 64, 3'000, 4, -1, -1},
       1,
       0.0,
       0.0},
      {{"stock_w2",
        "diverse stock queries with event and edge predicates and ~120-event "
        "bursts: predicate kernels, snapshots and share/split decisions"},
       {"stock", 20, 5'000, 20, 0.992, 400},
       {"stock", 20, 400, 30, 0.992, 400},
       1,
       0.0,
       0.0},
      {{"ride_1g_2shard_paced",
        "ride_1g through a 2-shard ShardedSession on a fixed open-loop "
        "schedule: one hot key, so one worker runs the engine core while "
        "the other idles"},
       {"ridesharing", 1, 200'000, 6, -1, -1},
       {"ridesharing", 1, 3'000, 5, -1, -1},
       2,
       400'000.0,
       200'000.0},
      {{"ride_64g_2shard_paced",
        "ride_64g through a 2-shard ShardedSession on a fixed open-loop "
        "schedule: routing, staging, queue hand-off, fan-in, queueing delay"},
       {"ridesharing", 64, 60'000, 10, -1, -1},
       {"ridesharing", 64, 3'000, 4, -1, -1},
       2,
       150'000.0,
       200'000.0},
  };
  return defs;
}

/// Buffers emissions in a vector that is sized (and so faulted in) before
/// the replay starts, so the benchmark's own bookkeeping adds no page
/// faults or RSS growth to what the replay measures.
class CaptureSink : public hamlet::EmissionSink {
 public:
  explicit CaptureSink(size_t expected) : buf_(expected) {}

  void set_arrival(double t) { arrival_ = t; }
  void Trace(Tracer* tracer, int32_t parent) {
    tracer_ = tracer;
    parent_ = parent;
  }

  void OnEmission(const hamlet::Emission& e) override {
    const Emitted x{e.query,  e.group_key, e.window_start, e.window_end,
                    e.value, Now(),       arrival_};
    if (n_ < buf_.size()) {
      buf_[n_] = x;
    } else {
      buf_.push_back(x);
    }
    ++n_;
    if (tracer_ != nullptr) tracer_->Instant("emission", e.query, parent_);
  }

  std::vector<Emitted> Take() {
    buf_.resize(n_);
    n_ = 0;
    return std::move(buf_);
  }

 private:
  std::vector<Emitted> buf_;
  size_t n_ = 0;
  double arrival_ = 0.0;
  Tracer* tracer_ = nullptr;
  int32_t parent_ = -1;
};

/// The traced run's re-invocations: the stream, query and hamlet layers'
/// public functions applied to the rows of one pushed batch, each in its own
/// span under the batch's root span.
class LayerProbe {
 public:
  explicit LayerProbe(const Stream& stream)
      : plan_(*stream.bw.plan),
        program_(hamlet::CompilePredicateProgram(plan_).value()),
        stage_(stream.bw.schema().num_attrs()),
        num_attrs_(stream.bw.schema().num_attrs()),
        group_attr_(plan_.exec_queries.front().group_by) {}

  void Run(std::span<const Event> rows, int64_t batch, Tracer& t,
           int32_t root) {
    int32_t s = t.Begin("stream.stage", batch, root);
    stage_.Clear();
    stage_.AppendRows(rows);
    t.End(s);

    s = t.Begin("query.predicate", batch, root);
    program_.EvalBatch(stage_, &selection_);
    t.End(s);

    s = t.Begin("query.segment", batch, root);
    hamlet::SegmentRuns(stage_, stage_.size(), plan_.pane_size,
                        plan_.AllExec(), program_.predicated_queries(),
                        selection_.masks, &runs_);
    t.End(s);

    // Splitting by group is the benchmark's own work: it stays in the root
    // span's self time.
    for (auto& [key, b] : by_group_) b.Clear();
    for (const Event& e : rows) {
      const auto key = static_cast<int64_t>(
          e.attrs[static_cast<size_t>(group_attr_)]);
      auto it = by_group_.find(key);
      if (it == by_group_.end()) {
        it = by_group_.emplace(key, EventBatch(num_attrs_)).first;
      }
      it->second.Append(e);
    }
    s = t.Begin("hamlet.propagate", batch, root);
    for (auto& [key, b] : by_group_) {
      if (!b.empty()) hamlet::EvalHamletBatchColumnar(plan_, b, &policy_);
    }
    t.End(s);
  }

 private:
  const hamlet::WorkloadPlan& plan_;
  hamlet::PredicateProgram program_;
  hamlet::BatchSelection selection_;
  EventBatch stage_;
  std::vector<hamlet::RunSpan> runs_;
  std::map<int64_t, EventBatch> by_group_;
  hamlet::DynamicBenefitPolicy policy_;
  int num_attrs_;
  hamlet::AttrId group_attr_;
};

template <class S>
ReplayResult ReplayWith(const Stream& st, size_t n,
                        const std::vector<Emitted>* reference,
                        Tracer* tracer) {
  ReplayResult r;
  r.events = static_cast<int64_t>(n);
  const std::span<const Event> events(st.events.data(), n);
  CaptureSink sink(reference != nullptr ? reference->size() + 1024 : 4096);
  std::optional<LayerProbe> probe;
  if (tracer != nullptr) probe.emplace(st);

  malloc_trim(0);
  const double rss_before = ResidentMb();
  double rss_peak = rss_before;
  const int64_t faults_before = MinorFaults();

  const int32_t open_span =
      tracer != nullptr ? tracer->Begin("runtime.open", 0, -1) : -1;
  auto opened = S::Open(*st.bw.plan, st.config, &sink);
  if (tracer != nullptr) tracer->End(open_span);
  ++r.calls;
  if (!opened.ok()) {
    std::fprintf(stderr, "Open failed: %s\n",
                 opened.status().ToString().c_str());
    ++r.non_ok;
    return r;
  }
  std::unique_ptr<S> session = std::move(opened).value();

  const size_t tail_from = n - n / 10;
  size_t tail_begin = n;
  double tail_start = -1.0;
  double first_push = -1.0;
  const double rate = st.offered_eps;
  const double cpu_before = CpuSeconds();
  const double t0 = Now() + (st.open_loop ? 1e-3 : 0.0);
  size_t i = 0;
  int64_t batch = 0;
  while (i < n) {
    double now = Now();
    size_t end = 0;
    if (st.open_loop) {
      const double due = t0 + static_cast<double>(i) / rate;
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        continue;
      }
      const size_t due_count = std::min(
          n, static_cast<size_t>((now - t0) * rate) + 1);
      end = std::min(due_count, i + static_cast<size_t>(kBatchSize));
      r.generator_lag_ms.push_back((now - due) * 1e3);
    } else {
      end = std::min(n, i + static_cast<size_t>(kBatchSize));
    }
    if (first_push < 0.0) first_push = now;
    if (i >= tail_from && tail_start < 0.0) {
      tail_start = now;
      tail_begin = i;
    }
    const std::span<const Event> rows = events.subspan(i, end - i);
    int32_t root = -1;
    if (tracer != nullptr) {
      root = tracer->Begin("batch", batch, -1);
      probe->Run(rows, batch, *tracer, root);
      sink.Trace(tracer, root);
    }
    const int32_t push_span =
        tracer != nullptr ? tracer->Begin("runtime.push_batch", batch, root)
                          : -1;
    sink.set_arrival(Now());
    const hamlet::Status pushed = session->PushBatch(rows);
    if (tracer != nullptr) {
      tracer->End(push_span);
      if (batch % kSnapshotEveryBatches == 0) {
        const int32_t snap =
            tracer->Begin("runtime.metrics_snapshot", batch, root);
        (void)session->MetricsSnapshot();
        tracer->End(snap);
      }
      tracer->End(root);
    }
    ++r.calls;
    if (!pushed.ok()) ++r.non_ok;
    r.push_rows.push_back(static_cast<int32_t>(rows.size()));
    if (++batch % kRssEveryBatches == 0) {
      rss_peak = std::max(rss_peak, ResidentMb());
    }
    i = end;
  }
  rss_peak = std::max(rss_peak, ResidentMb());

  const int32_t close_span =
      tracer != nullptr ? tracer->Begin("runtime.close", 0, -1) : -1;
  if (tracer != nullptr) sink.Trace(tracer, close_span);
  const double close_start = Now();
  sink.set_arrival(close_start);
  auto closed = session->Close();
  const double done = Now();
  if (tracer != nullptr) tracer->End(close_span);
  r.cpu_s = CpuSeconds() - cpu_before;
  ++r.calls;
  if (closed.ok()) {
    r.metrics = closed.value();
  } else {
    ++r.non_ok;
  }
  rss_peak = std::max(rss_peak, ResidentMb());
  r.minor_faults = MinorFaults() - faults_before;
  r.rss_growth_mb = rss_peak - rss_before;
  r.wall_s = done - first_push;
  r.tail_events = static_cast<int64_t>(n - tail_begin);
  r.tail_wall_s = done - tail_start;
  session.reset();

  std::vector<Emitted> got = sink.Take();
  r.latencies_us.reserve(got.size());
  for (const Emitted& e : got) {
    double arrival = e.arrival_s;
    if (st.open_loop) {
      // The event that closed the window is the first one at or after its
      // end; it was due on the schedule, whenever it was actually pushed.
      const auto it = std::lower_bound(
          events.begin(), events.end(), e.window_end,
          [](const Event& ev, hamlet::Timestamp t) { return ev.time < t; });
      const auto j = static_cast<size_t>(it - events.begin());
      arrival = j < n ? t0 + static_cast<double>(j) / rate : close_start;
    }
    r.latencies_us.push_back((e.delivered_s - arrival) * 1e6);
  }
  if (reference != nullptr) r.check = CompareEmissions(*reference, std::move(got));
  return r;
}

template <class S>
void TimeSetupWith(const Stream& st, int cycles, std::vector<double>* samples) {
  for (int c = 0; c < cycles; ++c) {
    const double start = Now();
    auto plan = hamlet::AnalyzeWorkload(*st.bw.workload);
    if (!plan.ok()) {
      samples->push_back(std::nan(""));
      continue;
    }
    // Destroyed after the clock stops: a ShardedSession joins its threads.
    auto session = S::Open(plan.value(), st.config, nullptr);
    const double end = Now();
    samples->push_back(session.ok() ? end - start : std::nan(""));
  }
}

double PerThousand(int64_t count, int64_t events) {
  return events > 0 ? 1000.0 * static_cast<double>(count) /
                          static_cast<double>(events)
                    : 0.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string Format(const char* fmt, double v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

const char* UnitOf(const std::vector<MetricDef>& defs, const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return d.unit;
  }
  return nullptr;
}

void Put(RunReport& report, const std::vector<MetricDef>& defs,
         const char* name, double value) {
  const char* unit = UnitOf(defs, name);
  report.metrics.push_back(Metric{name, unit != nullptr ? unit : "?", value});
}

}  // namespace

const std::vector<WorkloadInfo>& AllWorkloads() {
  static const std::vector<WorkloadInfo> infos = [] {
    std::vector<WorkloadInfo> out;
    for (const WorkloadDef& d : Defs()) out.push_back(d.info);
    return out;
  }();
  return infos;
}

bool MakeStream(const std::string& name, uint64_t seed, Scale scale,
                Stream* out) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : Defs()) {
    if (name == d.info.name) def = &d;
  }
  if (def == nullptr) return false;
  const StreamShape& shape = scale == Scale::kFull ? def->full : def->tiny;
  out->name = name;
  out->bw = std::string(shape.dataset) == "stock"
                ? hamlet::MakeWorkload2(20)
                : hamlet::MakeWorkload1(shape.dataset, 8, 2000);
  GeneratorConfig gen;
  gen.seed = seed;
  gen.events_per_minute = shape.events_per_minute;
  gen.duration_minutes = shape.duration_minutes;
  gen.num_groups = shape.num_groups;
  if (shape.burstiness >= 0.0) gen.burstiness = shape.burstiness;
  if (shape.max_burst >= 0) gen.max_burst = shape.max_burst;
  out->events = out->bw.generator->Generate(gen);
  out->config = hamlet::RunConfig();
  out->config.num_shards = def->num_shards;
  const double offered =
      scale == Scale::kFull ? def->offered_eps : def->tiny_offered_eps;
  out->open_loop = offered > 0.0;
  out->offered_eps = offered;
  return true;
}

bool KeyLess(const Emitted& a, const Emitted& b) {
  if (a.query != b.query) return a.query < b.query;
  if (a.group != b.group) return a.group < b.group;
  if (a.window_start != b.window_start) return a.window_start < b.window_start;
  return a.window_end < b.window_end;
}

bool ValuesMatch(double ref, double got) {
  if (std::isnan(ref) || std::isnan(got)) {
    return std::isnan(ref) && std::isnan(got);
  }
  if (std::isinf(ref) || std::isinf(got)) return ref == got;
  return std::fabs(ref - got) <=
         kRelTolerance * std::max(std::fabs(ref), std::fabs(got));
}

CheckResult CompareEmissions(const std::vector<Emitted>& reference,
                             std::vector<Emitted> got) {
  std::sort(got.begin(), got.end(), KeyLess);
  CheckResult c;
  c.reference = static_cast<int64_t>(reference.size());
  auto note = [&c](const Emitted& key, const char* ref, const char* run) {
    if (c.examples.size() >= 3) return;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "q%d g%lld [%lld,%lld): ref %s got %s",
                  key.query, static_cast<long long>(key.group),
                  static_cast<long long>(key.window_start),
                  static_cast<long long>(key.window_end), ref, run);
    c.examples.push_back(buf);
  };
  const auto value = [](double v) { return Format("%.17g", v); };
  size_t i = 0;
  size_t j = 0;
  while (i < reference.size() || j < got.size()) {
    if (j == got.size() ||
        (i < reference.size() && KeyLess(reference[i], got[j]))) {
      ++c.missing;
      note(reference[i], value(reference[i].value).c_str(), "nothing");
      ++i;
    } else if (i == reference.size() || KeyLess(got[j], reference[i])) {
      ++c.extra;  // also a second emission for an already matched window
      note(got[j], "nothing", value(got[j].value).c_str());
      ++j;
    } else {
      if (!ValuesMatch(reference[i].value, got[j].value)) {
        ++c.unequal;
        note(got[j], value(reference[i].value).c_str(),
             value(got[j].value).c_str());
      }
      ++i;
      ++j;
    }
  }
  return c;
}

std::vector<Emitted> ComputeReference(const Stream& stream) {
  hamlet::RunConfig config = stream.config;
  config.kind = hamlet::EngineKind::kGretaPrefix;
  config.num_shards = 1;
  CaptureSink sink(0);
  auto opened = hamlet::Session::Open(*stream.bw.plan, config, &sink);
  if (!opened.ok()) return {};
  hamlet::Session& session = *opened.value();
  const std::span<const Event> events(stream.events);
  for (size_t i = 0; i < events.size(); i += kBatchSize) {
    const size_t len = std::min<size_t>(kBatchSize, events.size() - i);
    if (!session.PushBatch(events.subspan(i, len)).ok()) return {};
  }
  if (!session.Close().ok()) return {};
  std::vector<Emitted> out = sink.Take();
  std::sort(out.begin(), out.end(), KeyLess);
  return out;
}

ReplayResult Replay(const Stream& stream, size_t num_events,
                    const std::vector<Emitted>* reference, Tracer* tracer) {
  num_events = std::min(num_events, stream.events.size());
  return stream.config.num_shards > 1
             ? ReplayWith<hamlet::ShardedSession>(stream, num_events,
                                                  reference, tracer)
             : ReplayWith<hamlet::Session>(stream, num_events, reference,
                                           tracer);
}

void TimeSetupCycles(const Stream& stream, int cycles,
                     std::vector<double>* samples) {
  if (stream.config.num_shards > 1) {
    TimeSetupWith<hamlet::ShardedSession>(stream, cycles, samples);
  } else {
    TimeSetupWith<hamlet::Session>(stream, cycles, samples);
  }
}

namespace {

double SortedQuantile(const std::vector<double>& values, double q) {
  hamlet::Percentiles p;
  for (double v : values) p.Add(v);
  return p.Percentile(q * 100.0);
}

}  // namespace

double Percentile(const std::vector<double>& values, double q) {
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (values.empty() || (q > 0.5 && beyond < 10.0)) return std::nan("");
  return SortedQuantile(values, q);
}

double TailPercentile(const std::vector<double>& values, double q_max,
                      double* q_used) {
  // Ten samples beyond quantile q: q <= 1 - 10 / n.
  const double n = static_cast<double>(values.size());
  *q_used = std::min(q_max, 1.0 - 10.0 / n);
  if (values.empty() || *q_used < 0.5) return std::nan("");
  return SortedQuantile(values, *q_used);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_eps", "events/s"},
      {"tail_throughput_eps", "events/s"},
      {"cpu_ns_per_event", "ns"},
      {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},
      {"rss_peak_mb", "MB"},
      {"setup_s", "s"},
      {"failed_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"stream.stage_ns_per_event", "ns"},
      {"query.predicate_ns_per_event", "ns"},
      {"query.segment_ns_per_event", "ns"},
      {"query.mean_run_len", "events"},
      {"plan.analyze_us", "us"},
      {"plan.compile_predicates_us", "us"},
      {"optimizer.decisions_per_kevent", "count"},
      {"optimizer.shared_burst_frac", "ratio"},
      {"hamlet.propagate_ns_per_event", "ns"},
      {"hamlet.ops_per_event", "count"},
      {"hamlet.snapshots_per_kevent", "count"},
      {"hamlet.graphlets_per_kevent", "count"},
      {"hamlet.metered_peak_mb", "MB"},
      {"hamlet.meter_rss_ratio", "ratio"},
      {"runtime.open_us", "us"},
      {"runtime.push_batch_us.p50", "us"},
      {"runtime.push_batch_us.p99", "us"},
      {"runtime.self_ns_per_event", "ns"},
      {"runtime.metrics_snapshot_us", "us"},
      {"runtime.cost_growth", "ratio"},
      {"runtime.minor_faults_per_kevent", "count"},
      {"runtime.close_ms", "ms"},
      {"runtime.shard.front_ns_per_event", "ns"},
      {"runtime.shard.max_queue_depth_msgs", "count"},
      {"runtime.shard.mean_stage_batch", "events"},
      {"runtime.shard.event_skew", "ratio"},
      {"runtime.shard.generator_lag_ms.p99", "ms"},
      {"runtime.shard.generator_lag_ms.max", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

RunReport RunUntraced(const Stream& stream,
                      const std::vector<Emitted>& reference, double seconds) {
  const size_t n = stream.events.size();
  RunReport report;
  Replay(stream, std::max<size_t>(n / 10, 1), nullptr, nullptr);  // warm-up

  std::vector<double> eps, tail_eps, cpu_ns, rss, p50, p99, setup_s, round_s;
  int64_t failed = 0;
  int64_t attempted = 0;
  const double start = Now();
  // Set-up cycles and replays alternate, so both sample the whole run.
  while (round_s.empty() || Now() - start + Median(round_s) <= seconds) {
    const double t = Now();
    TimeSetupCycles(stream, kSetupCyclesPerReplay, &setup_s);
    ReplayResult r = Replay(stream, n, &reference, nullptr);
    round_s.push_back(Now() - t);
    eps.push_back(static_cast<double>(r.events) / r.wall_s);
    tail_eps.push_back(static_cast<double>(r.tail_events) / r.tail_wall_s);
    cpu_ns.push_back(r.cpu_s * 1e9 / static_cast<double>(r.events));
    rss.push_back(r.rss_growth_mb);
    p50.push_back(Percentile(r.latencies_us, 0.50));
    p99.push_back(Percentile(r.latencies_us, 0.99));
    failed += r.non_ok + r.check.failures();
    attempted += r.calls + r.check.reference;
    report.notes.push_back(
        "replay " + std::to_string(round_s.size()) + ": " +
        Format("%.0f events/s", eps.back()) +
        Format(", tail %.0f events/s", tail_eps.back()) +
        Format(", %.1f ns/event CPU", cpu_ns.back()) +
        Format(", RSS +%.1f MB", rss.back()) +
        Format(", latency p50 %.0f us", p50.back()) +
        Format(" p99 %.0f us", p99.back()) + ", " +
        std::to_string(r.latencies_us.size()) + " emissions, " +
        std::to_string(r.check.missing) + " missing, " +
        std::to_string(r.check.extra) + " extra, " +
        std::to_string(r.check.unequal) + " unequal, " +
        std::to_string(r.non_ok) + " non-OK calls");
    for (const std::string& e : r.check.examples) {
      report.notes.push_back("  mismatch " + e);
    }
  }
  report.notes.push_back(std::to_string(round_s.size()) + " replays of " +
                         std::to_string(n) + " events, " +
                         std::to_string(setup_s.size()) + " set-up cycles");

  // A replay with too few emissions for a p99, or a failed set-up cycle,
  // yields NaN, which main() refuses to report.
  const auto median_or_nan = [](const std::vector<double>& v) {
    for (double x : v) {
      if (std::isnan(x)) return x;
    }
    return Median(v);
  };
  const auto& defs = EndToEndMetrics();
  Put(report, defs, "throughput_eps", Median(eps));
  Put(report, defs, "tail_throughput_eps", Median(tail_eps));
  Put(report, defs, "cpu_ns_per_event", Median(cpu_ns));
  Put(report, defs, "latency_p50_us", median_or_nan(p50));
  Put(report, defs, "latency_p99_us", median_or_nan(p99));
  Put(report, defs, "rss_peak_mb", Median(rss));
  Put(report, defs, "setup_s", median_or_nan(setup_s));
  Put(report, defs, "failed_frac",
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  report.attempted = attempted;
  report.failed = failed;
  report.correct = failed == 0;
  return report;
}

RunReport RunTraced(const Stream& stream, const std::vector<Emitted>& reference,
                    const std::string& dump_path) {
  const size_t n = stream.events.size();
  const auto events = static_cast<int64_t>(n);
  RunReport report;
  Replay(stream, std::max<size_t>(n / 10, 1), nullptr, nullptr);  // warm-up

  Tracer tracer;
  double t = Now();
  auto plan = hamlet::AnalyzeWorkload(*stream.bw.workload);
  tracer.Add("plan.analyze", 0, -1, t, Now());
  t = Now();
  auto program = hamlet::CompilePredicateProgram(*stream.bw.plan);
  tracer.Add("plan.compile_predicates", 0, -1, t, Now());
  if (!plan.ok() || !program.ok()) {
    report.notes.push_back("set-up failed");
    return report;
  }

  const ReplayResult plain = Replay(stream, n, &reference, nullptr);
  const ReplayResult traced = Replay(stream, n, &reference, &tracer);

  // Push spans appear in push order, one per entry of traced.push_rows.
  std::vector<double> push_us;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "runtime.push_batch") {
      push_us.push_back((s.end_s - s.start_s) * 1e6);
    }
  }
  // Per-event push time over the first and the last tenth of the stream.
  double head_us = 0.0;
  double tail_us = 0.0;
  int64_t head_rows = 0;
  int64_t tail_rows = 0;
  int64_t row = 0;
  for (size_t k = 0; k < push_us.size() && k < traced.push_rows.size(); ++k) {
    if (row < events / 10) {
      head_us += push_us[k];
      head_rows += traced.push_rows[k];
    } else if (row >= events - events / 10) {
      tail_us += push_us[k];
      tail_rows += traced.push_rows[k];
    }
    row += traced.push_rows[k];
  }
  const double cost_growth =
      Ratio(Ratio(tail_us, static_cast<double>(tail_rows)),
            Ratio(head_us, static_cast<double>(head_rows)));

  const double stage = tracer.TotalSeconds("stream.stage");
  const double predicate = tracer.TotalSeconds("query.predicate");
  const double segment = tracer.TotalSeconds("query.segment");
  const double propagate = tracer.TotalSeconds("hamlet.propagate");
  const double push = tracer.TotalSeconds("runtime.push_batch");
  std::vector<double> snapshot_us;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "runtime.metrics_snapshot") {
      snapshot_us.push_back((s.end_s - s.start_s) * 1e6);
    }
  }
  const RunMetrics& m = plain.metrics;
  const double per_event = 1e9 / static_cast<double>(events);

  int64_t messages = 0;
  for (int64_t c : m.shard_batch_hist) messages += c;
  double skew = 1.0;
  if (!m.shard_events.empty()) {
    int64_t sum = 0;
    int64_t max = 0;
    for (int64_t e : m.shard_events) {
      sum += e;
      max = std::max(max, e);
    }
    skew = Ratio(static_cast<double>(max),
                 static_cast<double>(sum) /
                     static_cast<double>(m.shard_events.size()));
  }

  const auto& defs = PerLayerMetrics();
  Put(report, defs, "stream.stage_ns_per_event", stage * per_event);
  Put(report, defs, "query.predicate_ns_per_event", predicate * per_event);
  Put(report, defs, "query.segment_ns_per_event", segment * per_event);
  Put(report, defs, "query.mean_run_len",
      Ratio(static_cast<double>(m.events), static_cast<double>(m.runs)));
  Put(report, defs, "plan.analyze_us", tracer.TotalSeconds("plan.analyze") * 1e6);
  Put(report, defs, "plan.compile_predicates_us",
      tracer.TotalSeconds("plan.compile_predicates") * 1e6);
  Put(report, defs, "optimizer.decisions_per_kevent",
      PerThousand(m.decisions, events));
  Put(report, defs, "optimizer.shared_burst_frac",
      Ratio(static_cast<double>(m.hamlet.bursts_shared),
            static_cast<double>(m.hamlet.bursts_total)));
  Put(report, defs, "hamlet.propagate_ns_per_event", propagate * per_event);
  Put(report, defs, "hamlet.ops_per_event",
      Ratio(static_cast<double>(m.hamlet.ops), static_cast<double>(events)));
  Put(report, defs, "hamlet.snapshots_per_kevent",
      PerThousand(m.hamlet.snapshots_created, events));
  Put(report, defs, "hamlet.graphlets_per_kevent",
      PerThousand(m.hamlet.graphlets_opened, events));
  const double metered_mb = static_cast<double>(m.peak_memory_bytes) / 1e6;
  Put(report, defs, "hamlet.metered_peak_mb", metered_mb);
  Put(report, defs, "hamlet.meter_rss_ratio",
      Ratio(metered_mb, plain.rss_growth_mb));
  Put(report, defs, "runtime.open_us",
      tracer.TotalSeconds("runtime.open") * 1e6);
  Put(report, defs, "runtime.push_batch_us.p50", Percentile(push_us, 0.50));
  double push_q = 0.0;
  Put(report, defs, "runtime.push_batch_us.p99",
      TailPercentile(push_us, 0.99, &push_q));
  if (push_q < 0.99) {
    report.notes.push_back(
        "runtime.push_batch_us.p99 is the " + Format("%.3f", push_q) +
        " quantile: " + std::to_string(push_us.size()) +
        " pushes hold ten samples beyond no higher one");
  }
  // A ShardedSession runs the layers on its workers, outside the caller's
  // push span: there is nothing to subtract.
  const bool sharded = stream.config.num_shards > 1;
  Put(report, defs, "runtime.self_ns_per_event",
      (sharded ? push : push - stage - predicate - segment - propagate) *
          per_event);
  Put(report, defs, "runtime.metrics_snapshot_us", Median(snapshot_us));
  Put(report, defs, "runtime.cost_growth", cost_growth);
  Put(report, defs, "runtime.minor_faults_per_kevent",
      PerThousand(plain.minor_faults, events));
  Put(report, defs, "runtime.close_ms",
      tracer.TotalSeconds("runtime.close") * 1e3);
  Put(report, defs, "runtime.shard.front_ns_per_event", push * per_event);
  Put(report, defs, "runtime.shard.max_queue_depth_msgs",
      static_cast<double>(m.max_queue_depth_msgs));
  Put(report, defs, "runtime.shard.mean_stage_batch",
      messages > 0 ? Ratio(static_cast<double>(m.events),
                           static_cast<double>(messages))
                   : static_cast<double>(kBatchSize));
  Put(report, defs, "runtime.shard.event_skew", skew);
  double lag_p99 = 0.0;
  double lag_max = 0.0;
  if (!plain.generator_lag_ms.empty()) {
    double lag_q = 0.0;
    lag_p99 = TailPercentile(plain.generator_lag_ms, 0.99, &lag_q);
    lag_max = *std::max_element(plain.generator_lag_ms.begin(),
                                plain.generator_lag_ms.end());
  }
  Put(report, defs, "runtime.shard.generator_lag_ms.p99", lag_p99);
  Put(report, defs, "runtime.shard.generator_lag_ms.max", lag_max);
  // CPU, not throughput: the open loop's throughput is set by its schedule.
  Put(report, defs, "trace.overhead_frac", 1.0 - Ratio(plain.cpu_s, traced.cpu_s));

  report.notes.push_back(
      "not re-invocable from outside, so inside runtime.self_ns_per_event: "
      "ordering gate, pane advance, group dispatch, window open/close, "
      "emission delivery, memory metering");
  report.notes.push_back(
      "hamlet.propagate replays each group's rows through "
      "EvalHamletBatchColumnar, which also compiles the predicate program "
      "and builds an engine per call");
  if (sharded) {
    report.notes.push_back(
        "ShardedSession: the workers stage, filter, segment and propagate off "
        "the caller's thread, so runtime.self_ns_per_event is the whole push "
        "span, which holds ShardRouter, staging and the queue hand-off "
        "(= runtime.shard.front_ns_per_event)");
  } else {
    report.notes.push_back(
        "runtime.self_ns_per_event subtracts the hamlet.propagate proxy in "
        "full; it turns negative where the proxy's per-call overhead exceeds "
        "the session's own work");
    report.notes.push_back(
        "runtime.shard.* on a plain Session: no queue (depth 0), one stage "
        "batch per PushBatch, one shard (skew 1), closed loop (lag 0)");
  }

  report.failed = plain.non_ok + plain.check.failures() + traced.non_ok +
                  traced.check.failures();
  report.attempted = plain.calls + plain.check.reference + traced.calls +
                     traced.check.reference;
  report.correct = report.failed == 0;
  if (!dump_path.empty()) {
    if (tracer.WriteJsonLines(dump_path)) {
      report.notes.push_back("span dump: " + dump_path + " (" +
                             std::to_string(tracer.spans().size()) +
                             " spans)");
    } else {
      report.notes.push_back("could not write span dump " + dump_path);
    }
  }
  return report;
}

std::string ResultJson(const RunReport& report, bool traced) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    if (!traced && m.name == "failed_frac") continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + Format("%.17g", m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
