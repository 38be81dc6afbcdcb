// The repo benchmark: workloads, timed replays, the reference check and the
// metrics they produce. DESIGN.md explains the choices; main.cc is the CLI.
//
// Everything here drives HAMLET through its public entry points only:
// AnalyzeWorkload, Session / ShardedSession Open, PushBatch, Close and
// MetricsSnapshot, and an EmissionSink. The traced run additionally calls the
// public functions of the stream, query and hamlet layers on the rows it is
// about to push, to time each layer from outside.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/runtime/session.h"
#include "trace.h"

namespace perfbench {

/// kFull is what the benchmark measures; kTiny is a stream of a few thousand
/// events for the self-tests.
enum class Scale { kFull, kTiny };

struct WorkloadInfo {
  const char* name;
  const char* why;
};

/// Every workload the benchmark runs, in the order `--workload all` runs them.
const std::vector<WorkloadInfo>& AllWorkloads();

/// A workload with its stream generated and materialized.
struct Stream {
  std::string name;
  hamlet::BenchWorkload bw;
  hamlet::EventVector events;
  /// The session configuration every timed replay uses.
  hamlet::RunConfig config;
  /// Closed loop: the next 512-event PushBatch starts when the previous one
  /// returns. Open loop: event i is due i / offered_eps seconds after the
  /// start, whatever the session does; each PushBatch carries what is due,
  /// at most 512 events.
  bool open_loop = false;
  double offered_eps = 0.0;
};

/// Generates `name`'s stream from `seed`; the same seed gives the same
/// events. Returns false for an unknown name.
bool MakeStream(const std::string& name, uint64_t seed, Scale scale,
                Stream* out);

/// One emission as the benchmark keeps it: its (query, group, window) key,
/// its value, and for timed replays when it arrived and when it was due.
struct Emitted {
  int32_t query = -1;
  int64_t group = 0;
  int64_t window_start = 0;
  int64_t window_end = 0;
  double value = 0.0;
  double delivered_s = 0.0;
  double arrival_s = 0.0;
};

/// Orders by (query, group, window_start, window_end).
bool KeyLess(const Emitted& a, const Emitted& b);

/// Relative tolerance of the reference check. Shared and unshared
/// propagation add the same terms in different orders; on trend counts near
/// the double range the results differ in the last few bits (up to 4.2e-15
/// measured), never by more.
inline constexpr double kRelTolerance = 1e-9;

/// True when `got` equals `ref` within kRelTolerance. Two NaNs are equal,
/// two infinities of the same sign are equal, and NaN never equals a number
/// or an infinity.
bool ValuesMatch(double ref, double got);

struct CheckResult {
  int64_t reference = 0;  ///< emissions the reference produced
  int64_t missing = 0;    ///< in the reference, absent from the run
  int64_t extra = 0;      ///< in the run, absent from the reference (or twice)
  int64_t unequal = 0;    ///< in both, values differ
  /// The first few failures, as "q<query> g<group> [start,end): ref <v> got <v>".
  std::vector<std::string> examples;
  int64_t failures() const { return missing + extra + unequal; }
};

/// Compares a run's emissions, keyed by (query, group, window), with the
/// reference's. `reference` must be sorted by KeyLess; `got` is sorted here.
CheckResult CompareEmissions(const std::vector<Emitted>& reference,
                             std::vector<Emitted> got);

/// The whole stream through a plain Session with EngineKind::kGretaPrefix,
/// an independent running-sum algorithm, sorted by KeyLess.
std::vector<Emitted> ComputeReference(const Stream& stream);

/// What one replay of the stream (or of a prefix) through a fresh session
/// measured.
struct ReplayResult {
  int64_t events = 0;
  int64_t calls = 0;   ///< Open, every PushBatch and Close
  int64_t non_ok = 0;  ///< calls that returned a non-OK Status
  double wall_s = 0.0;  ///< first push to the return of Close
  int64_t tail_events = 0;
  double tail_wall_s = 0.0;  ///< the same over the last tenth of the stream
  double cpu_s = 0.0;        ///< process CPU time, all threads
  double rss_growth_mb = 0.0;  ///< peak RSS during the replay minus RSS before Open
  int64_t minor_faults = 0;
  /// Per emission, delivery minus arrival of the event that closed its
  /// window, in microseconds.
  std::vector<double> latencies_us;
  /// Open loop only: how late each PushBatch started after its first event
  /// was due, in milliseconds.
  std::vector<double> generator_lag_ms;
  /// Rows handed to each PushBatch, in call order.
  std::vector<int32_t> push_rows;
  hamlet::RunMetrics metrics;
  CheckResult check;
};

/// Replays the first `num_events` events. `reference` (may be null) is what
/// the emissions are checked against; a non-null `tracer` makes this the
/// traced replay: each batch becomes a root span whose children re-invoke
/// the stream, query and hamlet layers on its rows around the PushBatch.
ReplayResult Replay(const Stream& stream, size_t num_events,
                    const std::vector<Emitted>* reference, Tracer* tracer);

/// Times AnalyzeWorkload + Open `cycles` times, appending each cycle's
/// seconds to `samples` (NaN for a cycle that failed).
void TimeSetupCycles(const Stream& stream, int cycles,
                     std::vector<double>* samples);

/// Value at quantile `q` (0..1) by linear interpolation, or NaN when fewer
/// than ten samples lie beyond it.
double Percentile(const std::vector<double>& values, double q);
/// The highest quantile up to `q_max` that has ten samples beyond it; the
/// quantile used is stored in `*q_used` (NaN result when none has).
double TailPercentile(const std::vector<double>& values, double q_max,
                      double* q_used);
double Median(const std::vector<double>& values);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of an untraced run, in print order. All but
/// failed_frac are gated by BENCHMARK.json; failed_frac is usually 0, so it
/// travels as the result's `failed` / `attempted` counts instead.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics of a traced run, in print order.
const std::vector<MetricDef>& PerLayerMetrics();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunReport {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

/// Warm-up, then rounds of set-up cycles and a full replay until `seconds`
/// are used up. Every metric is the median over the rounds (latency: of each
/// replay's percentile).
RunReport RunUntraced(const Stream& stream,
                      const std::vector<Emitted>& reference, double seconds);

/// Warm-up, one untraced replay and one traced replay; writes the span dump
/// to `dump_path` (skipped when empty).
RunReport RunTraced(const Stream& stream, const std::vector<Emitted>& reference,
                    const std::string& dump_path);

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}
/// with the gated metrics only.
std::string ResultJson(const RunReport& report, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
