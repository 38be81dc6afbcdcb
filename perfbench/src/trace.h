// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer's public function, recorded from the
// benchmark's own code: name, id, start, end and the span that caused it.
// Spans stay in memory while the replay runs and are written out once it
// ends, so recording costs two clock reads and one vector append.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: a layer-qualified call name
  int64_t id = 0;         ///< batch index for batch roots, query id for emissions
  int32_t parent = -1;    ///< index into Tracer::spans(), -1 for a root
  double start_s = 0.0;   ///< steady clock, seconds
  double end_s = 0.0;     ///< equals start_s for an instant
};

class Tracer {
 public:
  /// Opens a span and returns its index; close it with End.
  int32_t Begin(const char* name, int64_t id, int32_t parent);
  void End(int32_t span);
  /// Records a zero-length event under `parent`.
  void Instant(const char* name, int64_t id, int32_t parent);
  /// Records an already-timed span (tests and once-only set-up calls).
  int32_t Add(const char* name, int64_t id, int32_t parent, double start_s,
              double end_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it that its children cover
  /// (overlapping children are counted once).
  std::vector<double> SelfTimes() const;

  /// Sum of the durations of every span named `name`.
  double TotalSeconds(const char* name) const;

  /// Writes one JSON object per line (name, id, parent, start and duration
  /// in microseconds relative to the first span, self time). Returns false
  /// when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
