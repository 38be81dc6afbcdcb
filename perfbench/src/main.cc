// hamlet_perfbench: one benchmark run of one workload (or of all of them).
//
//   hamlet_perfbench --workload <name|all> --seed <n> --seconds <s>
//                    --trace <0|1> [--dump-dir <dir>]
//
// Prints every metric by name and unit, then, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of untraced replays; --trace 1 runs the traced replay,
// reports the per-layer metrics and writes the span dump into --dump-dir.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench.h"

namespace {

using perfbench::Metric;
using perfbench::RunReport;

int Usage() {
  std::fprintf(stderr,
               "usage: hamlet_perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--dump-dir <dir>]\nworkloads:");
  for (const auto& w : perfbench::AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int RunOne(const std::string& name, uint64_t seed, double seconds,
           bool traced, const std::string& dump_dir) {
  perfbench::Stream stream;
  if (!perfbench::MakeStream(name, seed, perfbench::Scale::kFull, &stream)) {
    return Usage();
  }
  const double ref_start = hamlet::MonotonicSeconds();
  const std::vector<perfbench::Emitted> reference =
      perfbench::ComputeReference(stream);
  const double ref_s = hamlet::MonotonicSeconds() - ref_start;
  if (reference.empty()) {
    std::fprintf(stderr, "%s: the reference session failed\n", name.c_str());
    return 3;
  }
  std::printf("workload %s: %zu events, seed %llu, %zu reference emissions\n",
              name.c_str(), stream.events.size(),
              static_cast<unsigned long long>(seed), reference.size());
  for (const auto& w : perfbench::AllWorkloads()) {
    if (name == w.name) std::printf("  why: %s\n", w.why);
  }
  std::printf("  reference (GRETA prefix, plain Session): %.3f s, %.0f events/s"
              " (context only, not gated)\n",
              ref_s, static_cast<double>(stream.events.size()) / ref_s);

  RunReport report;
  if (traced) {
    const std::string dump =
        dump_dir.empty() ? "" : dump_dir + "/" + name + ".spans.jsonl";
    report = perfbench::RunTraced(stream, reference, dump);
  } else {
    report = perfbench::RunUntraced(stream, reference, seconds);
  }
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  bool finite = true;
  for (const Metric& m : report.metrics) {
    std::printf("  %-38s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  std::printf("  correct %s, %lld failed of %lld attempted\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  if (!finite) {
    std::fprintf(stderr, "%s: a metric could not be measured\n",
                 name.c_str());
    return 4;
  }
  std::printf("%s\n", perfbench::ResultJson(report, traced).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string dump_dir;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--dump-dir") {
      dump_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::vector<std::string> names;
  if (workload == "all") {
    for (const auto& w : perfbench::AllWorkloads()) names.push_back(w.name);
  } else {
    names.push_back(workload);
  }
  for (const std::string& name : names) {
    const int rc = RunOne(name, static_cast<uint64_t>(seed), seconds,
                          trace == 1, dump_dir);
    if (rc != 0) return rc;
  }
  return 0;
}
