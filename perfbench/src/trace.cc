#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/runtime/session.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, int64_t id, int32_t parent) {
  const double now = hamlet::MonotonicSeconds();
  return Add(name, id, parent, now, now);
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_s = hamlet::MonotonicSeconds();
}

void Tracer::Instant(const char* name, int64_t id, int32_t parent) {
  const double now = hamlet::MonotonicSeconds();
  Add(name, id, parent, now, now);
}

int32_t Tracer::Add(const char* name, int64_t id, int32_t parent,
                    double start_s, double end_s) {
  spans_.push_back(Span{name, id, parent, start_s, end_s});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_s > s.start_s) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s,
                                                           s.end_s);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_begin = 0.0;
    double cur_end = -1.0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, p.start_s);
      e = std::min(e, p.end_s);
      if (e <= b) continue;
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
        continue;
      }
      if (open) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    }
    if (open) covered += cur_end - cur_begin;
    self[i] = (p.end_s - p.start_s) - covered;
  }
  return self;
}

double Tracer::TotalSeconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.end_s - s.start_s;
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  const std::vector<double> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"id\":%lld,\"parent\":%d,"
                 "\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}\n",
                 i, s.name, static_cast<long long>(s.id), s.parent,
                 (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6,
                 self[i] * 1e6);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
