// Peak-memory accounting, mirroring the paper's memory metric (§6.1):
// "maximal memory required to store snapshot expressions (HAMLET), the
// current event trend (MCEP), aggregates (SHARON), and matched events (all)".
//
// Engines report their logical footprint in bytes through this meter; the
// runtime tracks the peak across the run. Logical (rather than RSS-based)
// accounting keeps the metric deterministic and comparable across engines.
#ifndef HAMLET_COMMON_MEMORY_METER_H_
#define HAMLET_COMMON_MEMORY_METER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace hamlet {

/// Tracks a current and peak byte count.
class MemoryMeter {
 public:
  /// `bytes` is a signed capacity change: callers that measure a structure
  /// before and after a mutation pass the difference as is.
  void Add(int64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }

  void Sub(int64_t bytes) { current_ -= bytes; }

  /// Replaces the current footprint (used by engines that recompute their
  /// footprint per pane instead of tracking increments).
  void SetCurrent(int64_t bytes) {
    current_ = bytes;
    peak_ = std::max(peak_, current_);
  }

  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

  void Reset() {
    current_ = 0;
    peak_ = 0;
  }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_MEMORY_METER_H_
