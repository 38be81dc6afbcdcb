// Ring storage for objects keyed by ids that only grow.
//
// The HAMLET engine names snapshot variables and window contexts by ids it
// never reuses: a stale reference left in a retained node expression must
// never alias a newer object. Only the ids of about one window span are live
// at once, though. IdRing stores the objects of the live id range
// [front_id, next_id) in a power-of-two ring: PushBack takes the slot after
// the newest id, PopFront hands the oldest slot back for reuse. A recycled
// slot keeps its object as it was, vector capacities included, so a steady
// stream neither allocates nor grows the ring; the ring doubles only when the
// live range outgrows it. Not thread-safe (one engine, one thread).
#ifndef HAMLET_COMMON_ID_RING_H_
#define HAMLET_COMMON_ID_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace hamlet {

template <typename T>
class IdRing {
 public:
  using Id = int32_t;

  /// Makes the next id live and returns it. Its slot holds whatever object
  /// the slot last held (default-constructed in a fresh slot).
  Id PushBack() {
    if (static_cast<size_t>(next_ - front_) == slots_.size()) Grow();
    return next_++;
  }

  /// Retires the oldest live id; its slot is reused by a later PushBack.
  void PopFront() {
    HAMLET_DCHECK(front_ < next_);
    ++front_;
    head_ = (head_ + 1) & (slots_.size() - 1);
  }

  /// Object of a live id.
  T& operator[](Id id) { return slots_[Pos(id)]; }
  const T& operator[](Id id) const { return slots_[Pos(id)]; }

  bool empty() const { return front_ == next_; }
  /// Oldest live id; every smaller id is retired.
  Id front_id() const { return front_; }
  /// The id the next PushBack returns.
  Id next_id() const { return next_; }
  /// Slots held, live or free.
  size_t capacity() const { return slots_.size(); }
  /// Every slot, live or free, in storage order (for footprint sweeps).
  const std::vector<T>& slots() const { return slots_; }

 private:
  size_t Pos(Id id) const {
    HAMLET_DCHECK(id >= front_ && id < next_);
    return (head_ + static_cast<size_t>(id - front_)) & (slots_.size() - 1);
  }

  /// Doubles the ring, moving every slot (the live range first, in id
  /// order), so free slots keep their objects for reuse.
  void Grow() {
    const size_t n = slots_.size();
    std::vector<T> grown(n == 0 ? 4 : 2 * n);
    for (size_t k = 0; k < n; ++k)
      grown[k] = std::move(slots_[(head_ + k) & (n - 1)]);
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< ring; slots_[head_] holds front_
  size_t head_ = 0;
  Id front_ = 0;
  Id next_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_ID_RING_H_
