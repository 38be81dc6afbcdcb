// Per-(exec query, window instance) numeric state.
//
// All shared computation in the HAMLET engine is symbolic; everything
// numeric lives here, keyed by context: per-type running payload totals
// (the basis of graphlet-level snapshot values, Eq. 5), negation-guarded
// boundary accumulators, MIN/MAX folds, and the final end-type accumulation
// (Eq. 3).
#ifndef HAMLET_HAMLET_CONTEXT_STATE_H_
#define HAMLET_HAMLET_CONTEXT_STATE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/id_ring.h"
#include "src/common/memory_meter.h"
#include "src/hamlet/expr.h"
#include "src/stream/event.h"

namespace hamlet {

/// Order-payload fold (min/max are not linear; kept numeric per context).
struct MinMax {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Fold(const MinMax& o) {
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  void FoldValue(double v) {
    if (v < min) min = v;
    if (v > max) max = v;
  }
};

/// State of one open window instance of one exec query.
struct ContextState {
  ContextId id = -1;
  int exec_id = -1;
  Timestamp window_start = 0;
  Timestamp window_end = 0;  ///< exclusive
  bool open = false;

  /// Running payload totals per event type (sum of count(e) payloads of all
  /// folded events of that type within this window).
  std::vector<LinAgg> type_totals;
  std::vector<MinMax> type_mm;

  /// Chain-boundary accumulators per pattern position; reset when a
  /// boundary-negated event arrives (feeds snapshot values instead of
  /// type_totals for negated boundaries).
  std::vector<LinAgg> boundary_totals;
  std::vector<MinMax> boundary_mm;

  /// Folded end-type payload (reset by trailing negation).
  LinAgg final_lin;
  MinMax final_mm;

  void ResetFor(int exec, int num_types, int num_positions, Timestamp ws,
                Timestamp we) {
    exec_id = exec;
    window_start = ws;
    window_end = we;
    open = true;
    type_totals.assign(static_cast<size_t>(num_types), LinAgg());
    type_mm.assign(static_cast<size_t>(num_types), MinMax());
    boundary_totals.assign(static_cast<size_t>(num_positions), LinAgg());
    boundary_mm.assign(static_cast<size_t>(num_positions), MinMax());
    final_lin = LinAgg();
    final_mm = MinMax();
  }

  /// Heap-held vector capacities only; the slot itself is charged by the
  /// ContextRing that stores it.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(type_totals.capacity() * sizeof(LinAgg) +
                                type_mm.capacity() * sizeof(MinMax) +
                                boundary_totals.capacity() * sizeof(LinAgg) +
                                boundary_mm.capacity() * sizeof(MinMax));
  }
};

/// Context slots of one engine, bounded by the windows open at once.
///
/// Context ids only grow (IdRing), so a stale CtxMap entry in a retained
/// node can never alias a newer context. Close() retires every closed id at
/// the ring's front, freeing those slots for the ids opened next; a reused
/// slot keeps its vector capacities, so ResetFor re-opens it without
/// allocating. The ring covers the ids from the oldest open one to the
/// newest, so its size tracks the largest id span open at once (with one
/// window length per engine, the windows open at once), not the stream
/// length.
class ContextRing {
 public:
  /// Opens the next id's slot via ContextState::ResetFor.
  ContextId Open(int exec, int num_types, int num_positions, Timestamp ws,
                 Timestamp we) {
    const size_t slots = slots_.capacity();
    const ContextId id = slots_.PushBack();
    ContextState& ctx = slots_[id];
    const int64_t before = ctx.MemoryBytes();
    ctx.id = id;
    ctx.ResetFor(exec, num_types, num_positions, ws, we);
    meter_.Add(ctx.MemoryBytes() - before +
               static_cast<int64_t>((slots_.capacity() - slots) *
                                    sizeof(ContextState)));
    return id;
  }

  /// Marks `id` closed and retires the closed ids at the ring's front.
  void Close(ContextId id) {
    slots_[id].open = false;
    while (!slots_.empty() && !slots_[slots_.front_id()].open)
      slots_.PopFront();
  }

  /// State of an open context.
  ContextState& operator[](ContextId id) { return slots_[id]; }
  const ContextState& operator[](ContextId id) const { return slots_[id]; }

  int num_slots() const { return static_cast<int>(slots_.capacity()); }

  /// Slots plus their vector capacities, kept up to date by Open: O(1).
  int64_t MemoryBytes() const { return meter_.current(); }

  /// MemoryBytes() recomputed by walking every slot (test reference).
  int64_t SweepMemoryBytes() const {
    int64_t bytes =
        static_cast<int64_t>(slots_.capacity() * sizeof(ContextState));
    for (const ContextState& ctx : slots_.slots()) bytes += ctx.MemoryBytes();
    return bytes;
  }

 private:
  IdRing<ContextState> slots_;
  MemoryMeter meter_;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_CONTEXT_STATE_H_
