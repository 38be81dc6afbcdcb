// Snapshot table (paper §3.3, data structure (3)): maps a snapshot variable
// and an evaluation context to its value.
//
// The paper stores value(x, q) per query; we key by ContextId = one open
// (exec query, window instance), which generalises the same idea to sliding
// and per-query windows. Values are LinAgg payloads (count/sum/count_e).
#ifndef HAMLET_HAMLET_SNAPSHOT_STORE_H_
#define HAMLET_HAMLET_SNAPSHOT_STORE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/id_ring.h"
#include "src/common/memory_meter.h"
#include "src/hamlet/expr.h"

namespace hamlet {

/// Per-variable, per-context value storage with small flat maps.
///
/// Variable ids only grow (IdRing), so a stale term in a retained node
/// expression can never alias a newer variable. Values are only Set right
/// after Create, for the contexts open at that moment, so once every such
/// context has closed a column is empty for good. DropContext retires the
/// empty columns at the front of the ring; later variables reuse their
/// warmed capacities, and Get of a retired id reads zero, as it did while
/// the column was empty. Storage is bounded by the variables created within
/// one window span instead of growing with stream length.
class SnapshotStore {
 public:
  /// Allocates a fresh snapshot variable.
  SnapshotId Create() {
    const size_t slots = columns_.capacity();
    const SnapshotId var = columns_.PushBack();
    meter_.Add(static_cast<int64_t>((columns_.capacity() - slots) *
                                    sizeof(Column)));
    HAMLET_DCHECK(columns_[var].empty());
    ++total_created_;
    return var;
  }

  /// Sets the value of `var` for `ctx` (inserts or overwrites).
  void Set(SnapshotId var, ContextId ctx, const LinAgg& value) {
    Column& column = columns_[var];
    for (auto& [c, v] : column) {
      if (c == ctx) {
        v = value;
        return;
      }
    }
    const size_t capacity = column.capacity();
    column.emplace_back(ctx, value);
    meter_.Add(static_cast<int64_t>((column.capacity() - capacity) *
                                    sizeof(column[0])));
  }

  /// Value of `var` in `ctx`; zero when never set (e.g. a membership
  /// snapshot for a query the event is invisible to) or retired.
  LinAgg Get(SnapshotId var, ContextId ctx) const {
    if (var < columns_.front_id()) return LinAgg();
    for (const auto& [c, v] : columns_[var]) {
      if (c == ctx) return v;
    }
    return LinAgg();
  }

  /// Drops all values of a closed context, then retires the empty columns
  /// at the front of the ring.
  void DropContext(ContextId ctx) {
    for (SnapshotId var = columns_.front_id(); var < columns_.next_id();
         ++var) {
      Column& column = columns_[var];
      for (size_t i = 0; i < column.size();) {
        if (column[i].first == ctx) {
          column[i] = column.back();
          column.pop_back();
        } else {
          ++i;
        }
      }
    }
    while (!columns_.empty() && columns_[columns_.front_id()].empty())
      columns_.PopFront();
  }

  /// Number of variables ever created (the paper's snapshot-count metric).
  int64_t total_created() const { return total_created_; }

  /// Current (variable, context) value entries.
  int64_t num_entries() const {
    int64_t n = 0;
    for (SnapshotId var = columns_.front_id(); var < columns_.next_id(); ++var)
      n += static_cast<int64_t>(columns_[var].size());
    return n;
  }

  /// Ring and column capacities, kept up to date by Create/Set: O(1).
  int64_t MemoryBytes() const { return meter_.current(); }

  /// MemoryBytes() recomputed by walking every column (test reference).
  int64_t SweepMemoryBytes() const {
    int64_t bytes = static_cast<int64_t>(columns_.capacity() * sizeof(Column));
    for (const Column& column : columns_.slots())
      bytes += static_cast<int64_t>(column.capacity() * sizeof(column[0]));
    return bytes;
  }

 private:
  using Column = std::vector<std::pair<ContextId, LinAgg>>;

  IdRing<Column> columns_;
  int64_t total_created_ = 0;
  MemoryMeter meter_;
};

}  // namespace hamlet

#endif  // HAMLET_HAMLET_SNAPSHOT_STORE_H_
