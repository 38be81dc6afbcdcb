// Unit tests for the HAMLET symbolic layer: expressions over snapshots,
// the snapshot store, and context maps.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/hamlet/ctx_map.h"
#include "src/hamlet/snapshot_store.h"

namespace hamlet {
namespace {

TEST(SnapshotStoreTest, SetGetDefaultZero) {
  SnapshotStore store;
  SnapshotId x = store.Create();
  EXPECT_EQ(x, 0);
  LinAgg v;
  v.count = 3;
  store.Set(x, /*ctx=*/7, v);
  EXPECT_DOUBLE_EQ(store.Get(x, 7).count, 3);
  EXPECT_DOUBLE_EQ(store.Get(x, 8).count, 0);  // unset context reads zero
  store.Set(x, 7, LinAgg{.count = 5, .sum = 0, .count_e = 0});
  EXPECT_DOUBLE_EQ(store.Get(x, 7).count, 5);  // overwrite
  EXPECT_EQ(store.total_created(), 1);
  EXPECT_EQ(store.num_entries(), 1);
}

TEST(SnapshotStoreTest, DropContextRemovesColumn) {
  SnapshotStore store;
  SnapshotId x = store.Create(), y = store.Create();
  store.Set(x, 1, LinAgg{.count = 1, .sum = 0, .count_e = 0});
  store.Set(y, 1, LinAgg{.count = 2, .sum = 0, .count_e = 0});
  store.Set(y, 2, LinAgg{.count = 3, .sum = 0, .count_e = 0});
  store.DropContext(1);
  EXPECT_DOUBLE_EQ(store.Get(x, 1).count, 0);
  EXPECT_DOUBLE_EQ(store.Get(y, 2).count, 3);
  EXPECT_EQ(store.num_entries(), 1);
}

TEST(SnapshotStoreTest, RetiredColumnsReadZeroAndReuseCapacity) {
  SnapshotStore store;
  // Fill generations of variables, each set for one context that closes
  // before the next generation: once every ring slot is warm, the footprint
  // must stop growing.
  int64_t bytes_warm = 0;
  for (ContextId ctx = 0; ctx < 50; ++ctx) {
    std::vector<SnapshotId> vars;
    for (int i = 0; i < 20; ++i) {
      vars.push_back(store.Create());
      store.Set(vars.back(), ctx, LinAgg{.count = 1, .sum = 0, .count_e = 0});
    }
    EXPECT_DOUBLE_EQ(store.Get(vars.front(), ctx).count, 1);
    store.DropContext(ctx);
    // Retired ids keep reading zero; a stale term can never alias.
    EXPECT_DOUBLE_EQ(store.Get(vars.front(), ctx).count, 0);
    EXPECT_EQ(store.MemoryBytes(), store.SweepMemoryBytes());
    if (ctx == 5) bytes_warm = store.MemoryBytes();
  }
  EXPECT_EQ(store.total_created(), 50 * 20);
  EXPECT_EQ(store.num_entries(), 0);
  EXPECT_EQ(store.MemoryBytes(), bytes_warm);
}

TEST(SnapshotStoreTest, OpenColumnHoldsRetirementBack) {
  SnapshotStore store;
  SnapshotId x = store.Create(), y = store.Create();
  store.Set(x, 1, LinAgg{.count = 1, .sum = 0, .count_e = 0});
  store.Set(y, 2, LinAgg{.count = 2, .sum = 0, .count_e = 0});
  store.DropContext(2);  // y empties, but x (older) still holds ctx 1
  EXPECT_DOUBLE_EQ(store.Get(x, 1).count, 1);
  store.DropContext(1);
  EXPECT_DOUBLE_EQ(store.Get(x, 1).count, 0);
  EXPECT_DOUBLE_EQ(store.Get(y, 2).count, 0);
  EXPECT_EQ(store.num_entries(), 0);
}

TEST(ExprTest, VarAndConstEval) {
  SnapshotStore store;
  SnapshotId x = store.Create();
  store.Set(x, 0, LinAgg{.count = 2, .sum = 10, .count_e = 1});
  Expr e = Expr::Var(x);
  e.AddConst(LinAgg{.count = 1, .sum = 0, .count_e = 0});
  LinAgg v = e.Eval(store, 0);
  EXPECT_DOUBLE_EQ(v.count, 3);
  EXPECT_DOUBLE_EQ(v.sum, 10);
  EXPECT_DOUBLE_EQ(e.EvalCount(store, 0), 3);
}

TEST(ExprTest, AddExprMergesSortedTerms) {
  SnapshotStore store;
  SnapshotId x = store.Create(), y = store.Create(), z = store.Create();
  store.Set(x, 0, LinAgg{.count = 1, .sum = 0, .count_e = 0});
  store.Set(y, 0, LinAgg{.count = 10, .sum = 0, .count_e = 0});
  store.Set(z, 0, LinAgg{.count = 100, .sum = 0, .count_e = 0});
  Expr a;
  a.AddVar(z, 1.0);
  a.AddVar(x, 2.0);
  Expr b;
  b.AddVar(y, 3.0);
  b.AddVar(x, 1.0);
  a.AddExpr(b);
  EXPECT_EQ(a.num_terms(), 3);
  // Terms sorted by var id.
  EXPECT_EQ(a.terms()[0].var, x);
  EXPECT_EQ(a.terms()[2].var, z);
  EXPECT_DOUBLE_EQ(a.Eval(store, 0).count, 3 * 1 + 3 * 10 + 1 * 100);
}

TEST(ExprTest, RepeatedSelfAddDoubles) {
  // The Table 3 doubling pattern: R += expr; expr' = x + R.
  SnapshotStore store;
  SnapshotId x = store.Create();
  store.Set(x, 0, LinAgg{.count = 2, .sum = 0, .count_e = 0});
  Expr running;
  double expected = 2;
  for (int i = 0; i < 4; ++i) {
    Expr node = Expr::Var(x);
    node.AddExpr(running);
    EXPECT_DOUBLE_EQ(node.EvalCount(store, 0), expected);
    running.AddExpr(node);
    expected *= 2;
  }
  // running = 15x as in Table 4's sum(B3).
  EXPECT_DOUBLE_EQ(running.EvalCount(store, 0), 30);
  EXPECT_EQ(running.num_terms(), 1);
  EXPECT_DOUBLE_EQ(running.terms()[0].alpha, 15);
}

TEST(ExprTest, ApplyTargetEventCrossCoefficients) {
  // sum(e) = acc.sum + val*count(e); count_e(e) = acc.count_e + count(e).
  SnapshotStore store;
  SnapshotId x = store.Create();
  store.Set(x, 0, LinAgg{.count = 4, .sum = 7, .count_e = 2});
  Expr e = Expr::Var(x);
  e.ApplyTargetEvent(/*val=*/10.0, /*need_sum=*/true, /*need_count_e=*/true);
  LinAgg v = e.Eval(store, 0);
  EXPECT_DOUBLE_EQ(v.count, 4);
  EXPECT_DOUBLE_EQ(v.sum, 7 + 10.0 * 4);
  EXPECT_DOUBLE_EQ(v.count_e, 2 + 4);
}

// An overflowed (+inf) snapshot value under a zero coefficient contributes
// nothing: GRETA's numeric fold has no such term, so HAMLET must not turn
// 0 * inf into NaN.
TEST(ExprTest, ZeroCoefficientIgnoresInfiniteSnapshot) {
  const double inf = std::numeric_limits<double>::infinity();
  SnapshotStore store;
  SnapshotId x = store.Create(), y = store.Create();
  store.Set(x, 0, LinAgg{.count = inf, .sum = inf, .count_e = 0});
  store.Set(y, 0, LinAgg{.count = 2, .sum = 3, .count_e = 4});
  // x with alpha 1 and zero cross coefficients (no target fold after it
  // joined): sum and count_e must not pick up 0 * inf.
  Expr e = Expr::Var(x);
  LinAgg v = e.Eval(store, 0);
  EXPECT_EQ(v.count, inf);
  EXPECT_EQ(v.sum, inf);
  EXPECT_EQ(v.count_e, 0);

  Expr only_y;
  only_y.AddVar(y, 1.0);
  only_y.AddVar(x, 0.0);  // a present term with all-zero coefficients
  LinAgg w = only_y.Eval(store, 0);
  EXPECT_DOUBLE_EQ(w.count, 2);
  EXPECT_DOUBLE_EQ(w.sum, 3);
  EXPECT_DOUBLE_EQ(w.count_e, 4);
  EXPECT_DOUBLE_EQ(only_y.EvalCount(store, 0), 2);
}

TEST(ExprTest, PerContextScoping) {
  // A variable never set for a context evaluates to zero there — this is
  // what scopes node expressions to window instances.
  SnapshotStore store;
  SnapshotId x = store.Create();
  store.Set(x, 0, LinAgg{.count = 5, .sum = 0, .count_e = 0});
  Expr e = Expr::Var(x);
  EXPECT_DOUBLE_EQ(e.EvalCount(store, 0), 5);
  EXPECT_DOUBLE_EQ(e.EvalCount(store, 1), 0);
}

TEST(ExprTest, ToStringShowsCoefficients) {
  Expr e;
  e.AddConst(LinAgg{.count = 2, .sum = 0, .count_e = 0});
  e.AddVar(3, 4.0);
  EXPECT_EQ(e.ToString(), "2 + 4*x3");
}

TEST(CtxMapTest, MutGetErase) {
  CtxMap<int> m;
  m.Mut(5) = 42;
  EXPECT_EQ(m.Get(5, -1), 42);
  EXPECT_EQ(m.Get(6, -1), -1);
  EXPECT_TRUE(m.Contains(5));
  m.Erase(5);
  EXPECT_FALSE(m.Contains(5));
  EXPECT_EQ(m.size(), 0u);
}

}  // namespace
}  // namespace hamlet
