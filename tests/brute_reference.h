// Brute-force emission oracle for runtime tests.
//
// Computes every query's expected value per (query, group, window instance)
// with the src/brute enumerator, independently of any runtime dispatch
// path, and checks a run's emissions against it. The enumerator is
// exponential in trend length, so callers keep their streams small enough
// that every window stays under its trend budget (a budget overrun fails
// the test rather than skipping the window).
#ifndef HAMLET_TESTS_BRUTE_REFERENCE_H_
#define HAMLET_TESTS_BRUTE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/brute/enumerator.h"
#include "src/runtime/session.h"

namespace hamlet::test {

/// (source query, group key, window start) -> expected value.
using ReferenceMap = std::map<std::tuple<QueryId, int64_t, Timestamp>, double>;

inline int64_t GroupKeyOf(const Event& e, AttrId group_by) {
  return group_by == Schema::kInvalidId
             ? 0
             : static_cast<int64_t>(std::llround(e.attr(group_by)));
}

/// Expected value of every slide-aligned window instance in [0, last event
/// + largest WITHIN), for every group key present in `events`.
inline ReferenceMap BruteReference(const WorkloadPlan& plan,
                                   const EventVector& events) {
  ReferenceMap out;
  if (events.empty()) return out;
  Timestamp horizon = 0;
  for (const ExecQuery& eq : plan.exec_queries)
    horizon = std::max(horizon, eq.window.within);
  const Timestamp t_max = events.back().time + horizon;
  for (QueryId query = 0; query < plan.workload->size(); ++query) {
    const CompositionRule& rule =
        plan.compositions[static_cast<size_t>(query)];
    const ExecQuery& first =
        plan.exec_queries[static_cast<size_t>(rule.exec_ids[0])];
    const WindowSpec& spec = first.window;
    const AttrId group_by = first.group_by;
    std::vector<int64_t> keys;
    for (const Event& e : events) {
      const int64_t k = GroupKeyOf(e, group_by);
      if (std::find(keys.begin(), keys.end(), k) == keys.end())
        keys.push_back(k);
    }
    for (int64_t key : keys) {
      for (Timestamp ws = 0; ws < t_max; ws += spec.slide) {
        EventVector in_window;
        for (const Event& e : events) {
          if (e.time < ws || e.time >= ws + spec.within) continue;
          if (GroupKeyOf(e, group_by) == key) in_window.push_back(e);
        }
        std::vector<double> branch_values;
        for (int exec : rule.exec_ids) {
          Result<BruteResult> r = BruteForceEval(
              plan.exec_queries[static_cast<size_t>(exec)], in_window);
          HAMLET_CHECK(r.ok());  // stream too large for the trend budget
          branch_values.push_back(r.value().value);
        }
        out[{query, key, ws}] = ComposeQueryValue(rule, branch_values);
      }
    }
  }
  return out;
}

/// Every emission must name a reference window and match its value. The
/// runtime only emits windows it opened (those covering panes at/after the
/// group's first event), so this checks values, not completeness.
/// `rel_tol` == 0 compares within 4 ULPs; a positive `rel_tol` allows that
/// relative error instead, for SUM/AVG windows with millions of trends,
/// where the enumerator's per-trend summation order rounds differently.
inline void ExpectEmissionsMatch(const std::vector<Emission>& emissions,
                                 const ReferenceMap& ref,
                                 const std::string& label,
                                 double rel_tol = 0.0) {
  ASSERT_GT(emissions.size(), 0u) << label;
  for (const Emission& e : emissions) {
    auto it = ref.find({e.query, e.group_key, e.window_start});
    ASSERT_NE(it, ref.end())
        << label << " unexpected window q" << e.query << " g" << e.group_key
        << " ws=" << e.window_start;
    if (rel_tol > 0) {
      if (e.value == it->second) continue;  // covers equal infinities
      EXPECT_NEAR(e.value, it->second,
                  rel_tol * std::max(1.0, std::fabs(it->second)))
          << label << " q" << e.query << " g" << e.group_key
          << " ws=" << e.window_start;
    } else {
      EXPECT_DOUBLE_EQ(e.value, it->second)
          << label << " q" << e.query << " g" << e.group_key
          << " ws=" << e.window_start;
    }
  }
}

/// Completeness: no window is emitted twice, and every window instance of a
/// single-branch query that holds an event of its group whose type the
/// query's pattern mentions is emitted. Such an event creates (or finds)
/// the group's runner, whose windows then cover it. Queries for which
/// `expect_emits` returns false (e.g. patterns an engine does not support)
/// are exempt from the coverage half.
inline void ExpectRelevantWindowsEmitted(
    const std::vector<Emission>& emissions, const WorkloadPlan& plan,
    const EventVector& events, const std::string& label,
    const std::function<bool(QueryId)>& expect_emits = nullptr) {
  std::set<std::tuple<QueryId, int64_t, Timestamp>> emitted;
  for (const Emission& e : emissions) {
    EXPECT_TRUE(emitted.insert({e.query, e.group_key, e.window_start}).second)
        << label << " window emitted twice: q" << e.query << " g"
        << e.group_key << " ws=" << e.window_start;
  }
  for (QueryId query = 0; query < plan.workload->size(); ++query) {
    const CompositionRule& rule =
        plan.compositions[static_cast<size_t>(query)];
    if (rule.kind != CompositionKind::kSingle) continue;
    if (expect_emits && !expect_emits(query)) continue;
    const ExecQuery& eq =
        plan.exec_queries[static_cast<size_t>(rule.exec_ids[0])];
    const std::vector<TypeId> types = eq.tmpl.pattern.AllTypes();
    const WindowSpec& spec = eq.window;
    for (const Event& e : events) {
      if (std::find(types.begin(), types.end(), e.type) == types.end())
        continue;
      const int64_t key = GroupKeyOf(e, eq.group_by);
      for (Timestamp ws = (e.time / spec.slide) * spec.slide;
           ws >= 0 && ws > e.time - spec.within; ws -= spec.slide) {
        EXPECT_TRUE(emitted.count({query, key, ws}) == 1)
            << label << " missing window q" << query << " g" << key
            << " ws=" << ws;
      }
    }
  }
}

}  // namespace hamlet::test

#endif  // HAMLET_TESTS_BRUTE_REFERENCE_H_
