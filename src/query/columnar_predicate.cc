#include "src/query/columnar_predicate.h"

#include <bit>
#include <cstring>
#include <string>

namespace hamlet {

void SelectionMask::AssignAll(int rows) {
  rows_ = rows;
  const size_t words = (static_cast<size_t>(rows) + 63) / 64;
  words_.assign(words, ~uint64_t{0});
  // Clear the tail bits past the last row so CountSelected stays exact.
  const int tail = rows & 63;
  if (tail != 0 && !words_.empty())
    words_.back() &= (uint64_t{1} << tail) - 1;
}

void SelectionMask::AssignNone(int rows) {
  rows_ = rows;
  words_.assign((static_cast<size_t>(rows) + 63) / 64, 0);
}

int SelectionMask::CountSelected() const {
  int n = 0;
  for (uint64_t w : words_) n += std::popcount(w);
  return n;
}

void CmpColumnKernel(CmpOp op, const double* col, int rows, double constant,
                     uint8_t* out01) {
  // One loop per op: the comparison compiles to a vector compare + mask
  // narrow, with no per-element branch. IEEE semantics (NaN fails all ops
  // except !=) fall out of the native compares, matching EvalCmp exactly.
  switch (op) {
    case CmpOp::kLt:
      for (int i = 0; i < rows; ++i) out01[i] = col[i] < constant ? 1 : 0;
      break;
    case CmpOp::kLe:
      for (int i = 0; i < rows; ++i) out01[i] = col[i] <= constant ? 1 : 0;
      break;
    case CmpOp::kGt:
      for (int i = 0; i < rows; ++i) out01[i] = col[i] > constant ? 1 : 0;
      break;
    case CmpOp::kGe:
      for (int i = 0; i < rows; ++i) out01[i] = col[i] >= constant ? 1 : 0;
      break;
    case CmpOp::kEq:
      for (int i = 0; i < rows; ++i) out01[i] = col[i] == constant ? 1 : 0;
      break;
    case CmpOp::kNe:
      for (int i = 0; i < rows; ++i) out01[i] = col[i] != constant ? 1 : 0;
      break;
  }
}

void TypeGateAnd(const TypeId* types, int rows, TypeId type,
                 const uint8_t* pass01, uint8_t* acc01) {
  for (int i = 0; i < rows; ++i) {
    acc01[i] &= static_cast<uint8_t>((types[i] != type) ? 1 : pass01[i]);
  }
}

void PackMask(const uint8_t* bytes01, int rows, SelectionMask* out) {
  out->AssignNone(rows);
  for (int i = 0; i < rows; ++i) {
    out->words_[static_cast<size_t>(i) >> 6] |=
        static_cast<uint64_t>(bytes01[i] & 1) << (static_cast<size_t>(i) & 63);
  }
}

void MaskedLinAggKernel(const double* col, const uint8_t* mask01, int rows,
                        double* count, double* sum) {
  double c = 0.0;
  double s = 0.0;
  for (int i = 0; i < rows; ++i) {
    const double m = static_cast<double>(mask01[i]);
    c += m;
    s += m * col[i];
  }
  *count = c;
  *sum = s;
}

Result<PredicateProgram> PredicateProgram::Compile(
    const Schema& schema, std::span<const PredicateList> lists) {
  PredicateProgram program;
  for (const PredicateList& list : lists) {
    if (list.preds == nullptr || list.preds->empty()) continue;
    QueryPreds qp;
    qp.first = static_cast<int>(program.preds_.size());
    for (const EventPredicate& p : *list.preds) {
      if (p.type == Schema::kInvalidId || p.type < 0 ||
          p.type >= schema.num_types()) {
        return Status::InvalidArgument(
            "predicate \"" + p.ToString() + "\" of exec query " +
            std::to_string(list.exec_id) +
            " references a type unknown to the schema (resolve predicates "
            "before Open)");
      }
      if (p.attr == Schema::kInvalidId || p.attr < 0 ||
          p.attr >= schema.num_attrs()) {
        return Status::InvalidArgument(
            "predicate \"" + p.ToString() + "\" of exec query " +
            std::to_string(list.exec_id) +
            " references an attribute unknown to the schema (resolve "
            "predicates before Open)");
      }
      CompiledPredicate cp;
      cp.type = p.type;
      cp.attr = p.attr;
      cp.op = p.op;
      cp.constant = p.constant;
      program.preds_.push_back(cp);
    }
    qp.count = static_cast<int>(program.preds_.size()) - qp.first;
    program.queries_.push_back(qp);
    program.pred_execs_.push_back(list.exec_id);
  }
  return program;
}

void PredicateProgram::EvalBatch(const EventBatch& batch,
                                 BatchSelection* out) const {
  const int rows = batch.size();
  out->masks.resize(queries_.size());
  if (queries_.empty()) return;
  out->acc.resize(static_cast<size_t>(rows));
  out->tmp.resize(static_cast<size_t>(rows));
  const TypeId* types = batch.types().data();
  for (size_t k = 0; k < queries_.size(); ++k) {
    const QueryPreds& qp = queries_[k];
    if (rows > 0) std::memset(out->acc.data(), 1, static_cast<size_t>(rows));
    for (int pi = qp.first; pi < qp.first + qp.count; ++pi) {
      const CompiledPredicate& p = preds_[static_cast<size_t>(pi)];
      const double* col = batch.column_data(p.attr);
      if (col != nullptr) {
        CmpColumnKernel(p.op, col, rows, p.constant, out->tmp.data());
      } else {
        // No row ever carried this attribute: the scalar evaluator reads the
        // zero-initialized attrs slot, so compare 0.0 once and broadcast.
        const uint8_t pass = EvalCmp(p.op, 0.0, p.constant) ? 1 : 0;
        if (rows > 0)
          std::memset(out->tmp.data(), pass, static_cast<size_t>(rows));
      }
      TypeGateAnd(types, rows, p.type, out->tmp.data(), out->acc.data());
    }
    PackMask(out->acc.data(), rows, &out->masks[k]);
  }
}

bool PredicateProgram::EvalRow(int k, const Event& e) const {
  const QueryPreds& qp = queries_[static_cast<size_t>(k)];
  for (int pi = qp.first; pi < qp.first + qp.count; ++pi) {
    const CompiledPredicate& p = preds_[static_cast<size_t>(pi)];
    if (e.type != p.type) continue;
    const double v = p.attr < e.num_attrs
                         ? e.attrs[static_cast<size_t>(p.attr)]
                         : 0.0;
    if (!EvalCmp(p.op, v, p.constant)) return false;
  }
  return true;
}

}  // namespace hamlet
