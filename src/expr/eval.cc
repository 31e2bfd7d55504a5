#include "expr/eval.h"

namespace sieve {

namespace {

bool CompareValues(CompareOp op, const Value& a, const Value& b) {
  int c = a.Compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

// Truth value of `v` under tri-state logic: -1 NULL, 0 false, 1 true.
int8_t TriFromValue(const Value& v) {
  if (v.is_null()) return -1;
  return v.AsBool() ? 1 : 0;
}

// Type family mirror of Value::Compare's Family(): numbers compare
// numerically, everything else within its own family only.
int TypeFamily(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt:
    case DataType::kDouble:
      return 2;
    case DataType::kTime:
      return 3;
    case DataType::kDate:
      return 4;
    case DataType::kString:
      return 5;
  }
  return 6;
}

bool IsI64Repr(DataType t) {
  return t == DataType::kBool || t == DataType::kInt || t == DataType::kTime ||
         t == DataType::kDate;
}

// Operator for the operand-swapped comparison: (a op b) == (b flip(op) a).
CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

// Verdict lookup for a three-way comparison outcome: lut[c + 1] is the
// predicate's truth value when Compare returned c. Hoisting the CompareOp
// switch out of the inner loops keeps them branch-free.
struct CmpLut {
  int8_t v[3];
  explicit CmpLut(CompareOp op) {
    auto verdict = [op](int c) -> int8_t {
      switch (op) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      return 0;
    };
    v[0] = verdict(-1);
    v[1] = verdict(0);
    v[2] = verdict(1);
  }
  int8_t operator[](int c) const { return v[c + 1]; }
};

inline int CmpI64(int64_t a, int64_t b) { return (a > b) - (a < b); }
inline int CmpF64(double a, double b) { return (a > b) - (a < b); }
inline int CmpStr(std::string_view a, std::string_view b) {
  int c = a.compare(b);
  return (c > 0) - (c < 0);
}

// A cell decomposed for comparison without constructing a Value.
struct CellRef {
  DataType type = DataType::kNull;
  int64_t i = 0;
  double d = 0.0;
  std::string_view s;

  bool is_null() const { return type == DataType::kNull; }
  double AsDouble() const {
    return type == DataType::kDouble ? d : static_cast<double>(i);
  }
};

CellRef CellFromValue(const Value& v) {
  CellRef c;
  c.type = v.type();
  switch (v.type()) {
    case DataType::kDouble:
      c.d = v.AsDouble();
      break;
    case DataType::kString:
      c.s = v.AsString();
      break;
    default:
      c.i = v.raw();
      break;
  }
  return c;
}

CellRef CellFromColumn(const RowBatch::Column& col, size_t p) {
  if (col.generic) return CellFromValue(col.cells[p]);
  CellRef c;
  if (col.nulls[p]) return c;
  c.type = col.type;
  switch (col.type) {
    case DataType::kDouble:
      c.d = col.f64[p];
      break;
    case DataType::kString:
      c.s = col.str[p];
      break;
    default:
      c.i = col.i64[p];
      break;
  }
  return c;
}

// Exact mirror of Value::Compare over decomposed cells.
int CompareCells(const CellRef& a, const CellRef& b) {
  int fa = TypeFamily(a.type);
  int fb = TypeFamily(b.type);
  if (fa != fb) return fa < fb ? -1 : 1;
  switch (a.type) {
    case DataType::kNull:
      return 0;
    case DataType::kString:
      return CmpStr(a.s, b.s);
    case DataType::kInt:
    case DataType::kDouble:
      if (a.type == DataType::kInt && b.type == DataType::kInt) {
        return CmpI64(a.i, b.i);
      }
      return CmpF64(a.AsDouble(), b.AsDouble());
    default:
      return CmpI64(a.i, b.i);
  }
}

// A comparison/BETWEEN/IN operand resolved once per batch: either a
// constant or a bound column index. Anything else (nested expressions,
// UDFs) makes the enclosing node fall back to row-at-a-time evaluation.
struct BatchOperand {
  const Value* constant = nullptr;
  int column = -1;
  const ColumnRefExpr* ref = nullptr;  // for the out-of-range error message

  Status CheckBounds(const RowBatch& batch) const {
    if (constant == nullptr &&
        static_cast<size_t>(column) >= batch.num_columns()) {
      return Status::ExecutionError("column index out of range: " +
                                    ref->FullName());
    }
    return Status::OK();
  }
};

// Resolves `e` to a BatchOperand, late-binding unbound column refs against
// `schema` exactly like the row-at-a-time path. Returns false when the
// operand is not batchable.
Result<bool> ResolveOperand(const Expr& e, const Schema& schema,
                            BatchOperand* out) {
  if (e.kind() == ExprKind::kLiteral) {
    out->constant = &static_cast<const LiteralExpr&>(e).value();
    return true;
  }
  if (e.kind() == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(e);
    if (ref.bound_index() < 0) {
      auto* mutable_ref = const_cast<ColumnRefExpr*>(&ref);
      SIEVE_RETURN_IF_ERROR(BindExpr(mutable_ref, schema));
    }
    out->column = ref.bound_index();
    out->ref = &ref;
    return true;
  }
  return false;
}

// Runs f(p) over the physical index of every active row, writing the
// result into tri at the row's active position. The dense case (no
// selection vector, all rows active — the hot scan→filter path) collapses
// to a straight-line loop over [0, n) that the auto-vectorizer can SIMD.
// Active sets are strictly increasing subsets of [0, size), so a full-
// size active set with no selection is exactly the identity mapping.
template <typename F>
inline void ApplyKernel(const RowBatch& batch,
                        const std::vector<uint32_t>& active,
                        std::vector<int8_t>* tri, F&& f) {
  if (batch.selection() == nullptr && active.size() == batch.size()) {
    const size_t n = active.size();
    int8_t* t = tri->data();
    for (size_t p = 0; p < n; ++p) t[p] = f(p);
    return;
  }
  for (uint32_t k : active) (*tri)[k] = f(batch.RowIndexAt(k));
}

// Tri-state verdict of one comparison evaluation per active row. Tier A:
// branch-free typed loops for the common shapes (typed column vs constant,
// typed column vs typed column). Tier B: the general CellRef loop — still
// columnar and Value-free, just not branch-free.
void CompareKernel(const RowBatch& batch, const std::vector<uint32_t>& active,
                   const BatchOperand& left, const BatchOperand& right,
                   CompareOp op, std::vector<int8_t>* tri) {
  const CmpLut lut(op);

  // Constant vs constant: one evaluation covers every active row.
  if (left.constant != nullptr && right.constant != nullptr) {
    const int8_t t = (left.constant->is_null() || right.constant->is_null())
                         ? static_cast<int8_t>(-1)
                         : lut[CompareCells(CellFromValue(*left.constant),
                                            CellFromValue(*right.constant))];
    ApplyKernel(batch, active, tri, [t](size_t) { return t; });
    return;
  }

  // Column vs constant (either side; comparison flips the lut, not the
  // loop): the guard hot path.
  if (left.constant != nullptr || right.constant != nullptr) {
    const bool const_on_right = right.constant != nullptr;
    const Value& cv = const_on_right ? *right.constant : *left.constant;
    const RowBatch::Column& col = batch.column(static_cast<size_t>(
        const_on_right ? left.column : right.column));

    if (cv.is_null()) {
      // NULL constant: every evaluation yields NULL.
      ApplyKernel(batch, active, tri,
                  [](size_t) { return static_cast<int8_t>(-1); });
      return;
    }

    if (!col.generic) {
      if (col.type == DataType::kNull) {
        // Every cell of the column is NULL.
        ApplyKernel(batch, active, tri,
                    [](size_t) { return static_cast<int8_t>(-1); });
        return;
      }
      const int col_fam = TypeFamily(col.type);
      const int cv_fam = TypeFamily(cv.type());
      const uint8_t* nulls = col.nulls;
      if (col_fam != cv_fam) {
        // Cross-family comparison: constant verdict for non-null cells.
        int c = col_fam < cv_fam ? -1 : 1;
        if (!const_on_right) c = -c;
        const int8_t t = lut[c];
        ApplyKernel(batch, active, tri, [nulls, t](size_t p) {
          return nulls[p] ? static_cast<int8_t>(-1) : t;
        });
        return;
      }
      // Tier A typed loops. The sign flip for constant-on-left reuses the
      // same loops with a mirrored lut.
      const CmpLut dir = const_on_right ? lut : CmpLut(FlipCompareOp(op));
      if (IsI64Repr(col.type) &&
          !(col.type == DataType::kInt && cv.type() == DataType::kDouble)) {
        const int64_t* data = col.i64;
        const int64_t c = cv.raw();
        ApplyKernel(batch, active, tri, [nulls, data, c, &dir](size_t p) {
          return nulls[p] ? static_cast<int8_t>(-1) : dir[CmpI64(data[p], c)];
        });
        return;
      }
      if (col.type == DataType::kInt || col.type == DataType::kDouble) {
        // Numeric family with a double on either side: compare as double.
        const double c = cv.AsDouble();
        if (col.type == DataType::kDouble) {
          const double* data = col.f64;
          ApplyKernel(batch, active, tri, [nulls, data, c, &dir](size_t p) {
            return nulls[p] ? static_cast<int8_t>(-1)
                            : dir[CmpF64(data[p], c)];
          });
        } else {
          const int64_t* data = col.i64;
          ApplyKernel(batch, active, tri, [nulls, data, c, &dir](size_t p) {
            return nulls[p] ? static_cast<int8_t>(-1)
                            : dir[CmpF64(static_cast<double>(data[p]), c)];
          });
        }
        return;
      }
      if (col.type == DataType::kString) {
        const std::string_view* data = col.str;
        const std::string_view c(cv.AsString());
        ApplyKernel(batch, active, tri, [nulls, data, c, &dir](size_t p) {
          return nulls[p] ? static_cast<int8_t>(-1) : dir[CmpStr(data[p], c)];
        });
        return;
      }
    }

    // Tier B: demoted column vs constant.
    const CellRef cc = CellFromValue(cv);
    if (const_on_right) {
      ApplyKernel(batch, active, tri, [&col, &cc, &lut](size_t p) {
        CellRef a = CellFromColumn(col, p);
        return a.is_null() ? static_cast<int8_t>(-1)
                           : lut[CompareCells(a, cc)];
      });
    } else {
      ApplyKernel(batch, active, tri, [&col, &cc, &lut](size_t p) {
        CellRef b = CellFromColumn(col, p);
        return b.is_null() ? static_cast<int8_t>(-1)
                           : lut[CompareCells(cc, b)];
      });
    }
    return;
  }

  // Column vs column.
  const RowBatch::Column& lc = batch.column(static_cast<size_t>(left.column));
  const RowBatch::Column& rc = batch.column(static_cast<size_t>(right.column));
  if (!lc.generic && !rc.generic && IsI64Repr(lc.type) &&
      IsI64Repr(rc.type) && TypeFamily(lc.type) == TypeFamily(rc.type)) {
    // Tier A: both sides int64-repr in the same family (covers int-int,
    // time-time, date-date, bool-bool). Int-vs-double shares a family but
    // is NOT eligible — the double side has no i64 array and the
    // comparison must run as doubles (Tier B via CompareCells).
    const uint8_t* ln = lc.nulls;
    const uint8_t* rn = rc.nulls;
    const int64_t* la = lc.i64;
    const int64_t* ra = rc.i64;
    ApplyKernel(batch, active, tri, [ln, rn, la, ra, &lut](size_t p) {
      return (ln[p] | rn[p]) ? static_cast<int8_t>(-1)
                             : lut[CmpI64(la[p], ra[p])];
    });
    return;
  }
  // Tier B: the general columnar loop.
  ApplyKernel(batch, active, tri, [&lc, &rc, &lut](size_t p) {
    CellRef a = CellFromColumn(lc, p);
    CellRef b = CellFromColumn(rc, p);
    return (a.is_null() || b.is_null()) ? static_cast<int8_t>(-1)
                                        : lut[CompareCells(a, b)];
  });
}

}  // namespace

Status Evaluator::EvalPredicateBatch(const Expr& expr, const RowBatch& batch,
                                     std::vector<uint8_t>* pass) {
  const size_t n = batch.size();
  pass->assign(n, 0);
  if (n == 0) return Status::OK();
  std::vector<uint32_t> active(n);
  for (size_t k = 0; k < n; ++k) active[k] = static_cast<uint32_t>(k);
  std::vector<int8_t> tri(n, 0);
  SIEVE_RETURN_IF_ERROR(EvalBoolBatch(expr, batch, active, &tri));
  for (size_t k = 0; k < n; ++k) {
    (*pass)[k] = tri[k] == 1 ? 1 : 0;  // NULL → false (WHERE semantics)
  }
  return Status::OK();
}

Status Evaluator::EvalBoolBatch(const Expr& expr, const RowBatch& batch,
                                const std::vector<uint32_t>& active,
                                std::vector<int8_t>* tri) {
  // Row-at-a-time fallback for sub-expressions the column kernels do not
  // cover (UDF calls, subqueries, non-constant IN lists, nested
  // comparisons): materializes and evaluates exactly the active rows, so
  // semantics and ExecStats counters match the serial interpreter by
  // construction.
  auto row_wise = [&](const Expr& e) -> Status {
    for (uint32_t k : active) {
      batch.MaterializeRow(k, &scratch_row_);
      SIEVE_ASSIGN_OR_RETURN(Value v, Eval(e, scratch_row_));
      (*tri)[k] = TriFromValue(v);
    }
    return Status::OK();
  };

  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      const int8_t t =
          TriFromValue(static_cast<const LiteralExpr&>(expr).value());
      for (uint32_t k : active) (*tri)[k] = t;
      return Status::OK();
    }

    case ExprKind::kColumnRef: {
      BatchOperand ref;
      SIEVE_ASSIGN_OR_RETURN(bool ok, ResolveOperand(expr, *schema_, &ref));
      if (!ok) return row_wise(expr);
      SIEVE_RETURN_IF_ERROR(ref.CheckBounds(batch));
      const RowBatch::Column& col =
          batch.column(static_cast<size_t>(ref.column));
      if (col.generic) {
        ApplyKernel(batch, active, tri, [&col](size_t p) {
          return TriFromValue(col.cells[p]);
        });
      } else if (IsI64Repr(col.type)) {
        const uint8_t* nulls = col.nulls;
        const int64_t* data = col.i64;
        ApplyKernel(batch, active, tri, [nulls, data](size_t p) {
          return nulls[p] ? static_cast<int8_t>(-1)
                          : static_cast<int8_t>(data[p] != 0);
        });
      } else {
        // kNull (all cells NULL), kDouble and kString: Value::AsBool reads
        // the integer payload, which is 0 for these — non-null cells are
        // uniformly false, exactly like the row path.
        const uint8_t* nulls = col.nulls;
        ApplyKernel(batch, active, tri, [nulls, &col](size_t p) {
          return (col.type == DataType::kNull || nulls[p])
                     ? static_cast<int8_t>(-1)
                     : static_cast<int8_t>(0);
        });
      }
      return Status::OK();
    }

    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      BatchOperand left, right;
      SIEVE_ASSIGN_OR_RETURN(bool lok,
                             ResolveOperand(*cmp.left(), *schema_, &left));
      SIEVE_ASSIGN_OR_RETURN(bool rok,
                             ResolveOperand(*cmp.right(), *schema_, &right));
      if (!lok || !rok) return row_wise(expr);
      SIEVE_RETURN_IF_ERROR(left.CheckBounds(batch));
      SIEVE_RETURN_IF_ERROR(right.CheckBounds(batch));
      // The row path counts one comparison per evaluated row, before the
      // null check.
      if (stats_ != nullptr) stats_->comparisons += active.size();
      CompareKernel(batch, active, left, right, cmp.op(), tri);
      return Status::OK();
    }

    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      BatchOperand input, lo, hi;
      SIEVE_ASSIGN_OR_RETURN(
          bool iok, ResolveOperand(*between.input(), *schema_, &input));
      SIEVE_ASSIGN_OR_RETURN(bool lok,
                             ResolveOperand(*between.lo(), *schema_, &lo));
      SIEVE_ASSIGN_OR_RETURN(bool hok,
                             ResolveOperand(*between.hi(), *schema_, &hi));
      if (!iok || !lok || !hok) return row_wise(expr);
      SIEVE_RETURN_IF_ERROR(input.CheckBounds(batch));
      SIEVE_RETURN_IF_ERROR(lo.CheckBounds(batch));
      SIEVE_RETURN_IF_ERROR(hi.CheckBounds(batch));
      if (stats_ != nullptr) stats_->comparisons += active.size();

      // Tier A: typed column between two same-family int64 constants — the
      // shape of every time/date guard range.
      if (input.constant == nullptr && lo.constant != nullptr &&
          hi.constant != nullptr && !lo.constant->is_null() &&
          !hi.constant->is_null()) {
        const RowBatch::Column& col =
            batch.column(static_cast<size_t>(input.column));
        if (!col.generic && IsI64Repr(col.type) &&
            lo.constant->type() == col.type &&
            hi.constant->type() == col.type) {
          const uint8_t* nulls = col.nulls;
          const int64_t* data = col.i64;
          const int64_t l = lo.constant->raw();
          const int64_t h = hi.constant->raw();
          ApplyKernel(batch, active, tri, [nulls, data, l, h](size_t p) {
            return nulls[p] ? static_cast<int8_t>(-1)
                            : static_cast<int8_t>(data[p] >= l && data[p] <= h);
          });
          return Status::OK();
        }
      }

      // Tier B: general columnar loop.
      auto cell_of = [&batch](const BatchOperand& o, size_t p) {
        return o.constant != nullptr
                   ? CellFromValue(*o.constant)
                   : CellFromColumn(batch.column(static_cast<size_t>(o.column)),
                                    p);
      };
      ApplyKernel(batch, active, tri, [&](size_t p) {
        CellRef v = cell_of(input, p);
        CellRef l = cell_of(lo, p);
        CellRef h = cell_of(hi, p);
        return (v.is_null() || l.is_null() || h.is_null())
                   ? static_cast<int8_t>(-1)
                   : static_cast<int8_t>(CompareCells(v, l) >= 0 &&
                                         CompareCells(v, h) <= 0);
      });
      return Status::OK();
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      const auto* set = in.ConstantSet();
      BatchOperand input;
      SIEVE_ASSIGN_OR_RETURN(bool iok,
                             ResolveOperand(*in.input(), *schema_, &input));
      if (set == nullptr || !iok) return row_wise(expr);
      SIEVE_RETURN_IF_ERROR(input.CheckBounds(batch));
      const bool negated = in.negated();
      // The row path counts one comparison per non-null input only; the
      // hash-set probe needs a Value, so reconstruct per active row (IN
      // nodes are rare next to comparison guards).
      for (uint32_t k : active) {
        Value v = input.constant != nullptr
                      ? *input.constant
                      : batch.ValueAt(k, static_cast<size_t>(input.column));
        if (v.is_null()) {
          (*tri)[k] = -1;
          continue;
        }
        if (stats_ != nullptr) ++stats_->comparisons;
        bool found = set->count(v) > 0;
        (*tri)[k] = static_cast<int8_t>(negated ? !found : found);
      }
      return Status::OK();
    }

    case ExprKind::kAnd: {
      // Mirror of the short-circuit conjunction: a row leaves the active
      // set at its first false/NULL child, so child k only ever sees the
      // rows for which the serial interpreter would have evaluated it.
      const auto& conj = static_cast<const AndExpr&>(expr);
      for (uint32_t k : active) (*tri)[k] = 1;
      std::vector<uint32_t> act = active;
      std::vector<uint32_t> next;
      std::vector<int8_t> child_tri(tri->size(), 0);
      for (const auto& child : conj.children()) {
        if (act.empty()) break;
        SIEVE_RETURN_IF_ERROR(EvalBoolBatch(*child, batch, act, &child_tri));
        next.clear();
        for (uint32_t k : act) {
          if (child_tri[k] == 1) {
            next.push_back(k);
          } else {
            (*tri)[k] = 0;  // NULL collapses to false, like the row path
          }
        }
        act.swap(next);
      }
      return Status::OK();
    }

    case ExprKind::kOr: {
      // Mirror of the short-circuit disjunction: a row leaves the active
      // set at its first true child; rows with only false/NULL children
      // end at false (the row path never returns NULL from OR).
      const auto& disj = static_cast<const OrExpr&>(expr);
      for (uint32_t k : active) (*tri)[k] = 0;
      std::vector<uint32_t> act = active;
      std::vector<uint32_t> next;
      std::vector<int8_t> child_tri(tri->size(), 0);
      for (const auto& child : disj.children()) {
        if (act.empty()) break;
        SIEVE_RETURN_IF_ERROR(EvalBoolBatch(*child, batch, act, &child_tri));
        next.clear();
        for (uint32_t k : act) {
          if (child_tri[k] == 1) {
            (*tri)[k] = 1;
          } else {
            next.push_back(k);
          }
        }
        act.swap(next);
      }
      return Status::OK();
    }

    case ExprKind::kNot: {
      const auto& neg = static_cast<const NotExpr&>(expr);
      std::vector<int8_t> child_tri(tri->size(), 0);
      SIEVE_RETURN_IF_ERROR(
          EvalBoolBatch(*neg.child(), batch, active, &child_tri));
      for (uint32_t k : active) {
        (*tri)[k] = child_tri[k] == -1 ? static_cast<int8_t>(-1)
                                       : static_cast<int8_t>(!child_tri[k]);
      }
      return Status::OK();
    }

    default:
      return row_wise(expr);
  }
}

Result<Value> Evaluator::Eval(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value();

    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      int idx = ref.bound_index();
      if (idx < 0) {
        // Late binding: tolerate unbound refs by resolving on the fly.
        auto* mutable_ref = const_cast<ColumnRefExpr*>(&ref);
        SIEVE_RETURN_IF_ERROR(BindExpr(mutable_ref, *schema_));
        idx = ref.bound_index();
      }
      if (static_cast<size_t>(idx) >= row.size()) {
        return Status::ExecutionError("column index out of range: " +
                                      ref.FullName());
      }
      return row[static_cast<size_t>(idx)];
    }

    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      SIEVE_ASSIGN_OR_RETURN(Value left, Eval(*cmp.left(), row));
      SIEVE_ASSIGN_OR_RETURN(Value right, Eval(*cmp.right(), row));
      if (stats_ != nullptr) ++stats_->comparisons;
      if (left.is_null() || right.is_null()) return Value::Null();
      return Value::Bool(CompareValues(cmp.op(), left, right));
    }

    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      SIEVE_ASSIGN_OR_RETURN(Value v, Eval(*between.input(), row));
      SIEVE_ASSIGN_OR_RETURN(Value lo, Eval(*between.lo(), row));
      SIEVE_ASSIGN_OR_RETURN(Value hi, Eval(*between.hi(), row));
      if (stats_ != nullptr) ++stats_->comparisons;
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      return Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      SIEVE_ASSIGN_OR_RETURN(Value v, Eval(*in.input(), row));
      if (v.is_null()) return Value::Null();
      // Constant IN lists are probed through a hash set (one comparison),
      // the way production engines evaluate large literal lists.
      if (const auto* set = in.ConstantSet()) {
        if (stats_ != nullptr) ++stats_->comparisons;
        bool found = set->count(v) > 0;
        return Value::Bool(in.negated() ? !found : found);
      }
      bool found = false;
      for (const auto& item : in.items()) {
        SIEVE_ASSIGN_OR_RETURN(Value candidate, Eval(*item, row));
        if (stats_ != nullptr) ++stats_->comparisons;
        if (!candidate.is_null() && v.Compare(candidate) == 0) {
          found = true;
          break;
        }
      }
      return Value::Bool(in.negated() ? !found : found);
    }

    case ExprKind::kAnd: {
      const auto& conj = static_cast<const AndExpr&>(expr);
      for (const auto& child : conj.children()) {
        SIEVE_ASSIGN_OR_RETURN(Value v, Eval(*child, row));
        if (v.is_null() || !v.AsBool()) return Value::Bool(false);
      }
      return Value::Bool(true);
    }

    case ExprKind::kOr: {
      const auto& disj = static_cast<const OrExpr&>(expr);
      for (const auto& child : disj.children()) {
        SIEVE_ASSIGN_OR_RETURN(Value v, Eval(*child, row));
        if (!v.is_null() && v.AsBool()) return Value::Bool(true);
      }
      return Value::Bool(false);
    }

    case ExprKind::kNot: {
      const auto& neg = static_cast<const NotExpr&>(expr);
      SIEVE_ASSIGN_OR_RETURN(Value v, Eval(*neg.child(), row));
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.AsBool());
    }

    case ExprKind::kUdfCall: {
      const auto& call = static_cast<const UdfCallExpr&>(expr);
      if (hooks_ == nullptr) {
        return Status::ExecutionError("UDF call without engine hooks: " +
                                      call.name());
      }
      std::vector<Value> args;
      args.reserve(call.args().size());
      for (const auto& arg : call.args()) {
        SIEVE_ASSIGN_OR_RETURN(Value v, Eval(*arg, row));
        args.push_back(std::move(v));
      }
      return hooks_->CallUdf(call.name(), args, *schema_, row, metadata_,
                             stats_);
    }

    case ExprKind::kParameter: {
      const auto& param = static_cast<const ParameterExpr&>(expr);
      return Status::ExecutionError(
          "unbound parameter " + param.ToSql() +
          ": bind values through PreparedQuery::Execute");
    }

    case ExprKind::kSubquery: {
      const auto& sub = static_cast<const SubqueryExpr&>(expr);
      if (hooks_ == nullptr) {
        return Status::ExecutionError("subquery without engine hooks");
      }
      if (stats_ != nullptr) ++stats_->subquery_execs;
      return hooks_->EvalScalarSubquery(sub.sql(), *schema_, row, metadata_,
                                        stats_);
    }
  }
  return Status::Internal("unhandled expression kind in Eval");
}

Result<bool> Evaluator::EvalPredicate(const Expr& expr, const Row& row) {
  SIEVE_ASSIGN_OR_RETURN(Value v, Eval(expr, row));
  if (v.is_null()) return false;
  return v.AsBool();
}

}  // namespace sieve
