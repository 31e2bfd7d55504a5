#ifndef SIEVE_PLAN_OPERATORS_H_
#define SIEVE_PLAN_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "expr/eval.h"
#include "index/bitmap.h"
#include "parser/ast.h"
#include "plan/exec_context.h"
#include "plan/row_batch.h"
#include "storage/catalog.h"

namespace sieve {

class Operator;
using OperatorPtr = std::unique_ptr<Operator>;

/// Physical operator. The optimizer builds each one over its children and
/// binds every expression it hands it against its input schema, so an
/// operator knows its output schema from construction and Open never
/// resolves a name. Open() prepares state; rows are then pulled a batch
/// at a time through NextBatch, the only pull interface. Operators own
/// their children.
///
/// Batch contract: NextBatch clears *out, appends rows in stream order
/// and returns false exactly when the stream is exhausted and nothing was
/// appended. A true return with a partially filled (or, for expanding
/// operators such as joins, occasionally over-filled) batch is valid —
/// callers must keep pulling until false. Every operator implements it
/// natively (whole-morsel scans, one predicate-tree walk per filter
/// batch, batched join probes, buffered outputs served as views).
/// Timeout/cancel checks are per batch, not per row. Rows, row order and
/// ExecStats are identical at every batch capacity; a capacity of 1 runs
/// the same loops one row per batch.
///
/// Threading contract (applies to every subclass unless it says otherwise):
/// Open and NextBatch are driven by a single thread per operator
/// instance. Parallelism enters at two points, both preserving exact
/// serial rows, row order and ExecStats totals:
///   1. CreatePartitions (below) splits an opened pipeline into clones
///      that concurrent workers drive independently; the executor creates
///      several morsels per worker and hands them out dynamically (see
///      Executor::Materialize). Every materialization goes through it, and
///      the executor materializes each CTE before the query root opens,
///      so each policy-filtered CTE body fans out with the query's full
///      thread budget.
///   2. UnionOperator drains its arms concurrently from inside Open when
///      ctx->num_threads > 1, then dedups them on the calling thread.
/// Every other operator consumes its inputs serially.
class Operator {
 public:
  Operator() = default;
  // Plans hold operators by pointer, and some keep pointers into their own
  // members (the input their Open resolved), so none is copied or moved.
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;
  virtual ~Operator() = default;

  /// Prepares the operator for a full drain: opens children and (for
  /// blocking operators) may consume the whole input.
  virtual Status Open(ExecContext* ctx) = 0;
  /// Clears *out and appends up to out->capacity() rows (see the batch
  /// contract in the class comment).
  virtual Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) = 0;
  /// Output schema; valid from construction.
  virtual const Schema& schema() const = 0;
  /// One-line description for EXPLAIN output.
  virtual std::string name() const = 0;

  /// Partition-parallel support: when this operator's pipeline can be split
  /// into disjoint row partitions, fills *out with `num_parts` clones,
  /// where clone i produces exactly partition i's rows and concatenating
  /// partitions 0..num_parts-1 in order reproduces the serial row stream
  /// (so results, including row order, are identical to a serial run).
  /// Called on an opened operator that is not itself a clone. The clones
  /// borrow the input its Open resolved (probed row ids, materialized
  /// rows, the nested-loop inner side), so this operator must outlive
  /// them and must not be pulled itself. Clones may be opened and driven
  /// on concurrent threads; they only read what they borrow. Returns
  /// false (leaving *out untouched) when the subtree cannot be
  /// partitioned.
  virtual bool CreatePartitions(size_t num_parts,
                                std::vector<OperatorPtr>* out) const {
    (void)num_parts;
    (void)out;
    return false;
  }

  /// Rows a partitioned drain of this opened subtree slices: table slots
  /// for a sequential scan, the probed row ids, the materialized rows;
  /// filters, projections and the nested-loop join report their (outer)
  /// child's. PlanPartitionCount sizes morsels from it, so tiny inputs are
  /// not split into dozens of near-empty clones.
  virtual size_t PartitionRows() const { return 0; }
};

/// Qualifies every column of `schema` with `qualifier` (stripping any
/// existing qualifier), e.g. (id, owner) with "W" -> (W.id, W.owner).
Schema QualifySchema(const Schema& schema, const std::string& qualifier);

/// Contiguous slice [*begin, *end) of `total` items assigned to partition
/// `part` of `num_parts`. Handles empty inputs and total < num_parts (the
/// tail partitions come out empty). Shared by every partitioned scan so
/// all of them slice identically.
void PartitionSlice(size_t total, size_t part, size_t num_parts, size_t* begin,
                    size_t* end);

/// 64-bit hash of a full row. With RowsEqual it is the one row-key rule:
/// UNION/EXCEPT dedup, GROUP BY and the hash join's build table all use it.
uint64_t RowHash64(const Row& row);

/// Value-equality of two rows (SQL semantics via Value::Compare).
bool RowsEqual(const Row& a, const Row& b);

/// RowHash64 and RowsEqual as hash-table functors, for tables keyed by
/// rows of values (group keys, join keys).
struct RowKeyHash {
  size_t operator()(const Row& row) const { return RowHash64(row); }
};
struct RowKeyEqual {
  bool operator()(const Row& a, const Row& b) const {
    return RowsEqual(a, b);
  }
};

/// Exact set of rows, bucketed by RowHash64 and compared with RowsEqual:
/// the first-occurrence filter behind UNION and EXCEPT.
class RowSet {
 public:
  bool Contains(const Row& row) const;
  /// Adds a copy of `row` unless an equal row is present; returns whether
  /// it was added, i.e. whether this is the row's first occurrence.
  bool Insert(const Row& row);
  void clear() { buckets_.clear(); }

 private:
  std::unordered_map<uint64_t, std::vector<Row>> buckets_;
};

/// Printable fingerprint of a row (stable across runs), for comparing
/// result rows in tests; doubles print with %g, so it is no row key.
std::string RowFingerprint(const Row& row);

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Full table scan (counts tuples_scanned). Partition clones cover
/// contiguous, disjoint slot ranges of the table.
class SeqScanOperator : public Operator {
 public:
  SeqScanOperator(const TableEntry* entry, std::string qualifier);

  Status Open(ExecContext* ctx) override;
  /// Emits a whole batch of live rows per call (one timeout check, one
  /// stats update).
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;
  size_t PartitionRows() const override;

 private:
  SeqScanOperator(const TableEntry* entry, std::string qualifier,
                  RowId begin_slot, RowId end_slot);

  const TableEntry* entry_;
  std::string qualifier_;
  Schema schema_;
  RowId begin_slot_ = 0;
  RowId end_slot_ = -1;  // -1: the full table (resolved at Open)
  RowId next_id_ = 0;
  RowId scan_end_ = 0;
};

/// One contiguous key range probed on one index.
struct IndexRange {
  std::string column;
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;
};

/// Common machinery for scans that fetch an explicit row-id list computed
/// by an index probe: Open runs the probe, then NextBatch fetches live
/// rows in list order, counting index_probe_rows. Partition clones borrow
/// the opened scan's row ids and each fetch a disjoint contiguous slice of
/// them, so the probe runs once. Subclasses supply the probe, the display
/// name and an unopened copy of themselves.
class RowIdListScanOperator : public Operator {
 public:
  Status Open(ExecContext* ctx) override;
  /// Fetches a whole batch of row ids per call.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;
  /// The number of row ids the probe returned.
  size_t PartitionRows() const override { return ids_->size(); }

 protected:
  RowIdListScanOperator(const TableEntry* entry, std::string qualifier);

  /// Computes the row ids to fetch; run by Open of every scan but a clone.
  virtual Result<std::vector<RowId>> Probe() const = 0;
  /// A fresh, unopened scan over the same index ranges.
  virtual std::unique_ptr<RowIdListScanOperator> CloneUnopened() const = 0;

  const TableEntry* entry_;
  std::string qualifier_;
  Schema schema_;

 private:
  std::vector<RowId> row_ids_;                   // this scan's probe
  const std::vector<RowId>* ids_ = &row_ids_;    // a clone: its parent's
  size_t slice_begin_ = 0;                       // a clone's slice of *ids_
  size_t slice_end_ = static_cast<size_t>(-1);
  size_t pos_ = 0;
  size_t end_ = 0;
};

/// Index range scan over a single range — the access path behind a guard's
/// indexable condition (paper Section 4: guards are chosen precisely
/// because they index-scan a small superset of the allowed tuples).
class IndexRangeScanOperator : public RowIdListScanOperator {
 public:
  IndexRangeScanOperator(const TableEntry* entry, std::string qualifier,
                         IndexRange range);

  std::string name() const override;

 protected:
  Result<std::vector<RowId>> Probe() const override;
  std::unique_ptr<RowIdListScanOperator> CloneUnopened() const override;

 private:
  IndexRange range_;
};

/// OR of several index ranges merged through an in-memory row-id bitmap,
/// then fetched in row-id order — the PostgreSQL "BitmapOr + Bitmap Heap
/// Scan" plan shape that makes many-guard queries cheap (Experiments 4, 5).
class IndexUnionBitmapScanOperator : public RowIdListScanOperator {
 public:
  IndexUnionBitmapScanOperator(const TableEntry* entry, std::string qualifier,
                               std::vector<IndexRange> ranges);

  std::string name() const override;

 protected:
  Result<std::vector<RowId>> Probe() const override;
  std::unique_ptr<RowIdListScanOperator> CloneUnopened() const override;

 private:
  std::vector<IndexRange> ranges_;
};

/// One CTE definition as planned: its body and, once the executor has
/// materialized it, its rows (in the body's schema). PlannedQuery lists
/// these in dependency order, and the executor materializes them in that
/// order before the query root opens.
struct PlannedCte {
  std::string name;
  OperatorPtr body;
  std::vector<Row> rows;
};

/// Scan over a materialized result (CTE reference or derived table). In
/// Sieve plans this is how the policy-filtered CTE (`sieve_<table>`) is
/// consumed: the CTE body — guards plus the Δ operator over the base
/// table — has run once, before the query root opened, and every
/// reference reads its rows.
///
/// Threading: a derived table materializes its own child at Open through
/// Executor::Materialize, so its pipeline fans out even when the operator
/// above this scan (a hash join, an aggregate) runs serially. Partition
/// clones borrow the opened scan's rows and slice them into contiguous
/// ranges, so a pipeline of filters and projections over the scan
/// partitions too.
class MaterializedScanOperator : public Operator {
 public:
  /// CTE reference: reads `cte->rows`, which the executor fills before
  /// the query root opens. The schema is the body's, qualified.
  MaterializedScanOperator(const PlannedCte* cte, std::string qualifier);
  /// Derived table: materializes `child` at Open. The schema is the
  /// child's, qualified.
  MaterializedScanOperator(std::string qualifier, OperatorPtr child);

  Status Open(ExecContext* ctx) override;
  /// Serves a batch of views into the materialized rows.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;
  size_t PartitionRows() const override { return source_->size(); }

 private:
  // A partition clone: rows [begin, end) of `source`.
  MaterializedScanOperator(std::string label, Schema schema,
                           const std::vector<Row>* source, size_t begin,
                           size_t end);

  std::string label_;  // the CTE's name, or "derived"
  Schema schema_;
  OperatorPtr child_;              // derived tables only
  std::vector<Row> derived_;       // the child's rows
  const std::vector<Row>* source_ = &derived_;
  size_t slice_begin_ = 0;         // a clone's slice of *source_
  size_t slice_end_ = static_cast<size_t>(-1);
  size_t pos_ = 0;
  size_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Relational operators
// ---------------------------------------------------------------------------

/// WHERE filter over a `predicate` bound against the child's schema.
/// Partitionable when its child is: each partition filters its own slice
/// with the same bound predicate, which evaluation only reads.
///
/// This is where policy checks batch across tuples: one
/// Evaluator::EvalPredicateBatch call walks the guard/Δ predicate tree
/// once and drives column-wise inner loops over the whole child batch,
/// instead of re-interpreting the tree per row.
class FilterOperator : public Operator {
 public:
  FilterOperator(OperatorPtr child, ExprPtr predicate);

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override;
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;
  size_t PartitionRows() const override { return child_->PartitionRows(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;  // bound; shared read-only with partition clones
  std::unique_ptr<Evaluator> evaluator_;
  RowBatch child_batch_;        // reused input buffer
  std::vector<uint8_t> pass_;   // per-row predicate verdicts
};

/// Projection of scalar expressions (no aggregates), each bound against
/// the child's schema. Partitionable when its child is; the partitions
/// share the bound items, like FilterOperator's.
///
/// Pure column projections (every item a column ref) take the child
/// batch whole and permute its column descriptors, so no cell is copied —
/// wide string columns are never duplicated on the scan→project hot path.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(OperatorPtr child, std::vector<SelectItem> items);

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;
  size_t PartitionRows() const override { return child_->PartitionRows(); }

 private:
  OperatorPtr child_;
  std::vector<SelectItem> items_;
  Schema schema_;
  std::unique_ptr<Evaluator> evaluator_;
  /// Column permutation for pure column projections: output column j reads
  /// input column permute_[j]. Non-empty only when every item is a column
  /// ref.
  std::vector<int> permute_;
  int permute_max_col_ = -1;  // largest input column permute_ reads
  RowBatch child_batch_;  // reused input buffer
  Row scratch_in_;        // expression path: materialized input row
  Row scratch_out_;       // expression path: projected row before PushRow
};

/// Hash join on equi-key expressions (build = right side). This is the
/// join at the heart of Sieve's rewrite when a query combines a protected
/// table with other relations: the probe side is then the policy-filtered
/// CTE whose tuples already passed the guards and the Δ operator.
///
/// Open drains the build side into the hash table; NextBatch then streams
/// the probe side, emitting probe rows in input order and each probe
/// row's matches in build-insertion order. Both sides are pulled on the
/// calling thread; a policy-filtered CTE on either side has already
/// fanned out while it materialized, before the query root opened.
class HashJoinOperator : public Operator {
 public:
  /// `left_keys` are bound against left's schema, `right_keys` against
  /// right's.
  HashJoinOperator(OperatorPtr left, OperatorPtr right,
                   std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys);

  Status Open(ExecContext* ctx) override;
  /// Probes a whole input batch per call, emitting joined rows
  /// batch-at-a-time.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;

 private:
  using BuildTable =
      std::unordered_map<Row, std::vector<Row>, RowKeyHash, RowKeyEqual>;

  /// Drains the build (right) side into build_; run once per Open.
  Status BuildHashTable(ExecContext* ctx);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  Schema schema_;
  BuildTable build_;
  Row current_left_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
  std::unique_ptr<Evaluator> left_eval_;
  std::unique_ptr<Evaluator> right_eval_;
  RowBatch probe_batch_;   // reused probe-side input buffer
  size_t probe_pos_ = 0;   // next unconsumed row of probe_batch_
};

/// Nested-loop cross join (right side materialized at Open). Residual
/// predicates are applied by a FilterOperator above.
///
/// Partitioning: CreatePartitions splits the opened outer (left) side
/// whenever the outer pipeline can partition — clone i crosses outer
/// partition i against the right rows the opened join materialized, which
/// every clone borrows, so concatenating the clones in order reproduces
/// the serial cross-product order and every ExecStats counter.
class NestedLoopJoinOperator : public Operator {
 public:
  NestedLoopJoinOperator(OperatorPtr left, OperatorPtr right);

  Status Open(ExecContext* ctx) override;
  /// Crosses outer rows against the right side a whole output batch at a
  /// time.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;
  size_t PartitionRows() const override { return left_->PartitionRows(); }

 private:
  // A partition clone: crosses `left` against rows it borrows.
  NestedLoopJoinOperator(OperatorPtr left, const std::vector<Row>* right,
                         Schema schema);

  OperatorPtr left_;
  OperatorPtr right_;              // null on partition clones
  Schema schema_;
  std::vector<Row> right_rows_;    // right_'s rows, materialized at Open
  const std::vector<Row>* inner_ = &right_rows_;
  Row current_left_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
  RowBatch left_batch_;      // reused outer-side input buffer
  size_t left_pos_ = 0;      // next unconsumed row of left_batch_
};

/// Hash aggregation implementing GROUP BY + COUNT/SUM/AVG/MIN/MAX, with
/// group keys and items bound against the child's schema.
///
/// Open pulls the whole input on the calling thread and groups rows by
/// RowHash64/RowsEqual of their key values; groups come out in
/// first-occurrence order of the input stream. A policy-filtered CTE
/// input has already fanned out while it materialized, before the query
/// root opened.
class HashAggregateOperator : public Operator {
 public:
  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> group_by,
                        std::vector<SelectItem> items);

  Status Open(ExecContext* ctx) override;
  /// Serves the accumulated groups, one output row per group, until the
  /// batch is full.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;

 private:
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool saw_value = false;
    Value min;
    Value max;
  };
  struct GroupState {
    Row first_row;  // representative row for group-key output expressions
    std::vector<AggState> aggs;
  };

  /// Pulls child_ (already opened) to exhaustion, accumulating into
  /// groups_ / group_index_.
  Status Accumulate(ExecContext* ctx);

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<SelectItem> items_;
  Schema schema_;
  size_t num_aggs_ = 0;
  std::vector<GroupState> groups_;
  // Group key values -> position in groups_.
  std::unordered_map<Row, size_t, RowKeyHash, RowKeyEqual> group_index_;
  size_t pos_ = 0;
};

/// UNION / UNION ALL over one or more children (the optimizer checks that
/// their schemas have equal arity; names follow the first child). This is
/// the shape of the MySQL-profile IndexGuards rewrite (paper Section 5.3):
/// one arm per guard, each forcing its guard's index, deduped because two
/// guards can admit the same tuple.
///
/// Concurrent arms: when ctx->num_threads > 1, Open drains every child on
/// the pool (each under its own worker context through
/// Executor::Materialize, so an arm's pipeline partitions further). After
/// the barrier the arm buffers are concatenated in child order and, for
/// UNION, passed through the same first-occurrence filter (a RowSet) the
/// serial stream uses, so rows, row order and ExecStats totals equal a
/// serial run. Otherwise NextBatch streams the children one after another.
class UnionOperator : public Operator {
 public:
  UnionOperator(std::vector<OperatorPtr> children, bool all);

  Status Open(ExecContext* ctx) override;
  /// Dedups a whole child batch per call.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;

 private:
  std::vector<OperatorPtr> children_;
  bool all_;
  Schema schema_;
  RowBatch child_batch_;  // streaming path: reused input buffer
  size_t current_ = 0;
  RowSet seen_;  // streaming UNION: every row emitted so far
  // Concurrent-arm mode: the deduped output, buffered at Open.
  bool buffered_ = false;
  std::vector<Row> out_rows_;
  size_t out_pos_ = 0;
};

/// EXCEPT / MINUS: distinct rows of the left input that do not appear in the
/// right input. Section 3.1 uses this non-monotonic operator to argue that
/// policies must be applied to base tables *before* query operators — which
/// the rewriter guarantees by replacing table refs with policy-filtered
/// CTEs.
///
/// Open drains the subtrahend (right) into a row set; NextBatch then
/// streams the minuend (left), emitting the first occurrence of each row
/// the set does not contain. Both sides are pulled on the calling thread.
class ExceptOperator : public Operator {
 public:
  ExceptOperator(OperatorPtr left, OperatorPtr right);

  Status Open(ExecContext* ctx) override;
  /// Probes a whole minuend batch per call.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return left_->schema(); }
  std::string name() const override { return "Except"; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  RowSet right_rows_;
  RowSet emitted_;
  RowBatch left_batch_;  // reused minuend input buffer
};

}  // namespace sieve

#endif  // SIEVE_PLAN_OPERATORS_H_
