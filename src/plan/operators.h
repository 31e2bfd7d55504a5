#ifndef SIEVE_PLAN_OPERATORS_H_
#define SIEVE_PLAN_OPERATORS_H_

#include <atomic>
#include <memory>
#include <mutex>
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

/// Physical operator. Open() prepares state; rows are then pulled a batch
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
///   1. CreatePartitions (below) hands out clones that concurrent workers
///      drive independently; the executor creates several morsels per
///      worker and hands them out dynamically (see Executor::Materialize).
///      Every materialization goes through it, so each policy-filtered CTE
///      body fans out wherever the query consumes it.
///   2. UnionOperator drains its arms concurrently from inside Open when
///      ctx->num_threads > 1, then dedups them on the calling thread.
/// Every other operator consumes its inputs serially.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator for a full drain; binds expressions, opens
  /// children, and (for blocking operators) may consume the whole input.
  virtual Status Open(ExecContext* ctx) = 0;
  /// Clears *out and appends up to out->capacity() rows (see the batch
  /// contract in the class comment).
  virtual Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) = 0;
  /// Output schema; valid after Open (leaf scans over base tables also
  /// know it at construction).
  virtual const Schema& schema() const = 0;
  /// One-line description for EXPLAIN output.
  virtual std::string name() const = 0;

  /// Partition-parallel support: when this operator's pipeline can be split
  /// into disjoint row partitions, fills *out with `num_parts` clones,
  /// where clone i produces exactly partition i's rows and concatenating
  /// partitions 0..num_parts-1 in order reproduces the serial row stream
  /// (so results, including row order, are identical to a serial run).
  /// Clones may be opened and driven on concurrent threads. They share no
  /// mutable state with each other or with this operator except
  /// exactly-once seeding guarded by std::call_once (a shared index probe,
  /// a shared CTE materialization); when partitioning succeeds the
  /// original operator must not itself be opened. Returns false (leaving
  /// *out untouched) when the subtree cannot be partitioned.
  virtual bool CreatePartitions(size_t num_parts,
                                std::vector<OperatorPtr>* out) const {
    (void)num_parts;
    (void)out;
    return false;
  }

  /// Sentinel for EstimatedPartitionRows: the subtree cannot size itself
  /// before Open.
  static constexpr size_t kUnknownRows = static_cast<size_t>(-1);

  /// Best-effort row-count hint for partition planning: how many input
  /// rows a partitioned drain of this subtree covers (an upper bound is
  /// fine — leaf scans report table slots, filters forward their child's
  /// hint). PlanPartitionCount uses it to size morsels so tiny inputs are
  /// not split into dozens of near-empty clones; kUnknownRows (e.g. a
  /// not-yet-materialized CTE) falls back to one static slice per worker.
  virtual size_t EstimatedPartitionRows() const { return kUnknownRows; }
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

/// 64-bit hash of a full row (used by UNION/EXCEPT dedup).
uint64_t RowHash64(const Row& row);

/// Value-equality of two rows (SQL semantics via Value::Compare).
bool RowsEqual(const Row& a, const Row& b);

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

/// Fingerprints a row for hashing/dedup (stable across runs).
std::string RowFingerprint(const Row& row);

/// Deep-copies a SELECT list (expressions cloned) so partition workers can
/// bind their own copies — binding mutates expression nodes in place.
std::vector<SelectItem> CloneItems(const std::vector<SelectItem>& items);

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Probe state shared by the partition clones of one index scan: the first
/// partition to open runs the (single) index probe, the rest reuse its
/// row-id list and each iterates a disjoint contiguous slice of it.
struct SharedIndexProbe {
  std::once_flag once;
  Status status = Status::OK();
  std::vector<RowId> row_ids;
};

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
  size_t EstimatedPartitionRows() const override;

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
/// by an index probe: runs the probe at Open (partition clones share one
/// probe through SharedIndexProbe and each fetch a disjoint contiguous
/// slice of its row ids), then iterates live rows counting
/// index_probe_rows. Subclasses supply the probe and the display name.
class RowIdListScanOperator : public Operator {
 public:
  Status Open(ExecContext* ctx) override;
  /// Fetches a whole batch of row ids per call.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  /// Upper bound: the probe has not run yet, so report the table's slots.
  size_t EstimatedPartitionRows() const override;

 protected:
  RowIdListScanOperator(const TableEntry* entry, std::string qualifier,
                        std::shared_ptr<SharedIndexProbe> shared, size_t part,
                        size_t num_parts);

  /// Computes the row ids to fetch; run once per scan (shared across the
  /// partition clones of one CreatePartitions call).
  virtual Result<std::vector<RowId>> Probe() const = 0;

  const TableEntry* entry_;
  std::string qualifier_;
  Schema schema_;

 private:
  std::shared_ptr<SharedIndexProbe> shared_;  // set only on partition clones
  size_t part_ = 0;
  size_t num_parts_ = 1;
  std::vector<RowId> row_ids_;               // used when not partitioned
  const std::vector<RowId>* ids_ = nullptr;  // row-id source for NextBatch
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
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;

 protected:
  Result<std::vector<RowId>> Probe() const override;

 private:
  IndexRangeScanOperator(const TableEntry* entry, std::string qualifier,
                         IndexRange range,
                         std::shared_ptr<SharedIndexProbe> shared, size_t part,
                         size_t num_parts);

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
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;

 protected:
  Result<std::vector<RowId>> Probe() const override;

 private:
  IndexUnionBitmapScanOperator(const TableEntry* entry, std::string qualifier,
                               std::vector<IndexRange> ranges,
                               std::shared_ptr<SharedIndexProbe> shared,
                               size_t part, size_t num_parts);

  std::vector<IndexRange> ranges_;
};

/// Scan over a materialized result (CTE reference or derived table). In
/// Sieve plans this is how the policy-filtered CTE (`sieve_<table>`) is
/// consumed: the CTE body — guards plus the Δ operator over the base
/// table — materializes on first Open through the query-wide CteCache and
/// every other reference reuses the rows.
///
/// Threading: materialization happens exactly once per cache key per
/// query, no matter which worker gets there first (CteCache), and runs
/// through Executor::Materialize, so the CTE body fans out even when the
/// operator above this scan (a hash join, an aggregate) runs serially.
/// Partition clones additionally slice the materialized rows into
/// contiguous ranges, so a pipeline of filters and projections over the
/// CTE partitions too. Clones of one CreatePartitions call share the
/// producer subtree guarded by exactly-once semantics.
class MaterializedScanOperator : public Operator {
 public:
  /// `child` produces the data on first Open (allows CTE sharing via the
  /// ExecContext's CteCache). An empty `cache_key` always materializes
  /// privately (derived tables).
  MaterializedScanOperator(std::string cache_key, std::string qualifier,
                           OperatorPtr child);

  Status Open(ExecContext* ctx) override;
  /// Serves a batch of views into the materialized rows.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;
  bool CreatePartitions(size_t num_parts,
                        std::vector<OperatorPtr>* out) const override;

 private:
  /// Materialization state shared by the partition clones of one
  /// CreatePartitions call: `producer` points into the original operator's
  /// child subtree and is driven by exactly one clone (the OnceMaterialized
  /// slot for the private path; the CteCache's slot for named CTEs).
  struct SharedMaterialization {
    Operator* producer = nullptr;
    OnceMaterialized slot;
  };

  MaterializedScanOperator(std::string cache_key, std::string qualifier,
                           std::shared_ptr<SharedMaterialization> shared,
                           size_t part, size_t num_parts);

  std::string cache_key_;  // empty -> always materialize privately
  std::string qualifier_;
  OperatorPtr child_;
  Schema schema_;
  std::shared_ptr<SharedMaterialization> shared_;  // partition clones only
  size_t part_ = 0;
  size_t num_parts_ = 1;
  const std::vector<Row>* rows_ = nullptr;
  MaterializedResult private_result_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Relational operators
// ---------------------------------------------------------------------------

/// WHERE filter; binds `predicate` against the child schema at Open.
/// Partitionable when its child is: each partition filters its own slice
/// with a private deep clone of the predicate (binding mutates expression
/// nodes, so partitions must not share them).
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
  size_t EstimatedPartitionRows() const override {
    return child_->EstimatedPartitionRows();
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  std::unique_ptr<Evaluator> evaluator_;
  RowBatch child_batch_;        // reused input buffer
  std::vector<uint8_t> pass_;   // per-row predicate verdicts
};

/// Projection of scalar expressions (no aggregates). Partitionable when its
/// child is (expressions are deep-cloned per partition, like FilterOperator).
///
/// Pure column projections (every item a bound column ref) take the child
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
  size_t EstimatedPartitionRows() const override {
    return child_->EstimatedPartitionRows();
  }

 private:
  OperatorPtr child_;
  std::vector<SelectItem> items_;
  Schema schema_;
  std::unique_ptr<Evaluator> evaluator_;
  /// Column permutation for pure column projections: output column j reads
  /// input column permute_[j]. Non-empty only when every item is a bound
  /// column ref.
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
/// fanned out while it materialized (see MaterializedScanOperator).
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(OperatorPtr left, OperatorPtr right,
                   std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys);

  Status Open(ExecContext* ctx) override;
  /// Probes a whole input batch per key-expression bind, emitting joined
  /// rows batch-at-a-time.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override;

 private:
  struct VecValueHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct VecValueEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  using BuildTable = std::unordered_map<std::vector<Value>, std::vector<Row>,
                                        VecValueHash, VecValueEq>;

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

/// Nested-loop cross join (right side materialized). Residual predicates are
/// applied by a FilterOperator above.
///
/// Partitioning: CreatePartitions splits the outer (left) side whenever
/// the outer pipeline can partition — clone i crosses outer partition i
/// against the full right side, which materializes exactly once across
/// all clones (call_once), so concatenating the clones in order
/// reproduces the serial cross-product order and every ExecStats counter.
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
  size_t EstimatedPartitionRows() const override {
    return left_->EstimatedPartitionRows();
  }

 private:
  /// Right-side materialization shared by the partition clones of one
  /// CreatePartitions call: `producer` points into the original operator's
  /// right subtree and is driven by exactly one clone.
  struct SharedRight {
    Operator* producer = nullptr;
    OnceMaterialized slot;
  };

  NestedLoopJoinOperator(OperatorPtr left, std::shared_ptr<SharedRight> shared);

  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  std::shared_ptr<SharedRight> shared_;  // set only on partition clones
  MaterializedResult private_right_;
  const std::vector<Row>* right_rows_ = nullptr;
  Row current_left_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
  RowBatch left_batch_;      // reused outer-side input buffer
  size_t left_pos_ = 0;      // next unconsumed row of left_batch_
};

/// Hash aggregation implementing GROUP BY + COUNT/SUM/AVG/MIN/MAX.
///
/// Open pulls the whole input on the calling thread; groups come out in
/// first-occurrence order of the input stream. A policy-filtered CTE
/// input has already fanned out while it materialized (see
/// MaterializedScanOperator).
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

  /// Pulls child_ (already opened, expressions bound) to exhaustion,
  /// accumulating into groups_ / group_index_.
  Status Accumulate(ExecContext* ctx);

  /// Computes the output schema from the bound items_ and `input` schema.
  void BuildOutputSchema(const Schema& input);

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<SelectItem> items_;
  Schema schema_;
  size_t num_aggs_ = 0;
  std::vector<GroupState> groups_;
  std::unordered_map<std::string, size_t> group_index_;
  size_t pos_ = 0;
};

/// UNION / UNION ALL over any number of children (schemas must have equal
/// arity; names follow the first child). This is the shape of the MySQL-
/// profile IndexGuards rewrite (paper Section 5.3): one arm per guard,
/// each forcing its guard's index, deduped because two guards can admit
/// the same tuple.
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
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "Except"; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  RowSet right_rows_;
  RowSet emitted_;
  RowBatch left_batch_;  // reused minuend input buffer
};

}  // namespace sieve

#endif  // SIEVE_PLAN_OPERATORS_H_
