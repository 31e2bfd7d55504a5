#ifndef SIEVE_PLAN_ROW_BATCH_H_
#define SIEVE_PLAN_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "storage/table.h"

namespace sieve {

/// Default rows per batch for batch-at-a-time execution. Exposed as the
/// `SieveOptions::batch_size` knob; 1 runs the same operators on
/// capacity-1 batches, 0 selects an adaptive size (see
/// EffectiveBatchSize).
inline constexpr size_t kDefaultBatchSize = 1024;

/// Rows per batch for a configured batch_size knob: positive values pass
/// through; 0 picks an adaptive size from the row width, targeting a
/// fixed cell-payload footprint per batch so narrow rows run at the full
/// default and wide rows shrink toward cache-resident batches
/// (BENCH_fig6.json shows batch 64 beating 1024 on some shapes). Results
/// are identical at every size — only the amortization changes.
inline size_t EffectiveBatchSize(int configured, size_t num_columns) {
  if (configured > 0) return static_cast<size_t>(configured);
  constexpr size_t kTargetBytes = 48 << 10;
  constexpr size_t kBytesPerCell = 24;  // null byte + payload + slack
  size_t width = num_columns == 0 ? 1 : num_columns;
  size_t rows = kTargetBytes / (kBytesPerCell * width);
  if (rows < 64) return 64;
  if (rows > kDefaultBatchSize) return kDefaultBatchSize;
  return rows;
}

/// Reusable columnar buffer of rows — the unit of work of the
/// batch-at-a-time executor (Operator::NextBatch). Cells are stored as
/// typed column vectors: a null byte array plus one contiguous primitive
/// array per column (int64 payloads for int/bool/time/date, doubles,
/// string_views), all carved from a per-batch bump-allocator Arena. The
/// guard-predicate kernels in Evaluator::EvalPredicateBatch run directly
/// over these arrays as tight branch-free loops the auto-vectorizer can
/// SIMD, instead of walking Value variants cell by cell.
///
/// A selection vector replaces row copying on the filter path: dropping
/// rows narrows an index list over the physical rows (NarrowToPassing),
/// and whole batches change hands by SwapWith — the arena, string pool
/// and column arrays travel with the batch, so ownership is never split.
///
/// Column typing is inferred per fill: the first non-null cell fixes a
/// column's runtime type; a later cell of a different type demotes the
/// column to a generic Value vector (kernels then take the general
/// cell-view path, keeping Value::Compare semantics exactly).
///
/// String ownership has two modes, chosen per appended row:
///   - AppendExternalRow stores views into the source row's cells. Callers
///     use it only for provably stable storage: base-table rows and
///     materialized results live for the whole query, and buffered
///     operator outputs outlive every batch served from them.
///   - PushRow steals the row's string cells into a per-batch pool (a
///     deque of Values, address-stable, slots recycled across refills), so
///     the batch owns what it references. Used whenever the source row
///     dies before the batch does (join outputs, projected expressions,
///     aggregate groups).
///
/// clear() rewinds the arena and the pool without releasing memory, so a
/// scan that refills the same batch reuses every allocation. Batches are
/// single-threaded like the operator that fills them; each parallel worker
/// drives its own batch.
class RowBatch {
 public:
  /// One column's payload arrays; valid entries are gated by `nulls` and,
  /// when `generic` is set, the payloads live in `cells` instead. Exposed
  /// read-only to the predicate kernels.
  struct Column {
    DataType type = DataType::kNull;  // runtime type; kNull until a non-null cell
    bool generic = false;             // demoted: read `cells`, not the arrays
    uint8_t* nulls = nullptr;         // 1 = NULL, physical-row indexed
    int64_t* i64 = nullptr;           // int/bool/time/date payloads
    double* f64 = nullptr;            // double payloads
    std::string_view* str = nullptr;  // string payloads
    std::vector<Value> cells;         // demoted cells (physical-row indexed)
  };

  explicit RowBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  RowBatch(RowBatch&&) = default;
  RowBatch& operator=(RowBatch&&) = default;
  RowBatch(const RowBatch&) = delete;
  RowBatch& operator=(const RowBatch&) = delete;

  size_t capacity() const { return capacity_; }
  /// Active rows (after any selection); what consumers iterate.
  size_t size() const { return has_sel_ ? sel_size_ : phys_rows_; }
  /// Physical rows appended since the last clear().
  size_t phys_rows() const { return phys_rows_; }
  bool empty() const { return size() == 0; }
  bool full() const { return phys_rows_ >= capacity_; }

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t c) const { return columns_[c]; }

  /// Selection vector (physical indices of the active rows) or nullptr
  /// when the batch is dense.
  const uint32_t* selection() const { return has_sel_ ? sel_ : nullptr; }

  /// Physical index of active row `k`.
  uint32_t RowIndexAt(size_t k) const {
    return has_sel_ ? sel_[k] : static_cast<uint32_t>(k);
  }

  /// Resets to an empty dense batch; keeps arena blocks and pool slots.
  void clear() {
    phys_rows_ = 0;
    has_sel_ = false;
    sel_ = nullptr;
    sel_size_ = 0;
    configured_ = false;
    pool_used_ = 0;
    arena_.Clear();
  }

  /// Ensures the batch's capacity is `capacity` (used when the configured
  /// batch size only becomes known at Open); clears the batch.
  void reset(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    clear();
  }

  /// Appends a row whose string cells remain owned by stable external
  /// storage (a base table, a materialized result, an operator's buffered
  /// output): strings are stored as views, nothing is copied.
  void AppendExternalRow(const Row& row) {
    if (!configured_) Configure(row.size());
    const size_t idx = phys_rows_++;
    for (size_t c = 0; c < columns_.size(); ++c) {
      AppendCell(columns_[c], idx, row[c], /*steal=*/false);
    }
  }

  /// Appends by move: string cells are stolen into the batch's pool, so
  /// the batch owns everything it references. The moved-from row keeps
  /// its vector buffer (clear and reuse it).
  void PushRow(Row&& row) {
    if (!configured_) Configure(row.size());
    const size_t idx = phys_rows_++;
    for (size_t c = 0; c < columns_.size(); ++c) {
      AppendCell(columns_[c], idx, row[c], /*steal=*/true);
    }
  }

  /// Value of active row `k`, column `c` (reconstructed; strings copied).
  Value ValueAt(size_t k, size_t c) const {
    return PhysValueAt(RowIndexAt(k), c);
  }

  /// Materializes active row `k` into *out (cleared first). The produced
  /// Values are bit-identical to the appended originals.
  void MaterializeRow(size_t k, Row* out) const {
    out->clear();
    const size_t p = RowIndexAt(k);
    if (out->capacity() < columns_.size()) out->reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      out->push_back(PhysValueAt(p, c));
    }
  }

  /// Keeps exactly the active rows whose pass byte is non-zero; `pass` is
  /// indexed by active position (0..size()). Builds/narrows the selection
  /// vector — no cell data moves.
  void NarrowToPassing(const uint8_t* pass) {
    const size_t n = size();
    uint32_t* next = arena_.AllocateArray<uint32_t>(n);
    size_t m = 0;
    if (has_sel_) {
      for (size_t k = 0; k < n; ++k) {
        if (pass[k]) next[m++] = sel_[k];
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        if (pass[k]) next[m++] = static_cast<uint32_t>(k);
      }
    }
    sel_ = next;
    sel_size_ = m;
    has_sel_ = true;
  }

  /// Reorders (and possibly duplicates) columns: new column j becomes old
  /// column `sources[j]`. Used by pure-column projections after SwapWith —
  /// data arrays are shared within the batch's own arena, so this is a
  /// descriptor shuffle, not a copy.
  void PermuteColumns(const std::vector<int>& sources) {
    std::vector<Column> next(sources.size());
    for (size_t j = 0; j < sources.size(); ++j) {
      next[j] = columns_[static_cast<size_t>(sources[j])];
    }
    columns_ = std::move(next);
  }

  /// Exchanges full contents (columns, arena, pool, selection, capacity).
  void SwapWith(RowBatch* other) { std::swap(*this, *other); }

 private:
  void Configure(size_t num_columns) {
    configured_ = true;
    columns_.resize(num_columns);
    for (Column& col : columns_) {
      col.type = DataType::kNull;
      col.generic = false;
      col.nulls = arena_.AllocateArray<uint8_t>(capacity_);
      col.i64 = nullptr;
      col.f64 = nullptr;
      col.str = nullptr;
      col.cells.clear();
    }
  }

  Value PhysValueAt(size_t p, size_t c) const {
    const Column& col = columns_[c];
    if (col.generic) return col.cells[p];
    if (col.nulls[p]) return Value::Null();
    switch (col.type) {
      case DataType::kBool:
        return Value::Bool(col.i64[p] != 0);
      case DataType::kInt:
        return Value::Int(col.i64[p]);
      case DataType::kTime:
        return Value::Time(col.i64[p]);
      case DataType::kDate:
        return Value::Date(col.i64[p]);
      case DataType::kDouble:
        return Value::Double(col.f64[p]);
      case DataType::kString:
        return Value::String(std::string(col.str[p]));
      case DataType::kNull:
        break;
    }
    return Value::Null();
  }

  /// Demotes `col` to generic storage, reconstructing the cells appended
  /// so far (physical rows [0, upto)) from the typed arrays.
  void Demote(Column& col, size_t c, size_t upto) {
    col.cells.clear();
    col.cells.reserve(capacity_);
    for (size_t p = 0; p < upto; ++p) col.cells.push_back(PhysValueAt(p, c));
    col.generic = true;
  }

  /// Steals `v`'s string payload into the pool and returns a stable view.
  std::string_view PoolString(const Value& v, bool steal) {
    if (!steal) return std::string_view(v.AsString());
    Value* slot;
    if (pool_used_ < pool_.size()) {
      slot = &pool_[pool_used_];
      *slot = std::move(const_cast<Value&>(v));
    } else {
      pool_.push_back(std::move(const_cast<Value&>(v)));
      slot = &pool_.back();
    }
    ++pool_used_;
    return std::string_view(slot->AsString());
  }

  void AppendCell(Column& col, size_t idx, const Value& v, bool steal) {
    if (col.generic) {
      col.nulls[idx] = v.is_null() ? 1 : 0;
      if (steal) {
        col.cells.push_back(std::move(const_cast<Value&>(v)));
      } else {
        col.cells.push_back(v);
      }
      return;
    }
    if (v.is_null()) {
      col.nulls[idx] = 1;
      return;
    }
    col.nulls[idx] = 0;
    const DataType t = v.type();
    if (col.type == DataType::kNull) {
      // First non-null cell fixes the column's runtime type.
      col.type = t;
      switch (t) {
        case DataType::kDouble:
          col.f64 = arena_.AllocateArray<double>(capacity_);
          break;
        case DataType::kString:
          col.str = arena_.AllocateArray<std::string_view>(capacity_);
          break;
        default:
          col.i64 = arena_.AllocateArray<int64_t>(capacity_);
          break;
      }
    } else if (t != col.type) {
      size_t c = static_cast<size_t>(&col - columns_.data());
      Demote(col, c, idx);
      AppendCell(col, idx, v, steal);
      return;
    }
    switch (t) {
      case DataType::kDouble:
        col.f64[idx] = v.AsDouble();
        break;
      case DataType::kString:
        col.str[idx] = PoolString(v, steal);
        break;
      default:
        col.i64[idx] = v.raw();
        break;
    }
  }

  size_t capacity_;
  size_t phys_rows_ = 0;
  bool configured_ = false;
  std::vector<Column> columns_;
  // Selection vector: physical indices of active rows, arena-allocated.
  bool has_sel_ = false;
  const uint32_t* sel_ = nullptr;
  size_t sel_size_ = 0;
  // Stolen string cells (PushRow); deque = address-stable views even for
  // short (SSO) strings, slots recycled across refills via pool_used_.
  std::deque<Value> pool_;
  size_t pool_used_ = 0;
  Arena arena_;
};

}  // namespace sieve

#endif  // SIEVE_PLAN_ROW_BATCH_H_
