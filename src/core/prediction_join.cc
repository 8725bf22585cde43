#include "core/prediction_join.h"

#include <algorithm>
#include <utility>

#include "common/exec_guard.h"
#include "core/case_binder.h"
#include "core/caseset_source.h"
#include "core/dmx_analyzer.h"
#include "core/udf.h"

namespace dmx {

namespace {

// A PREDICTION JOIN WHERE comparison, bound once per statement.
using FilterOp = bool (*)(const Value& lhs, const Value& rhs);

constexpr std::pair<const char*, FilterOp> kFilterOps[] = {
    {"=", [](const Value& a, const Value& b) { return a.Equals(b); }},
    {"<>", [](const Value& a, const Value& b) { return !a.Equals(b); }},
    {"<", [](const Value& a, const Value& b) { return a.Compare(b) < 0; }},
    {"<=", [](const Value& a, const Value& b) { return a.Compare(b) <= 0; }},
    {">", [](const Value& a, const Value& b) { return a.Compare(b) > 0; }},
    {">=", [](const Value& a, const Value& b) { return a.Compare(b) >= 0; }},
};

Result<FilterOp> BindFilterOp(const std::string& op) {
  for (const auto& [name, passes] : kFilterOps) {
    if (op == name) return passes;
  }
  return InvalidArgument() << "unknown comparison operator '" << op
                           << "' in PREDICTION JOIN WHERE";
}

bool IsTableColumn(const ColumnDef& column) {
  return column.type == DataType::kTable && column.nested != nullptr;
}

// The nested rows one TABLE cell holds, wherever they live.
struct RowSpan {
  const Row* rows = nullptr;
  size_t size = 0;
};

RowSpan SpanOf(const Value& cell) {
  if (!cell.is_table() || cell.table_value() == nullptr) return {};
  const std::vector<Row>& rows = cell.table_value()->rows();
  return {rows.data(), rows.size()};
}

// Appends `columns` to `out` with every TABLE column replaced by its nested
// columns, renamed "<table column>.<nested column>", recursively. Raises
// `*widest` to the width of the widest nested table met.
void AppendFlatColumns(const std::vector<ColumnDef>& columns,
                       const std::string& prefix, std::vector<ColumnDef>* out,
                       size_t* widest) {
  for (const ColumnDef& column : columns) {
    if (IsTableColumn(column)) {
      *widest = std::max(*widest, column.nested->num_columns());
      AppendFlatColumns(column.nested->columns(), prefix + column.name + ".",
                        out, widest);
    } else {
      out->push_back(column);
      out->back().name = prefix + column.name;
    }
  }
}

// Expands rows into flat rows: each nested row of a TABLE column becomes one
// flat row (an empty or NULL table becomes one row of NULLs), and two TABLE
// columns give the product of their rows, the leftmost varying slowest.
// Nested TABLE columns expand the same way, before the columns after them.
class RowFlattener {
 public:
  explicit RowFlattener(std::shared_ptr<const Schema> schema)
      : schema_(std::move(schema)) {
    std::vector<ColumnDef> columns;
    size_t widest = 0;
    AppendFlatColumns(schema_->columns(), "", &columns, &widest);
    flat_schema_ = Schema::Make(std::move(columns));
    flat_.reserve(flat_schema_->num_columns());
    // Sized once: a padded table's pending runs point into it.
    nulls_.resize(widest);
  }

  const std::shared_ptr<const Schema>& flat_schema() const {
    return flat_schema_;
  }

  // Appends the flat rows of one row to `out`: `cells` holds its cells and
  // `tables[c]`, when given, the rows of TABLE column c in place of cell c.
  Status Append(const Row& cells, const RowSpan* tables, Rowset* out) {
    const Run run{cells.data(), schema_->columns().data(), cells.size(),
                  tables, nullptr};
    return Emit(&run, out);
  }

 private:
  // Cells still to be placed in the flat row, followed by the runs in
  // `rest`. `tables`, when set, is aligned with `cells`.
  struct Run {
    const Value* cells;
    const ColumnDef* columns;
    size_t size;
    const RowSpan* tables;
    const Run* rest;
  };

  // Places `run`'s cells after the flat row's current cells, then the
  // rest; on success the flat row is as it was.
  Status Emit(const Run* run, Rowset* out) {
    while (run != nullptr && run->size == 0) run = run->rest;
    if (run == nullptr) {
      DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(1));
      return out->Append(flat_);
    }
    const size_t start = flat_.size();
    // Scalar cells go straight into the flat row, up to the first table.
    size_t i = 0;
    for (; i < run->size && !IsTableColumn(run->columns[i]); ++i) {
      flat_.push_back(run->cells[i]);
    }
    if (i == run->size) {
      DMX_RETURN_IF_ERROR(Emit(run->rest, out));
    } else {
      const ColumnDef& table = run->columns[i];
      const size_t width = table.nested->num_columns();
      const Run tail{run->cells + i + 1, run->columns + i + 1,
                     run->size - i - 1,
                     run->tables != nullptr ? run->tables + i + 1 : nullptr,
                     run->rest};
      RowSpan span =
          run->tables != nullptr ? run->tables[i] : SpanOf(run->cells[i]);
      const bool padded = span.size == 0;
      if (padded) {
        // An empty or NULL table stands as one row of NULLs.
        span = {&nulls_, 1};
      }
      for (size_t r = 0; r < span.size; ++r) {
        const Row& nested = span.rows[r];
        if (!padded && nested.size() != width) {
          Status mismatch = InvalidArgument()
                            << "nested row has " << nested.size()
                            << " cells, its table column declares " << width;
          return mismatch.WithContext("flattening nested table column '" +
                                      table.name + "'");
        }
        const Run head{nested.data(), table.nested->columns().data(), width,
                       nullptr, &tail};
        DMX_RETURN_IF_ERROR(Emit(&head, out));
      }
    }
    flat_.resize(start);
    return Status::OK();
  }

  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<const Schema> flat_schema_;
  Row flat_;   // The flat row being built.
  Row nulls_;  // Stands in for any empty or NULL nested table.
};

}  // namespace

Result<Rowset> FlattenRowset(const Rowset& input) {
  const std::vector<ColumnDef>& columns = input.schema()->columns();
  if (std::none_of(columns.begin(), columns.end(), IsTableColumn)) {
    return input;
  }
  RowFlattener flattener(input.schema());
  Rowset out(flattener.flat_schema());
  for (const Row& row : input.rows()) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_RETURN_IF_ERROR(flattener.Append(row, nullptr, &out));
  }
  return out;
}

Result<Rowset> ExecutePredictionJoin(const rel::Database& db,
                                     ModelCatalog* catalog,
                                     const PredictionJoinStatement& stmt,
                                     std::optional<Rowset>* preloaded_source) {
  DMX_ASSIGN_OR_RETURN(MiningModel * model, catalog->GetModel(stmt.model_name));
  // Semantic preflight: report every error the binder would only fail on one
  // at a time (no PREDICT column, unknown model paths, ...).
  AnalyzerContext analyzer_context;
  analyzer_context.catalog = catalog;
  analyzer_context.database = &db;
  DMX_RETURN_IF_ERROR(
      DmxAnalyzer(analyzer_context).AnalyzePredictionJoin(stmt).ToStatus());
  if (!model->is_trained()) {
    return InvalidState() << "model '" << stmt.model_name
                          << "' has not been trained (INSERT INTO it first)";
  }
  // Cases stream from the source into one reused row, as training does.
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<RowsetReader> source,
                       OpenCasesetSource(db, stmt.source, preloaded_source));
  const Schema& source_schema = *source->schema();
  DMX_ASSIGN_OR_RETURN(
      CaseBinder binder,
      CaseBinder::CreateForPrediction(model->definition(), source_schema,
                                      stmt.source_alias,
                                      stmt.natural ? nullptr : &stmt.on));

  // Bind every projection item and WHERE operand once: the first bind error
  // fails the statement before any case is pulled, whether or not it has any.
  DmxExprBindings bindings;
  std::vector<ColumnDef> columns;
  columns.reserve(stmt.items.size());
  std::vector<const BoundDmxExpr*> items;
  items.reserve(stmt.items.size());
  for (const DmxSelectItem& item : stmt.items) {
    bindings.Prepare(item.expr, *model, source_schema, stmt.source_alias);
    DMX_ASSIGN_OR_RETURN(columns.emplace_back(),
                         bindings.ItemColumn(item.expr, item.alias));
    DMX_ASSIGN_OR_RETURN(items.emplace_back(), bindings.Find(item.expr));
  }
  struct BoundFilter {
    const BoundDmxExpr* lhs;
    const BoundDmxExpr* rhs;
    FilterOp passes;
  };
  std::vector<BoundFilter> filters;
  filters.reserve(stmt.where.size());
  for (const DmxFilter& filter : stmt.where) {
    BoundFilter& bound = filters.emplace_back();
    for (auto [operand, slot] : {std::pair{&filter.lhs, &bound.lhs},
                                 std::pair{&filter.rhs, &bound.rhs}}) {
      bindings.Prepare(*operand, *model, source_schema, stmt.source_alias);
      DMX_ASSIGN_OR_RETURN(*slot, bindings.Find(*operand));
    }
    DMX_ASSIGN_OR_RETURN(bound.passes, BindFilterOp(filter.op));
  }
  const std::shared_ptr<const Schema> item_schema =
      Schema::Make(std::move(columns));
  // FLATTENED expands each case's row straight into the result.
  std::optional<RowFlattener> flattener;
  if (stmt.flattened) flattener.emplace(item_schema);
  Rowset out(flattener.has_value() ? flattener->flat_schema() : item_schema);

  // Per-statement buffers, reused case after case: the prediction, one row
  // buffer per item (table-valued items fill theirs), and the cells and
  // table rows of a row about to be flattened.
  const PredictOptions& request = bindings.request();
  CasePrediction prediction;
  std::vector<TableRows> item_rows(items.size());
  TableRows operand_rows;
  Row flat_cells(items.size());
  std::vector<RowSpan> flat_tables(items.size());
  Row source_row;
  PredictionRowContext ctx;
  ctx.model = model;
  ctx.prediction = &prediction;
  ctx.source_row = &source_row;
  // TOP n stops pulling cases once n cases are out, flattened or not.
  const size_t limit =
      stmt.top.has_value() ? static_cast<size_t>(*stmt.top) : SIZE_MAX;
  size_t cases_out = 0;
  DataCase input;
  // dmx-hot-begin(prediction-scoring)
  while (cases_out < limit) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_ASSIGN_OR_RETURN(bool more, source->Next(&source_row));
    if (!more) break;
    DMX_RETURN_IF_ERROR(
        binder.BindCaseInto(source_row, model->attributes(), &input));
    DMX_RETURN_IF_ERROR(model->PredictInto(input, request, &prediction));
    // WHERE: every conjunct must hold (NULL comparisons are false).
    bool keep = true;
    for (size_t f = 0; f < filters.size() && keep; ++f) {
      const BoundFilter& filter = filters[f];
      DMX_ASSIGN_OR_RETURN(
          Value lhs, EvaluateBoundDmxExpr(*filter.lhs, ctx, &operand_rows));
      DMX_ASSIGN_OR_RETURN(
          Value rhs, EvaluateBoundDmxExpr(*filter.rhs, ctx, &operand_rows));
      keep = !lhs.is_null() && !rhs.is_null() && filter.passes(lhs, rhs);
    }
    if (!keep) continue;
    ++cases_out;
    if (flattener.has_value()) {
      for (size_t i = 0; i < items.size(); ++i) {
        TableRows& rows = item_rows[i];
        if (items[i]->fills_table()) {
          DMX_RETURN_IF_ERROR(FillDmxTable(*items[i], ctx, &rows));
          flat_tables[i] = {rows.rows.data(), rows.size};
        } else {
          DMX_ASSIGN_OR_RETURN(flat_cells[i],
                               EvaluateBoundDmxExpr(*items[i], ctx, &rows));
          flat_tables[i] = SpanOf(flat_cells[i]);
        }
      }
      DMX_RETURN_IF_ERROR(GuardChargeOutputRows(1));
      DMX_RETURN_IF_ERROR(
          flattener->Append(flat_cells, flat_tables.data(), &out));
      continue;
    }
    // Each output row is moved into the result, so its buffer cannot be
    // reused across cases.
    Row out_row;  // dmx-lint: allow(hot-loop-alloc)
    out_row.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      DMX_ASSIGN_OR_RETURN(Value v,
                           EvaluateBoundDmxExpr(*items[i], ctx, &item_rows[i]));
      out_row.push_back(std::move(v));
    }
    DMX_RETURN_IF_ERROR(GuardChargeOutputRows(1));
    DMX_RETURN_IF_ERROR(out.Append(std::move(out_row)));
  }
  // dmx-hot-end(prediction-scoring)
  return out;
}

}  // namespace dmx
