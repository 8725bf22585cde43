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

// One flattening step: unnests the single TABLE column at `column`. Fails
// (rather than silently dropping the row) when a nested table's arity does
// not match the schema the outer column declares.
Result<Rowset> FlattenOneColumn(const Rowset& input, size_t column) {
  const ColumnDef& table_col = input.schema()->column(column);
  std::vector<ColumnDef> nested_columns = table_col.nested->columns();
  for (ColumnDef& nested : nested_columns) {
    nested.name = table_col.name + "." + nested.name;
  }
  std::vector<ColumnDef> columns = input.schema()->columns();
  columns.erase(columns.begin() + column);
  columns.insert(columns.begin() + column, nested_columns.begin(),
                 nested_columns.end());
  Rowset out(Schema::Make(std::move(columns)));
  const size_t nested_width = nested_columns.size();
  // Stands in for an empty or NULL nested table.
  const std::vector<Row> null_padding(1, Row(nested_width, Value::Null()));
  for (const Row& row : input.rows()) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    const Value& cell = row[column];
    const std::vector<Row>& nested_rows =
        cell.is_table() && cell.table_value() != nullptr &&
                cell.table_value()->num_rows() > 0
            ? cell.table_value()->rows()
            : null_padding;
    for (const Row& nested : nested_rows) {
      DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(1));
      Row flat;
      flat.reserve(row.size() - 1 + nested_width);
      flat.insert(flat.end(), row.begin(), row.begin() + column);
      flat.insert(flat.end(), nested.begin(), nested.end());
      flat.insert(flat.end(), row.begin() + column + 1, row.end());
      // The context is built only on failure: this runs once per output row.
      Status appended = out.Append(std::move(flat));
      if (!appended.ok()) {
        return appended.WithContext("flattening nested table column '" +
                                    table_col.name + "'");
      }
    }
  }
  return out;
}

}  // namespace

Result<Rowset> FlattenRowset(const Rowset& input) {
  // The first pass reads `input` itself; each later pass reads the one
  // before it. Only an input without TABLE columns is copied whole.
  std::optional<Rowset> current;
  while (true) {
    const Rowset& in = current.has_value() ? *current : input;
    const std::vector<ColumnDef>& columns = in.schema()->columns();
    auto table = std::find_if(
        columns.begin(), columns.end(), [](const ColumnDef& c) {
          return c.type == DataType::kTable && c.nested != nullptr;
        });
    if (table == columns.end()) {
      if (current.has_value()) return std::move(*current);
      return input;
    }
    const size_t column = static_cast<size_t>(table - columns.begin());
    DMX_ASSIGN_OR_RETURN(current, FlattenOneColumn(in, column));
  }
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
  for (const DmxSelectItem& item : stmt.items) {
    bindings.Prepare(item.expr, *model, source_schema, stmt.source_alias);
    DMX_ASSIGN_OR_RETURN(columns.emplace_back(),
                         bindings.ItemColumn(item.expr, item.alias));
  }
  Rowset out(Schema::Make(std::move(columns)));
  std::vector<FilterOp> filter_ops;
  filter_ops.reserve(stmt.where.size());
  for (const DmxFilter& filter : stmt.where) {
    for (const DmxExpr* operand : {&filter.lhs, &filter.rhs}) {
      bindings.Prepare(*operand, *model, source_schema, stmt.source_alias);
      DMX_RETURN_IF_ERROR(bindings.Find(*operand).status());
    }
    DMX_ASSIGN_OR_RETURN(filter_ops.emplace_back(), BindFilterOp(filter.op));
  }
  Row source_row;
  PredictionRowContext ctx;
  ctx.model = model;
  ctx.source_row = &source_row;
  ctx.bindings = &bindings;
  // TOP n stops pulling cases once n rows are out.
  const size_t limit =
      stmt.top.has_value() ? static_cast<size_t>(*stmt.top) : SIZE_MAX;
  DataCase input;
  // dmx-hot-begin(prediction-scoring)
  while (out.num_rows() < limit) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_ASSIGN_OR_RETURN(bool more, source->Next(&source_row));
    if (!more) break;
    DMX_RETURN_IF_ERROR(
        binder.BindCaseInto(source_row, model->attributes(), &input));
    DMX_ASSIGN_OR_RETURN(CasePrediction prediction,
                         model->Predict(input, PredictOptions()));
    ctx.prediction = &prediction;
    // WHERE: every conjunct must hold (NULL comparisons are false).
    bool keep = true;
    for (size_t f = 0; f < stmt.where.size() && keep; ++f) {
      DMX_ASSIGN_OR_RETURN(Value lhs, EvaluateDmxExpr(stmt.where[f].lhs, ctx));
      DMX_ASSIGN_OR_RETURN(Value rhs, EvaluateDmxExpr(stmt.where[f].rhs, ctx));
      keep = !lhs.is_null() && !rhs.is_null() && filter_ops[f](lhs, rhs);
    }
    if (!keep) continue;
    // Each output row is moved into the result, so its buffer cannot be
    // reused across cases.
    Row out_row;  // dmx-lint: allow(hot-loop-alloc)
    out_row.reserve(stmt.items.size());
    for (const DmxSelectItem& item : stmt.items) {
      DMX_ASSIGN_OR_RETURN(Value v, EvaluateDmxExpr(item.expr, ctx));
      out_row.push_back(std::move(v));
    }
    DMX_RETURN_IF_ERROR(GuardChargeOutputRows(1));
    DMX_RETURN_IF_ERROR(out.Append(std::move(out_row)));
  }
  // dmx-hot-end(prediction-scoring)
  if (stmt.flattened) return FlattenRowset(out);
  return out;
}

}  // namespace dmx
