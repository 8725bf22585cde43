#include "core/prediction_join.h"

#include "common/exec_guard.h"
#include "core/case_binder.h"
#include "core/caseset_source.h"
#include "core/dmx_analyzer.h"
#include "core/udf.h"

namespace dmx {

namespace {

// A PREDICTION JOIN WHERE comparison, bound once per statement.
enum class FilterOp { kEq, kNe, kLt, kLe, kGt, kGe };

Result<FilterOp> BindFilterOp(const std::string& op) {
  if (op == "=") return FilterOp::kEq;
  if (op == "<>") return FilterOp::kNe;
  if (op == "<") return FilterOp::kLt;
  if (op == "<=") return FilterOp::kLe;
  if (op == ">") return FilterOp::kGt;
  if (op == ">=") return FilterOp::kGe;
  return InvalidArgument() << "unknown comparison operator '" << op
                           << "' in PREDICTION JOIN WHERE";
}

bool FilterPasses(FilterOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case FilterOp::kEq:
      return lhs.Equals(rhs);
    case FilterOp::kNe:
      return !lhs.Equals(rhs);
    case FilterOp::kLt:
      return lhs.Compare(rhs) < 0;
    case FilterOp::kLe:
      return lhs.Compare(rhs) <= 0;
    case FilterOp::kGt:
      return lhs.Compare(rhs) > 0;
    case FilterOp::kGe:
      return lhs.Compare(rhs) >= 0;
  }
  return false;
}

// One flattening step: unnests the single TABLE column at `column`. Fails
// (rather than silently dropping the row) when a nested table's arity does
// not match the schema the outer column declares.
Result<Rowset> FlattenOneColumn(const Rowset& input, size_t column) {
  const Schema& schema = *input.schema();
  const ColumnDef& table_col = schema.column(column);
  std::vector<ColumnDef> columns;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c != column) {
      columns.push_back(schema.column(c));
      continue;
    }
    for (const ColumnDef& nested : table_col.nested->columns()) {
      ColumnDef renamed = nested;
      renamed.name = table_col.name + "." + nested.name;
      columns.push_back(std::move(renamed));
    }
  }
  Rowset out(Schema::Make(std::move(columns)));
  const size_t nested_width = table_col.nested->num_columns();
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
      for (size_t c = 0; c < row.size(); ++c) {
        if (c != column) {
          flat.push_back(row[c]);
        } else {
          flat.insert(flat.end(), nested.begin(), nested.end());
        }
      }
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
    int table_column = -1;
    for (size_t c = 0; c < in.schema()->num_columns(); ++c) {
      if (in.schema()->column(c).type == DataType::kTable &&
          in.schema()->column(c).nested != nullptr) {
        table_column = static_cast<int>(c);
        break;
      }
    }
    if (table_column < 0) {
      if (current.has_value()) return std::move(*current);
      return input;
    }
    DMX_ASSIGN_OR_RETURN(
        Rowset next, FlattenOneColumn(in, static_cast<size_t>(table_column)));
    current = std::move(next);
  }
}

Result<Rowset> ExecutePredictionJoin(const rel::Database& db,
                                     ModelCatalog* catalog,
                                     const PredictionJoinStatement& stmt,
                                     std::optional<Rowset>* preloaded_source) {
  DMX_ASSIGN_OR_RETURN(MiningModel * model, catalog->GetModel(stmt.model_name));
  // Semantic preflight: reject statements the binder would only fail on one
  // Status at a time (no PREDICT column, unknown model paths, ...) with the
  // full multi-diagnostic report.
  AnalyzerContext analyzer_context;
  analyzer_context.catalog = catalog;
  analyzer_context.database = &db;
  DMX_RETURN_IF_ERROR(
      DmxAnalyzer(analyzer_context).AnalyzePredictionJoin(stmt).ToStatus());
  if (!model->is_trained()) {
    return InvalidState() << "model '" << stmt.model_name
                          << "' has not been trained (INSERT INTO it first)";
  }
  DMX_ASSIGN_OR_RETURN(
      Rowset source,
      MaterializeCasesetSource(db, stmt.source, preloaded_source));

  DMX_ASSIGN_OR_RETURN(
      CaseBinder binder,
      CaseBinder::CreateForPrediction(model->definition(), *source.schema(),
                                      stmt.source_alias,
                                      stmt.natural ? nullptr : &stmt.on));

  // Bind every projection item and WHERE operand once. The first bind error
  // fails the statement before any case is scored, so it does not depend on
  // whether the caseset has rows; the per-case loop below only evaluates.
  DmxExprBindings bindings;
  std::vector<ColumnDef> columns;
  columns.reserve(stmt.items.size());
  for (const DmxSelectItem& item : stmt.items) {
    bindings.Prepare(item.expr, *model, *source.schema(), stmt.source_alias);
    DMX_ASSIGN_OR_RETURN(ColumnDef def,
                         bindings.ItemColumn(item.expr, item.alias));
    columns.push_back(std::move(def));
  }
  Rowset out(Schema::Make(std::move(columns)));
  std::vector<FilterOp> filter_ops;
  filter_ops.reserve(stmt.where.size());
  for (const DmxFilter& filter : stmt.where) {
    for (const DmxExpr* operand : {&filter.lhs, &filter.rhs}) {
      bindings.Prepare(*operand, *model, *source.schema(), stmt.source_alias);
      DMX_RETURN_IF_ERROR(bindings.Find(*operand).status());
    }
    DMX_ASSIGN_OR_RETURN(FilterOp op, BindFilterOp(filter.op));
    filter_ops.push_back(op);
  }
  PredictOptions options;
  PredictionRowContext ctx;
  ctx.model = model;
  ctx.source_schema = source.schema().get();
  ctx.source_alias = stmt.source_alias;
  ctx.bindings = &bindings;

  size_t limit = stmt.top.has_value() ? static_cast<size_t>(*stmt.top)
                                      : source.num_rows();
  DataCase input;
  // dmx-hot-begin(prediction-scoring)
  for (size_t r = 0; r < source.num_rows() && out.num_rows() < limit; ++r) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    const Row& source_row = source.rows()[r];
    DMX_RETURN_IF_ERROR(
        binder.BindCaseInto(source_row, model->attributes(), &input));
    DMX_ASSIGN_OR_RETURN(CasePrediction prediction,
                         model->Predict(input, options));
    ctx.prediction = &prediction;
    ctx.source_row = &source_row;
    // WHERE: every conjunct must hold (NULL comparisons are false).
    bool keep = true;
    for (size_t f = 0; f < stmt.where.size() && keep; ++f) {
      DMX_ASSIGN_OR_RETURN(Value lhs, EvaluateDmxExpr(stmt.where[f].lhs, ctx));
      DMX_ASSIGN_OR_RETURN(Value rhs, EvaluateDmxExpr(stmt.where[f].rhs, ctx));
      keep = !lhs.is_null() && !rhs.is_null() &&
             FilterPasses(filter_ops[f], lhs, rhs);
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
