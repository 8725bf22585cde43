#include "core/udf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/string_util.h"

namespace dmx {

namespace {

using Fn = BoundDmxExpr::Fn;

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

// A UDF's name, what it binds to, and how many arguments it takes. Reported
// as "<name> takes <usage>".
struct UdfSignature {
  const char* name;
  Fn fn;
  size_t min_args;
  size_t max_args;
  const char* usage;
};

constexpr UdfSignature kUdfs[] = {
    {"Predict", Fn::kPredict, 1, 2, "1 or 2 arguments"},
    {"PredictAssociation", Fn::kPredict, 1, 2, "1 or 2 arguments"},
    {"PredictProbability", Fn::kPredictProbability, 1, 2, "1 or 2 arguments"},
    {"PredictSupport", Fn::kPredictSupport, 1, 2, "1 or 2 arguments"},
    {"PredictVariance", Fn::kPredictVariance, 1, 2, "1 or 2 arguments"},
    {"PredictStdev", Fn::kPredictStdev, 1, 2, "1 or 2 arguments"},
    {"PredictHistogram", Fn::kPredictHistogram, 1, 1, "exactly 1 argument"},
    {"TopCount", Fn::kTopCount, 3, 3, "(table expr, rank column, count)"},
    {"RangeMin", Fn::kRangeMin, 1, 1, "exactly 1 argument"},
    {"RangeMid", Fn::kRangeMid, 1, 1, "exactly 1 argument"},
    {"RangeMax", Fn::kRangeMax, 1, 1, "exactly 1 argument"},
    {"Cluster", Fn::kCluster, 0, 0, "no arguments"},
    {"ClusterProbability", Fn::kClusterProbability, 0, 0, "no arguments"},
};

// Rows of Predict(<table>) when the call gives no count.
constexpr size_t kDefaultPredictCount = 10;

// What a bind reads: the model and the join's source.
struct BindScope {
  const MiningModel& model;
  const Schema& source;
  const std::string& source_alias;
};

// A column path resolves to exactly one of these.
struct PathTarget {
  int source_column = -1;
  const ModelColumn* model_column = nullptr;
};

Result<PathTarget> ResolvePath(const std::vector<std::string>& path,
                               const BindScope& scope) {
  const ModelDefinition& def = scope.model.definition();
  if (path.size() == 2) {
    if (!scope.source_alias.empty() && EqualsCi(path[0], scope.source_alias)) {
      DMX_ASSIGN_OR_RETURN(size_t idx, scope.source.ResolveColumn(path[1]));
      return PathTarget{static_cast<int>(idx), nullptr};
    }
    if (EqualsCi(path[0], def.model_name)) {
      const ModelColumn* spec = def.FindColumn(path[1]);
      if (spec == nullptr) {
        return BindError() << "model '" << def.model_name
                           << "' has no column '" << path[1] << "'";
      }
      return PathTarget{-1, spec};
    }
    return BindError() << "unknown qualifier '" << path[0]
                       << "' (expected the model name or the source alias)";
  }
  if (path.size() == 1) {
    // Prefer the model column (the paper qualifies ambiguous references).
    if (const ModelColumn* spec = def.FindColumn(path[0])) {
      return PathTarget{-1, spec};
    }
    int idx = scope.source.FindColumn(path[0]);
    if (idx >= 0) return PathTarget{idx, nullptr};
    return BindError() << "column '" << path[0]
                       << "' exists neither in the model nor in the source";
  }
  return BindError() << "unsupported column path depth " << path.size();
}

// The model column a Predict*-style first argument names.
Result<const ModelColumn*> ModelColumnArg(const DmxExpr& arg,
                                          const BindScope& scope) {
  if (arg.kind != DmxExpr::Kind::kColumnPath) {
    return BindError() << "expected a model column reference, got "
                       << arg.ToString();
  }
  DMX_ASSIGN_OR_RETURN(PathTarget target, ResolvePath(arg.path, scope));
  if (target.model_column == nullptr) {
    return BindError() << arg.ToString() << " is a source column; Predict "
                       << "functions take model columns";
  }
  return target.model_column;
}

// Predict(<table>, n) and TopCount's n: a non-negative integer literal.
Result<size_t> CountArg(const DmxExpr& call, const DmxExpr& arg) {
  if (arg.kind != DmxExpr::Kind::kLiteral || !arg.literal.is_long()) {
    return InvalidArgument() << call.function
                             << ": count must be an integer literal";
  }
  if (arg.literal.long_value() < 0) {
    return InvalidArgument() << call.function
                             << ": count must not be negative, got "
                             << arg.literal.long_value();
  }
  return static_cast<size_t>(arg.literal.long_value());
}

DataType ModelColumnType(const ModelColumn& spec) {
  if (spec.attr_type == AttributeType::kDiscretized) return DataType::kDouble;
  return spec.data_type;
}

// The schema of every histogram table a statement builds for `spec`. Its
// value column is the nested KEY of a TABLE target, the column itself for a
// scalar one.
std::shared_ptr<const Schema> HistogramSchema(const ModelColumn& spec) {
  const ModelColumn* value = &spec;
  if (spec.is_table()) {
    for (const ModelColumn& nested : spec.nested) {
      if (nested.is_key()) {
        value = &nested;
        break;
      }
    }
  }
  return Schema::Make({{value->name, ModelColumnType(*value)},
                       {"$SUPPORT", DataType::kDouble},
                       {"$PROBABILITY", DataType::kDouble},
                       {"$VARIANCE", DataType::kDouble},
                       {"$STDEV", DataType::kDouble}});
}

// Only a PREDICT column has a prediction to read, and that depends on the
// model alone, so it is checked once, at bind.
Status CheckPredicted(const ModelColumn& column, const BindScope& scope) {
  if (column.is_output()) return Status::OK();
  return BindError() << "column '" << column.name
                     << "' is not predicted by model '"
                     << scope.model.definition().model_name
                     << "' (is it marked PREDICT?)";
}

DataType LiteralType(const Value& literal) {
  if (literal.is_long()) return DataType::kLong;
  if (literal.is_double()) return DataType::kDouble;
  if (literal.is_bool()) return DataType::kBool;
  return DataType::kText;
}

// A Predict*/Range* call on `target`, with its output column.
BoundDmxExpr BindModelCall(Fn fn, const ModelColumn& target) {
  BoundDmxExpr out;
  out.fn = fn;
  out.target = &target;
  const bool table_valued = fn == Fn::kPredictHistogram ||
                            (fn == Fn::kPredict && target.is_table());
  if (table_valued) {
    out.column = ColumnDef("", HistogramSchema(target));
  } else {
    out.column.type =
        fn == Fn::kPredict ? ModelColumnType(target) : DataType::kDouble;
  }
  if (fn == Fn::kPredict) out.count = kDefaultPredictCount;
  return out;
}

Result<BoundDmxExpr> Bind(const DmxExpr& expr, const BindScope& scope);

Result<BoundDmxExpr> BindTopCount(const DmxExpr& expr,
                                  const BindScope& scope) {
  DMX_ASSIGN_OR_RETURN(BoundDmxExpr table, Bind(expr.args[0], scope));
  if (table.column.type != DataType::kTable || table.column.nested == nullptr) {
    return InvalidArgument() << "TopCount: first argument is not a table";
  }
  // The rank column lives inside argument 0's table: $Stat or a name.
  const DmxExpr& rank = expr.args[1];
  std::string rank_name;
  if (rank.kind == DmxExpr::Kind::kDollar) {
    rank_name = "$" + rank.dollar;
  } else if (rank.kind == DmxExpr::Kind::kColumnPath &&
             rank.path.size() == 1) {
    rank_name = rank.path[0];
  } else {
    return InvalidArgument() << "TopCount: rank must be $Stat or a column name";
  }
  BoundDmxExpr out;
  out.fn = Fn::kTopCount;
  DMX_ASSIGN_OR_RETURN(out.count, CountArg(expr, expr.args[2]));
  DMX_ASSIGN_OR_RETURN(out.rank_column,
                       table.column.nested->ResolveColumn(rank_name));
  out.column = table.column;
  out.table = std::make_unique<const BoundDmxExpr>(std::move(table));
  return out;
}

Result<BoundDmxExpr> BindFunction(const DmxExpr& expr,
                                  const BindScope& scope) {
  // The only place UDF names are compared.
  const UdfSignature* udf = nullptr;
  for (const UdfSignature& candidate : kUdfs) {
    if (EqualsCi(expr.function, candidate.name)) {
      udf = &candidate;
      break;
    }
  }
  if (udf == nullptr) {
    return NotSupported() << "unknown function '" << expr.function << "'";
  }
  const std::vector<DmxExpr>& args = expr.args;
  if (args.size() < udf->min_args || args.size() > udf->max_args) {
    return InvalidArgument() << expr.function << " takes " << udf->usage;
  }
  switch (udf->fn) {
    case Fn::kTopCount:
      return BindTopCount(expr, scope);
    case Fn::kCluster:
    case Fn::kClusterProbability: {
      if (!scope.model.service().capabilities().is_segmentation) {
        return InvalidState() << udf->name << " requires a segmentation model";
      }
      BoundDmxExpr out;
      out.fn = udf->fn;
      out.column.type =
          udf->fn == Fn::kCluster ? DataType::kText : DataType::kDouble;
      return out;
    }
    default:
      break;
  }
  // Every other UDF reads the prediction for the model column in argument 0.
  DMX_ASSIGN_OR_RETURN(const ModelColumn* target,
                       ModelColumnArg(args[0], scope));
  BoundDmxExpr out = BindModelCall(udf->fn, *target);
  switch (udf->fn) {
    case Fn::kPredict:
      if (args.size() == 2) {
        DMX_ASSIGN_OR_RETURN(out.count, CountArg(expr, args[1]));
      }
      break;
    case Fn::kPredictProbability:
    case Fn::kPredictSupport:
    case Fn::kPredictVariance:
    case Fn::kPredictStdev:
      if (args.size() == 2) {
        if (args[1].kind != DmxExpr::Kind::kLiteral) {
          return InvalidArgument() << expr.function << ": second argument "
                                   << "must be a literal value";
        }
        out.value = args[1].literal;
      }
      break;
    case Fn::kRangeMin:
    case Fn::kRangeMid:
    case Fn::kRangeMax: {
      const AttributeSet& attrs = scope.model.attributes();
      out.attribute = attrs.FindAttribute(target->name);
      if (out.attribute < 0) {
        return BindError() << expr.function << ": '" << target->name
                           << "' is not a scalar attribute";
      }
      if (!attrs.attributes[out.attribute].is_discretized()) {
        return InvalidArgument() << expr.function << ": '" << target->name
                                 << "' is not DISCRETIZED";
      }
      break;
    }
    default:
      break;
  }
  DMX_RETURN_IF_ERROR(CheckPredicted(*target, scope));
  return out;
}

Result<BoundDmxExpr> Bind(const DmxExpr& expr, const BindScope& scope) {
  switch (expr.kind) {
    case DmxExpr::Kind::kLiteral: {
      BoundDmxExpr out;
      out.value = expr.literal;
      out.column.type = LiteralType(expr.literal);
      return out;
    }
    case DmxExpr::Kind::kDollar:
      return BindError() << "$" << expr.dollar
                         << " is only meaningful inside table functions";
    case DmxExpr::Kind::kColumnPath: {
      DMX_ASSIGN_OR_RETURN(PathTarget target, ResolvePath(expr.path, scope));
      if (target.model_column != nullptr) {
        // A bare model column reference means its prediction (the paper's
        // "SELECT ..., [Age Prediction].[Age] FROM ... PREDICTION JOIN").
        DMX_RETURN_IF_ERROR(CheckPredicted(*target.model_column, scope));
        return BindModelCall(Fn::kPredict, *target.model_column);
      }
      BoundDmxExpr out;
      out.fn = Fn::kSourceColumn;
      out.source_column = target.source_column;
      out.column = scope.source.column(target.source_column);
      return out;
    }
    case DmxExpr::Kind::kFunction:
      return BindFunction(expr, scope);
  }
  return Internal() << "unreachable expression kind";
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

// The prediction for a model column; errors when this case's prediction
// does not carry it.
Result<const AttributePrediction*> TargetPrediction(
    const ModelColumn& column, const PredictionRowContext& ctx) {
  const AttributePrediction* p = ctx.prediction->Find(column.name);
  if (p == nullptr) {
    return BindError() << "column '" << column.name
                       << "' is not predicted by model '"
                       << ctx.model->definition().model_name
                       << "' (is it marked PREDICT?)";
  }
  return p;
}

// The next row of `rows` for this case, `width` cells wide; a row kept
// from an earlier case is reused.
Row& NextRow(TableRows* rows, size_t width) {
  if (rows->size == rows->rows.size()) rows->rows.emplace_back();
  rows->rows[rows->size].resize(width);
  return rows->rows[rows->size++];
}

void FillHistogram(const BoundDmxExpr& bound,
                   const AttributePrediction& prediction, TableRows* rows) {
  const size_t n = std::min(prediction.histogram.size(), bound.count);
  rows->rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ScoredValue& sv = prediction.histogram[i];
    Row& row = NextRow(rows, 5);
    row[0] = sv.value;
    row[1] = Value::Double(sv.support);
    row[2] = Value::Double(sv.probability);
    row[3] = Value::Double(sv.variance);
    row[4] = Value::Double(sv.stdev());
  }
}

// TopCount: ranks its argument's rows by the rank column, descending and
// stable, through an index permutation, and copies the first `count`. A
// source TABLE argument is ranked where it lies, in the case's source row;
// any other argument is filled into a buffer of its own.
Status FillTopCount(const BoundDmxExpr& bound, const PredictionRowContext& ctx,
                    TableRows* rows) {
  const BoundDmxExpr& table = *bound.table;
  const Row* ranked = nullptr;
  size_t size = 0;
  if (table.fn == Fn::kSourceColumn) {
    const Value& cell = (*ctx.source_row)[table.source_column];
    if (!cell.is_table() || cell.table_value() == nullptr) {
      return InvalidArgument() << "TopCount: first argument is not a table";
    }
    const NestedTable& nested = *cell.table_value();
    if (nested.schema()->num_columns() <= bound.rank_column) {
      return InvalidArgument()
             << "TopCount: table value does not match its declared schema";
    }
    ranked = nested.rows().data();
    size = nested.rows().size();
  } else {
    if (rows->argument == nullptr) {
      rows->argument = std::make_unique<TableRows>();
    }
    DMX_RETURN_IF_ERROR(FillDmxTable(table, ctx, rows->argument.get()));
    ranked = rows->argument->rows.data();
    size = rows->argument->size;
  }
  std::vector<size_t>& order = rows->order;
  order.resize(size);
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t rank = bound.rank_column;
  std::stable_sort(order.begin(), order.end(),
                   [ranked, rank](size_t a, size_t b) {
                     return ranked[a][rank].Compare(ranked[b][rank]) > 0;
                   });
  const size_t n = std::min(order.size(), bound.count);
  rows->rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Row& source = ranked[order[i]];
    NextRow(rows, source.size()) = source;
  }
  return Status::OK();
}

Value PredictStat(const BoundDmxExpr& bound,
                  const AttributePrediction& prediction) {
  double probability = prediction.probability;
  double support = prediction.support;
  double variance = prediction.variance;
  if (bound.value.has_value()) {
    const ScoredValue* entry = nullptr;
    for (const ScoredValue& sv : prediction.histogram) {
      if (sv.value.Equals(*bound.value)) {
        entry = &sv;
        break;
      }
    }
    probability = entry != nullptr ? entry->probability : 0;
    support = entry != nullptr ? entry->support : 0;
    variance = entry != nullptr ? entry->variance : 0;
  }
  switch (bound.fn) {
    case Fn::kPredictProbability:
      return Value::Double(probability);
    case Fn::kPredictVariance:
      return Value::Double(variance);
    case Fn::kPredictStdev:
      return Value::Double(variance > 0 ? std::sqrt(variance) : 0);
    default:  // PredictSupport
      return Value::Double(support);
  }
}

Value RangePoint(const BoundDmxExpr& bound,
                 const AttributePrediction& prediction,
                 const PredictionRowContext& ctx) {
  if (prediction.histogram.empty() || prediction.histogram[0].state < 0) {
    return Value::Null();
  }
  const int bucket = prediction.histogram[0].state;
  const auto& bounds =
      ctx.model->attributes().attributes[bound.attribute].bucket_bounds;
  const int n = static_cast<int>(bounds.size());
  if (n == 0) return Value::Null();
  const bool open_low = bucket <= 0;
  const bool open_high = bucket >= n;
  const double lo = open_low ? bounds[0] : bounds[bucket - 1];
  const double hi = open_high ? bounds[n - 1] : bounds[bucket];
  switch (bound.fn) {
    case Fn::kRangeMin:
      return open_low ? Value::Null() : Value::Double(lo);
    case Fn::kRangeMax:
      return open_high ? Value::Null() : Value::Double(hi);
    default:  // RangeMid
      if (open_low) return Value::Double(bounds[0]);
      if (open_high) return Value::Double(bounds[n - 1]);
      return Value::Double((lo + hi) / 2);
  }
}

// How deep `bound` reads its target's histogram: its first entry for a
// scalar Predict, statistic or range, the top n for Predict(<table>, n),
// all of it for PredictHistogram or a statistic of a named value.
size_t HistogramDepth(const BoundDmxExpr& bound) {
  switch (bound.fn) {
    case Fn::kPredict:
      // Predict(<table>, 0) still reads its target: as an empty table.
      return bound.fills_table() ? std::max<size_t>(bound.count, 1) : 1;
    case Fn::kPredictHistogram:
      return kFullHistogram;
    case Fn::kPredictProbability:
    case Fn::kPredictSupport:
    case Fn::kPredictVariance:
    case Fn::kPredictStdev:
      return bound.value.has_value() ? kFullHistogram : 1;
    default:  // RangeMin/Mid/Max
      return 1;
  }
}

// Adds what `bound` reads of each case's prediction to `request`.
void RequestTargets(const BoundDmxExpr& bound, const AttributeSet& attrs,
                    PredictOptions* request) {
  switch (bound.fn) {
    case Fn::kLiteral:
    case Fn::kSourceColumn:
      return;
    case Fn::kCluster:
    case Fn::kClusterProbability:
      request->RequestCluster(1);
      return;
    case Fn::kTopCount:
      RequestTargets(*bound.table, attrs, request);
      return;
    default:
      break;
  }
  const size_t depth = HistogramDepth(bound);
  if (bound.target->is_table()) {
    request->RequestGroup(attrs.FindGroup(bound.target->name), depth);
  } else {
    request->RequestAttribute(attrs.FindAttribute(bound.target->name), depth);
  }
}

}  // namespace

Status FillDmxTable(const BoundDmxExpr& bound, const PredictionRowContext& ctx,
                    TableRows* rows) {
  rows->size = 0;
  if (bound.fn == Fn::kTopCount) return FillTopCount(bound, ctx, rows);
  DMX_ASSIGN_OR_RETURN(const AttributePrediction* p,
                       TargetPrediction(*bound.target, ctx));
  FillHistogram(bound, *p, rows);
  return Status::OK();
}

Result<Value> EvaluateBoundDmxExpr(const BoundDmxExpr& bound,
                                   const PredictionRowContext& ctx,
                                   TableRows* rows) {
  switch (bound.fn) {
    case Fn::kLiteral:
      return *bound.value;
    case Fn::kSourceColumn:
      return (*ctx.source_row)[bound.source_column];
    case Fn::kCluster:
    case Fn::kClusterProbability: {
      const AttributePrediction* p = ctx.prediction->Find(kClusterTarget);
      if (p == nullptr) {
        return InvalidState()
               << (bound.fn == Fn::kCluster ? "Cluster" : "ClusterProbability")
               << " requires a segmentation model";
      }
      if (bound.fn == Fn::kCluster) return p->predicted;
      return Value::Double(p->probability);
    }
    default:
      break;
  }
  if (bound.fills_table()) {
    // The filled rows move into the result; only TopCount's argument and
    // rank order stay in `rows` for the next case.
    DMX_RETURN_IF_ERROR(FillDmxTable(bound, ctx, rows));
    rows->rows.resize(rows->size);
    std::vector<Row> table = std::move(rows->rows);
    rows->rows.clear();
    rows->size = 0;
    return Value::Table(
        NestedTable::Make(bound.column.nested, std::move(table)));
  }
  // Every other node reads the case's prediction for its model column.
  DMX_ASSIGN_OR_RETURN(const AttributePrediction* p,
                       TargetPrediction(*bound.target, ctx));
  switch (bound.fn) {
    case Fn::kPredict:
      return p->predicted;
    case Fn::kRangeMin:
    case Fn::kRangeMid:
    case Fn::kRangeMax:
      return RangePoint(bound, *p, ctx);
    default:  // PredictProbability/Support/Variance/Stdev
      return PredictStat(bound, *p);
  }
}

void DmxExprBindings::Prepare(const DmxExpr& expr, const MiningModel& model,
                              const Schema& source,
                              const std::string& source_alias) {
  if (roots_.count(&expr) > 0) return;
  auto it = roots_
                .emplace(&expr,
                         Bind(expr, BindScope{model, source, source_alias}))
                .first;
  request_.RequestNothing();
  if (it->second.ok()) {
    RequestTargets(*it->second, model.attributes(), &request_);
  }
}

Result<const BoundDmxExpr*> DmxExprBindings::Find(const DmxExpr& expr) const {
  auto it = roots_.find(&expr);
  if (it == roots_.end()) {
    return Internal() << "expression " << expr.ToString()
                      << " was not prepared for this statement";
  }
  if (!it->second.ok()) return it->second.status();
  return &*it->second;
}

Result<ColumnDef> DmxExprBindings::ItemColumn(const DmxExpr& expr,
                                              const std::string& alias) const {
  DMX_ASSIGN_OR_RETURN(const BoundDmxExpr* bound, Find(expr));
  ColumnDef def = bound->column;
  if (!alias.empty()) {
    def.name = alias;
  } else if (expr.kind == DmxExpr::Kind::kColumnPath) {
    def.name = expr.path.back();
  } else {
    def.name = expr.ToString();
  }
  return def;
}

Result<ColumnDef> InferDmxItemColumn(const DmxExpr& expr,
                                     const std::string& alias,
                                     const MiningModel& model,
                                     const Schema& source,
                                     const std::string& source_alias) {
  DmxExprBindings bindings;
  bindings.Prepare(expr, model, source, source_alias);
  return bindings.ItemColumn(expr, alias);
}

Result<Value> EvaluateDmxExpr(const DmxExpr& expr,
                              const PredictionRowContext& ctx) {
  if (ctx.bindings == nullptr) {
    return Internal() << "EvaluateDmxExpr needs the statement's bindings";
  }
  DMX_ASSIGN_OR_RETURN(const BoundDmxExpr* bound, ctx.bindings->Find(expr));
  TableRows rows;
  return EvaluateBoundDmxExpr(*bound, ctx, &rows);
}

}  // namespace dmx
