// DMX projection evaluation: column paths and the provider's user-defined
// functions over prediction results (paper §3.2.4: "Each provider ships a
// set of functions that can be referenced in the prediction query. Some
// UDFs are scalar-valued, such as probability or support. Others have tables
// as values, such as histogram, and hence return nested tables").
//
// Shipped UDFs:
//   Predict(<col> [, n])           best estimate; on a TABLE column: nested
//                                  table of the top-n (default 10)
//                                  recommended items
//   PredictAssociation(<col> [, n])  same as Predict
//   PredictProbability(<col> [, value])
//   PredictSupport(<col> [, value])
//   PredictVariance(<col> [, value]) / PredictStdev(<col> [, value])
//   PredictHistogram(<col>)        nested table: value, $SUPPORT,
//                                  $PROBABILITY, $VARIANCE, $STDEV
//   TopCount(<table expr>, <rank column | $stat>, n)
//   RangeMin/RangeMid/RangeMax(<col>)   DISCRETIZED bucket bounds
//   Cluster() / ClusterProbability()    segmentation membership
// A bare model column reference ([M].[Age]) means Predict([Age]). Every
// count n is a non-negative integer literal; 0 yields an empty table.
//
// A statement binds each root expression once (DmxExprBindings), which also
// yields the prediction request: the targets its items read and how deep
// each histogram must be ranked. Per case, a table-valued node fills a row
// buffer kept across cases (TableRows): TopCount ranks an index permutation
// over its argument's rows and copies only the rows it keeps, and FLATTENED
// output expands the buffers straight into flat rows.

#ifndef DMX_CORE_UDF_H_
#define DMX_CORE_UDF_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rowset.h"
#include "core/dmx_ast.h"
#include "core/mining_model.h"

namespace dmx {

/// One expression compiled against a model and a source schema: everything
/// that depends only on the statement and the model is resolved and checked
/// here, so evaluating a case reads the case's prediction and source row and
/// nothing else.
struct BoundDmxExpr {
  enum class Fn {
    kLiteral,
    kSourceColumn,
    kPredict,  ///< Predict, PredictAssociation and a bare model column.
    kPredictProbability,
    kPredictSupport,
    kPredictVariance,
    kPredictStdev,
    kPredictHistogram,
    kTopCount,
    kRangeMin,
    kRangeMid,
    kRangeMax,
    kCluster,
    kClusterProbability,
  };
  Fn fn = Fn::kLiteral;
  /// The output column. A table-valued node gives every value it produces
  /// `column.nested` as its schema.
  ColumnDef column;
  /// kLiteral: the value. PredictProbability/Support/Variance/Stdev: the
  /// value whose histogram entry is read, when the call names one.
  std::optional<Value> value;
  int source_column = -1;                   ///< kSourceColumn.
  const ModelColumn* target = nullptr;      ///< The model column read.
  int attribute = -1;                       ///< RangeMin/Mid/Max.
  size_t count = SIZE_MAX;                  ///< Rows kept of a table value.
  size_t rank_column = 0;                   ///< TopCount: column ranked by.
  std::unique_ptr<const BoundDmxExpr> table;  ///< TopCount: argument 0.

  /// Whether the node computes a table per case (PredictHistogram, TopCount,
  /// Predict on a TABLE target), rather than reading one from the source.
  bool fills_table() const {
    return column.type == DataType::kTable && fn != Fn::kSourceColumn;
  }
};

/// The rows a table-valued node produced for one case. Kept across cases,
/// so refilling them for the next one reuses their cells; EvaluateBoundDmxExpr
/// instead moves them into the nested table it returns.
struct TableRows {
  std::vector<Row> rows;  ///< The first `size` are this case's.
  size_t size = 0;
  /// TopCount: its argument's rows and their rank order.
  std::unique_ptr<TableRows> argument;
  std::vector<size_t> order;
};

/// Per-statement bindings for prediction-join expressions, keyed by the
/// address of each root expression (projection item or WHERE operand), so
/// they are valid only while the statement they were prepared from is alive
/// and unmoved. Evaluation uses only these: a root that was not prepared,
/// or did not bind, fails with its bind error on every case.
class DmxExprBindings {
 public:
  /// Binds `expr` once; preparing the same root again changes nothing. A
  /// bind error is kept, not returned: Find and ItemColumn report it.
  void Prepare(const DmxExpr& expr, const MiningModel& model,
               const Schema& source, const std::string& source_alias);

  /// The bound tree for a prepared root, or the first error binding it.
  Result<const BoundDmxExpr*> Find(const DmxExpr& expr) const;

  /// The output column of a prepared root, named `alias` when that is not
  /// empty, or the first error binding it.
  Result<ColumnDef> ItemColumn(const DmxExpr& expr,
                               const std::string& alias) const;

  /// What the prepared roots read of each case's prediction: their targets,
  /// each ranked as deep as its deepest reader needs.
  const PredictOptions& request() const { return request_; }

 private:
  std::unordered_map<const DmxExpr*, Result<BoundDmxExpr>> roots_;
  PredictOptions request_;
};

/// Evaluation context for one joined case.
struct PredictionRowContext {
  const MiningModel* model = nullptr;
  const CasePrediction* prediction = nullptr;
  const Row* source_row = nullptr;
  /// The source the bindings were prepared against.
  const Schema* source_schema = nullptr;
  std::string source_alias;
  /// The statement's bindings; required.
  const DmxExprBindings* bindings = nullptr;
};

/// The output column of one projection item: binds `expr` alone and
/// returns its column or its bind error.
Result<ColumnDef> InferDmxItemColumn(const DmxExpr& expr,
                                     const std::string& alias,
                                     const MiningModel& model,
                                     const Schema& source,
                                     const std::string& source_alias);

/// Evaluates one prepared root expression for one joined case.
Result<Value> EvaluateDmxExpr(const DmxExpr& expr,
                              const PredictionRowContext& ctx);

/// Evaluates a bound expression for one joined case. A table-valued node is
/// filled through `rows`, whose filled rows then move into the nested table
/// value returned.
Result<Value> EvaluateBoundDmxExpr(const BoundDmxExpr& bound,
                                   const PredictionRowContext& ctx,
                                   TableRows* rows);

/// Fills `rows` with this case's rows of a node that fills_table().
Status FillDmxTable(const BoundDmxExpr& bound, const PredictionRowContext& ctx,
                    TableRows* rows);

}  // namespace dmx

#endif  // DMX_CORE_UDF_H_
