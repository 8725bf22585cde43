// Execution of SHAPE statements: builds hierarchical rowsets (casesets) from
// flat query results, either fully materialized or streamed case-at-a-time:
// the paper's §3.1 "consume an entity instance at a time".

#ifndef DMX_SHAPE_SHAPE_EXECUTOR_H_
#define DMX_SHAPE_SHAPE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/rowset.h"
#include "common/status.h"
#include "relational/database.h"
#include "shape/shape_ast.h"

namespace dmx::shape {

/// Executes the SHAPE statement, returning the fully materialized
/// hierarchical rowset (master columns + one TABLE column per APPEND).
Result<Rowset> ExecuteShape(const rel::Database& db, const ShapeStatement& stmt);

/// \brief Case-at-a-time reader over a SHAPE statement.
///
/// Each child row is moved once, into the nested table of its relate key;
/// a table keeps the child SELECT's row order. Master rows with equal keys
/// share one table, and master rows without children share one empty table.
/// No nested row is copied per case; Next() moves the master row's cells.
class ShapedCaseReader : public RowsetReader {
 public:
  /// Runs the embedded queries and groups each child rowset.
  static Result<std::unique_ptr<ShapedCaseReader>> Create(
      const rel::Database& db, const ShapeStatement& stmt);

  const std::shared_ptr<const Schema>& schema() const override {
    return schema_;
  }

  Result<bool> Next(Row* row) override;

 private:
  // One APPEND: its nested tables and, per master row, which one it gets.
  struct ChildTables {
    std::vector<std::shared_ptr<const NestedTable>> tables;
    std::vector<size_t> case_table;
  };

  ShapedCaseReader() = default;

  std::shared_ptr<const Schema> schema_;
  Rowset master_;
  std::vector<ChildTables> children_;
  size_t pos_ = 0;
};

}  // namespace dmx::shape

#endif  // DMX_SHAPE_SHAPE_EXECUTOR_H_
