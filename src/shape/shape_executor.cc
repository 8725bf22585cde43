#include "shape/shape_executor.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "common/exec_guard.h"
#include "relational/sql_executor.h"

namespace dmx::shape {

namespace {

// A row's relate key, read in place: the row's cells at `columns`.
struct KeyRef {
  const Row* row;
  const std::vector<size_t>* columns;
};

// Hashes and compares keys cell by cell with Value::Hash and Value::Equals,
// so NULL keys match each other and 3 matches 3.0.
struct KeyOps {
  size_t operator()(const KeyRef& key) const {
    size_t h = 0;
    for (size_t c : *key.columns) h = h * 1315423911u + (*key.row)[c].Hash();
    return h;
  }
  bool operator()(const KeyRef& a, const KeyRef& b) const {
    return std::equal(a.columns->begin(), a.columns->end(), b.columns->begin(),
                      [&](size_t ca, size_t cb) {
                        return (*a.row)[ca].Equals((*b.row)[cb]);
                      });
  }
};

// Moves the child rows into one table per distinct master key, each in the
// child SELECT's order, and records which table each master row gets. Child
// rows that no master row relates to are left behind.
Status GroupChildRows(const std::vector<Row>& master,
                      const std::vector<size_t>& parent_cols, Rowset* child,
                      const std::vector<size_t>& child_cols,
                      std::vector<std::shared_ptr<const NestedTable>>* tables,
                      std::vector<size_t>* case_table) {
  std::vector<Row>& rows = child->mutable_rows();
  constexpr size_t kOrphan = SIZE_MAX;
  std::unordered_map<KeyRef, size_t, KeyOps, KeyOps> ids;
  ids.reserve(master.size());
  case_table->resize(master.size());
  // dmx-hot-begin(shape-group)
  for (size_t m = 0; m < master.size(); ++m) {
    if ((m & 1023) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    const size_t next = ids.size();
    (*case_table)[m] =
        ids.try_emplace(KeyRef{&master[m], &parent_cols}, next).first->second;
  }
  // Count first, so that each table's rows are allocated once.
  std::vector<size_t> key_of(rows.size(), kOrphan);
  std::vector<size_t> counts(ids.size(), 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    if ((r & 1023) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    auto it = ids.find(KeyRef{&rows[r], &child_cols});
    if (it == ids.end()) continue;
    ++counts[key_of[r] = it->second];
  }
  // A key's table is made once its last row is in; keys without child rows
  // share one empty table.
  tables->assign(ids.size(), NestedTable::Make(child->schema(), {}));
  std::vector<std::vector<Row>> grouped(ids.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if ((r & 1023) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    const size_t key = key_of[r];
    if (key == kOrphan) continue;
    std::vector<Row>& group = grouped[key];
    if (group.empty()) group.reserve(counts[key]);
    group.push_back(std::move(rows[r]));
    if (group.size() == counts[key]) {
      (*tables)[key] = NestedTable::Make(child->schema(), std::move(group));
    }
  }
  // dmx-hot-end(shape-group)
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ShapedCaseReader>> ShapedCaseReader::Create(
    const rel::Database& db, const ShapeStatement& stmt) {
  auto reader = std::unique_ptr<ShapedCaseReader>(new ShapedCaseReader());
  DMX_ASSIGN_OR_RETURN(reader->master_, rel::ExecuteSelect(db, stmt.master));
  // The master rowset and every grouped child rowset are resident until the
  // caseset is consumed — that is the SHAPE statement's working set.
  DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(reader->master_.num_rows()));

  std::vector<ColumnDef> out_columns = reader->master_.schema()->columns();
  for (const AppendClause& append : stmt.appends) {
    DMX_ASSIGN_OR_RETURN(Rowset child, rel::ExecuteSelect(db, append.child));
    std::vector<size_t> parent_cols;
    std::vector<size_t> child_cols;
    for (const RelatePair& pair : append.relations) {
      DMX_ASSIGN_OR_RETURN(
          parent_cols.emplace_back(),
          reader->master_.schema()->ResolveColumn(pair.parent_column));
      DMX_ASSIGN_OR_RETURN(child_cols.emplace_back(),
                           child.schema()->ResolveColumn(pair.child_column));
    }
    DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(child.num_rows()));
    ChildTables grouped;
    DMX_RETURN_IF_ERROR(GroupChildRows(reader->master_.rows(), parent_cols,
                                       &child, child_cols, &grouped.tables,
                                       &grouped.case_table));
    out_columns.emplace_back(append.name, child.schema());
    reader->children_.push_back(std::move(grouped));
  }
  reader->schema_ = Schema::Make(std::move(out_columns));
  return reader;
}

Result<bool> ShapedCaseReader::Next(Row* row) {
  // dmx-hot-begin(shape-case-assembly)
  DMX_RETURN_IF_ERROR(GuardCheck());
  if (pos_ >= master_.num_rows()) return false;
  // Forward-only: the master row's cells move into the caller's buffer.
  Row& parent = master_.mutable_rows()[pos_];
  row->clear();
  row->reserve(parent.size() + children_.size());
  std::move(parent.begin(), parent.end(), std::back_inserter(*row));
  for (const ChildTables& child : children_) {
    row->push_back(Value::Table(child.tables[child.case_table[pos_]]));
  }
  ++pos_;
  // dmx-hot-end(shape-case-assembly)
  return true;
}

Result<Rowset> ExecuteShape(const rel::Database& db,
                            const ShapeStatement& stmt) {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<ShapedCaseReader> reader,
                       ShapedCaseReader::Create(db, stmt));
  return reader->ReadAll();
}

}  // namespace dmx::shape
