#include "relational/table.h"

#include <iterator>

#include "common/exec_guard.h"

namespace dmx::rel {

Status Table::ValidateSchema(const Schema& schema) {
  if (schema.num_columns() == 0) {
    return InvalidArgument() << "a table needs at least one column";
  }
  for (const ColumnDef& col : schema.columns()) {
    if (col.type == DataType::kTable) {
      return InvalidArgument()
             << "base table column '" << col.name
             << "' cannot be TABLE-typed; use SHAPE to build nested rowsets";
    }
  }
  return Status::OK();
}

Status Table::CoerceForInsert(Row* row) const {
  if (row->size() != schema_->num_columns()) {
    return InvalidArgument() << "INSERT into '" << name_ << "': got "
                             << row->size() << " values, expected "
                             << schema_->num_columns();
  }
  for (size_t i = 0; i < row->size(); ++i) {
    DMX_ASSIGN_OR_RETURN((*row)[i],
                         (*row)[i].CoerceTo(schema_->column(i).type));
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  DMX_RETURN_IF_ERROR(CoerceForInsert(&row));
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::CoerceAll(std::vector<Row>* rows) const {
  size_t n = 0;
  for (Row& row : *rows) {
    if ((n++ & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_RETURN_IF_ERROR(CoerceForInsert(&row));
  }
  return Status::OK();
}

Status Table::InsertAll(std::vector<Row> rows) {
  // Coerce every row before appending any (see the header contract: failed
  // statements must leave the table untouched).
  DMX_RETURN_IF_ERROR(CoerceAll(&rows));
  rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  return Status::OK();
}

Status Table::ReplaceAll(std::vector<Row> rows) {
  DMX_RETURN_IF_ERROR(CoerceAll(&rows));
  rows_ = std::move(rows);
  return Status::OK();
}

}  // namespace dmx::rel
