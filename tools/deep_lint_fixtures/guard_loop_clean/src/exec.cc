// Clean fixture: every row-scale loop reachable from the root has a guard
// checkpoint in its cycle — directly, through a callee, or through a local
// lambda. A nested-table loop is case-scale, and the last loop is row-scale
// but unreachable from any root.
#include "support.h"

namespace fx {

Status Scan(const Rowset& input) {
  for (const Row& row : input.rows()) {
    GuardCheck();
    Consume(row);
  }
  return Status::OK();
}

Status ChargeAll(const Rowset& input) {
  auto emit = [&](const Row& row) {
    GuardChargeOutputRows(1);
    Consume(row);
  };
  for (const Row& row : input.rows()) {
    emit(row);
  }
  return Status::OK();
}

Status Deep(const Rowset& input) {
  for (const Row& row : input.rows()) {
    Scan(input);
  }
  return Status::OK();
}

// Attribute groups are schema-scale (bounded by model width), so a loop
// over them needs no checkpoint even though it says "group" twice.
Status Serialize(const AttributeSet& attrs) {
  for (const NestedGroup& group : attrs.groups) {
    Consume2(group);
  }
  return Status::OK();
}

// One cell's nested table is case-scale: it holds a single case's nested
// rows, and the caller's case loop (Deep, above) already checkpoints.
Status BindNested(const Value& cell) {
  for (const Row& nested : cell.table_value()->rows()) {
    Consume(nested);
  }
  return Status::OK();
}

void Unreached(const Rowset& input) {
  for (const Row& row : input.rows()) {
    Consume(row);
  }
}

class Conn {
 public:
  Status Execute(const Rowset& input) {
    Scan(input);
    ChargeAll(input);
    Serialize({});
    BindNested({});
    return Deep(input);
  }
};

}  // namespace fx
