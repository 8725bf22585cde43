// Minimal stand-ins for the guard fixtures.
struct Status {
  static Status OK();
};
struct Row {};
struct Rows {
  const Row* begin() const;
  const Row* end() const;
};
struct Rowset {
  const Rows& rows() const;
};
struct Value {
  const Rowset* table_value() const;
};
void Consume(const Row& row);
void Tick(int i);
Status GuardCheck();
Status GuardChargeOutputRows(int n);
struct NestedGroup {};
struct AttributeSet {
  struct Groups {
    const NestedGroup* begin() const;
    const NestedGroup* end() const;
  } groups;
};
void Consume2(const NestedGroup& group);
