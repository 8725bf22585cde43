// Minimal stand-ins for the DMX_ASSIGN_OR_RETURN receiver fixture.
#define DMX_ASSIGN_OR_RETURN(lhs, rexpr) lhs = (rexpr).value()
struct Status {
  static Status OK();
};
template <typename T> struct Result {
  T value();
};
struct DataCase {};
void Consume(const DataCase& c);
namespace std {
template <typename T> struct vector {
  const T* begin() const;
  const T* end() const;
};
}  // namespace std
