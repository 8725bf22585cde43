// Minimal stand-ins for the virtual-dispatch guard fixtures.
struct Status {
  static Status OK();
};
template <typename T> struct Result {
  Result(T value);
};
struct DataCase {
  double weight;
};
Status GuardCheck();
namespace std {
template <typename T> struct vector {
  const T* begin() const;
  const T* end() const;
};
template <typename T> struct shared_ptr {
  T* operator->() const;
};
}  // namespace std

namespace dmx {

class MiningService {
 public:
  virtual ~MiningService() = default;
  virtual Result<int> Train(const std::vector<DataCase>& cases) const = 0;
};

}  // namespace dmx
