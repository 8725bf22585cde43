// Clean twin of guard_loop_virtual: the override reached through the
// virtual call checkpoints every 256 cases.
#include "support.h"

namespace dmx {

class ToyService : public MiningService {
 public:
  Result<int> Train(const std::vector<DataCase>& cases) const override;
};

Result<int> ToyService::Train(const std::vector<DataCase>& cases) const {
  int sum = 0;
  int n = 0;
  for (const DataCase& c : cases) {
    if ((n++ & 255) == 0) GuardCheck();
    sum += static_cast<int>(c.weight);
  }
  return sum;
}

}  // namespace dmx
