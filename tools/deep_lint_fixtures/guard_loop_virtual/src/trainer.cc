// Firing fixture: a training loop over cases with no guard checkpoint,
// reachable from the root only through MiningService::Train.
#include "support.h"

namespace dmx {

class ToyService : public MiningService {
 public:
  Result<int> Train(const std::vector<DataCase>& cases) const override;
};

Result<int> ToyService::Train(const std::vector<DataCase>& cases) const {
  int sum = 0;
  for (const DataCase& c : cases) {
    sum += static_cast<int>(c.weight);  // unbounded work, no GuardCheck
  }
  return sum;
}

}  // namespace dmx
