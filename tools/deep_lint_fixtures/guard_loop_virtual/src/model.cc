// The model holds its service as a base-class pointer, so the root reaches
// training only through a virtual call the call graph must dispatch to the
// overrides of MiningService::Train.
#include "support.h"

namespace dmx {

class MiningModel {
 public:
  Status InsertCases(const std::vector<DataCase>& cases) {
    service_->Train(cases);
    return Status::OK();
  }

 private:
  std::shared_ptr<MiningService> service_;
};

class Conn {
 public:
  Status Execute(MiningModel* model, const std::vector<DataCase>& cases) {
    return model->InsertCases(cases);
  }
};

}  // namespace dmx
