// Firing fixture: the root's only route to the case loop is a call on a
// receiver declared inside DMX_ASSIGN_OR_RETURN, so the call graph must
// know the declared type of `model` to reach it.
#include "support.h"

namespace fx {

class MiningModel {
 public:
  Status InsertCases(const std::vector<DataCase>& cases) {
    for (const DataCase& c : cases) {
      Consume(c);
    }
    return Status::OK();
  }
};

class Catalog {
 public:
  Result<MiningModel*> GetModel(int id);
};

class Conn {
 public:
  Status Execute(const std::vector<DataCase>& cases) {
    DMX_ASSIGN_OR_RETURN(MiningModel * model, catalog_.GetModel(1));
    return model->InsertCases(cases);
  }

 private:
  Catalog catalog_;
};

}  // namespace fx
