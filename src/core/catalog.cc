#include "core/catalog.h"

#include "core/dmx_analyzer.h"

namespace dmx {

Result<MiningModel*> ModelCatalog::CreateModel(ModelDefinition definition,
                                               const ServiceRegistry& registry) {
  // Service resolution first so an unknown service keeps its kNotFound
  // contract (the analyzer would fold it into a semantic error instead).
  DMX_ASSIGN_OR_RETURN(std::shared_ptr<MiningService> service,
                       registry.Find(definition.service_name));
  // Semantic analysis next: the analyzer reports every column-metadata
  // violation in one message, not just the first. The
  // registry goes into the context so service-dependent rules fire exactly
  // as they do for standalone AnalyzeText — notably predict-presence, which
  // hardens from warning to error for non-segmentation services. The
  // fuzzer's differential oracle holds both paths to the same verdict.
  AnalyzerContext context;
  context.services = &registry;
  DMX_RETURN_IF_ERROR(
      DmxAnalyzer(context).AnalyzeDefinition(definition).ToStatus());
  if (models_.count(definition.model_name) > 0) {
    return AlreadyExists() << "mining model '" << definition.model_name
                           << "' already exists";
  }
  DMX_ASSIGN_OR_RETURN(ParamMap params,
                       service->ResolveParams(definition.parameters));
  auto model = std::make_unique<MiningModel>(std::move(definition),
                                             std::move(service),
                                             std::move(params));
  MiningModel* raw = model.get();
  models_.emplace(raw->definition().model_name, std::move(model));
  return raw;
}

Result<MiningModel*> ModelCatalog::GetModel(const std::string& name) {
  auto it = models_.find(name);
  if (it == models_.end()) {
    return NotFound() << "mining model '" << name << "' does not exist";
  }
  return it->second.get();
}

Result<const MiningModel*> ModelCatalog::GetModel(
    const std::string& name) const {
  auto it = models_.find(name);
  if (it == models_.end()) {
    return NotFound() << "mining model '" << name << "' does not exist";
  }
  return static_cast<const MiningModel*>(it->second.get());
}

Status ModelCatalog::DropModel(const std::string& name) {
  if (models_.erase(name) == 0) {
    return NotFound() << "mining model '" << name << "' does not exist";
  }
  return Status::OK();
}

Status ModelCatalog::AdoptModel(std::unique_ptr<MiningModel> model) {
  const std::string& name = model->definition().model_name;
  if (models_.count(name) > 0) {
    return AlreadyExists() << "mining model '" << name << "' already exists";
  }
  models_.emplace(name, std::move(model));
  return Status::OK();
}

std::vector<std::string> ModelCatalog::ListModels() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  return out;
}

}  // namespace dmx
