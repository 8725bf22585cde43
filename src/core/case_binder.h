// CaseBinder: structural binding between a mining model's column specs and a
// concrete caseset (paper §3.2's "the columns the caseset must have").
//
// Binding is by column NAME (case-insensitive), the way the Analysis Server
// provider binds: the INSERT INTO column list declares which model columns
// are populated, and each maps to the equally named source column — extra
// source columns (e.g. the RELATE key of a SHAPE child) are ignored. This is
// what makes the paper's own INSERT example well-formed, where the child
// SELECT carries [CustID] but the model's nested table does not.
//
// Responsibilities:
//   * training pass 1 — intern categorical dictionaries, collect samples for
//     DISCRETIZED columns, then finalize (bucket bounds via the
//     discretization service, ordered/cyclical dictionaries sorted);
//   * training pass 2 / prediction — convert each hierarchical Row into a
//     DataCase (prediction binding never extends dictionaries: unseen values
//     become missing);
//   * qualifier routing — SUPPORT OF -> case weight, PROBABILITY OF ->
//     per-attribute confidence;
//   * RELATION expansion — a nested RELATION column (Product Type RELATED TO
//     Product Name) derives a second item group ("Product Purchases.Product
//     Type") so services can generalize over the classification.

#ifndef DMX_CORE_CASE_BINDER_H_
#define DMX_CORE_CASE_BINDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rowset.h"
#include "core/dmx_ast.h"
#include "model/attribute_set.h"
#include "model/model_definition.h"

namespace dmx {

/// \brief Bound mapping from one source schema to one model definition.
class CaseBinder {
 public:
  /// Builds the AttributeSet skeleton for a definition (flags set, empty
  /// dictionaries). Called once at CREATE MINING MODEL time.
  static AttributeSet BuildAttributeSet(const ModelDefinition& def);

  /// Training binder. `mapping` (the INSERT column list) restricts which
  /// model columns are populated; nullptr populates every model column that
  /// has a same-named source column, erroring only if none match.
  static Result<CaseBinder> CreateForTraining(
      const ModelDefinition& def, const Schema& source,
      const std::vector<InsertColumn>* mapping);

  /// Prediction binder. `on == nullptr` means NATURAL (bind by name);
  /// otherwise only the ON pairs bind. Output-only columns stay unbound.
  static Result<CaseBinder> CreateForPrediction(const ModelDefinition& def,
                                                const Schema& source,
                                                const std::string& source_alias,
                                                const std::vector<OnPair>* on);

  /// Pass 1: extends dictionaries and collects discretizer samples.
  Status CollectStatistics(const Row& row, AttributeSet* attrs);

  /// Ends pass 1: computes DISCRETIZED bucket bounds and (on the first
  /// training only — later reorderings would invalidate existing case
  /// bindings) sorts ordered/cyclical dictionaries. Bounds are never
  /// recomputed on later INSERTs.
  Status FinalizeStatistics(AttributeSet* attrs, bool first_training);

  /// Converts one source row into a DataCase, extending dictionaries with
  /// unseen values (the training path).
  Result<DataCase> BindCase(const Row& row, AttributeSet* attrs) const {
    DataCase c;
    DMX_RETURN_IF_ERROR(BindCaseIntoImpl(row, *attrs, attrs, &c));
    return c;
  }

  /// Read-only binding (the prediction path): unseen categorical values and
  /// items read as missing; `attrs` is never mutated.
  Result<DataCase> BindCase(const Row& row, const AttributeSet& attrs) const {
    DataCase c;
    DMX_RETURN_IF_ERROR(BindCaseIntoImpl(row, attrs, nullptr, &c));
    return c;
  }

  /// Like BindCase, but into a caller-owned DataCase whose buffers are
  /// reused across calls — the form the per-case training and prediction
  /// loops use to avoid re-allocating values/groups for every row.
  Status BindCaseInto(const Row& row, AttributeSet* attrs,
                      DataCase* out) const {
    return BindCaseIntoImpl(row, *attrs, attrs, out);
  }
  Status BindCaseInto(const Row& row, const AttributeSet& attrs,
                      DataCase* out) const {
    return BindCaseIntoImpl(row, attrs, nullptr, out);
  }

  /// The source column bound to the case-level KEY (-1 when unbound);
  /// prediction queries use it to echo the case id.
  int key_source_column() const { return key_source_column_; }

 private:
  struct ScalarBinding {
    const ModelColumn* spec = nullptr;
    int attribute = -1;          ///< AttributeSet slot.
    int source_column = -1;      ///< -1: unbound (missing at bind time).
    int probability_column = -1; ///< PROBABILITY OF this attribute.
  };

  struct GroupBinding {
    const ModelColumn* spec = nullptr;
    int group = -1;                 ///< AttributeSet group slot.
    int source_column = -1;         ///< TABLE column in the source schema.
    int key_nested_column = -1;     ///< Nested KEY position in the source.
    std::vector<int> value_nested_columns;  ///< Aligned with value_names.
    int relation_nested_column = -1;
    int derived_group = -1;         ///< Relation-derived group slot.
  };

  CaseBinder() = default;

  /// Shared binding body; `intern_into` is non-null on the training path and
  /// receives dictionary growth (it aliases `attrs`). `out` is reset (not
  /// shrunk) before binding so callers can reuse one DataCase per loop.
  Status BindCaseIntoImpl(const Row& row, const AttributeSet& attrs,
                          AttributeSet* intern_into, DataCase* out) const;

  static Status BindScalarSource(const Schema& source,
                                 const std::string& source_name,
                                 ScalarBinding* binding);

  std::vector<ScalarBinding> scalars_;
  std::vector<GroupBinding> groups_;
  int weight_column_ = -1;        ///< SUPPORT OF qualifier source column.
  int key_source_column_ = -1;
  size_t attribute_count_ = 0;
  size_t group_count_ = 0;
  /// Discretizer samples per attribute index (training pass 1).
  std::map<int, std::vector<double>> samples_;
  /// Binding scratch kept across cases, so a binder serves one thread.
  mutable std::vector<int> derived_items_;
};

}  // namespace dmx

#endif  // DMX_CORE_CASE_BINDER_H_
