#include "core/case_binder.h"

#include <algorithm>

#include "algorithms/discretizer.h"

namespace dmx {

namespace {

// Normalizes a cell for dictionary use: numeric values keep their kind
// (Value's hash/equality unify 3 and 3.0), NULL stays NULL.
bool UsableValue(const Value& v) { return !v.is_null() && !v.is_table(); }

const ModelColumn* FindNestedKey(const ModelColumn& table) {
  for (const ModelColumn& col : table.nested) {
    if (col.is_key()) return &col;
  }
  return nullptr;
}

}  // namespace

AttributeSet CaseBinder::BuildAttributeSet(const ModelDefinition& def) {
  AttributeSet attrs;
  for (const ModelColumn& col : def.columns) {
    switch (col.role) {
      case ContentRole::kKey:
      case ContentRole::kQualifier:
        break;
      case ContentRole::kAttribute:
      case ContentRole::kRelation: {
        Attribute attr;
        attr.name = col.name;
        attr.declared_type = col.role == ContentRole::kRelation
                                 ? AttributeType::kDiscrete
                                 : col.attr_type;
        attr.hint = col.distribution;
        attr.existence_only = col.model_existence_only;
        attr.is_input = col.is_input();
        attr.is_output = col.is_output();
        attr.is_continuous =
            !attr.existence_only &&
            (attr.declared_type == AttributeType::kContinuous ||
             attr.declared_type == AttributeType::kSequenceTime);
        if (attr.existence_only) {
          attr.InternCategory(Value::Bool(false));
          attr.InternCategory(Value::Bool(true));
        }
        if (attr.declared_type == AttributeType::kDiscretized) {
          attr.discretization = col.discretization;
          attr.requested_buckets = col.discretization_buckets;
        }
        attrs.attributes.push_back(std::move(attr));
        break;
      }
      case ContentRole::kTable: {
        NestedGroup group;
        group.name = col.name;
        group.is_input = col.is_input();
        group.is_output = col.is_output();
        for (const ModelColumn& nested : col.nested) {
          if (nested.role == ContentRole::kAttribute) {
            if (nested.attr_type == AttributeType::kSequenceTime) {
              group.sequence_time_value =
                  static_cast<int>(group.value_names.size());
            }
            group.value_names.push_back(nested.name);
          }
        }
        attrs.groups.push_back(std::move(group));
        // Relation-derived group: items are the classifier's values.
        const ModelColumn* key = FindNestedKey(col);
        for (const ModelColumn& nested : col.nested) {
          if (nested.role == ContentRole::kRelation && key != nullptr &&
              EqualsCi(nested.related_to, key->name)) {
            NestedGroup derived;
            derived.name = col.name + "." + nested.name;
            derived.is_input = col.is_input();
            derived.is_output = false;
            attrs.groups.push_back(std::move(derived));
          }
        }
        break;
      }
    }
  }
  return attrs;
}

Status CaseBinder::BindScalarSource(const Schema& source,
                                    const std::string& source_name,
                                    ScalarBinding* binding) {
  int idx = source.FindColumn(source_name);
  if (idx < 0) {
    return BindError() << "model column '" << binding->spec->name
                       << "' maps to source column '" << source_name
                       << "', which does not exist (source: "
                       << source.ToString() << ")";
  }
  binding->source_column = idx;
  return Status::OK();
}

Result<CaseBinder> CaseBinder::CreateForTraining(
    const ModelDefinition& def, const Schema& source,
    const std::vector<InsertColumn>* mapping) {
  CaseBinder binder;
  AttributeSet skeleton = BuildAttributeSet(def);
  binder.attribute_count_ = skeleton.attributes.size();
  binder.group_count_ = skeleton.groups.size();

  auto mapped = [&](const std::string& name,
                    const InsertColumn** entry) -> bool {
    if (mapping == nullptr) return true;
    for (const InsertColumn& col : *mapping) {
      if (EqualsCi(col.name, name)) {
        if (entry != nullptr) *entry = &col;
        return true;
      }
    }
    return false;
  };
  auto nested_mapped = [](const InsertColumn* entry,
                          const std::string& name) -> bool {
    if (entry == nullptr || entry->nested.empty()) return true;
    for (const std::string& nested : entry->nested) {
      if (EqualsCi(nested, name)) return true;
    }
    return false;
  };

  bool bound_any = false;
  for (const ModelColumn& col : def.columns) {
    const InsertColumn* entry = nullptr;
    switch (col.role) {
      case ContentRole::kKey: {
        if (!mapped(col.name, &entry)) break;
        int idx = source.FindColumn(col.name);
        if (idx < 0 && mapping != nullptr) {
          return BindError() << "key column '" << col.name
                             << "' is missing from the source rowset";
        }
        binder.key_source_column_ = idx;
        if (idx >= 0) bound_any = true;
        break;
      }
      case ContentRole::kAttribute:
      case ContentRole::kRelation: {
        ScalarBinding binding;
        binding.spec = &col;
        binding.attribute = skeleton.FindAttribute(col.name);
        if (mapped(col.name, &entry)) {
          int idx = source.FindColumn(col.name);
          if (idx < 0 && mapping != nullptr) {
            return BindError() << "model column '" << col.name
                               << "' is listed in the INSERT column list but "
                                  "missing from the source rowset (source: "
                               << source.ToString() << ")";
          }
          binding.source_column = idx;
          if (idx >= 0) bound_any = true;
        }
        binder.scalars_.push_back(binding);
        break;
      }
      case ContentRole::kQualifier: {
        if (!mapped(col.name, &entry)) break;
        int idx = source.FindColumn(col.name);
        if (idx < 0) break;  // Qualifier columns are optional in the source.
        if (col.qualifier == QualifierKind::kSupport) {
          binder.weight_column_ = idx;
        }
        // PROBABILITY OF is wired to its target after the scalar loop.
        break;
      }
      case ContentRole::kTable: {
        GroupBinding binding;
        binding.spec = &col;
        binding.group = skeleton.FindGroup(col.name);
        if (mapped(col.name, &entry)) {
          int idx = source.FindColumn(col.name);
          if (idx < 0 && mapping != nullptr) {
            return BindError() << "nested table column '" << col.name
                               << "' is missing from the source rowset";
          }
          if (idx >= 0) {
            const ColumnDef& source_col = source.column(idx);
            if (source_col.type != DataType::kTable ||
                source_col.nested == nullptr) {
              return BindError() << "model column '" << col.name
                                 << "' is a TABLE but source column '"
                                 << source_col.name << "' is "
                                 << DataTypeToString(source_col.type);
            }
            binding.source_column = idx;
            bound_any = true;
            const Schema& nested_schema = *source_col.nested;
            const ModelColumn* key = FindNestedKey(col);
            for (const ModelColumn& nested : col.nested) {
              if (!nested_mapped(entry, nested.name) &&
                  !nested.is_key()) {
                continue;
              }
              int nested_idx = nested_schema.FindColumn(nested.name);
              if (nested.is_key()) {
                if (nested_idx < 0) {
                  return BindError()
                         << "nested key '" << nested.name
                         << "' of table '" << col.name
                         << "' is missing from the source nested schema ("
                         << nested_schema.ToString() << ")";
                }
                binding.key_nested_column = nested_idx;
              } else if (nested.role == ContentRole::kAttribute) {
                binding.value_nested_columns.push_back(nested_idx);
              } else if (nested.role == ContentRole::kRelation &&
                         key != nullptr &&
                         EqualsCi(nested.related_to, key->name)) {
                binding.relation_nested_column = nested_idx;
                binding.derived_group =
                    skeleton.FindGroup(col.name + "." + nested.name);
              }
            }
            // Align value columns with NestedGroup::value_names: the loop
            // above appends in model order but may skip unmapped columns;
            // rebuild aligned (missing -> -1).
            const NestedGroup& group = skeleton.groups[binding.group];
            std::vector<int> aligned(group.value_names.size(), -1);
            size_t v = 0;
            for (const ModelColumn& nested : col.nested) {
              if (nested.role != ContentRole::kAttribute) continue;
              if (nested_mapped(entry, nested.name)) {
                aligned[v] = nested_schema.FindColumn(nested.name);
              }
              ++v;
            }
            binding.value_nested_columns = std::move(aligned);
          }
        }
        binder.groups_.push_back(binding);
        break;
      }
    }
  }
  // Wire PROBABILITY OF qualifiers to their target attribute bindings.
  for (const ModelColumn& col : def.columns) {
    if (col.role != ContentRole::kQualifier ||
        col.qualifier != QualifierKind::kProbability) {
      continue;
    }
    if (mapping != nullptr && !mapped(col.name, nullptr)) continue;
    int idx = source.FindColumn(col.name);
    if (idx < 0) continue;
    for (ScalarBinding& binding : binder.scalars_) {
      if (EqualsCi(binding.spec->name, col.related_to)) {
        binding.probability_column = idx;
      }
    }
  }
  if (!bound_any) {
    return BindError() << "no model column of '" << def.model_name
                       << "' matches the source rowset (" << source.ToString()
                       << ")";
  }
  return binder;
}

Result<CaseBinder> CaseBinder::CreateForPrediction(
    const ModelDefinition& def, const Schema& source,
    const std::string& source_alias, const std::vector<OnPair>* on) {
  if (on == nullptr) {
    // NATURAL: bind by name, outputs included when present (PREDICT columns
    // are inputs too), nothing mandatory.
    return CreateForTraining(def, source, nullptr);
  }
  CaseBinder binder;
  AttributeSet skeleton = BuildAttributeSet(def);
  binder.attribute_count_ = skeleton.attributes.size();
  binder.group_count_ = skeleton.groups.size();
  // Start with everything unbound.
  for (const ModelColumn& col : def.columns) {
    if (col.role == ContentRole::kAttribute ||
        col.role == ContentRole::kRelation) {
      ScalarBinding binding;
      binding.spec = &col;
      binding.attribute = skeleton.FindAttribute(col.name);
      binder.scalars_.push_back(binding);
    } else if (col.role == ContentRole::kTable) {
      GroupBinding binding;
      binding.spec = &col;
      binding.group = skeleton.FindGroup(col.name);
      const NestedGroup& group = skeleton.groups[binding.group];
      binding.value_nested_columns.assign(group.value_names.size(), -1);
      binder.groups_.push_back(binding);
    } else if (col.role == ContentRole::kKey) {
      binder.key_source_column_ = source.FindColumn(col.name);
    }
  }

  for (const OnPair& pair : *on) {
    // Classify: the side whose first segment is the model name is the model
    // path.
    const std::vector<std::string>* model_path = nullptr;
    const std::vector<std::string>* source_path = nullptr;
    if (!pair.left.empty() && EqualsCi(pair.left[0], def.model_name)) {
      model_path = &pair.left;
      source_path = &pair.right;
    } else if (!pair.right.empty() &&
               EqualsCi(pair.right[0], def.model_name)) {
      model_path = &pair.right;
      source_path = &pair.left;
    } else {
      return BindError() << "ON condition has no side starting with model '"
                         << def.model_name << "'";
    }
    std::vector<std::string> model_rest(model_path->begin() + 1,
                                        model_path->end());
    std::vector<std::string> source_rest = *source_path;
    if (!source_rest.empty() && !source_alias.empty() &&
        EqualsCi(source_rest[0], source_alias)) {
      source_rest.erase(source_rest.begin());
    }
    if (model_rest.empty() || source_rest.empty()) {
      return BindError() << "incomplete ON path";
    }

    if (model_rest.size() == 1) {
      // Scalar model column.
      bool found = false;
      for (ScalarBinding& binding : binder.scalars_) {
        if (!EqualsCi(binding.spec->name, model_rest[0])) continue;
        if (source_rest.size() != 1) {
          return BindError() << "scalar model column '" << model_rest[0]
                             << "' joined to a nested source path";
        }
        DMX_RETURN_IF_ERROR(
            BindScalarSource(source, source_rest[0], &binding));
        found = true;
      }
      if (!found) {
        return BindError() << "model '" << def.model_name
                           << "' has no attribute column '" << model_rest[0]
                           << "'";
      }
      continue;
    }
    if (model_rest.size() == 2) {
      // Nested: [Table].[Column].
      bool found = false;
      for (GroupBinding& binding : binder.groups_) {
        if (!EqualsCi(binding.spec->name, model_rest[0])) continue;
        found = true;
        if (source_rest.size() != 2) {
          return BindError() << "nested model path '" << model_rest[0] << "."
                             << model_rest[1]
                             << "' joined to a non-nested source path";
        }
        int table_idx = source.FindColumn(source_rest[0]);
        if (table_idx < 0 ||
            source.column(table_idx).type != DataType::kTable) {
          return BindError() << "source column '" << source_rest[0]
                             << "' is not a nested table";
        }
        if (binding.source_column >= 0 && binding.source_column != table_idx) {
          return BindError() << "nested table '" << model_rest[0]
                             << "' joined to two different source tables";
        }
        binding.source_column = table_idx;
        const Schema& nested_schema = *source.column(table_idx).nested;
        int nested_idx = nested_schema.FindColumn(source_rest[1]);
        if (nested_idx < 0) {
          return BindError() << "source nested column '" << source_rest[1]
                             << "' does not exist";
        }
        // Which nested model column is it?
        const ModelColumn* key = FindNestedKey(*binding.spec);
        bool matched = false;
        size_t value_pos = 0;
        for (const ModelColumn& nested : binding.spec->nested) {
          if (EqualsCi(nested.name, model_rest[1])) {
            matched = true;
            if (nested.is_key()) {
              binding.key_nested_column = nested_idx;
            } else if (nested.role == ContentRole::kAttribute) {
              binding.value_nested_columns[value_pos] = nested_idx;
            } else if (nested.role == ContentRole::kRelation && key != nullptr &&
                       EqualsCi(nested.related_to, key->name)) {
              binding.relation_nested_column = nested_idx;
              binding.derived_group = skeleton.FindGroup(
                  binding.spec->name + "." + nested.name);
            }
            break;
          }
          if (nested.role == ContentRole::kAttribute) ++value_pos;
        }
        if (!matched) {
          return BindError() << "nested table '" << model_rest[0]
                             << "' has no column '" << model_rest[1] << "'";
        }
      }
      if (!found) {
        return BindError() << "model '" << def.model_name
                           << "' has no nested table '" << model_rest[0]
                           << "'";
      }
      continue;
    }
    return BindError() << "ON paths may have at most two segments after the "
                          "model name";
  }
  return binder;
}

Status CaseBinder::CollectStatistics(const Row& row, AttributeSet* attrs) {
  for (const ScalarBinding& binding : scalars_) {
    if (binding.source_column < 0) continue;
    const Value& v = row[binding.source_column];
    if (!UsableValue(v)) continue;
    Attribute& attr = attrs->attributes[binding.attribute];
    if (attr.existence_only) continue;
    if (attr.is_discretized()) {
      // Bounds are computed once; afterwards sampling would only leak.
      if (attr.bucket_bounds.empty()) {
        auto d = v.AsDouble();
        if (d.ok()) samples_[binding.attribute].push_back(*d);
      }
    } else if (!attr.is_continuous) {
      attr.InternCategory(v);
    }
  }
  for (const GroupBinding& binding : groups_) {
    if (binding.source_column < 0 || binding.key_nested_column < 0) continue;
    const Value& cell = row[binding.source_column];
    if (!cell.is_table() || cell.table_value() == nullptr) continue;
    NestedGroup& group = attrs->groups[binding.group];
    for (const Row& nested : cell.table_value()->rows()) {
      const Value& key = nested[binding.key_nested_column];
      if (UsableValue(key)) group.InternKey(key);
      if (binding.relation_nested_column >= 0 && binding.derived_group >= 0) {
        const Value& relation = nested[binding.relation_nested_column];
        if (UsableValue(relation)) {
          attrs->groups[binding.derived_group].InternKey(relation);
        }
      }
    }
  }
  return Status::OK();
}

Status CaseBinder::FinalizeStatistics(AttributeSet* attrs,
                                      bool first_training) {
  for (auto& [attribute, samples] : samples_) {
    Attribute& attr = attrs->attributes[attribute];
    if (!attr.bucket_bounds.empty()) continue;  // Bounds are fixed forever.
    DMX_ASSIGN_OR_RETURN(
        attr.bucket_bounds,
        ComputeBucketBounds(std::move(samples), attr.discretization,
                            attr.requested_buckets));
  }
  samples_.clear();
  if (first_training) {
    for (Attribute& attr : attrs->attributes) {
      if (attr.declared_type != AttributeType::kOrdered &&
          attr.declared_type != AttributeType::kCyclical) {
        continue;
      }
      std::sort(attr.categories.begin(), attr.categories.end(),
                [](const Value& a, const Value& b) {
                  return a.Compare(b) < 0;
                });
      attr.category_index.clear();
      for (size_t i = 0; i < attr.categories.size(); ++i) {
        attr.category_index.emplace(attr.categories[i], static_cast<int>(i));
      }
    }
  }
  return Status::OK();
}

Status CaseBinder::BindCaseIntoImpl(const Row& row, const AttributeSet& attrs,
                                    AttributeSet* intern_into,
                                    DataCase* out) const {
  const bool allow_intern = intern_into != nullptr;
  DataCase& c = *out;
  c.values.assign(attribute_count_, kMissing);
  c.weight = 1.0;
  c.confidences.clear();
  // clear() per group keeps the item capacity from the previous case.
  if (c.groups.size() != group_count_) c.groups.resize(group_count_);
  for (auto& group_items : c.groups) group_items.clear();
  if (weight_column_ >= 0 && !row[weight_column_].is_null()) {
    DMX_ASSIGN_OR_RETURN(c.weight, row[weight_column_].AsDouble());
    if (c.weight < 0) {
      return InvalidArgument() << "negative SUPPORT weight " << c.weight;
    }
  }
  for (const ScalarBinding& binding : scalars_) {
    const Attribute& attr = attrs.attributes[binding.attribute];
    const Value* v = binding.source_column >= 0 ? &row[binding.source_column]
                                                : nullptr;
    if (attr.existence_only) {
      c.values[binding.attribute] =
          (v != nullptr && !v->is_null()) ? 1.0 : 0.0;
      continue;
    }
    if (v == nullptr || !UsableValue(*v)) continue;
    if (attr.is_continuous) {
      auto d = v->AsDouble();
      if (d.ok()) c.values[binding.attribute] = *d;
    } else if (attr.is_discretized()) {
      auto d = v->AsDouble();
      if (d.ok()) {
        c.values[binding.attribute] = attr.BucketOf(*d);
      }
    } else {
      int state =
          allow_intern
              ? intern_into->attributes[binding.attribute].InternCategory(*v)
              : attr.LookupCategory(*v);
      if (state >= 0) c.values[binding.attribute] = state;
    }
    if (binding.probability_column >= 0 &&
        !row[binding.probability_column].is_null()) {
      auto p = row[binding.probability_column].AsDouble();
      if (p.ok()) {
        if (c.confidences.empty()) c.confidences.assign(attribute_count_, 1.0);
        c.confidences[binding.attribute] = std::clamp(*p, 0.0, 1.0);
      }
    }
  }
  // Relation-derived item ids of one group, collected in the binder's
  // scratch so a case does not regrow a fresh vector.
  std::vector<int>& derived_items = derived_items_;
  for (const GroupBinding& binding : groups_) {
    if (binding.source_column < 0 || binding.key_nested_column < 0) continue;
    const Value& cell = row[binding.source_column];
    if (!cell.is_table() || cell.table_value() == nullptr) continue;
    const NestedGroup& group = attrs.groups[binding.group];
    derived_items.clear();
    for (const Row& nested : cell.table_value()->rows()) {
      const Value& key = nested[binding.key_nested_column];
      if (!UsableValue(key)) continue;
      int key_index =
          allow_intern ? intern_into->groups[binding.group].InternKey(key)
                       : group.LookupKey(key);
      if (key_index >= 0) {
        CaseItem item;
        item.key = key_index;
        item.values.reserve(binding.value_nested_columns.size());
        for (int col : binding.value_nested_columns) {
          double value = kMissing;
          if (col >= 0 && !nested[col].is_null()) {
            auto d = nested[col].AsDouble();
            if (d.ok()) value = *d;
          }
          item.values.push_back(value);
        }
        c.groups[binding.group].push_back(std::move(item));
      }
      if (binding.relation_nested_column >= 0 && binding.derived_group >= 0) {
        const Value& relation = nested[binding.relation_nested_column];
        if (UsableValue(relation)) {
          int idx = allow_intern
                        ? intern_into->groups[binding.derived_group]
                              .InternKey(relation)
                        : attrs.groups[binding.derived_group]
                              .LookupKey(relation);
          if (idx >= 0) derived_items.push_back(idx);
        }
      }
    }
    if (binding.derived_group >= 0) {
      std::sort(derived_items.begin(), derived_items.end());
      derived_items.erase(
          std::unique(derived_items.begin(), derived_items.end()),
          derived_items.end());
      for (int idx : derived_items) {
        CaseItem item;
        item.key = idx;
        c.groups[binding.derived_group].push_back(std::move(item));
      }
    }
  }
  return Status::OK();
}

}  // namespace dmx
