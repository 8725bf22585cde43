#include "algorithms/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/exec_guard.h"

namespace dmx {

namespace {

const std::string kServiceName = "Naive_Bayes";

// Items per nested group above which the Bernoulli likelihood only scores
// present items (full absent-item products get too expensive and too sharp).
constexpr size_t kMaxFullBernoulli = 512;

constexpr double kMinVariance = 1e-6;

// Grows a 2-D count table so [cls][state] is addressable.
void EnsureSize(std::vector<std::vector<double>>* table, size_t classes,
                size_t states) {
  if (table->size() < classes) table->resize(classes);
  for (auto& row : *table) {
    if (row.size() < states) row.resize(states, 0.0);
  }
}

}  // namespace

// Log-likelihood terms derived from the counts, laid out for scoring. Each
// entry is computed with the same expression the per-case formula used, so
// only the order in which a case's Bernoulli terms are summed differs.
struct NaiveBayesModel::ScoringTables {
  struct Gaussian {
    double mean = 0;
    double variance = 1;  ///< Clamped to kMinVariance.
    double log_norm = 0;  ///< log(2 pi variance).
  };
  /// One scored input attribute, continuous or categorical.
  struct Input {
    int attribute = -1;
    bool continuous = false;
    std::vector<Gaussian> gaussians;  ///< [class]
    /// States per class row; slot `width` of each row holds the term of a
    /// state never counted for that class.
    size_t width = 0;
    /// [class * (width + 1) + state]:
    /// log((count + alpha) / (class total + alpha * cardinality)).
    std::vector<double> log_lik;
  };
  /// One nested input group's per-item Bernoulli terms.
  struct Group {
    int group = -1;
    size_t num_items = 0;
    /// [class * num_items + item]: log p - (absent term of the item).
    std::vector<double> present_delta;
    /// [class]: sum of every item's absent term, log(1 - p), or 0 above
    /// kMaxFullBernoulli items.
    std::vector<double> absent_sum;
  };
  struct Target {
    size_t num_classes = 0;
    std::vector<double> log_prior;  ///< [class]
    std::vector<Input> inputs;      ///< In attribute order.
    std::vector<Group> groups;
  };

  std::vector<Target> targets;  ///< Aligned with targets_.
  /// The AttributeSet counts the tables were built for.
  std::vector<int> cardinalities;
  std::vector<size_t> group_items;

  bool BuiltFor(const AttributeSet& attrs) const {
    if (attrs.attributes.size() != cardinalities.size() ||
        attrs.groups.size() != group_items.size()) {
      return false;
    }
    for (size_t a = 0; a < cardinalities.size(); ++a) {
      if (attrs.attributes[a].cardinality() != cardinalities[a]) return false;
    }
    for (size_t g = 0; g < group_items.size(); ++g) {
      if (attrs.groups[g].keys.size() != group_items[g]) return false;
    }
    return true;
  }
};

void GaussianMoments::Add(double value, double w) {
  weight += w;
  double delta = value - mean;
  mean += delta * w / weight;
  m2 += w * delta * (value - mean);
}

double GaussianMoments::variance() const {
  return weight > 0 ? m2 / weight : 0;
}

NaiveBayesModel::NaiveBayesModel(std::vector<int> target_attributes,
                                 double alpha)
    : alpha_(alpha) {
  for (int t : target_attributes) {
    TargetStats stats;
    stats.target = t;
    targets_.push_back(std::move(stats));
  }
}

NaiveBayesModel::~NaiveBayesModel() = default;

const std::string& NaiveBayesModel::service_name() const {
  return kServiceName;
}

// Loops here are per-attribute, bounded by the model definition; the
// per-case guard checkpoint runs in the InsertCases driver right before
// each call (core/mining_model.cc).
Status NaiveBayesModel::ConsumeCase(const AttributeSet& attrs,
                                    const DataCase& c) {
  if (current_tables_.load(std::memory_order_relaxed) != nullptr) {
    InvalidateTables();
  }
  case_count_ += c.weight;
  for (TargetStats& stats : targets_) {
    double label = c.values[stats.target];
    if (IsMissing(label)) continue;  // Unlabeled cases teach this target nothing.
    int cls = static_cast<int>(label);
    // Soft label: PROBABILITY OF <target> scales the case's contribution.
    double w = c.weight * c.confidence(static_cast<size_t>(stats.target));
    if (w <= 0) continue;
    if (stats.class_counts.size() <= static_cast<size_t>(cls)) {
      stats.class_counts.resize(cls + 1, 0.0);
    }
    stats.class_counts[cls] += w;

    for (size_t a = 0; a < attrs.attributes.size(); ++a) {
      const Attribute& attr = attrs.attributes[a];
      if (!attr.is_input || static_cast<int>(a) == stats.target) continue;
      double v = c.values[a];
      if (IsMissing(v)) continue;
      if (attr.is_continuous) {
        auto& moments = stats.cont_stats[static_cast<int>(a)];
        if (moments.size() <= static_cast<size_t>(cls)) {
          moments.resize(cls + 1);
        }
        moments[cls].Add(v, w);
      } else {
        int state = static_cast<int>(v);
        auto& table = stats.cat_counts[static_cast<int>(a)];
        EnsureSize(&table, cls + 1, state + 1);
        table[cls][state] += w;
      }
    }
    for (size_t g = 0; g < attrs.groups.size(); ++g) {
      if (!attrs.groups[g].is_input) continue;
      auto& table = stats.group_counts[static_cast<int>(g)];
      size_t max_item = 0;
      for (const CaseItem& item : c.groups[g]) {
        max_item = std::max(max_item, static_cast<size_t>(item.key));
      }
      EnsureSize(&table, cls + 1, c.groups[g].empty() ? 0 : max_item + 1);
      for (const CaseItem& item : c.groups[g]) {
        table[cls][item.key] += w;
      }
    }
  }
  return Status::OK();
}

void NaiveBayesModel::InvalidateTables() {
  MutexLock lock(&tables_mu_);
  current_tables_.store(nullptr, std::memory_order_relaxed);
  built_tables_.clear();
}

const NaiveBayesModel::ScoringTables& NaiveBayesModel::Tables(
    const AttributeSet& attrs) const {
  const ScoringTables* tables = current_tables_.load(std::memory_order_acquire);
  if (tables != nullptr && tables->BuiltFor(attrs)) return *tables;
  MutexLock lock(&tables_mu_);
  tables = current_tables_.load(std::memory_order_relaxed);
  if (tables != nullptr && tables->BuiltFor(attrs)) return *tables;
  built_tables_.push_back(BuildTables(attrs));
  tables = built_tables_.back().get();
  current_tables_.store(tables, std::memory_order_release);
  return *tables;
}

// Loops here run once per training state over classes, states and items of
// the model definition, not per case.
std::unique_ptr<const NaiveBayesModel::ScoringTables>
NaiveBayesModel::BuildTables(const AttributeSet& attrs) const {
  auto tables = std::make_unique<ScoringTables>();
  for (const Attribute& attr : attrs.attributes) {
    tables->cardinalities.push_back(attr.cardinality());
  }
  for (const NestedGroup& group : attrs.groups) {
    tables->group_items.push_back(group.keys.size());
  }
  for (const TargetStats& stats : targets_) {
    ScoringTables::Target& scoring = tables->targets.emplace_back();
    const size_t num_classes = std::max<size_t>(
        stats.class_counts.size(),
        static_cast<size_t>(attrs.attributes[stats.target].cardinality()));
    scoring.num_classes = num_classes;
    if (num_classes == 0) continue;
    auto class_count = [&](size_t cls) {
      return cls < stats.class_counts.size() ? stats.class_counts[cls] : 0.0;
    };

    double total = 0;
    for (double n : stats.class_counts) total += n;
    for (size_t cls = 0; cls < num_classes; ++cls) {
      scoring.log_prior.push_back(std::log(
          (class_count(cls) + alpha_) / (total + alpha_ * num_classes)));
    }

    for (size_t a = 0; a < attrs.attributes.size(); ++a) {
      const Attribute& attr = attrs.attributes[a];
      if (!attr.is_input || static_cast<int>(a) == stats.target) continue;
      ScoringTables::Input input;
      input.attribute = static_cast<int>(a);
      input.continuous = attr.is_continuous;
      if (attr.is_continuous) {
        auto it = stats.cont_stats.find(input.attribute);
        if (it == stats.cont_stats.end()) continue;
        for (size_t cls = 0; cls < num_classes; ++cls) {
          ScoringTables::Gaussian g;
          if (cls < it->second.size() && it->second[cls].weight > 0) {
            g.mean = it->second[cls].mean;
            g.variance = it->second[cls].variance();
          } else {
            g.variance = 1e6;  // vague fallback
          }
          g.variance = std::max(g.variance, kMinVariance);
          g.log_norm = std::log(2 * M_PI * g.variance);
          input.gaussians.push_back(g);
        }
      } else {
        auto it = stats.cat_counts.find(input.attribute);
        if (it == stats.cat_counts.end()) continue;
        double card = std::max(1, attr.cardinality());
        for (const auto& row : it->second) {
          input.width = std::max(input.width, row.size());
        }
        input.log_lik.reserve(num_classes * (input.width + 1));
        for (size_t cls = 0; cls < num_classes; ++cls) {
          static const std::vector<double> kNoCounts;
          const auto& row =
              cls < it->second.size() ? it->second[cls] : kNoCounts;
          double class_total = 0;
          for (double n : row) class_total += n;
          for (size_t state = 0; state <= input.width; ++state) {
            double count = state < row.size() ? row[state] : 0;
            input.log_lik.push_back(
                std::log((count + alpha_) / (class_total + alpha_ * card)));
          }
        }
      }
      scoring.inputs.push_back(std::move(input));
    }

    for (size_t g = 0; g < attrs.groups.size(); ++g) {
      const NestedGroup& group = attrs.groups[g];
      if (!group.is_input) continue;
      auto it = stats.group_counts.find(static_cast<int>(g));
      if (it == stats.group_counts.end()) continue;
      ScoringTables::Group& terms = scoring.groups.emplace_back();
      terms.group = static_cast<int>(g);
      terms.num_items = group.keys.size();
      const bool full = group.keys.size() <= kMaxFullBernoulli;
      terms.present_delta.reserve(num_classes * terms.num_items);
      for (size_t cls = 0; cls < num_classes; ++cls) {
        double absent_sum = 0;
        for (size_t item = 0; item < terms.num_items; ++item) {
          double count = 0;
          if (cls < it->second.size() && item < it->second[cls].size()) {
            count = it->second[cls][item];
          }
          double p = (count + alpha_) / (class_count(cls) + 2 * alpha_);
          double absent = full ? std::log1p(-std::min(p, 1 - 1e-12)) : 0.0;
          terms.present_delta.push_back(std::log(p) - absent);
          absent_sum += absent;
        }
        terms.absent_sum.push_back(absent_sum);
      }
    }
  }
  return tables;
}

Status NaiveBayesModel::PredictInto(const AttributeSet& attrs,
                                    const DataCase& input,
                                    const PredictOptions& options,
                                    CasePrediction* out) const {
  // dmx-hot-begin(nb-predict)
  DMX_RETURN_IF_ERROR(GuardCheck());
  const ScoringTables& tables = Tables(attrs);
  out->Clear();
  // Per-class and per-group scratch, reused across targets and cases;
  // assignment and clear() keep the capacity.
  PredictScratch& scratch = out->scratch();
  std::vector<double>& log_post = scratch.reals[0];
  std::vector<int>& items = scratch.ints;
  HistogramRanker& ranker = scratch.ranker;
  for (size_t t = 0; t < targets_.size(); ++t) {
    const TargetStats& stats = targets_[t];
    const size_t depth = options.AttributeDepth(stats.target);
    if (depth == 0) continue;
    const ScoringTables::Target& scoring = tables.targets[t];
    const Attribute& target = attrs.attributes[stats.target];
    const size_t num_classes = scoring.num_classes;
    AttributePrediction* prediction = out->Add(target.name);
    if (num_classes == 0) continue;

    log_post = scoring.log_prior;
    for (const ScoringTables::Input& term : scoring.inputs) {
      double v = input.values[term.attribute];
      if (IsMissing(v)) continue;
      if (term.continuous) {
        for (size_t cls = 0; cls < num_classes; ++cls) {
          const ScoringTables::Gaussian& g = term.gaussians[cls];
          double d = v - g.mean;
          log_post[cls] += -0.5 * (g.log_norm + d * d / g.variance);
        }
      } else {
        int state = static_cast<int>(v);
        size_t column = state >= 0 && static_cast<size_t>(state) < term.width
                            ? static_cast<size_t>(state)
                            : term.width;
        for (size_t cls = 0; cls < num_classes; ++cls) {
          log_post[cls] += term.log_lik[cls * (term.width + 1) + column];
        }
      }
    }

    for (const ScoringTables::Group& group : scoring.groups) {
      // Each present item counts once, however often the case lists it.
      items.clear();
      items.reserve(input.groups[group.group].size());
      for (const CaseItem& item : input.groups[group.group]) {
        if (item.key >= 0 && static_cast<size_t>(item.key) < group.num_items) {
          items.push_back(item.key);
        }
      }
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      for (size_t cls = 0; cls < num_classes; ++cls) {
        const double* delta =
            group.present_delta.data() + cls * group.num_items;
        double lp = group.absent_sum[cls];
        for (int item : items) lp += delta[item];
        log_post[cls] += lp;
      }
    }

    // Normalize in probability space.
    double max_log = *std::max_element(log_post.begin(), log_post.end());
    double norm = 0;
    for (double& lp : log_post) {
      lp = std::exp(lp - max_log);
      norm += lp;
    }
    ranker.Start(num_classes);
    for (size_t cls = 0; cls < num_classes; ++cls) {
      double p = norm > 0 ? log_post[cls] / norm : 0;
      if (p <= 0 && !options.include_zero_probability) continue;
      ranker.Add(p, static_cast<int>(cls));
    }
    // Only the ranked classes become histogram entries.
    const size_t kept = ranker.Rank(depth);
    prediction->histogram.reserve(kept);
    for (size_t r = 0; r < kept; ++r) {
      const size_t cls = static_cast<size_t>(ranker.id(r));
      ScoredValue& sv = prediction->histogram.emplace_back();
      sv.value = target.StateValue(static_cast<int>(cls));
      sv.state = static_cast<int>(cls);
      sv.probability = ranker.probability(r);
      sv.support =
          cls < stats.class_counts.size() ? stats.class_counts[cls] : 0;
    }
    prediction->TakeTop();
  }
  // dmx-hot-end(nb-predict)
  return Status::OK();
}

Result<ContentNodePtr> NaiveBayesModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "NB";
  root->caption = "Naive Bayes model";
  root->support = case_count_;
  root->probability = 1.0;

  for (const TargetStats& stats : targets_) {
    const Attribute& target = attrs.attributes[stats.target];
    auto target_node = std::make_shared<ContentNode>();
    target_node->type = NodeType::kTree;
    target_node->unique_name = "NB/" + target.name;
    target_node->caption = "Target: " + target.name;
    double total = 0;
    for (double n : stats.class_counts) total += n;
    target_node->support = total;
    for (size_t cls = 0; cls < stats.class_counts.size(); ++cls) {
      target_node->distribution.push_back(
          {target.name, target.StateValue(static_cast<int>(cls)),
           stats.class_counts[cls],
           total > 0 ? stats.class_counts[cls] / total : 0, 0});
    }

    // One node per input attribute carrying P(input state | class).
    for (const auto& [attr_index, table] : stats.cat_counts) {
      const Attribute& attr = attrs.attributes[attr_index];
      auto node = std::make_shared<ContentNode>();
      node->type = NodeType::kNaiveBayesAttribute;
      node->unique_name = target_node->unique_name + "/" + attr.name;
      node->caption = attr.name;
      for (size_t cls = 0; cls < table.size(); ++cls) {
        double class_total = 0;
        for (double n : table[cls]) class_total += n;
        for (size_t state = 0; state < table[cls].size(); ++state) {
          if (table[cls][state] <= 0) continue;
          node->distribution.push_back(
              {target.StateName(static_cast<int>(cls)) + " | " + attr.name,
               attr.StateValue(static_cast<int>(state)), table[cls][state],
               class_total > 0 ? table[cls][state] / class_total : 0, 0});
        }
      }
      target_node->children.push_back(std::move(node));
    }
    for (const auto& [attr_index, moments] : stats.cont_stats) {
      const Attribute& attr = attrs.attributes[attr_index];
      auto node = std::make_shared<ContentNode>();
      node->type = NodeType::kNaiveBayesAttribute;
      node->unique_name = target_node->unique_name + "/" + attr.name;
      node->caption = attr.name;
      for (size_t cls = 0; cls < moments.size(); ++cls) {
        if (moments[cls].weight <= 0) continue;
        node->distribution.push_back(
            {target.StateName(static_cast<int>(cls)) + " | " + attr.name,
             Value::Double(moments[cls].mean), moments[cls].weight, 0,
             moments[cls].variance()});
      }
      target_node->children.push_back(std::move(node));
    }
    root->children.push_back(std::move(target_node));
  }
  return root;
}

NaiveBayesService::NaiveBayesService() {
  caps_.name = kServiceName;
  caps_.display_name = "Naive Bayes";
  caps_.description =
      "Incremental naive-Bayes classifier over discrete targets with "
      "categorical, Gaussian-continuous and nested-table inputs";
  caps_.supports_prediction = true;
  caps_.supports_incremental = true;
  caps_.supports_continuous_targets = false;
  caps_.supports_discrete_targets = true;
  caps_.parameters = {
      {"ALPHA", "Laplace smoothing pseudo-count", Value::Double(1.0)},
  };
}

Result<std::unique_ptr<TrainedModel>> NaiveBayesService::CreateEmpty(
    const AttributeSet& attrs, const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(double alpha, params.at("ALPHA").AsDouble());
  std::vector<int> targets = attrs.OutputAttributeIndices();
  if (targets.empty()) {
    return InvalidArgument() << "Naive_Bayes model has no PREDICT column";
  }
  return std::unique_ptr<TrainedModel>(
      new NaiveBayesModel(std::move(targets), alpha));
}

Result<std::unique_ptr<TrainedModel>> NaiveBayesService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<TrainedModel> model,
                       CreateEmpty(attrs, params));
  size_t n = 0;
  // dmx-hot-begin(nb-train-consume)
  for (const DataCase& c : cases) {
    if ((n++ & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_RETURN_IF_ERROR(model->ConsumeCase(attrs, c));
  }
  // dmx-hot-end(nb-train-consume)
  return model;
}

}  // namespace dmx
