// Request-driven scoring: for every shipped service, a prediction made under
// a request (argmax, top-n, a subset of targets) must equal the first n
// entries of the full prediction, ties kept in the service's order, and a
// CasePrediction reused across cases must read exactly like a fresh one.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/association_rules.h"
#include "algorithms/clustering.h"
#include "algorithms/decision_tree.h"
#include "algorithms/linear_regression.h"
#include "algorithms/naive_bayes.h"
#include "algorithms/sequence_analysis.h"
#include "common/random.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::AddCategorical;
using testutil::AddContinuous;
using testutil::AddGroup;
using testutil::MakeCase;

// A trained model with the attribute space it was trained on and the cases
// it is probed with.
struct Scenario {
  std::string service;
  AttributeSet attrs;
  std::unique_ptr<TrainedModel> model;
  std::vector<DataCase> probes;
};

std::unique_ptr<TrainedModel> Train(const MiningService& service,
                                    const AttributeSet& attrs,
                                    const std::vector<DataCase>& cases,
                                    std::vector<AlgorithmParam> params = {}) {
  auto resolved = service.ResolveParams(params);
  EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
  auto model = service.Train(attrs, cases, *resolved);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return model.ok() ? std::move(model).value() : nullptr;
}

// Two discrete targets. Label's states C and D never occur in training, so
// their smoothed posteriors tie on every case.
Scenario NaiveBayesScenario() {
  Scenario s{"Naive_Bayes", {}, nullptr, {}};
  AddCategorical(&s.attrs, "Color", {"red", "green", "blue"});
  AddContinuous(&s.attrs, "Size");
  AddCategorical(&s.attrs, "Label", {"A", "B", "C", "D"}, true);
  AddCategorical(&s.attrs, "Other", {"x", "y", "z"}, true);
  AddGroup(&s.attrs, "Basket", {"beer", "ham", "wine"});
  Rng rng(11);
  std::vector<DataCase> cases;
  for (int i = 0; i < 120; ++i) {
    const int color = static_cast<int>(rng.Uniform(3));
    const int label = color == 0 ? 0 : 1;
    std::vector<int> basket;
    if (rng.NextDouble() < 0.5) basket.push_back(label);
    cases.push_back(MakeCase(s.attrs,
                             {static_cast<double>(color),
                              rng.Gaussian(label * 3.0, 1.0),
                              static_cast<double>(label),
                              static_cast<double>(rng.Uniform(3))},
                             {basket}));
  }
  s.model = Train(NaiveBayesService(), s.attrs, cases);
  s.probes = {MakeCase(s.attrs, {0, 0.5, kMissing, kMissing}, {{0}}),
              MakeCase(s.attrs, {1, 3.5, kMissing, kMissing}, {{1, 2}}),
              MakeCase(s.attrs, {kMissing, kMissing, kMissing, kMissing})};
  return s;
}

// A classification tree whose leaves leave some states at probability 0
// (they tie under include_zero_probability) and a regression tree.
Scenario DecisionTreeScenario() {
  Scenario s{"Decision_Trees", {}, nullptr, {}};
  AddCategorical(&s.attrs, "X", {"a", "b", "c"});
  AddContinuous(&s.attrs, "W");
  AddCategorical(&s.attrs, "Label", {"L0", "L1", "L2", "L3"}, true);
  AddContinuous(&s.attrs, "Y", true);
  Rng rng(5);
  std::vector<DataCase> cases;
  for (int i = 0; i < 300; ++i) {
    const int x = static_cast<int>(rng.Uniform(3));
    const int label = x == 2 ? static_cast<int>(rng.Uniform(3)) : x;
    cases.push_back(MakeCase(s.attrs, {static_cast<double>(x),
                                       rng.NextDouble() * 10,
                                       static_cast<double>(label),
                                       x * 10 + rng.Gaussian(0, 1)}));
  }
  s.model = Train(DecisionTreeService(), s.attrs, cases,
                  {{"MINIMUM_SUPPORT", Value::Double(5.0)}});
  s.probes = {MakeCase(s.attrs, {0, 1, kMissing, kMissing}),
              MakeCase(s.attrs, {2, 7, kMissing, kMissing}),
              MakeCase(s.attrs, {1, 4, kMissing, kMissing})};
  return s;
}

// Cluster membership plus a discrete and a continuous PREDICT column.
Scenario ClusteringScenario() {
  Scenario s{"Clustering", {}, nullptr, {}};
  AddContinuous(&s.attrs, "U");
  AddContinuous(&s.attrs, "V");
  AddCategorical(&s.attrs, "Label", {"near", "far", "never"}, true);
  AddContinuous(&s.attrs, "Z", true);
  Rng rng(7);
  std::vector<DataCase> cases;
  for (int i = 0; i < 240; ++i) {
    const int blob = static_cast<int>(rng.Uniform(3));
    cases.push_back(MakeCase(s.attrs, {rng.Gaussian(blob * 10.0, 1.0),
                                       rng.Gaussian(blob * 10.0, 1.0),
                                       blob == 0 ? 0.0 : 1.0,
                                       rng.Gaussian(blob * 5.0, 0.5)}));
  }
  s.model = Train(ClusteringService(), s.attrs, cases,
                  {{"CLUSTER_COUNT", Value::Long(3)},
                   {"SEED", Value::Long(3)}});
  s.probes = {MakeCase(s.attrs, {0, 0, kMissing, kMissing}),
              MakeCase(s.attrs, {10, 10, kMissing, kMissing}),
              MakeCase(s.attrs, {5, 5, kMissing, kMissing})};
  return s;
}

// Recommendations over a basket: the probes own different items, so their
// histograms differ in length, and popularity fallbacks of equal support
// tie.
Scenario AssociationScenario() {
  Scenario s{"Association_Rules", {}, nullptr, {}};
  AddGroup(&s.attrs, "Basket", {"beer", "ham", "wine", "bread", "milk", "jam"},
           true);
  const std::vector<std::vector<int>> baskets = {
      {0, 1}, {0, 1}, {0, 1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 3}, {1, 4},
      {2, 5}, {0, 1, 3}};
  std::vector<DataCase> cases;
  for (int round = 0; round < 3; ++round) {
    for (const std::vector<int>& basket : baskets) {
      cases.push_back(MakeCase(s.attrs, {}, {basket}));
    }
  }
  s.model = Train(AssociationService(), s.attrs, cases,
                  {{"MINIMUM_SUPPORT", Value::Double(2.0)},
                   {"MINIMUM_PROBABILITY", Value::Double(0.2)}});
  s.probes = {MakeCase(s.attrs, {}, {{0}}),
              MakeCase(s.attrs, {}, {{0, 1, 2, 3, 4}}),
              MakeCase(s.attrs, {}, {{}})};
  return s;
}

// Two continuous targets: each prediction is a one-entry histogram.
Scenario LinearRegressionScenario() {
  Scenario s{"Linear_Regression", {}, nullptr, {}};
  AddContinuous(&s.attrs, "X1");
  AddContinuous(&s.attrs, "X2");
  AddContinuous(&s.attrs, "Y", true);
  AddContinuous(&s.attrs, "W", true);
  Rng rng(9);
  std::vector<DataCase> cases;
  for (int i = 0; i < 100; ++i) {
    const double x1 = rng.NextDouble() * 10;
    const double x2 = rng.NextDouble() * 10;
    cases.push_back(MakeCase(s.attrs, {x1, x2, 2 * x1 - x2 + rng.Gaussian(0, 1),
                                       x2 + rng.Gaussian(0, 2)}));
  }
  s.model = Train(LinearRegressionService(), s.attrs, cases);
  s.probes = {MakeCase(s.attrs, {1, 2, kMissing, kMissing}),
              MakeCase(s.attrs, {8, 3, kMissing, kMissing}),
              MakeCase(s.attrs, {kMissing, 5, kMissing, kMissing})};
  return s;
}

DataCase SequenceCase(const AttributeSet& attrs,
                      const std::vector<int>& ordered_items) {
  DataCase c = MakeCase(attrs, {});
  double when = 1;
  for (int key : ordered_items) {
    CaseItem item;
    item.key = key;
    item.values = {when++};
    c.groups[0].push_back(std::move(item));
  }
  return c;
}

// Next-item prediction: after "c" every successor is unseen, so the
// smoothed probabilities tie across the whole vocabulary.
Scenario SequenceScenario() {
  Scenario s{"Sequence_Analysis", {}, nullptr, {}};
  AddGroup(&s.attrs, "Events", {"a", "b", "c", "d"}, true);
  s.attrs.groups[0].is_input = true;
  s.attrs.groups[0].value_names = {"When"};
  s.attrs.groups[0].sequence_time_value = 0;
  std::vector<DataCase> cases;
  for (int i = 0; i < 20; ++i) {
    cases.push_back(SequenceCase(s.attrs, {0, 1, 3}));
    cases.push_back(SequenceCase(s.attrs, {1, 0}));
  }
  s.model = Train(SequenceAnalysisService(), s.attrs, cases);
  s.probes = {SequenceCase(s.attrs, {0}), SequenceCase(s.attrs, {2}),
              SequenceCase(s.attrs, {})};
  return s;
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> all;
  all.push_back(NaiveBayesScenario());
  all.push_back(DecisionTreeScenario());
  all.push_back(ClusteringScenario());
  all.push_back(AssociationScenario());
  all.push_back(LinearRegressionScenario());
  all.push_back(SequenceScenario());
  return all;
}

// A request for `name` alone, ranked to `depth`.
PredictOptions RequestOnly(const AttributeSet& attrs, const std::string& name,
                           size_t depth, bool include_zero = false) {
  PredictOptions options;
  options.include_zero_probability = include_zero;
  if (name == kClusterTarget) {
    options.RequestCluster(depth);
  } else if (int attribute = attrs.FindAttribute(name); attribute >= 0) {
    options.RequestAttribute(attribute, depth);
  } else {
    options.RequestGroup(attrs.FindGroup(name), depth);
  }
  return options;
}

bool SameValue(const Value& a, const Value& b) {
  return (a.is_null() && b.is_null()) || a.Equals(b);
}

// `got` must be `full` with its histogram cut to the first `depth` entries.
void ExpectPrefix(const AttributePrediction& got,
                  const AttributePrediction& full, size_t depth,
                  const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.name, full.name);
  EXPECT_TRUE(SameValue(got.predicted, full.predicted))
      << got.predicted.ToString() << " vs " << full.predicted.ToString();
  EXPECT_EQ(got.probability, full.probability);
  EXPECT_EQ(got.support, full.support);
  EXPECT_EQ(got.variance, full.variance);
  EXPECT_EQ(got.cluster_id, full.cluster_id);
  ASSERT_EQ(got.histogram.size(), std::min(depth, full.histogram.size()));
  for (size_t i = 0; i < got.histogram.size(); ++i) {
    const ScoredValue& a = got.histogram[i];
    const ScoredValue& b = full.histogram[i];
    EXPECT_TRUE(SameValue(a.value, b.value)) << "entry " << i;
    EXPECT_EQ(a.probability, b.probability) << "entry " << i;
    EXPECT_EQ(a.support, b.support) << "entry " << i;
    EXPECT_EQ(a.variance, b.variance) << "entry " << i;
    EXPECT_EQ(a.state, b.state) << "entry " << i;
  }
}

// Every target of `got` must equal the same target of `want`, and both must
// carry the same targets.
void ExpectSamePrediction(const CasePrediction& got,
                          const CasePrediction& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t t = 0; t < want.size(); ++t) {
    const AttributePrediction* same = got.Find(want[t].name);
    ASSERT_NE(same, nullptr) << where << ": " << want[t].name;
    ExpectPrefix(*same, want[t], kFullHistogram, where);
  }
}

TEST(PredictRequestTest, DefaultOptionsRequestEveryTargetInFull) {
  const PredictOptions everything;
  EXPECT_EQ(everything.AttributeDepth(0), kFullHistogram);
  EXPECT_EQ(everything.GroupDepth(3), kFullHistogram);
  EXPECT_EQ(everything.ClusterDepth(), kFullHistogram);
  PredictOptions some;
  some.RequestAttribute(2, 1);
  some.RequestAttribute(2, 4);
  EXPECT_EQ(some.AttributeDepth(2), 4u);
  EXPECT_EQ(some.AttributeDepth(0), 0u);
  EXPECT_EQ(some.GroupDepth(0), 0u);
  EXPECT_EQ(some.ClusterDepth(), 0u);
}

// Under every request, each service returns exactly the first n entries of
// its full prediction, for n below, at and above the histogram's size, and
// scores no target it was not asked for.
TEST(PredictRequestTest, RequestedPredictionIsPrefixOfFullPrediction) {
  for (const Scenario& s : AllScenarios()) {
    ASSERT_NE(s.model, nullptr) << s.service;
    for (bool include_zero : {false, true}) {
      PredictOptions full_options;
      full_options.include_zero_probability = include_zero;
      for (size_t p = 0; p < s.probes.size(); ++p) {
        auto full = s.model->Predict(s.attrs, s.probes[p], full_options);
        ASSERT_TRUE(full.ok()) << s.service << ": " << full.status().ToString();
        ASSERT_GT(full->size(), 0u) << s.service;
        for (size_t t = 0; t < full->size(); ++t) {
          const AttributePrediction& target = (*full)[t];
          const size_t size = target.histogram.size();
          for (size_t depth : {size_t{1}, size_t{2}, size, size + 3,
                               kFullHistogram}) {
            if (depth == 0) continue;
            const std::string where = s.service + " probe " +
                                      std::to_string(p) + " target " +
                                      target.name + " depth " +
                                      std::to_string(depth);
            auto got = s.model->Predict(
                s.attrs, s.probes[p],
                RequestOnly(s.attrs, target.name, depth, include_zero));
            ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
            ASSERT_EQ(got->size(), 1u) << where;
            ExpectPrefix((*got)[0], target, depth, where);
          }
        }
        // A request naming no target scores nothing.
        PredictOptions nothing;
        nothing.RequestNothing();
        auto none = s.model->Predict(s.attrs, s.probes[p], nothing);
        ASSERT_TRUE(none.ok()) << s.service;
        EXPECT_EQ(none->size(), 0u) << s.service;
      }
    }
  }
}

// Entries of equal probability keep the order the service produced them
// in — ascending state for every service that scores states in order — in
// the full histogram and in every ranked prefix of it.
TEST(PredictRequestTest, TiesKeepServiceOrder) {
  size_t ties = 0;
  for (const Scenario& s : AllScenarios()) {
    // Association rules rank rule consequents, not states in order.
    if (s.service == "Association_Rules") continue;
    PredictOptions options;
    options.include_zero_probability = true;
    for (const DataCase& probe : s.probes) {
      auto full = s.model->Predict(s.attrs, probe, options);
      ASSERT_TRUE(full.ok()) << s.service;
      for (size_t t = 0; t < full->size(); ++t) {
        const std::vector<ScoredValue>& h = (*full)[t].histogram;
        for (size_t i = 1; i < h.size(); ++i) {
          EXPECT_GE(h[i - 1].probability, h[i].probability) << s.service;
          if (h[i - 1].probability == h[i].probability) {
            ++ties;
            EXPECT_LT(h[i - 1].state, h[i].state) << s.service;
          }
        }
      }
    }
  }
  // The scenarios are built to tie; a tie-free run would prove nothing.
  EXPECT_GT(ties, 5u);
}

// A buffer that scored case A and then case B reads exactly like a fresh
// buffer that scored only B: under the same request, under a narrower one
// (A's other targets, $CLUSTER included, are gone) and with shorter
// histograms (no stale entries of A's survive).
TEST(PredictRequestTest, ReusedBufferMatchesFreshBuffer) {
  for (const Scenario& s : AllScenarios()) {
    auto first = s.model->Predict(s.attrs, s.probes[0], PredictOptions());
    ASSERT_TRUE(first.ok()) << s.service;
    std::vector<PredictOptions> requests = {PredictOptions()};
    for (size_t t = 0; t < first->size(); ++t) {
      requests.push_back(RequestOnly(s.attrs, (*first)[t].name, 1));
      requests.push_back(RequestOnly(s.attrs, (*first)[t].name, 2));
    }
    for (size_t a = 0; a < s.probes.size(); ++a) {
      for (size_t b = 0; b < s.probes.size(); ++b) {
        for (size_t r = 0; r < requests.size(); ++r) {
          const std::string where = s.service + " A=" + std::to_string(a) +
                                    " B=" + std::to_string(b) + " request " +
                                    std::to_string(r);
          CasePrediction reused;
          ASSERT_TRUE(s.model
                          ->PredictInto(s.attrs, s.probes[a], PredictOptions(),
                                        &reused)
                          .ok());
          ASSERT_TRUE(s.model
                          ->PredictInto(s.attrs, s.probes[b], requests[r],
                                        &reused)
                          .ok());
          auto fresh = s.model->Predict(s.attrs, s.probes[b], requests[r]);
          ASSERT_TRUE(fresh.ok()) << where;
          ExpectSamePrediction(reused, *fresh, where);
        }
      }
    }
  }
}

TEST(PredictRequestTest, ClusterMembershipIsRequestedLikeAnyTarget) {
  Scenario s = ClusteringScenario();
  CasePrediction buffer;
  ASSERT_TRUE(
      s.model->PredictInto(s.attrs, s.probes[0], PredictOptions(), &buffer)
          .ok());
  ASSERT_NE(buffer.Find(kClusterTarget), nullptr);
  EXPECT_EQ(buffer.Find(kClusterTarget)->histogram.size(), 3u);
  // Only Label: the membership of the previous case must not linger.
  ASSERT_TRUE(s.model
                  ->PredictInto(s.attrs, s.probes[1],
                                RequestOnly(s.attrs, "Label", 1), &buffer)
                  .ok());
  EXPECT_EQ(buffer.Find(kClusterTarget), nullptr);
  ASSERT_NE(buffer.Find("Label"), nullptr);
  // Only the membership, at its argmax.
  ASSERT_TRUE(s.model
                  ->PredictInto(s.attrs, s.probes[1],
                                RequestOnly(s.attrs, kClusterTarget, 1),
                                &buffer)
                  .ok());
  EXPECT_EQ(buffer.Find("Label"), nullptr);
  const AttributePrediction* membership = buffer.Find(kClusterTarget);
  ASSERT_NE(membership, nullptr);
  EXPECT_EQ(membership->histogram.size(), 1u);
  auto full = s.model->Predict(s.attrs, s.probes[1], PredictOptions());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(membership->cluster_id, full->Find(kClusterTarget)->cluster_id);
}

}  // namespace
}  // namespace dmx
