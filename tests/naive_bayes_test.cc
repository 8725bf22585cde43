// Naive-Bayes service: signal recovery, posterior invariants, incremental ==
// batch, qualifier handling (weights, soft labels), missing data and errors,
// and the scoring tables Predict derives from the counts.

#include "algorithms/naive_bayes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/random.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::AddCategorical;
using testutil::AddContinuous;
using testutil::AddGroup;
using testutil::MakeCase;

ParamMap DefaultParams(const MiningService& service) {
  return *service.ResolveParams({});
}

// A planted binary problem: label = color with noise; size is a distractor.
std::vector<DataCase> PlantedCases(const AttributeSet& attrs, int n,
                                   uint64_t seed, double noise = 0.1) {
  Rng rng(seed);
  std::vector<DataCase> cases;
  for (int i = 0; i < n; ++i) {
    int color = static_cast<int>(rng.Uniform(2));     // red / blue
    int size = static_cast<int>(rng.Uniform(3));      // distractor
    int label = rng.Chance(noise) ? 1 - color : color;
    cases.push_back(MakeCase(attrs, {static_cast<double>(color),
                                     static_cast<double>(size),
                                     static_cast<double>(label)}));
  }
  return cases;
}

AttributeSet PlantedAttrs() {
  AttributeSet attrs;
  AddCategorical(&attrs, "Color", {"red", "blue"});
  AddCategorical(&attrs, "Size", {"s", "m", "l"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  return attrs;
}

TEST(NaiveBayesTest, LearnsPlantedSignal) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, PlantedCases(attrs, 500, 1),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  int correct = 0;
  for (int color = 0; color < 2; ++color) {
    DataCase query = MakeCase(attrs, {static_cast<double>(color), kMissing,
                                      kMissing});
    auto p = (*model)->Predict(attrs, query, {});
    ASSERT_TRUE(p.ok());
    const AttributePrediction* label = p->Find("Label");
    ASSERT_NE(label, nullptr);
    if (label->predicted.Equals(Value::Text(color == 0 ? "A" : "B"))) {
      ++correct;
    }
    EXPECT_GT(label->probability, 0.5);
  }
  EXPECT_EQ(correct, 2);
}

TEST(NaiveBayesTest, PosteriorSumsToOne) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, PlantedCases(attrs, 200, 2),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok());
  PredictOptions options;
  options.include_zero_probability = true;
  DataCase query = MakeCase(attrs, {0, 1, kMissing});
  auto p = (*model)->Predict(attrs, query, options);
  ASSERT_TRUE(p.ok());
  double total = 0;
  for (const ScoredValue& sv : p->Find("Label")->histogram) {
    EXPECT_GE(sv.probability, 0);
    total += sv.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NaiveBayesTest, IncrementalEqualsBatch) {
  AttributeSet attrs_batch = PlantedAttrs();
  AttributeSet attrs_inc = PlantedAttrs();
  NaiveBayesService service;
  auto cases = PlantedCases(attrs_batch, 300, 3);

  auto batch = service.Train(attrs_batch, cases, DefaultParams(service));
  ASSERT_TRUE(batch.ok());
  auto incremental = service.CreateEmpty(attrs_inc, DefaultParams(service));
  ASSERT_TRUE(incremental.ok());
  for (const DataCase& c : cases) {
    ASSERT_TRUE((*incremental)->ConsumeCase(attrs_inc, c).ok());
  }
  // Identical posteriors on a probe grid.
  for (int color = 0; color < 2; ++color) {
    for (int size = 0; size < 3; ++size) {
      DataCase query = MakeCase(attrs_batch, {static_cast<double>(color),
                                              static_cast<double>(size),
                                              kMissing});
      auto a = (*batch)->Predict(attrs_batch, query, {});
      auto b = (*incremental)->Predict(attrs_inc, query, {});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_DOUBLE_EQ(a->Find("Label")->probability,
                       b->Find("Label")->probability);
    }
  }
}

TEST(NaiveBayesTest, GaussianContinuousInput) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddCategorical(&attrs, "Label", {"lo", "hi"}, /*is_output=*/true);
  Rng rng(4);
  std::vector<DataCase> cases;
  for (int i = 0; i < 400; ++i) {
    int label = static_cast<int>(rng.Uniform(2));
    double x = rng.Gaussian(label == 0 ? -3 : 3, 1.0);
    cases.push_back(MakeCase(attrs, {x, static_cast<double>(label)}));
  }
  NaiveBayesService service;
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto lo = (*model)->Predict(attrs, MakeCase(attrs, {-3.5, kMissing}), {});
  auto hi = (*model)->Predict(attrs, MakeCase(attrs, {3.5, kMissing}), {});
  EXPECT_TRUE(lo->Find("Label")->predicted.Equals(Value::Text("lo")));
  EXPECT_TRUE(hi->Find("Label")->predicted.Equals(Value::Text("hi")));
  EXPECT_GT(lo->Find("Label")->probability, 0.9);
}

TEST(NaiveBayesTest, NestedItemsCarrySignal) {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"beer", "wine", "soda"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  Rng rng(5);
  std::vector<DataCase> cases;
  for (int i = 0; i < 400; ++i) {
    int label = static_cast<int>(rng.Uniform(2));
    std::vector<int> items;
    if (label == 0 ? rng.Chance(0.9) : rng.Chance(0.1)) items.push_back(0);
    if (rng.Chance(0.5)) items.push_back(2);  // soda is noise
    cases.push_back(
        MakeCase(attrs, {static_cast<double>(label)}, {items}));
  }
  NaiveBayesService service;
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto with_beer = (*model)->Predict(attrs, MakeCase(attrs, {kMissing}, {{0}}),
                                     {});
  auto without = (*model)->Predict(attrs, MakeCase(attrs, {kMissing}, {{}}),
                                   {});
  EXPECT_TRUE(with_beer->Find("Label")->predicted.Equals(Value::Text("A")));
  EXPECT_TRUE(without->Find("Label")->predicted.Equals(Value::Text("B")));
}

TEST(NaiveBayesTest, CaseWeightsShiftThePrior) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  std::vector<DataCase> cases;
  DataCase a = MakeCase(attrs, {0});
  a.weight = 10;
  DataCase b = MakeCase(attrs, {1});
  b.weight = 1;
  cases.push_back(a);
  cases.push_back(b);
  NaiveBayesService service;
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto p = (*model)->Predict(attrs, MakeCase(attrs, {kMissing}), {});
  EXPECT_TRUE(p->Find("Label")->predicted.Equals(Value::Text("A")));
  EXPECT_GT(p->Find("Label")->probability, 0.7);
  EXPECT_DOUBLE_EQ((*model)->case_count(), 11.0);
}

TEST(NaiveBayesTest, SoftLabelsCountFractionally) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  // One hard B, one A with confidence 0.2: B should dominate the prior.
  DataCase hard_b = MakeCase(attrs, {1});
  DataCase soft_a = MakeCase(attrs, {0});
  soft_a.confidences.assign(attrs.attributes.size(), 1.0);
  soft_a.confidences[0] = 0.2;
  NaiveBayesService service;
  auto model = service.Train(attrs, {hard_b, soft_a}, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto p = (*model)->Predict(attrs, MakeCase(attrs, {kMissing}), {});
  EXPECT_TRUE(p->Find("Label")->predicted.Equals(Value::Text("B")));
}

TEST(NaiveBayesTest, UnlabeledCasesAreSkipped) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.CreateEmpty(attrs, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(
      (*model)->ConsumeCase(attrs, MakeCase(attrs, {0, 0, kMissing})).ok());
  ASSERT_TRUE((*model)->ConsumeCase(attrs, MakeCase(attrs, {0, 0, 1})).ok());
  auto p = (*model)->Predict(attrs, MakeCase(attrs, {0, 0, kMissing}), {});
  ASSERT_TRUE(p.ok());
  // Only the labeled case counts toward support.
  EXPECT_DOUBLE_EQ(p->Find("Label")->support, 1.0);
}

TEST(NaiveBayesTest, RequiresAnOutputColumn) {
  AttributeSet attrs;
  AddCategorical(&attrs, "OnlyInput", {"x"});
  NaiveBayesService service;
  EXPECT_FALSE(service.CreateEmpty(attrs, DefaultParams(service)).ok());
}

TEST(NaiveBayesTest, ContentGraphShapes) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, PlantedCases(attrs, 100, 6),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ((*content)->type, NodeType::kModel);
  ASSERT_EQ((*content)->children.size(), 1u);  // one target
  const ContentNode& target = *(*content)->children[0];
  EXPECT_EQ(target.children.size(), 2u);  // two input attributes
  // Marginal label distribution is attached to the target node.
  double total = 0;
  for (const DistributionEntry& entry : target.distribution) {
    total += entry.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// Incremental == batch across seeds (property).
class NaiveBayesSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NaiveBayesSeedSweep, IncrementalMatchesBatch) {
  AttributeSet attrs_a = PlantedAttrs();
  AttributeSet attrs_b = PlantedAttrs();
  NaiveBayesService service;
  auto cases = PlantedCases(attrs_a, 150, GetParam(), 0.25);
  auto batch = service.Train(attrs_a, cases, DefaultParams(service));
  auto inc = service.CreateEmpty(attrs_b, DefaultParams(service));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(inc.ok());
  for (const DataCase& c : cases) {
    ASSERT_TRUE((*inc)->ConsumeCase(attrs_b, c).ok());
  }
  DataCase query = MakeCase(attrs_a, {1, 2, kMissing});
  auto pa = (*batch)->Predict(attrs_a, query, {});
  auto pb = (*inc)->Predict(attrs_b, query, {});
  EXPECT_DOUBLE_EQ(pa->Find("Label")->probability,
                   pb->Find("Label")->probability);
  EXPECT_TRUE(pa->Find("Label")->predicted.Equals(pb->Find("Label")->predicted));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveBayesSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

// --- Scoring tables --------------------------------------------------------
//
// Predict scores from log-likelihood tables derived from the counts once per
// training state. The tests below pin that those tables follow every change
// of the counts and of the attribute space, and agree with the per-case
// formula they replace.

constexpr int kBigGroupItems = 600;  // Above the full-Bernoulli item limit.

// Every kind of input the tables cover: categorical (with a state no case
// uses), continuous, a small item group (full Bernoulli) and a large one
// (present items only). Label has a third class no case carries.
AttributeSet RichAttrs() {
  AttributeSet attrs;
  AddCategorical(&attrs, "Color", {"red", "blue"});
  AddCategorical(&attrs, "Size", {"s", "m", "l"});
  AddContinuous(&attrs, "X");
  AddCategorical(&attrs, "Label", {"A", "B", "C"}, /*is_output=*/true);
  AddGroup(&attrs, "Basket", {"beer", "wine", "soda", "milk"});
  std::vector<std::string> keys;
  for (int i = 0; i < kBigGroupItems; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  AddGroup(&attrs, "Big", keys);
  return attrs;
}

std::vector<DataCase> RichCases(const AttributeSet& attrs, int n,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<DataCase> cases;
  for (int i = 0; i < n; ++i) {
    int label = static_cast<int>(rng.Uniform(2));
    double color = rng.Chance(0.8) ? label : 1 - label;
    double size = static_cast<double>(rng.Uniform(2));  // "l" never seen
    // Class B never carries X, so it scores X with the vague fallback.
    double x = label == 0 ? rng.Gaussian(2, 1.5) : kMissing;
    std::vector<int> basket;
    if (rng.Chance(label == 0 ? 0.7 : 0.2)) basket.push_back(0);
    if (rng.Chance(0.5)) basket.push_back(2);
    if (rng.Chance(0.1)) basket.push_back(2);  // A duplicate item.
    std::vector<int> big;
    for (int k = 0; k < 3; ++k) {
      big.push_back(static_cast<int>(rng.Uniform(kBigGroupItems / 2)) +
                    label * kBigGroupItems / 2);
    }
    cases.push_back(MakeCase(
        attrs, {color, size, x, static_cast<double>(label)}, {basket, big}));
  }
  return cases;
}

std::vector<DataCase> RichProbes(const AttributeSet& attrs) {
  return {
      MakeCase(attrs, {kMissing, kMissing, kMissing, kMissing}, {{}, {}}),
      MakeCase(attrs, {0, 1, 2.5, kMissing}, {{0}, {5}}),
      MakeCase(attrs, {1, 2, -4, kMissing}, {{1, 2, 2}, {400, 401, 401}}),
      MakeCase(attrs, {0, 0, kMissing, kMissing}, {{0, 1, 2, 3}, {}}),
      // Keys outside the group are ignored.
      MakeCase(attrs, {1, kMissing, 0, kMissing}, {{-1, 99, 3}, {9999}}),
  };
}

// P(class) for every class of the first target, indexed by class.
std::vector<double> Posterior(const TrainedModel& model,
                              const AttributeSet& attrs, const DataCase& c) {
  PredictOptions options;
  options.include_zero_probability = true;
  auto p = model.Predict(attrs, c, options);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  std::vector<double> out(attrs.attributes[3].cardinality(), -1);
  if (!p.ok()) return out;
  for (const ScoredValue& sv : p->Find("Label")->histogram) {
    out[static_cast<size_t>(sv.state)] = sv.probability;
  }
  return out;
}

// The per-case formula Predict used before it had scoring tables, written
// out independently: every term recomputed from the counts, item by item.
std::vector<double> ReferencePosterior(const NaiveBayesModel& model,
                                       const AttributeSet& attrs,
                                       const DataCase& input) {
  const NaiveBayesModel::TargetStats& stats = model.targets()[0];
  const double alpha = model.alpha();
  const Attribute& target = attrs.attributes[stats.target];
  const size_t num_classes = std::max<size_t>(
      stats.class_counts.size(), static_cast<size_t>(target.cardinality()));
  auto class_n = [&](size_t cls) {
    return cls < stats.class_counts.size() ? stats.class_counts[cls] : 0.0;
  };
  double total = 0;
  for (double n : stats.class_counts) total += n;
  std::vector<double> log_post(num_classes);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    log_post[cls] =
        std::log((class_n(cls) + alpha) / (total + alpha * num_classes));
  }
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    const Attribute& attr = attrs.attributes[a];
    const double v = input.values[a];
    if (!attr.is_input || static_cast<int>(a) == stats.target || IsMissing(v)) {
      continue;
    }
    if (attr.is_continuous) {
      auto it = stats.cont_stats.find(static_cast<int>(a));
      if (it == stats.cont_stats.end()) continue;
      for (size_t cls = 0; cls < num_classes; ++cls) {
        double mean = 0;
        double variance = 1e6;
        if (cls < it->second.size() && it->second[cls].weight > 0) {
          mean = it->second[cls].mean;
          variance = it->second[cls].variance();
        }
        variance = std::max(variance, 1e-6);
        double d = v - mean;
        log_post[cls] +=
            -0.5 * (std::log(2 * M_PI * variance) + d * d / variance);
      }
      continue;
    }
    auto it = stats.cat_counts.find(static_cast<int>(a));
    if (it == stats.cat_counts.end()) continue;
    const size_t state = static_cast<size_t>(v);
    const double card = std::max(1, attr.cardinality());
    for (size_t cls = 0; cls < num_classes; ++cls) {
      double count = 0;
      double class_total = 0;
      if (cls < it->second.size()) {
        if (state < it->second[cls].size()) count = it->second[cls][state];
        for (double n : it->second[cls]) class_total += n;
      }
      log_post[cls] += std::log((count + alpha) / (class_total + alpha * card));
    }
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    const NestedGroup& group = attrs.groups[g];
    auto it = stats.group_counts.find(static_cast<int>(g));
    if (!group.is_input || it == stats.group_counts.end()) continue;
    std::vector<char> present(group.keys.size(), 0);
    for (const CaseItem& item : input.groups[g]) {
      if (item.key >= 0 && static_cast<size_t>(item.key) < present.size()) {
        present[item.key] = 1;
      }
    }
    const bool full = group.keys.size() <= 512;
    for (size_t cls = 0; cls < num_classes; ++cls) {
      for (size_t item = 0; item < group.keys.size(); ++item) {
        double count = 0;
        if (cls < it->second.size() && item < it->second[cls].size()) {
          count = it->second[cls][item];
        }
        double p = (count + alpha) / (class_n(cls) + 2 * alpha);
        if (present[item]) {
          log_post[cls] += std::log(p);
        } else if (full) {
          log_post[cls] += std::log1p(-std::min(p, 1 - 1e-12));
        }
      }
    }
  }
  double max_log = *std::max_element(log_post.begin(), log_post.end());
  double norm = 0;
  for (double& lp : log_post) {
    lp = std::exp(lp - max_log);
    norm += lp;
  }
  for (double& lp : log_post) lp /= norm;
  return log_post;
}

void ExpectSamePosteriors(const TrainedModel& a, const TrainedModel& b,
                          const AttributeSet& attrs) {
  for (const DataCase& probe : RichProbes(attrs)) {
    std::vector<double> pa = Posterior(a, attrs, probe);
    std::vector<double> pb = Posterior(b, attrs, probe);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t cls = 0; cls < pa.size(); ++cls) {
      EXPECT_DOUBLE_EQ(pa[cls], pb[cls]) << "class " << cls;
    }
  }
}

void ExpectMatchesReference(const TrainedModel& model,
                            const AttributeSet& attrs) {
  const auto& nb = dynamic_cast<const NaiveBayesModel&>(model);
  for (const DataCase& probe : RichProbes(attrs)) {
    std::vector<double> got = Posterior(model, attrs, probe);
    std::vector<double> want = ReferencePosterior(nb, attrs, probe);
    ASSERT_EQ(got.size(), want.size());
    for (size_t cls = 0; cls < got.size(); ++cls) {
      EXPECT_NEAR(got[cls], want[cls], 1e-12) << "class " << cls;
    }
  }
}

TEST(NaiveBayesTablesTest, MatchPerCaseFormula) {
  AttributeSet attrs = RichAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, RichCases(attrs, 400, 7),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok());
  ExpectMatchesReference(**model, attrs);
}

TEST(NaiveBayesTablesTest, PredictConsumePredictMatchesBatch) {
  AttributeSet attrs = RichAttrs();
  NaiveBayesService service;
  std::vector<DataCase> cases = RichCases(attrs, 300, 8);
  auto incremental = service.CreateEmpty(attrs, DefaultParams(service));
  ASSERT_TRUE(incremental.ok());
  for (size_t i = 0; i < cases.size() / 2; ++i) {
    ASSERT_TRUE((*incremental)->ConsumeCase(attrs, cases[i]).ok());
  }
  // Scoring now builds tables from the first half of the counts...
  ExpectMatchesReference(**incremental, attrs);
  for (size_t i = cases.size() / 2; i < cases.size(); ++i) {
    ASSERT_TRUE((*incremental)->ConsumeCase(attrs, cases[i]).ok());
  }
  // ...which the second half must replace.
  auto batch = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(batch.ok());
  ExpectSamePosteriors(**incremental, **batch, attrs);
  ExpectMatchesReference(**incremental, attrs);
}

TEST(NaiveBayesTablesTest, GrownAttributeSpaceRebuildsTables) {
  AttributeSet attrs = RichAttrs();
  NaiveBayesService service;
  std::vector<DataCase> cases = RichCases(attrs, 200, 9);
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  ExpectMatchesReference(**model, attrs);
  // New states and items arrive in the dictionaries (as a refresh's binder
  // interns them) without a case being consumed.
  attrs.attributes[1].InternCategory(Value::Text("xl"));
  attrs.attributes[3].InternCategory(Value::Text("D"));
  attrs.groups[0].InternKey(Value::Text("tea"));
  auto fresh = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(fresh.ok());
  ExpectSamePosteriors(**model, **fresh, attrs);
  ExpectMatchesReference(**model, attrs);
}

TEST(NaiveBayesTablesTest, MutableTargetsDropsTables) {
  AttributeSet attrs = RichAttrs();
  NaiveBayesService service;
  auto trained = service.Train(attrs, RichCases(attrs, 200, 10),
                               DefaultParams(service));
  ASSERT_TRUE(trained.ok());
  auto& model = dynamic_cast<NaiveBayesModel&>(**trained);
  const DataCase probe = RichProbes(attrs)[1];
  std::vector<double> before = Posterior(model, attrs, probe);
  // Rewrite the counts the way a PMML load does.
  NaiveBayesModel::TargetStats& stats = model.mutable_targets()[0];
  stats.class_counts[1] += 500;
  stats.cat_counts[0][1][0] += 400;
  std::vector<double> after = Posterior(model, attrs, probe);
  EXPECT_NE(before[1], after[1]);
  ExpectMatchesReference(model, attrs);
}

TEST(NaiveBayesTablesTest, ConcurrentReadersShareFreshTables) {
  AttributeSet attrs = RichAttrs();
  NaiveBayesService service;
  std::vector<DataCase> cases = RichCases(attrs, 300, 12);
  auto model = service.CreateEmpty(attrs, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE((*model)->ConsumeCase(attrs, cases[i]).ok());
  }
  Posterior(**model, attrs, RichProbes(attrs)[0]);  // Builds tables.
  // Refresh: the tables are dropped, and the first readers race to rebuild.
  for (size_t i = 100; i < cases.size(); ++i) {
    ASSERT_TRUE((*model)->ConsumeCase(attrs, cases[i]).ok());
  }
  auto twin = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(twin.ok());
  const std::vector<DataCase> probes = RichProbes(attrs);
  std::vector<std::vector<double>> want;
  for (const DataCase& probe : probes) {
    want.push_back(Posterior(**twin, attrs, probe));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const DataCase& probe : probes) {
          std::vector<double> posterior = Posterior(**model, attrs, probe);
          if (round == kRounds - 1) got[t].push_back(std::move(posterior));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      for (size_t cls = 0; cls < want[i].size(); ++cls) {
        EXPECT_DOUBLE_EQ(got[t][i][cls], want[i][cls])
            << "thread " << t << " probe " << i << " class " << cls;
      }
    }
  }
}

}  // namespace
}  // namespace dmx
