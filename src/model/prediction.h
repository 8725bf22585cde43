// Prediction result structures (paper §3.2.4): a prediction is not just a
// value — it carries probability, support, variance, and optionally a full
// histogram of alternatives; set-valued targets (nested tables) predict a
// ranked collection of items. The DMX UDFs (Predict, PredictProbability,
// PredictHistogram, TopCount, ...) read these structures.
//
// A caller scores a case into a CasePrediction it owns and reuses: each
// target is a slot whose histogram and scratch capacity survive from one
// case to the next. PredictOptions says which targets to score and how many
// histogram entries of each to rank — argmax for a scalar Predict, top-n
// for Predict(<table>, n), the whole histogram for PredictHistogram. A
// target ranked to depth n holds exactly the first n entries of its full
// prediction.

#ifndef DMX_MODEL_PREDICTION_H_
#define DMX_MODEL_PREDICTION_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "common/value.h"

namespace dmx {

/// Name of the segmentation services' cluster-membership pseudo-target (read
/// by the Cluster* UDFs).
inline constexpr const char* kClusterTarget = "$CLUSTER";

/// Histogram depth that keeps every entry.
inline constexpr size_t kFullHistogram = std::numeric_limits<size_t>::max();

/// One histogram entry: a candidate value with its statistics.
struct ScoredValue {
  Value value;
  double probability = 0;
  double support = 0;
  double variance = 0;
  /// Categorical state / bucket / item index behind `value` (-1 when the
  /// entry is not dictionary-backed). RangeMin/Mid/Max resolve DISCRETIZED
  /// bucket bounds through this.
  int state = -1;

  /// Standard deviation derived from variance.
  double stdev() const { return variance > 0 ? std::sqrt(variance) : 0; }
};

/// \brief The prediction for one target (scalar attribute or nested table).
struct AttributePrediction {
  /// The model column ("Age"), nested table ("Product Purchases") or
  /// kClusterTarget this prediction is for.
  std::string name;

  /// Best estimate: the argmax value for discrete targets, the posterior
  /// mean for continuous ones, NULL when the model cannot say.
  Value predicted;
  double probability = 0;  ///< Of `predicted` (continuous: of the leaf/cluster).
  double support = 0;      ///< Training cases behind the prediction.
  double variance = 0;     ///< Continuous targets: predictive variance.

  /// Candidate values sorted by descending probability, as many as were
  /// requested. For nested-table targets: the ranked item recommendations.
  /// Continuous targets may carry a bucketed histogram when the service
  /// provides one.
  std::vector<ScoredValue> histogram;

  /// For segmentation services: the winning cluster id (else -1).
  int cluster_id = -1;

  /// Makes the top histogram entry the prediction: `predicted`,
  /// `probability` and `support`. An empty histogram leaves it as it is.
  void TakeTop() {
    if (histogram.empty()) return;
    predicted = histogram[0].value;
    probability = histogram[0].probability;
    support = histogram[0].support;
  }
};

/// \brief Ranks one target's candidates by descending probability before any
/// histogram entry is built, so only the kept ones are materialized. Ties
/// keep the order the candidates were added in.
class HistogramRanker {
 public:
  /// Starts a new target of up to `candidates` candidates; the capacity is
  /// kept.
  void Start(size_t candidates) {
    entries_.clear();
    entries_.reserve(candidates);
  }

  /// Adds candidate `id` (a service-defined index: class, state, item...).
  void Add(double probability, int id) {
    // NaN ranks last, so the order stays a strict weak order.
    const double key = std::isnan(probability)
                           ? -std::numeric_limits<double>::infinity()
                           : probability;
    entries_.push_back(
        {key, probability, id, static_cast<uint32_t>(entries_.size())});
  }

  /// Puts the best min(depth, candidates) entries first, in rank order, and
  /// returns how many that is.
  size_t Rank(size_t depth) {
    const size_t n = std::min(depth, entries_.size());
    auto before = [](const Entry& a, const Entry& b) {
      return a.key > b.key || (a.key == b.key && a.order < b.order);
    };
    if (n > 0) {
      std::partial_sort(entries_.begin(), entries_.begin() + n,
                        entries_.end(), before);
    }
    return n;
  }

  int id(size_t rank) const { return entries_[rank].id; }
  double probability(size_t rank) const { return entries_[rank].probability; }

 private:
  struct Entry {
    double key;
    double probability;
    int id;
    uint32_t order;
  };
  std::vector<Entry> entries_;
};

/// \brief Working storage a service reuses across the cases it scores into
/// one CasePrediction; a Predict overwrites whatever it uses.
struct PredictScratch {
  std::vector<double> reals[3];
  std::vector<int> ints;
  HistogramRanker ranker;
};

/// \brief The predictions for one input case: one slot per scored target.
///
/// A caller-owned buffer: Clear() empties it but keeps every slot's storage,
/// so scoring the next case into it reuses the histograms' capacity.
class CasePrediction {
 public:
  /// Forgets every target; storage is kept for the next case.
  void Clear() { size_ = 0; }

  /// A reset slot for target `name`, appended after the others.
  AttributePrediction* Add(const std::string& name) {
    if (size_ == slots_.size()) slots_.emplace_back();
    AttributePrediction& slot = slots_[size_++];
    slot.name = name;
    slot.predicted = Value::Null();
    slot.probability = 0;
    slot.support = 0;
    slot.variance = 0;
    slot.histogram.clear();
    slot.cluster_id = -1;
    return &slot;
  }

  /// The prediction for `name` (case-insensitive), or nullptr when this
  /// case's prediction does not carry it.
  const AttributePrediction* Find(std::string_view name) const {
    for (size_t i = 0; i < size_; ++i) {
      if (EqualsCi(slots_[i].name, name)) return &slots_[i];
    }
    return nullptr;
  }

  size_t size() const { return size_; }
  const AttributePrediction& operator[](size_t i) const { return slots_[i]; }

  PredictScratch& scratch() { return scratch_; }

 private:
  std::vector<AttributePrediction> slots_;
  size_t size_ = 0;
  PredictScratch scratch_;
};

/// What a caller reads of a prediction: which targets to score and how many
/// histogram entries of each to rank. A default PredictOptions scores every
/// target in full.
struct PredictOptions {
  /// Include states with zero posterior probability.
  bool include_zero_probability = false;

  /// Histogram entries kept, in rank order, for a scalar target (by
  /// attribute index), a nested-table target (by group index) and the
  /// cluster membership; 0 skips the target.
  size_t AttributeDepth(int attribute) const {
    return Lookup(attribute_depth_, attribute);
  }
  size_t GroupDepth(int group) const { return Lookup(group_depth_, group); }
  size_t ClusterDepth() const {
    return restricted_ ? cluster_depth_ : kFullHistogram;
  }

  /// Narrows the request to the targets asked for so far, each ranked as
  /// deep as its deepest ask.
  void RequestAttribute(int attribute, size_t depth) {
    Request(&attribute_depth_, attribute, depth);
  }
  void RequestGroup(int group, size_t depth) {
    Request(&group_depth_, group, depth);
  }
  void RequestCluster(size_t depth) {
    restricted_ = true;
    cluster_depth_ = std::max(cluster_depth_, depth);
  }
  /// Narrows the request without asking for any target.
  void RequestNothing() { restricted_ = true; }

 private:
  size_t Lookup(const std::vector<size_t>& depths, int index) const {
    if (!restricted_) return kFullHistogram;
    return index >= 0 && static_cast<size_t>(index) < depths.size()
               ? depths[static_cast<size_t>(index)]
               : 0;
  }
  void Request(std::vector<size_t>* depths, int index, size_t depth) {
    restricted_ = true;
    if (index < 0) return;
    if (static_cast<size_t>(index) >= depths->size()) {
      depths->resize(static_cast<size_t>(index) + 1, 0);
    }
    size_t& slot = (*depths)[static_cast<size_t>(index)];
    slot = std::max(slot, depth);
  }

  bool restricted_ = false;
  std::vector<size_t> attribute_depth_;
  std::vector<size_t> group_depth_;
  size_t cluster_depth_ = 0;
};

}  // namespace dmx

#endif  // DMX_MODEL_PREDICTION_H_
