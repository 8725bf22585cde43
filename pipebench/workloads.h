// The workloads and the per-layer metrics they share.

#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace pipebench {

/// Closed loop, one in-process Connection: batch PREDICTION JOIN scoring.
void RunPredictBatch(const Options& options, Report* report);

/// Closed loop, one in-process Connection: sliding-window inserts and
/// deletes, retraining and checkpoints against a store-backed provider.
void RunTrainDurable(const Options& options, Report* report);

/// An untraced run is cut into this many rounds of equal busy time, and
/// each round times one set-up (the first is the one the run uses). The
/// reported set-up time is the median of these samples, spread over the
/// whole run so that host drift during a run moves it as much as it moves
/// the loop's figures.
inline constexpr int kRounds = 16;

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric, reported by each workload untraced.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Every per-layer metric, reported by each workload traced; a layer a
/// workload does not reach reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// A decomposed prediction statement and the model family it scored with
/// ("nb" or "dt").
struct ScoredParts {
  std::string family;
  PredictionParts parts;
};

/// Per-layer metrics of the prediction path: shape, caseset_source,
/// case_binder, mining_model predict and prediction_join, plus dmx_parser
/// and sql_executor when `statement_layers`.
void AddPredictionLayers(const std::vector<ScoredParts>& scored,
                         bool statement_layers, Report* report);

/// Per-layer metrics of the pmml layer on the named models.
void AddPmmlLayers(dmx::Provider* provider,
                   const std::vector<std::string>& models, Report* report);

/// store.checkpoint_ms: the median of the provider.Checkpoint spans.
void AddCheckpointLayer(Report* report);

/// Store metrics from a TimingEnv window: store.fsyncs_per_write_stmt is
/// `write_stmt_syncs`, the syncs taken inside the window's `write_stmts`
/// relational INSERT and DELETE statements, per statement; the sync times
/// cover every sync of the window (model statements and checkpoints too),
/// and store.written_bytes_per_user_byte every byte written in it, over the
/// `user_bytes` of CSV data the statements inserted.
void AddStoreWriteLayers(const TimingEnv::Stats& stats, int64_t write_stmts,
                         int64_t write_stmt_syncs, uint64_t user_bytes,
                         Report* report);

/// A timed piece of work and the Reference time measured just before it.
struct Timed {
  double ms = 0;
  double ref_ms = 0;
  double refs() const { return ref_ms > 0 ? ms / ref_ms : 0; }
};

/// stmt_p50_ref and stmt_p95_ref from statement latencies grouped by kind
/// (a statement form, or a kind of write), each latency in units of its
/// reference time: each kind's own percentile, averaged with the kind's
/// share of the statement time as its weight. Pooling kinds whose latencies
/// differ several-fold would put a percentile on the edge between two
/// kinds, where it jumps when the mix shifts by one statement. Weighting by
/// time rather than by count keeps the many sub-millisecond journaled
/// writes, whose tails follow the host's fsync latency, from outweighing the
/// statements that take the time. Each kind's p50, p95 and p99 in
/// milliseconds are also printed as a note, and so is the median reference
/// time, which converts the figures back to milliseconds on the host that
/// ran them.
void AddLatencies(const std::map<std::string, std::vector<Timed>>& by_kind,
                  const std::vector<double>& ref_ms, Report* report);

/// trace.overhead_ratio: `traced_work` run alternately with the tracer off
/// and on, `pairs` times each; the median traced wall time over the median
/// untraced one. `traced_work` should be what the traced run measures the
/// layers with, so the ratio is the inflation of those figures by their
/// own spans.
void AddTraceOverhead(const std::function<void()>& traced_work, int pairs,
                      Report* report);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
