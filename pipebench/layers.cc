// Metric lists and the per-layer derivations the workloads share.

#include <algorithm>
#include <map>
#include <memory>

#include "pmml/pmml.h"
#include "workloads.h"

namespace pipebench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"stmt_p50_ref", "ref"},
      {"stmt_p95_ref", "ref"},
      {"throughput_per_ref", "1/ref"},
      {"disk_bytes_per_user_byte", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"server.rtt_overhead_us", "us"},
      {"server.bytes_per_stmt", "bytes"},
      {"server.frames_per_stmt", "count"},
      {"server.chunk_encode_us_per_row", "us"},
      {"server.chunk_decode_us_per_row", "us"},
      {"dmx_parser.us_per_stmt", "us"},
      {"provider.write_p99_ms", "ms"},
      {"sql_executor.us_per_row", "us"},
      {"shape.us_per_case", "us"},
      {"caseset_source.us_per_case", "us"},
      {"caseset_source.nested_rows_per_case", "count"},
      {"case_binder.us_per_case", "us"},
      {"case_binder.allocs_per_case", "count"},
      {"mining_model.predict_us_per_case.nb", "us"},
      {"mining_model.predict_us_per_case.dt", "us"},
      {"mining_model.predict_allocs_per_case.nb", "count"},
      {"mining_model.train_us_per_case.nb", "us"},
      {"mining_model.train_us_per_case.dt", "us"},
      {"prediction_join.projection_us_per_case", "us"},
      {"prediction_join.projection_allocs_per_case", "count"},
      {"store.fsyncs_per_write_stmt", "count"},
      {"store.fsync_us_p50", "us"},
      {"store.fsync_us_p99", "us"},
      {"store.written_bytes_per_user_byte", "ratio"},
      {"store.checkpoint_ms", "ms"},
      {"store.reopen_ms", "ms"},
      {"store.replayed_stmts", "count"},
      {"pmml.serialize_ms_per_model", "ms"},
      {"pmml.deserialize_ms_per_model", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

void AddPredictionLayers(const std::vector<ScoredParts>& scored,
                         bool statement_layers, Report* report) {
  PredictionParts sum;
  double predict_us[2] = {0, 0};
  uint64_t predict_cases[2] = {0, 0};
  uint64_t nb_predict_allocs = 0;
  for (const ScoredParts& s : scored) {
    const PredictionParts& p = s.parts;
    sum.cases += p.cases;
    sum.nested_rows += p.nested_rows;
    sum.select_rows += p.select_rows;
    sum.parse_us += p.parse_us;
    sum.select_us += p.select_us;
    sum.shape_us += p.shape_us;
    sum.source_us += p.source_us;
    sum.bind_us += p.bind_us;
    sum.predict_us += p.predict_us;
    sum.join_us += p.join_us;
    sum.bind_allocs += p.bind_allocs;
    sum.predict_allocs += p.predict_allocs;
    sum.source_allocs += p.source_allocs;
    sum.join_allocs += p.join_allocs;
    const int family = s.family == "dt" ? 1 : 0;
    predict_us[family] += p.predict_us;
    predict_cases[family] += p.cases;
    if (family == 0) nb_predict_allocs += p.predict_allocs;
  }
  const int64_t stmts = static_cast<int64_t>(scored.size());
  const int64_t cases = static_cast<int64_t>(sum.cases);
  if (statement_layers) {
    report->Add("dmx_parser.us_per_stmt", Ratio(sum.parse_us, stmts), "us",
                stmts);
    report->Add("sql_executor.us_per_row",
                Ratio(sum.select_us, static_cast<double>(sum.select_rows)),
                "us", static_cast<int64_t>(sum.select_rows));
  }
  // ExecuteShape runs the very SELECTs timed above; its self time is the
  // rest (child indexing and case assembly).
  if (sum.shape_us > 0) {
    report->Add("shape.us_per_case",
                Ratio(sum.shape_us - sum.select_us, cases), "us", cases);
  }
  report->Add("caseset_source.us_per_case", Ratio(sum.source_us, cases), "us",
              cases);
  report->Add("caseset_source.nested_rows_per_case",
              Ratio(static_cast<double>(sum.nested_rows), cases), "count",
              cases);
  report->Add("case_binder.us_per_case", Ratio(sum.bind_us, cases), "us",
              cases);
  report->Add("case_binder.allocs_per_case",
              Ratio(static_cast<double>(sum.bind_allocs), cases), "count",
              cases);
  const char* predict_names[2] = {"mining_model.predict_us_per_case.nb",
                                  "mining_model.predict_us_per_case.dt"};
  for (int f = 0; f < 2; ++f) {
    if (predict_cases[f] == 0) continue;
    report->Add(predict_names[f],
                Ratio(predict_us[f], static_cast<double>(predict_cases[f])),
                "us", static_cast<int64_t>(predict_cases[f]));
  }
  if (predict_cases[0] > 0) {
    report->Add("mining_model.predict_allocs_per_case.nb",
                Ratio(static_cast<double>(nb_predict_allocs),
                      static_cast<double>(predict_cases[0])),
                "count", static_cast<int64_t>(predict_cases[0]));
  }
  // Residual: what ExecutePredictionJoin spends beyond source, binding and
  // prediction is analysis, projection (the udf layer) and flattening.
  report->Add(
      "prediction_join.projection_us_per_case",
      Ratio(sum.join_us - sum.source_us - sum.bind_us - sum.predict_us, cases),
      "us", cases);
  report->Add("prediction_join.projection_allocs_per_case",
              Ratio(static_cast<double>(sum.join_allocs) -
                        static_cast<double>(sum.source_allocs) -
                        static_cast<double>(sum.bind_allocs) -
                        static_cast<double>(sum.predict_allocs),
                    cases),
              "count", cases);
}

void AddPmmlLayers(dmx::Provider* provider,
                   const std::vector<std::string>& models, Report* report) {
  const uint64_t stmt = Tracer::Get().NextStmt();
  {
    Span root("pipebench.Pmml", stmt);
    for (const std::string& name : models) {
      auto model =
          static_cast<const dmx::Provider*>(provider)->models()->GetModel(name);
      if (!model.ok()) {
        report->Fail("pmml: " + model.status().ToString());
        return;
      }
      dmx::Result<std::string> document = [&] {
        Span span("pmml.SerializeModel");
        return dmx::SerializeModel(**model);
      }();
      if (!document.ok()) {
        report->Fail("pmml: " + document.status().ToString());
        return;
      }
      Span span("pmml.DeserializeModel");
      dmx::Result<std::unique_ptr<dmx::MiningModel>> restored =
          dmx::DeserializeModel(*document, *provider->services());
      if (!restored.ok()) {
        report->Fail("pmml: " + restored.status().ToString());
        return;
      }
    }
  }
  const auto spans = Tracer::Get().TotalUs(stmt, stmt);
  const int64_t n = static_cast<int64_t>(models.size());
  report->Add("pmml.serialize_ms_per_model",
              Ratio(SpanUs(spans, "pmml.SerializeModel") / 1e3, n), "ms", n);
  report->Add("pmml.deserialize_ms_per_model",
              Ratio(SpanUs(spans, "pmml.DeserializeModel") / 1e3, n), "ms", n);
}

void AddCheckpointLayer(Report* report) {
  std::vector<double> ms;
  for (const auto& [stmt, us] : Tracer::Get().Durations("provider.Checkpoint")) {
    ms.push_back(us / 1e3);
  }
  report->Add("store.checkpoint_ms", Median(ms), "ms",
              static_cast<int64_t>(ms.size()));
}

void AddStoreWriteLayers(const TimingEnv::Stats& stats, int64_t write_stmts,
                         int64_t write_stmt_syncs, uint64_t user_bytes,
                         Report* report) {
  const int64_t syncs = static_cast<int64_t>(stats.sync_us.size());
  report->Add("store.fsyncs_per_write_stmt",
              Ratio(static_cast<double>(write_stmt_syncs), write_stmts),
              "count", write_stmts);
  report->Add("store.fsync_us_p50", Quantile(stats.sync_us, 0.5), "us", syncs);
  report->Add("store.fsync_us_p99", Quantile(stats.sync_us, 0.99), "us", syncs);
  report->Add("store.written_bytes_per_user_byte",
              Ratio(static_cast<double>(stats.bytes_written),
                    static_cast<double>(user_bytes)),
              "ratio", write_stmts);
}

void AddLatencies(const std::map<std::string, std::vector<Timed>>& by_kind,
                  const std::vector<double>& ref_ms, Report* report) {
  int64_t n = 0;
  double total_refs = 0;
  for (const auto& [kind, timed] : by_kind) {
    n += static_cast<int64_t>(timed.size());
    for (const Timed& t : timed) total_refs += t.refs();
  }
  double p50 = 0;
  double p95 = 0;
  for (const auto& [kind, timed] : by_kind) {
    std::vector<double> refs;
    std::vector<double> ms;
    double kind_refs = 0;
    for (const Timed& t : timed) {
      refs.push_back(t.refs());
      ms.push_back(t.ms);
      kind_refs += t.refs();
    }
    const double share = Ratio(kind_refs, total_refs);
    p50 += share * Quantile(refs, 0.50);
    p95 += share * Quantile(refs, 0.95);
    report->Note("stmt_ms[" + kind + "] p50 " +
                 std::to_string(Quantile(ms, 0.50)) + " p95 " +
                 std::to_string(Quantile(ms, 0.95)) + " p99 " +
                 std::to_string(Quantile(ms, 0.99)) + " (samples " +
                 std::to_string(ms.size()) + ", share of time " +
                 std::to_string(share) + ")");
  }
  report->Add("stmt_p50_ref", p50, "ref", n);
  report->Add("stmt_p95_ref", p95, "ref", n);
  report->Note("reference_ms p50 " + std::to_string(Median(ref_ms)) +
               " (samples " + std::to_string(ref_ms.size()) + ")");
}

void AddTraceOverhead(const std::function<void()>& traced_work, int pairs,
                      Report* report) {
  const bool was_on = Tracer::Get().enabled();
  std::vector<double> ms[2];
  for (int i = 0; i < pairs; ++i) {
    // Alternate which side runs first, so a trend in the host's speed
    // does not favour one of them.
    for (int k = 0; k < 2; ++k) {
      const bool on = (i + k) % 2 == 1;
      Tracer::Get().Enable(on);
      const Clock::time_point start = Clock::now();
      traced_work();
      ms[on ? 1 : 0].push_back(MsBetween(start, Clock::now()));
    }
  }
  Tracer::Get().Enable(was_on);
  report->Add("trace.overhead_ratio", Ratio(Median(ms[1]), Median(ms[0])),
              "ratio", pairs);
}

}  // namespace pipebench
