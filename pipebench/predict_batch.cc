// predict_batch: batch scoring through PREDICTION JOIN (paper §3.3), the way
// a model is deployed over a staging table. A closed loop on one in-process
// Connection scores a 5,000-customer SHAPE caseset per statement, rotating
// through four statement forms with equal weight. Per-case work in
// caseset_source, case_binder, mining_model and the projection dominates;
// parse, lock and journal costs are fixed per statement and nearly vanish
// here, which is the point: a per-case optimisation must show on this
// workload, a per-statement one must not.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/warehouse.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "workloads.h"

namespace pipebench {
namespace {

constexpr int kTrainCustomers = 5000;
constexpr int kTestCustomers = 5000;
constexpr int64_t kFirstTestId = 10'000'000;
/// Bucket accuracy of the NB model on held-out customers. Four
/// equal-frequency buckets give 0.25 by chance; the generator's planted
/// segments lift NB well above that on every seed tried (0.4 and up).
constexpr double kAccuracyFloor = 0.33;
/// Times each form is sent over the wire in the traced run.
constexpr int kWireRepeats = 5;
/// Untraced and traced decompositions of every form for
/// trace.overhead_ratio.
constexpr int kOverheadPairs = 3;

struct Form {
  std::string name;
  std::string family;  ///< "nb" or "dt".
  std::string text;
};

std::vector<Form> Forms() {
  const std::string source =
      "(" + AgeShape("TestCustomers", "TestSales", /*with_age=*/false) +
      ") AS t";
  return {
      {"nb_plain", "nb",
       "SELECT t.[Customer ID], Predict([Age]) AS [Age] FROM [NB]\n"
       "NATURAL PREDICTION JOIN " +
           source},
      {"nb_rich", "nb",
       "SELECT t.[Customer ID], Predict([Age]) AS [Age],\n"
       "  PredictProbability([Age]) AS [P], PredictSupport([Age]) AS [S],\n"
       "  TopCount(PredictHistogram([Age]), $Probability, 2) AS [Top]\n"
       "FROM [NB] NATURAL PREDICTION JOIN " +
           source},
      {"dt_on", "dt",
       "SELECT t.[Customer ID], Predict([Age]) AS [Age] FROM [DT]\n"
       "PREDICTION JOIN " +
           source +
           "\nON [DT].[Gender] = t.[Gender] AND\n"
           "   [DT].[Product Purchases].[Product Name] =\n"
           "     t.[Product Purchases].[Product Name] AND\n"
           "   [DT].[Product Purchases].[Product Type] =\n"
           "     t.[Product Purchases].[Product Type]"},
      {"nb_flattened", "nb",
       "SELECT FLATTENED t.[Customer ID], PredictHistogram([Age]) AS [H]\n"
       "FROM [NB] NATURAL PREDICTION JOIN " +
           source + "\nWHERE PredictProbability([Age]) > 0.4"},
  };
}

struct Batch {
  std::unique_ptr<dmx::Provider> provider;
  std::unique_ptr<dmx::Connection> conn;
};

/// Generates both warehouses, attaches the store, makes the generated
/// tables durable with a checkpoint, and trains both models through the
/// pipe.
bool SetUp(const Options& options, const std::string& dir, dmx::Env* env,
           Batch* batch, Report* report) {
  batch->conn.reset();
  batch->provider = std::make_unique<dmx::Provider>();
  dmx::Provider* p = batch->provider.get();
  dmx::store::StoreOptions store_options;
  store_options.env = env;
  dmx::Status status = p->OpenStore(dir, store_options);
  dmx::datagen::WarehouseConfig train;
  train.num_customers = options.Scaled(kTrainCustomers);
  train.seed = options.seed;
  dmx::datagen::WarehouseConfig test;
  test.num_customers = options.Scaled(kTestCustomers);
  test.seed = options.seed + 7919;
  test.first_customer_id = kFirstTestId;
  test.customers_table = "TestCustomers";
  test.sales_table = "TestSales";
  test.cars_table = "TestCars";
  if (status.ok()) status = dmx::datagen::PopulateWarehouse(p->database(), train);
  if (status.ok()) status = dmx::datagen::PopulateWarehouse(p->database(), test);
  if (status.ok()) status = p->Checkpoint();
  if (!status.ok()) {
    report->Fail("set-up: " + status.ToString());
    return false;
  }
  batch->conn = p->Connect();
  for (const std::string& text :
       {AgeModelDmx("NB", "Naive_Bayes"), AgeModelDmx("DT", "Decision_Trees"),
        AgeInsertDmx("NB", "Customers", "Sales"),
        AgeInsertDmx("DT", "Customers", "Sales")}) {
    if (!Exec(batch->conn.get(), text, report).ok()) return false;
  }
  return true;
}

/// The server layer on this workload's own statements, unloaded: each form
/// over one wire session (in-memory pipe, counting probe on the client end)
/// and in process under the same statement id, and its result through the
/// Chunk codec. Figures are read back from the spans.
void MeasureWire(dmx::Provider* provider, const std::vector<Form>& forms,
                 const std::vector<uint64_t>& expected, Report* report) {
  dmx::server::DmxServer server(provider, dmx::server::ServerOptions{});
  auto [server_end, client_end] = dmx::server::MakeLocalPipe();
  std::thread session([&server, end = std::move(server_end)]() mutable {
    server.ServeConnection(std::move(end));
  });
  auto probe = std::make_unique<CountingTransport>(std::move(client_end));
  CountingTransport* counter = probe.get();
  auto client = dmx::server::DmxClient::Handshake(std::move(probe), {});
  if (!client.ok()) {
    report->Fail("handshake: " + client.status().ToString());
    session.join();
    return;
  }
  auto conn = provider->Connect();
  const uint64_t bytes_before = counter->bytes();
  const uint64_t frames_before = counter->frames();
  const uint64_t first = Tracer::Get().NextStmt();
  uint64_t last = first;
  int64_t rows = 0;
  // Each form several times, alternating which side runs first, because a
  // single pair of 50 ms statements differs by more than the wire costs.
  int64_t stmts = 0;
  for (int rep = 0; rep < kWireRepeats; ++rep) {
    for (size_t f = 0; f < forms.size(); ++f) {
      const uint64_t stmt = last = Tracer::Get().NextStmt();
      auto over_wire = [&]() -> bool {
        dmx::Result<dmx::Rowset> wire = [&] {
          Span span("server.DmxClient.Execute", stmt);
          return (*client)->Execute(forms[f].text);
        }();
        report->Count(wire.ok());
        ++stmts;
        if (wire.ok() && Digest(*wire) == expected[f]) return true;
        report->Fail("form " + std::to_string(f) +
                     " over the wire differs from its decomposition");
        return false;
      };
      auto in_process = [&]() -> dmx::Result<dmx::Rowset> {
        Span span("provider.Execute", stmt);
        return Exec(conn.get(), forms[f].text, report);
      };
      dmx::Result<dmx::Rowset> local = dmx::Rowset();
      if (rep % 2 == 0) {
        if (!over_wire()) continue;
        local = in_process();
      } else {
        local = in_process();
        if (!over_wire()) continue;
      }
      if (!local.ok()) continue;
      dmx::server::ChunkBody chunk;
      chunk.rows = local->rows();
      std::string body = [&] {
        Span span("server.EncodeChunk", stmt);
        return dmx::server::EncodeChunk(chunk);
      }();
      Span span("server.DecodeChunk", stmt);
      if (!dmx::server::DecodeChunk(body).ok()) report->Fail("DecodeChunk failed");
      rows += static_cast<int64_t>(local->num_rows());
    }
  }
  report->Add("server.bytes_per_stmt",
              static_cast<double>(counter->bytes() - bytes_before) / stmts,
              "bytes", stmts);
  report->Add("server.frames_per_stmt",
              static_cast<double>(counter->frames() - frames_before) / stmts,
              "count", stmts);
  (*client)->Close();
  session.join();

  const auto totals = Tracer::Get().TotalUs(first, last);
  std::map<uint64_t, double> wire_us;
  for (const auto& [stmt, us] :
       Tracer::Get().Durations("server.DmxClient.Execute")) {
    if (stmt >= first && stmt <= last) wire_us[stmt] = us;
  }
  std::vector<double> rtt_us;
  for (const auto& [stmt, us] : Tracer::Get().Durations("provider.Execute")) {
    auto it = wire_us.find(stmt);
    if (it != wire_us.end()) rtt_us.push_back(it->second - us);
  }
  report->Add("server.rtt_overhead_us", Median(rtt_us), "us",
              static_cast<int64_t>(rtt_us.size()));
  report->Add("server.chunk_encode_us_per_row",
              SpanUs(totals, "server.EncodeChunk") / static_cast<double>(rows),
              "us", rows);
  report->Add("server.chunk_decode_us_per_row",
              SpanUs(totals, "server.DecodeChunk") / static_cast<double>(rows),
              "us", rows);
}

}  // namespace

void RunPredictBatch(const Options& options, Report* report) {
  const std::string dir = options.work_dir + "/predict_batch-store";
  const std::string spare_dir = options.work_dir + "/predict_batch-setup";
  const std::string reopen_dir = options.work_dir + "/predict_batch-reopen";
  const std::vector<Form> forms = Forms();
  TimingEnv timing_env;
  dmx::Env* env = options.trace ? &timing_env : nullptr;
  const int rounds = options.trace ? 1 : kRounds;

  Reference reference;
  std::vector<double> ref_ms;  // Every reference time taken.
  auto run_reference = [&] {
    ref_ms.push_back(reference.RunMs());
    return ref_ms.back();
  };

  std::vector<double> setup_s;
  auto set_up = [&](const std::string& store_dir, dmx::Env* store_env,
                    Batch* batch) {
    ResetDir(store_dir);
    const Clock::time_point start = Clock::now();
    if (!SetUp(options, store_dir, store_env, batch, report)) return false;
    setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    return true;
  };
  Batch batch;
  if (!set_up(dir, env, &batch)) return;
  dmx::Connection* conn = batch.conn.get();
  const uint64_t test_cases =
      static_cast<uint64_t>(options.Scaled(kTestCustomers));

  // Warm-up: one statement of each form, outside every measurement.
  std::vector<dmx::Rowset> warm;
  for (const Form& form : forms) {
    dmx::Result<dmx::Rowset> r = Exec(conn, form.text, report);
    if (!r.ok()) return;
    warm.push_back(std::move(*r));
  }
  const uint64_t before_close = Digest(warm[0]);
  const double accuracy =
      AgeBucketAccuracy(*batch.provider, "NB", "TestCustomers", warm[0]);
  if (accuracy < kAccuracyFloor) {
    report->Fail("NB age-bucket accuracy " + std::to_string(accuracy) +
                 " is below the floor " + std::to_string(kAccuracyFloor));
  }

  // The timed loop, one whole rotation of the four forms at a time, each
  // after a reference run, cut into rounds that each start with a set-up
  // sample. A traced run records one span per statement.
  struct Observed {
    size_t form;
    uint64_t digest;
  };
  std::vector<Observed> observed;
  std::map<std::string, std::vector<Timed>> latency;
  std::vector<double> per_rotation;  // Cases per ref of each rotation.
  double busy_ms = 0;
  const double round_ms = options.seconds * 1e3 / rounds;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      Batch spare;
      if (!set_up(spare_dir, nullptr, &spare)) return;
    }
    while (busy_ms < round_ms * (round + 1)) {
      const double ref = run_reference();
      double rotation_ms = 0;
      for (size_t f = 0; f < forms.size(); ++f) {
        const Clock::time_point start = Clock::now();
        dmx::Result<dmx::Rowset> r = [&] {
          Span span("provider.Execute", Tracer::Get().NextStmt());
          return Exec(conn, forms[f].text, report);
        }();
        const double ms = MsBetween(start, Clock::now());
        if (!r.ok()) return;
        latency[forms[f].name].push_back(Timed{ms, ref});
        rotation_ms += ms;
        if (observed.empty() && !options.corrupt.empty()) {
          Corrupt(options.corrupt, &*r);
        }
        observed.push_back({f, Digest(*r)});
      }
      busy_ms += rotation_ms;
      per_rotation.push_back(static_cast<double>(test_cases * forms.size()) /
                             Timed{rotation_ms, ref}.refs());
    }
  }
  ResetDir(spare_dir);

  // Oracle: every result equals the per-case decomposition of its form.
  std::vector<ScoredParts> scored;
  std::vector<uint64_t> expected;
  for (const Form& form : forms) {
    dmx::Result<PredictionParts> parts = DecomposePrediction(
        batch.provider.get(), form.text, Tracer::Get().NextStmt());
    if (!parts.ok()) {
      report->Fail("decomposition: " + parts.status().ToString());
      return;
    }
    expected.push_back(Digest(parts->result));
    scored.push_back({form.family, std::move(*parts)});
  }
  for (const Observed& o : observed) {
    if (o.digest != expected[o.form]) {
      report->Fail("result of form " + forms[o.form].name +
                   " differs from its per-case decomposition");
    }
  }

  if (options.trace) {
    AddPredictionLayers(scored, /*statement_layers=*/true, report);
    AddPmmlLayers(batch.provider.get(), {"NB", "DT"}, report);
    MeasureWire(batch.provider.get(), forms, expected, report);
    AddTraceOverhead(
        [&] {
          for (const Form& form : forms) {
            if (!DecomposePrediction(batch.provider.get(), form.text,
                                     Tracer::Get().NextStmt())
                     .ok()) {
              report->Fail("decomposition failed on a repeat");
            }
          }
        },
        kOverheadPairs, report);
  } else {
    AddLatencies(latency, ref_ms, report);
    // The median over rotations keeps one slow stretch of the host from
    // deciding the figure.
    report->Add("throughput_per_ref", Median(per_rotation), "1/ref",
                static_cast<int64_t>(observed.size() * test_cases));
    report->Add("setup_s", Median(setup_s), "s",
                static_cast<int64_t>(setup_s.size()));
    report->Add("disk_bytes_per_user_byte",
                static_cast<double>(DirBytes(dir)) /
                    static_cast<double>(UserBytes(*batch.provider)),
                "ratio", 1);
  }

  // Restart: close the provider, reopen a copy of its store, and check it
  // scores as before.
  batch = Batch{};
  CopyDir(dir, reopen_dir);
  dmx::Provider reopened;
  dmx::store::StoreOptions store_options;
  store_options.env = env;
  const Clock::time_point start = Clock::now();
  dmx::Status status = [&] {
    Span span("provider.OpenStore", Tracer::Get().NextStmt());
    return reopened.OpenStore(reopen_dir, store_options);
  }();
  const double reopen_ms = MsBetween(start, Clock::now());
  if (!status.ok()) {
    report->Fail("reopen: " + status.ToString());
    return;
  }
  if (options.trace) {
    report->Add("store.reopen_ms", reopen_ms, "ms", 1);
    report->Add("store.replayed_stmts",
                static_cast<double>(
                    reopened.store()->recovery_stats().replayed_statements),
                "count", 1);
  }
  auto conn2 = reopened.Connect();
  dmx::Result<dmx::Rowset> r = Exec(conn2.get(), forms[0].text, report);
  if (r.ok() && Digest(*r) != before_close) {
    report->Fail("predictions after reopen differ from before close");
  }
  // Checkpointed only after the reopen, so the reopen replayed the journal
  // as the run left it.
  if (options.trace) {
    dmx::Status checkpoint = [&] {
      Span span("provider.Checkpoint", Tracer::Get().NextStmt());
      return reopened.Checkpoint();
    }();
    if (!checkpoint.ok()) report->Fail("checkpoint: " + checkpoint.ToString());
    AddCheckpointLayer(report);
  }
}

}  // namespace pipebench
