// train_durable: the write path. A store-backed provider, with its shipped
// fsync-per-append policy, keeps a sliding window of 5,000 customers: each
// cycle inserts a slice of new customers and their sales with journaled
// multi-row INSERTs, deletes the oldest slice, retrains NB and DT
// (DELETE FROM the model, then INSERT INTO ... SHAPE), and every
// kCheckpointEvery cycles checkpoints. After the run the provider is
// destroyed and the store reopened. The streaming caseset source, training
// bind, training, journal+fsync, checkpoint serialization and recovery
// replay carry the cost here; prediction and the wire cost nothing.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/warehouse.h"
#include "relational/database.h"
#include "workloads.h"

namespace pipebench {
namespace {

namespace fs = std::filesystem;

constexpr int kWindow = 5000;
constexpr int kSlice = 250;
/// Rows per journaled multi-row INSERT.
constexpr int kRowsPerInsert = 125;
constexpr int kCheckpointEvery = 4;
/// Customers the slices are drawn from, cycling; each reuse gets new ids.
constexpr int kPool = 2 * kWindow;
/// Customers of the fixed probe caseset scored before close and after
/// reopen.
constexpr int kProbe = 200;
constexpr int64_t kFirstProbeId = 20'000'000;
/// Untraced and traced decompositions of both model INSERTs for
/// trace.overhead_ratio.
constexpr int kOverheadPairs = 3;

std::string Literal(const dmx::Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_long()) return std::to_string(v.long_value());
  if (v.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
    return buf;
  }
  return "'" + v.ToString() + "'";
}

/// One slice of customers as journaled INSERT statements, with new ids.
struct Slice {
  int64_t last_id = 0;
  /// (statement kind, text): "insert_customers" or "insert_sales".
  std::vector<std::pair<std::string, std::string>> inserts;
  int64_t customers = 0;
  int64_t sales = 0;
  uint64_t csv_bytes = 0;  ///< The inserted rows as CSV: user bytes.
};

/// Generated pool rows, grouped per customer.
struct Pool {
  std::shared_ptr<const dmx::Schema> customer_schema;
  std::shared_ptr<const dmx::Schema> sales_schema;
  std::vector<dmx::Row> customers;
  std::vector<std::vector<dmx::Row>> sales;  ///< Aligned with customers.
};

bool MakePool(const Options& options, Pool* pool, Report* report) {
  dmx::rel::Database db;
  dmx::datagen::WarehouseConfig config;
  config.num_customers = options.Scaled(kPool);
  config.seed = options.seed + 104729;
  dmx::Status status = dmx::datagen::PopulateWarehouse(&db, config);
  if (!status.ok()) {
    report->Fail("pool: " + status.ToString());
    return false;
  }
  const dmx::rel::Table* customers = *db.GetTable("Customers");
  const dmx::rel::Table* sales = *db.GetTable("Sales");
  pool->customer_schema = customers->schema();
  pool->sales_schema = sales->schema();
  pool->customers = customers->rows();
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < pool->customers.size(); ++i) {
    index[pool->customers[i][0].long_value()] = i;
  }
  pool->sales.resize(pool->customers.size());
  for (const dmx::Row& row : sales->rows()) {
    auto it = index.find(row[0].long_value());
    if (it != index.end()) pool->sales[it->second].push_back(row);
  }
  for (const dmx::Row& row : pool->customers) {
    for (const dmx::Value& v : row) {
      if (v.is_text() && v.text_value().find('\'') != std::string::npos) {
        report->Fail("pool text needs quoting: " + v.text_value());
        return false;
      }
    }
  }
  return true;
}

/// Slice `cycle` of the run: pool customers re-keyed after the live window.
Slice MakeSlice(const Pool& pool, int window, int slice, int cycle) {
  Slice out;
  std::vector<dmx::Row> customer_rows;
  std::vector<dmx::Row> sales_rows;
  for (int j = 0; j < slice; ++j) {
    const size_t p = (static_cast<size_t>(cycle) * slice + j) %
                     pool.customers.size();
    const int64_t id = window + static_cast<int64_t>(cycle) * slice + j + 1;
    dmx::Row customer = pool.customers[p];
    customer[0] = dmx::Value::Long(id);
    customer_rows.push_back(std::move(customer));
    for (dmx::Row sale : pool.sales[p]) {
      sale[0] = dmx::Value::Long(id);
      sales_rows.push_back(std::move(sale));
    }
    out.last_id = id;
  }
  auto add = [&](const std::string& table, const std::string& kind,
                 const dmx::Schema& schema, const std::vector<dmx::Row>& rows) {
    for (size_t i = 0; i < rows.size(); i += kRowsPerInsert) {
      std::string text = "INSERT INTO " + table + " VALUES ";
      for (size_t r = i; r < std::min(rows.size(), i + kRowsPerInsert); ++r) {
        text += r == i ? "(" : ", (";
        for (size_t c = 0; c < rows[r].size(); ++c) {
          if (c > 0) text += ", ";
          text += Literal(rows[r][c]);
        }
        text += ")";
      }
      out.inserts.emplace_back(kind, std::move(text));
    }
    out.csv_bytes += dmx::rel::ToCsvString(schema, rows).size() -
                     dmx::rel::ToCsvString(schema, {}).size();
  };
  add("Customers", "insert_customers", *pool.customer_schema, customer_rows);
  add("Sales", "insert_sales", *pool.sales_schema, sales_rows);
  out.customers = static_cast<int64_t>(customer_rows.size());
  out.sales = static_cast<int64_t>(sales_rows.size());
  return out;
}

std::vector<std::string> ProbeForms() {
  const std::string source =
      "(" + AgeShape("ProbeCustomers", "ProbeSales", /*with_age=*/false) +
      ") AS t";
  return {
      "SELECT t.[Customer ID], Predict([Age]) AS [Age], PredictProbability("
      "[Age]) AS [P] FROM [NB] NATURAL PREDICTION JOIN " +
          source,
      "SELECT t.[Customer ID], Predict([Age]) AS [Age], PredictProbability("
      "[Age]) AS [P] FROM [DT] NATURAL PREDICTION JOIN " +
          source,
  };
}

struct Durable {
  std::unique_ptr<dmx::Provider> provider;
  std::unique_ptr<dmx::Connection> conn;
};

bool SetUp(const Options& options, int window_customers, const std::string& dir,
           dmx::Env* env, Durable* d, Report* report) {
  d->conn.reset();
  d->provider = std::make_unique<dmx::Provider>();
  dmx::Provider* p = d->provider.get();
  dmx::store::StoreOptions store_options;
  store_options.env = env;
  dmx::Status status = p->OpenStore(dir, store_options);
  dmx::datagen::WarehouseConfig window;
  window.num_customers = window_customers;
  window.seed = options.seed;
  dmx::datagen::WarehouseConfig probe;
  probe.num_customers = options.Scaled(kProbe);
  probe.seed = options.seed + 15485863;
  probe.first_customer_id = kFirstProbeId;
  probe.customers_table = "ProbeCustomers";
  probe.sales_table = "ProbeSales";
  probe.cars_table = "ProbeCars";
  if (status.ok()) status = dmx::datagen::PopulateWarehouse(p->database(), window);
  if (status.ok()) status = dmx::datagen::PopulateWarehouse(p->database(), probe);
  // Car ownership plays no part here; it would only pad the snapshot.
  if (status.ok()) status = p->database()->DropTable("CarOwnership");
  if (status.ok()) status = p->database()->DropTable("ProbeCars");
  if (status.ok()) status = p->Checkpoint();
  if (!status.ok()) {
    report->Fail("set-up: " + status.ToString());
    return false;
  }
  d->conn = p->Connect();
  for (const std::string& text :
       {AgeModelDmx("NB", "Naive_Bayes"), AgeModelDmx("DT", "Decision_Trees"),
        AgeInsertDmx("NB", "Customers", "Sales"),
        AgeInsertDmx("DT", "Customers", "Sales")}) {
    if (!Exec(d->conn.get(), text, report).ok()) return false;
  }
  return true;
}

std::vector<int64_t> Column0(const dmx::Rowset& rowset) {
  std::vector<int64_t> values;
  for (const dmx::Row& row : rowset.rows()) values.push_back(row[0].long_value());
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

void RunTrainDurable(const Options& options, Report* report) {
  const std::string dir = options.work_dir + "/train_durable-store";
  const std::string spare_dir = options.work_dir + "/train_durable-setup";
  const std::string reopen_dir = options.work_dir + "/train_durable-reopen";
  TimingEnv timing_env;
  dmx::Env* env = options.trace ? &timing_env : nullptr;
  const int slice = options.Scaled(kSlice);
  const int window = slice * (kWindow / kSlice);
  const int rounds = options.trace ? 1 : kRounds;

  Pool pool;
  if (!MakePool(options, &pool, report)) return;
  Reference reference;
  std::vector<double> ref_ms;  // Every reference time taken.
  auto run_reference = [&] {
    ref_ms.push_back(reference.RunMs());
    return ref_ms.back();
  };

  std::vector<double> setup_s;
  auto set_up = [&](const std::string& store_dir, dmx::Env* store_env,
                    Durable* durable) {
    ResetDir(store_dir);
    const Clock::time_point start = Clock::now();
    if (!SetUp(options, window, store_dir, store_env, durable, report)) {
      return false;
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    return true;
  };
  Durable d;
  if (!set_up(dir, env, &d)) return;
  dmx::Connection* conn = d.conn.get();

  // Live customer ids, for the row-count oracle.
  std::vector<int64_t> live_ids;
  for (int64_t id = 1; id <= window; ++id) live_ids.push_back(id);
  int64_t live_sales = [&] {
    auto sales = static_cast<const dmx::Provider*>(d.provider.get())
                     ->database()
                     ->GetTable("Sales");
    return sales.ok() ? static_cast<int64_t>((*sales)->num_rows()) : 0;
  }();
  std::deque<std::pair<int64_t, int64_t>> slice_sales;  // (last id, rows)
  {
    // Sales rows of the initial window per slice of ids, so deleting the
    // oldest slice can be accounted exactly.
    auto sales = *static_cast<const dmx::Provider*>(d.provider.get())
                      ->database()
                      ->GetTable("Sales");
    for (int64_t last = slice; last <= window; last += slice) {
      int64_t rows = 0;
      for (const dmx::Row& row : sales->rows()) {
        const int64_t id = row[0].long_value();
        if (id > last - slice && id <= last) ++rows;
      }
      slice_sales.emplace_back(last, rows);
    }
  }

  // One cycle, after a reference run; returns false when a statement
  // failed. `record` adds its statements and its time to the loop's figures.
  std::map<std::string, std::vector<Timed>> latency;
  std::vector<double> write_ms;
  int64_t trained_cases = 0;
  int64_t write_stmts = 0;
  int64_t write_stmt_syncs = 0;
  uint64_t user_bytes = 0;
  double busy_ms = 0;
  double busy_refs = 0;  // busy_ms, each cycle in units of its reference.
  int cycle = 0;
  auto run_cycle = [&](bool record) -> bool {
    const double ref = run_reference();
    const Clock::time_point cycle_start = Clock::now();
    const Slice s = MakeSlice(pool, window, slice, cycle);
    auto timed = [&](const std::string& text, const char* kind) -> bool {
      const bool relational = !std::string_view(kind).starts_with("model_");
      const uint64_t syncs_before = timing_env.syncs();
      const Clock::time_point start = Clock::now();
      dmx::Result<dmx::Rowset> r = [&] {
        Span span("provider.Execute", Tracer::Get().NextStmt());
        return Exec(conn, text, report);
      }();
      const double ms = MsBetween(start, Clock::now());
      if (record) {
        latency[kind].push_back(Timed{ms, ref});
        if (relational) {
          write_ms.push_back(ms);
          ++write_stmts;
          write_stmt_syncs +=
              static_cast<int64_t>(timing_env.syncs() - syncs_before);
        }
      }
      return r.ok();
    };
    for (const auto& [kind, text] : s.inserts) {
      if (!timed(text, kind.c_str())) return false;
    }
    const int64_t oldest = static_cast<int64_t>(cycle + 1) * slice;
    if (!timed("DELETE FROM Customers WHERE [Customer ID] <= " +
                   std::to_string(oldest),
               "delete_customers") ||
        !timed("DELETE FROM Sales WHERE [CustID] <= " + std::to_string(oldest),
               "delete_sales")) {
      return false;
    }
    for (const char* model : {"NB", "DT"}) {
      if (!timed(std::string("DELETE FROM [") + model + "]", "model_delete") ||
          !timed(AgeInsertDmx(model, "Customers", "Sales"),
                 model[0] == 'N' ? "model_train_nb" : "model_train_dt")) {
        return false;
      }
      if (record) trained_cases += window;
    }
    if (record) user_bytes += s.csv_bytes;
    live_ids.erase(live_ids.begin(), live_ids.begin() + s.customers);
    for (int64_t id = s.last_id - s.customers + 1; id <= s.last_id; ++id) {
      live_ids.push_back(id);
    }
    live_sales += s.sales - slice_sales.front().second;
    slice_sales.pop_front();
    slice_sales.emplace_back(s.last_id, s.sales);
    ++cycle;
    if (cycle % kCheckpointEvery == 0) {
      dmx::Status status = [&] {
        Span span("provider.Checkpoint", Tracer::Get().NextStmt());
        return d.provider->Checkpoint();
      }();
      if (!status.ok()) {
        report->Fail("checkpoint: " + status.ToString());
        return false;
      }
    }
    if (record) {
      const double cycle_ms = MsBetween(cycle_start, Clock::now());
      busy_ms += cycle_ms;
      busy_refs += Timed{cycle_ms, ref}.refs();
    }
    return true;
  };

  // Warm-up cycle, then the timed loop in rounds. Each round runs cycles for
  // its share of the busy time and on to the middle of a checkpoint period,
  // so the store measured and reopened at the end sits at the same point of
  // the period whatever the clock did; then it times one set-up.
  if (!run_cycle(false)) return;
  (void)timing_env.Take();
  // Trained cases per ref of each full checkpoint period (whose cycles
  // include exactly one checkpoint); the median over periods keeps one slow
  // stretch of the host from deciding the figure.
  std::vector<double> per_period;
  double period_start_refs = 0;
  int64_t period_start_cases = 0;
  bool period_full = cycle % kCheckpointEvery == 0;
  const double round_ms = options.seconds * 1e3 / rounds;
  for (int round = 0; round < rounds; ++round) {
    while (busy_ms < round_ms * (round + 1) ||
           cycle % kCheckpointEvery != kCheckpointEvery / 2) {
      if (!run_cycle(true)) return;
      if (cycle % kCheckpointEvery != 0) continue;
      if (period_full) {
        per_period.push_back(
            static_cast<double>(trained_cases - period_start_cases) /
            (busy_refs - period_start_refs));
      }
      period_start_refs = busy_refs;
      period_start_cases = trained_cases;
      period_full = true;
    }
    if (options.trace) continue;
    {
      Durable spare;
      if (!set_up(spare_dir, nullptr, &spare)) return;
    }
  }
  const TimingEnv::Stats store_stats = timing_env.Take();
  ResetDir(spare_dir);

  std::vector<std::string> probes = ProbeForms();
  std::vector<uint64_t> before;
  for (const std::string& text : probes) {
    dmx::Result<dmx::Rowset> r = Exec(conn, text, report);
    if (!r.ok()) return;
    before.push_back(Digest(*r));
  }

  if (options.trace) {
    report->Add("provider.write_p99_ms", Quantile(write_ms, 0.99), "ms",
                static_cast<int64_t>(write_ms.size()));
    AddCheckpointLayer(report);
    AddStoreWriteLayers(store_stats, write_stmts, write_stmt_syncs, user_bytes,
                        report);
    // Training path, layer by layer, on each model's own statement.
    TrainingParts sum;
    for (const char* model : {"NB", "DT"}) {
      dmx::Result<TrainingParts> parts =
          DecomposeTraining(d.provider.get(), AgeInsertDmx(model, "Customers", "Sales"),
                            Tracer::Get().NextStmt());
      if (!parts.ok()) {
        report->Fail("decomposition: " + parts.status().ToString());
        return;
      }
      const double cases = static_cast<double>(parts->cases);
      report->Add(std::string("mining_model.train_us_per_case.") +
                      (model[0] == 'N' ? "nb" : "dt"),
                  (parts->insert_us - parts->bind_us) / cases, "us",
                  static_cast<int64_t>(parts->cases));
      sum.cases += parts->cases;
      sum.nested_rows += parts->nested_rows;
      sum.select_rows += parts->select_rows;
      sum.parse_us += parts->parse_us;
      sum.select_us += parts->select_us;
      sum.shape_us += parts->shape_us;
      sum.source_us += parts->source_us;
      sum.bind_us += parts->bind_us;
      sum.bind_allocs += parts->bind_allocs;
    }
    const double cases = static_cast<double>(sum.cases);
    const int64_t n = static_cast<int64_t>(sum.cases);
    report->Add("dmx_parser.us_per_stmt", sum.parse_us / 2, "us", 2);
    report->Add("sql_executor.us_per_row",
                sum.select_us / static_cast<double>(sum.select_rows), "us",
                static_cast<int64_t>(sum.select_rows));
    report->Add("shape.us_per_case", (sum.shape_us - sum.select_us) / cases,
                "us", n);
    report->Add("caseset_source.us_per_case", sum.source_us / cases, "us", n);
    report->Add("caseset_source.nested_rows_per_case",
                static_cast<double>(sum.nested_rows) / cases, "count", n);
    report->Add("case_binder.us_per_case", sum.bind_us / cases, "us", n);
    report->Add("case_binder.allocs_per_case",
                static_cast<double>(sum.bind_allocs) / cases, "count", n);
    // Scoring reaches this workload only through the probe.
    for (size_t i = 0; i < probes.size(); ++i) {
      dmx::Result<PredictionParts> parts = DecomposePrediction(
          d.provider.get(), probes[i], Tracer::Get().NextStmt());
      if (!parts.ok()) {
        report->Fail("decomposition: " + parts.status().ToString());
        return;
      }
      report->Add(i == 0 ? "mining_model.predict_us_per_case.nb"
                         : "mining_model.predict_us_per_case.dt",
                  parts->predict_us / static_cast<double>(parts->cases), "us",
                  static_cast<int64_t>(parts->cases));
      if (i == 0) {
        report->Add("mining_model.predict_allocs_per_case.nb",
                    static_cast<double>(parts->predict_allocs) /
                        static_cast<double>(parts->cases),
                    "count", static_cast<int64_t>(parts->cases));
      }
    }
    AddPmmlLayers(d.provider.get(), {"NB", "DT"}, report);
    AddTraceOverhead(
        [&] {
          for (const char* model : {"NB", "DT"}) {
            if (!DecomposeTraining(d.provider.get(),
                                   AgeInsertDmx(model, "Customers", "Sales"),
                                   Tracer::Get().NextStmt())
                     .ok()) {
              report->Fail("decomposition failed on a repeat");
            }
          }
        },
        kOverheadPairs, report);
  } else {
    AddLatencies(latency, ref_ms, report);
    report->Add("throughput_per_ref", Median(per_period), "1/ref",
                trained_cases);
    report->Add("setup_s", Median(setup_s), "s",
                static_cast<int64_t>(setup_s.size()));
    report->Add("disk_bytes_per_user_byte",
                static_cast<double>(DirBytes(dir)) /
                    static_cast<double>(UserBytes(*d.provider)),
                "ratio", 1);
  }

  // Close, then reopen a copy of the store as the provider left it.
  d = Durable{};
  {
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
    // Oracles: the acknowledged window survived, and the retrained models
    // score the probe exactly as before close.
    auto conn2 = reopened.Connect();
    dmx::Result<dmx::Rowset> ids =
        Exec(conn2.get(), "SELECT [Customer ID] FROM Customers", report);
    dmx::Result<dmx::Rowset> sales =
        Exec(conn2.get(), "SELECT [CustID] FROM Sales", report);
    if (!ids.ok() || !sales.ok()) return;
    if (options.corrupt == "drop") Corrupt("drop", &*ids);
    if (Column0(*ids) != live_ids) {
      report->Fail("after reopen Customers holds " +
                   std::to_string(ids->num_rows()) + " rows, expected " +
                   std::to_string(live_ids.size()));
    }
    if (static_cast<int64_t>(sales->num_rows()) != live_sales) {
      report->Fail("after reopen Sales holds " +
                   std::to_string(sales->num_rows()) + " rows, expected " +
                   std::to_string(live_sales));
    }
    for (size_t p = 0; p < probes.size(); ++p) {
      dmx::Result<dmx::Rowset> r = Exec(conn2.get(), probes[p], report);
      if (!r.ok()) return;
      if (options.corrupt == "flip" && p == 0) Corrupt("flip", &*r);
      if (Digest(*r) != before[p]) {
        report->Fail("probe predictions after reopen differ from before close");
      }
    }
  }
  std::error_code ec;
  fs::remove_all(reopen_dir, ec);
}

}  // namespace pipebench
