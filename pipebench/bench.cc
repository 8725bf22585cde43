#include "bench.h"

#include <fcntl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "core/case_binder.h"
#include "core/caseset_source.h"
#include "core/dmx_parser.h"
#include "core/mining_model.h"
#include "core/prediction_join.h"
#include "core/udf.h"
#include "relational/sql_executor.h"
#include "shape/shape_executor.h"

namespace pipebench {

namespace fs = std::filesystem;

int Options::Scaled(int n) const {
  return std::max(8, static_cast<int>(std::lround(n * scale)));
}

// --- report -----------------------------------------------------------------

void Report::Add(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& what) {
  // The first failures say what broke; thousands of repeats would not.
  if (failures_.size() < 20) failures_.push_back(what);
  if (failures_.size() == 20) failures_.push_back("(further failures elided)");
}

dmx::Result<dmx::Rowset> Exec(dmx::Connection* conn, const std::string& text,
                              Report* report) {
  dmx::Result<dmx::Rowset> result = conn->Execute(text);
  report->Count(result.ok());
  if (!result.ok()) {
    report->Fail("statement failed: " + result.status().ToString() + " -- " +
                 text.substr(0, 120));
  }
  return result;
}

// --- statistics -----------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- the reference task ---------------------------------------------------------

namespace {

constexpr int kReferenceAluSteps = 1'000'000;
struct ReferenceWalk {
  size_t slots;  ///< 4-byte slots: 256 KiB, 2 MiB, 32 MiB.
  int steps;
};
constexpr ReferenceWalk kReferenceWalks[3] = {
    {size_t{1} << 16, 300'000}, {size_t{1} << 19, 150'000},
    {size_t{1} << 23, 20'000}};

/// One cycle through all `n` slots in a fixed pseudo-random order (Sattolo's
/// shuffle of the identity), so each load depends on the one before and the
/// next address cannot be predicted.
std::vector<uint32_t> RandomCycle(size_t n) {
  std::vector<uint32_t> next(n);
  for (size_t i = 0; i < n; ++i) next[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (size_t i = n - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  return next;
}

}  // namespace

Reference::Reference() {
  for (size_t w = 0; w < 3; ++w) {
    cycles_[w] = RandomCycle(kReferenceWalks[w].slots);
  }
  (void)RunMs();
}

double Reference::RunMs() {
  const Clock::time_point start = Clock::now();
  uint64_t acc = sink_;
  for (int i = 0; i < kReferenceAluSteps; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  for (size_t w = 0; w < 3; ++w) {
    const std::vector<uint32_t>& next = cycles_[w];
    uint32_t at = 0;
    for (int i = 0; i < kReferenceWalks[w].steps; ++i) at = next[at];
    acc += at;
  }
  sink_ = acc;
  return MsBetween(start, Clock::now());
}

// --- tracing ----------------------------------------------------------------------

namespace {
thread_local Tracer::ThreadBuffer* tls_buffer = nullptr;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Never destroyed: threads may
  return *tracer;                        // still hold buffers at exit.
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  if (tls_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    tls_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return tls_buffer;
}

Span::Span(const char* name, uint64_t stmt) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buffer_ = tracer.Buffer();
  SpanRecord record;
  record.name = name;
  record.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!buffer_->open.empty()) {
    const SpanRecord& parent = buffer_->spans[buffer_->open.back()];
    record.parent = parent.id;
    record.stmt = stmt != 0 ? stmt : parent.stmt;
  } else {
    record.stmt = stmt;
  }
  index_ = buffer_->spans.size();
  buffer_->open.push_back(index_);
  record.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - tracer.epoch_)
                        .count();
  buffer_->spans.push_back(record);
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - Tracer::Get().epoch_)
          .count();
  buffer_->open.pop_back();
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.end_ns != 0) all.push_back(span);
    }
  }
  return all;
}

std::map<std::string, double> Tracer::TotalUs(uint64_t first_stmt,
                                              uint64_t last_stmt) const {
  std::map<std::string, double> totals;
  for (const SpanRecord& span : Spans()) {
    if (span.stmt < first_stmt || span.stmt > last_stmt) continue;
    totals[span.name] += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  return totals;
}

std::vector<std::pair<uint64_t, double>> Tracer::Durations(
    const std::string& name) const {
  std::vector<std::pair<uint64_t, double>> durations;
  for (const SpanRecord& span : Spans()) {
    if (name == span.name) {
      durations.emplace_back(
          span.stmt, static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return durations;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char line[256];
  for (const SpanRecord& span : Spans()) {
    std::snprintf(line, sizeof(line),
                  "{\"id\":%llu,\"parent\":%llu,\"stmt\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.stmt), span.name,
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out << line;
  }
  return static_cast<bool>(out.flush());
}

// --- store probe --------------------------------------------------------------------

namespace {

class TimingFile : public dmx::WritableFile {
 public:
  TimingFile(std::unique_ptr<dmx::WritableFile> base, TimingEnv* env)
      : base_(std::move(base)), env_(env) {}

  dmx::Status Append(std::string_view data) override {
    env_->AddWritten(data.size());
    return base_->Append(data);
  }
  dmx::Status Sync() override {
    Span span("store.Sync");
    const Clock::time_point start = Clock::now();
    dmx::Status status = base_->Sync();
    env_->AddSync(UsBetween(start, Clock::now()));
    return status;
  }
  dmx::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<dmx::WritableFile> base_;
  TimingEnv* env_;
};

}  // namespace

TimingEnv::Stats TimingEnv::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(stats_, Stats{});
}

void TimingEnv::AddWritten(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += bytes;
}

void TimingEnv::AddSync(double us) {
  syncs_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.sync_us.push_back(us);
}

dmx::Result<std::unique_ptr<dmx::WritableFile>> TimingEnv::NewWritableFile(
    const std::string& path, bool append) {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<dmx::WritableFile> file,
                       base_->NewWritableFile(path, append));
  return std::unique_ptr<dmx::WritableFile>(
      std::make_unique<TimingFile>(std::move(file), this));
}
dmx::Result<std::string> TimingEnv::ReadFileToString(const std::string& path) {
  return base_->ReadFileToString(path);
}
bool TimingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
dmx::Result<uint64_t> TimingEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}
dmx::Status TimingEnv::RenameFile(const std::string& from,
                                  const std::string& to) {
  return base_->RenameFile(from, to);
}
dmx::Status TimingEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}
dmx::Status TimingEnv::TruncateFile(const std::string& path, uint64_t size) {
  return base_->TruncateFile(path, size);
}
dmx::Status TimingEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}
dmx::Status TimingEnv::SyncDir(const std::string& path) {
  Span span("store.Sync");
  const Clock::time_point start = Clock::now();
  dmx::Status status = base_->SyncDir(path);
  AddSync(UsBetween(start, Clock::now()));
  return status;
}
dmx::Result<std::vector<std::string>> TimingEnv::ListDir(
    const std::string& path) {
  return base_->ListDir(path);
}

// --- wire probe ---------------------------------------------------------------------

uint64_t CountingTransport::FrameCounter::Feed(const char* data, size_t n) {
  uint64_t frames = 0;
  while (n > 0) {
    if (header_have < sizeof(header)) {
      const size_t take = std::min(n, sizeof(header) - header_have);
      std::memcpy(header + header_have, data, take);
      header_have += take;
      data += take;
      n -= take;
      if (header_have < sizeof(header)) break;
      payload_left = static_cast<uint64_t>(header[0]) |
                     static_cast<uint64_t>(header[1]) << 8 |
                     static_cast<uint64_t>(header[2]) << 16 |
                     static_cast<uint64_t>(header[3]) << 24;
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n, payload_left));
    payload_left -= take;
    data += take;
    n -= take;
    if (payload_left == 0) {
      ++frames;
      header_have = 0;
    }
  }
  return frames;
}

dmx::Result<size_t> CountingTransport::Read(char* buf, size_t n,
                                            int timeout_ms) {
  DMX_ASSIGN_OR_RETURN(size_t got, base_->Read(buf, n, timeout_ms));
  bytes_.fetch_add(got);
  frames_.fetch_add(in_.Feed(buf, got));
  return got;
}

dmx::Status CountingTransport::Write(std::string_view data, int timeout_ms) {
  dmx::Status status = base_->Write(data, timeout_ms);
  if (status.ok()) {
    bytes_.fetch_add(data.size());
    frames_.fetch_add(out_.Feed(data.data(), data.size()));
  }
  return status;
}

// --- data and statements ----------------------------------------------------------------

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

void DigestRows(const dmx::Schema& schema, const std::vector<dmx::Row>& rows,
                Fnv* fnv);

void DigestValue(const dmx::Value& v, Fnv* fnv) {
  fnv->U64(static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case dmx::Value::Kind::kNull:
      break;
    case dmx::Value::Kind::kBool:
      fnv->U64(v.bool_value() ? 1 : 0);
      break;
    case dmx::Value::Kind::kLong:
      fnv->U64(static_cast<uint64_t>(v.long_value()));
      break;
    case dmx::Value::Kind::kDouble: {
      uint64_t bits = 0;
      const double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      fnv->U64(bits);
      break;
    }
    case dmx::Value::Kind::kText:
      fnv->Str(v.text_value());
      break;
    case dmx::Value::Kind::kTable:
      if (v.table_value() == nullptr) {
        fnv->U64(0);
      } else {
        DigestRows(*v.table_value()->schema(), v.table_value()->rows(), fnv);
      }
      break;
  }
}

void DigestRows(const dmx::Schema& schema, const std::vector<dmx::Row>& rows,
                Fnv* fnv) {
  fnv->U64(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    fnv->Str(schema.column(c).name);
  }
  fnv->U64(rows.size());
  for (const dmx::Row& row : rows) {
    for (const dmx::Value& v : row) DigestValue(v, fnv);
  }
}

}  // namespace

uint64_t Digest(const dmx::Rowset& rowset) {
  Fnv fnv;
  DigestRows(*rowset.schema(), rowset.rows(), &fnv);
  return fnv.h;
}

void Corrupt(const std::string& how, dmx::Rowset* rowset) {
  std::vector<dmx::Row>& rows = rowset->mutable_rows();
  if (rows.empty()) return;
  if (how == "drop") {
    rows.pop_back();
  } else if (how == "flip") {
    dmx::Row& row = rows.front();
    dmx::Value& cell = row.size() > 1 ? row[1] : row[0];
    cell = cell.is_double() ? dmx::Value::Double(cell.double_value() + 1)
           : cell.is_long() ? dmx::Value::Long(cell.long_value() + 1)
                            : dmx::Value::Text("flipped");
  }
}

std::string AgeModelDmx(const std::string& model, const std::string& service) {
  return "CREATE MINING MODEL [" + model +
         "] (\n"
         "  [Customer ID] LONG KEY,\n"
         "  [Gender] TEXT DISCRETE,\n"
         "  [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,\n"
         "  [Product Purchases] TABLE(\n"
         "    [Product Name] TEXT KEY,\n"
         "    [Product Type] TEXT DISCRETE RELATED TO [Product Name]))\n"
         "USING " +
         service;
}

std::string AgeShape(const std::string& customers, const std::string& sales,
                     bool with_age) {
  return std::string("SHAPE {SELECT [Customer ID], [Gender]") +
         (with_age ? ", [Age]" : "") + " FROM " + customers +
         " ORDER BY [Customer ID]}\n"
         "APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM " +
         sales +
         " ORDER BY [CustID]}\n"
         "  RELATE [Customer ID] TO [CustID]) AS [Product Purchases]";
}

std::string AgeInsertDmx(const std::string& model, const std::string& customers,
                         const std::string& sales) {
  return "INSERT INTO [" + model +
         "] (\n"
         "  [Customer ID], [Gender], [Age],\n"
         "  [Product Purchases]([Product Name], [Product Type]))\n" +
         AgeShape(customers, sales, /*with_age=*/true);
}

uint64_t UserBytes(const dmx::Provider& provider) {
  uint64_t bytes = 0;
  const dmx::rel::Database& db = *provider.database();
  for (const std::string& name : db.ListTables()) {
    auto table = db.GetTable(name);
    if (!table.ok()) continue;
    bytes += dmx::rel::ToCsvString(*(*table)->schema(), (*table)->rows()).size();
  }
  return bytes;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  const int fd = ::open(to.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

double AgeBucketAccuracy(const dmx::Provider& provider,
                         const std::string& model, const std::string& customers,
                         const dmx::Rowset& predictions) {
  auto model_ptr = provider.models()->GetModel(model);
  auto table = provider.database()->GetTable(customers);
  if (!model_ptr.ok() || !table.ok()) return 0;
  const dmx::AttributeSet& attrs = (*model_ptr)->attributes();
  const int age = attrs.FindAttribute("Age");
  if (age < 0) return 0;
  const dmx::Attribute& attr = attrs.attributes[static_cast<size_t>(age)];
  auto id_col = (*table)->schema()->ResolveColumn("Customer ID");
  auto age_col = (*table)->schema()->ResolveColumn("Age");
  if (!id_col.ok() || !age_col.ok()) return 0;
  std::unordered_map<int64_t, double> truth;
  for (const dmx::Row& row : (*table)->rows()) {
    auto value = row[*age_col].AsDouble();
    if (value.ok()) truth[row[*id_col].long_value()] = *value;
  }
  int correct = 0;
  int total = 0;
  for (const dmx::Row& row : predictions.rows()) {
    if (row.size() < 2 || !row[0].is_long() || row[1].is_null()) continue;
    auto it = truth.find(row[0].long_value());
    auto predicted = row[1].AsDouble();
    if (it == truth.end() || !predicted.ok()) continue;
    ++total;
    if (attr.BucketOf(it->second) == attr.BucketOf(*predicted)) ++correct;
  }
  return total > 0 ? static_cast<double>(correct) / total : 0;
}

// --- decomposition ----------------------------------------------------------------

double SpanUs(const std::map<std::string, double>& totals,
              const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second;
}

namespace {

/// The source's own SELECTs through rel::ExecuteSelect, then the SHAPE
/// through shape::ExecuteShape (when the source is one).
dmx::Status RunSourceQueries(const dmx::rel::Database& db,
                             const dmx::CasesetSource& source,
                             uint64_t* select_rows) {
  auto select = [&](const dmx::rel::SelectStatement& stmt) -> dmx::Status {
    Span span("sql_executor.ExecuteSelect");
    DMX_ASSIGN_OR_RETURN(dmx::Rowset rows, dmx::rel::ExecuteSelect(db, stmt));
    *select_rows += rows.num_rows();
    return dmx::Status::OK();
  };
  if (const auto* shape = std::get_if<dmx::shape::ShapeStatement>(&source)) {
    DMX_RETURN_IF_ERROR(select(shape->master));
    for (const dmx::shape::AppendClause& append : shape->appends) {
      DMX_RETURN_IF_ERROR(select(append.child));
    }
    Span span("shape.ExecuteShape");
    DMX_RETURN_IF_ERROR(dmx::shape::ExecuteShape(db, *shape).status());
  } else if (const auto* sql = std::get_if<dmx::rel::SelectStatement>(&source)) {
    DMX_RETURN_IF_ERROR(select(*sql));
  }
  return dmx::Status::OK();
}

uint64_t NestedRows(const dmx::Row& row) {
  uint64_t n = 0;
  for (const dmx::Value& v : row) {
    if (v.is_table() && v.table_value() != nullptr) {
      n += v.table_value()->num_rows();
    }
  }
  return n;
}

/// One WHERE conjunct of a prediction query, with the provider's
/// semantics: NULL on either side fails the case.
dmx::Result<bool> Passes(const dmx::DmxFilter& filter,
                         const dmx::PredictionRowContext& ctx) {
  DMX_ASSIGN_OR_RETURN(dmx::Value lhs, dmx::EvaluateDmxExpr(filter.lhs, ctx));
  DMX_ASSIGN_OR_RETURN(dmx::Value rhs, dmx::EvaluateDmxExpr(filter.rhs, ctx));
  if (lhs.is_null() || rhs.is_null()) return false;
  const int cmp = lhs.Compare(rhs);
  if (filter.op == "=") return lhs.Equals(rhs);
  if (filter.op == "<>") return !lhs.Equals(rhs);
  if (filter.op == "<") return cmp < 0;
  if (filter.op == "<=") return cmp <= 0;
  if (filter.op == ">") return cmp > 0;
  return cmp >= 0;
}

/// The layer calls of DecomposePrediction, each under its span; fills
/// everything in `parts` but the times.
dmx::Status PredictionLayers(dmx::Provider* provider, const std::string& text,
                             PredictionParts* parts) {
  const dmx::rel::Database& db = *provider->database();
  dmx::Result<dmx::DmxParseResult> parsed = [&] {
    Span span("dmx_parser.ParseDmx");
    return dmx::ParseDmx(text);
  }();
  DMX_RETURN_IF_ERROR(parsed.status());
  const auto* join = parsed->statement.has_value()
                         ? std::get_if<dmx::PredictionJoinStatement>(
                               &*parsed->statement)
                         : nullptr;
  if (join == nullptr) {
    return dmx::InvalidArgument() << "not a prediction join: " << text;
  }
  DMX_RETURN_IF_ERROR(RunSourceQueries(db, join->source, &parts->select_rows));

  dmx::Result<dmx::Rowset> source = [&] {
    Span span("caseset_source.MaterializeCasesetSource");
    AllocRegion allocs;
    dmx::Result<dmx::Rowset> r = dmx::MaterializeCasesetSource(db, join->source);
    parts->source_allocs = allocs.Delta().allocs;
    return r;
  }();
  DMX_RETURN_IF_ERROR(source.status());

  DMX_ASSIGN_OR_RETURN(dmx::MiningModel * model,
                       provider->models()->GetModel(join->model_name));
  dmx::Result<dmx::CaseBinder> binder = [&] {
    Span span("case_binder.CreateForPrediction");
    AllocRegion allocs;
    dmx::Result<dmx::CaseBinder> b = dmx::CaseBinder::CreateForPrediction(
        model->definition(), *source->schema(), join->source_alias,
        join->natural ? nullptr : &join->on);
    parts->bind_allocs += allocs.Delta().allocs;
    return b;
  }();
  DMX_RETURN_IF_ERROR(binder.status());

  std::vector<dmx::ColumnDef> columns;
  dmx::DmxExprBindings bindings;
  {
    Span span("udf.Prepare");
    for (const dmx::DmxSelectItem& item : join->items) {
      DMX_ASSIGN_OR_RETURN(
          dmx::ColumnDef def,
          dmx::InferDmxItemColumn(item.expr, item.alias, *model,
                                  *source->schema(), join->source_alias));
      columns.push_back(std::move(def));
      bindings.Prepare(item.expr, *model, *source->schema(),
                       join->source_alias);
    }
    for (const dmx::DmxFilter& filter : join->where) {
      bindings.Prepare(filter.lhs, *model, *source->schema(),
                       join->source_alias);
      bindings.Prepare(filter.rhs, *model, *source->schema(),
                       join->source_alias);
    }
  }
  dmx::Rowset out(dmx::Schema::Make(std::move(columns)));
  dmx::PredictionRowContext ctx;
  ctx.model = model;
  ctx.source_schema = source->schema().get();
  ctx.source_alias = join->source_alias;
  ctx.bindings = &bindings;

  const dmx::PredictOptions options;
  const size_t limit = join->top.has_value() ? static_cast<size_t>(*join->top)
                                             : source->num_rows();
  dmx::DataCase input;
  for (const dmx::Row& row : source->rows()) {
    if (out.num_rows() >= limit) break;
    ++parts->cases;
    parts->nested_rows += NestedRows(row);
    {
      Span span("case_binder.BindCaseInto");
      AllocRegion allocs;
      dmx::Status bound = binder->BindCaseInto(row, model->attributes(), &input);
      parts->bind_allocs += allocs.Delta().allocs;
      DMX_RETURN_IF_ERROR(bound);
    }
    dmx::Result<dmx::CasePrediction> prediction = [&] {
      Span span("mining_model.Predict");
      AllocRegion allocs;
      dmx::Result<dmx::CasePrediction> p = model->Predict(input, options);
      parts->predict_allocs += allocs.Delta().allocs;
      return p;
    }();
    DMX_RETURN_IF_ERROR(prediction.status());
    Span span("udf.EvaluateDmxExpr");
    ctx.prediction = &*prediction;
    ctx.source_row = &row;
    bool keep = true;
    for (const dmx::DmxFilter& filter : join->where) {
      DMX_ASSIGN_OR_RETURN(keep, Passes(filter, ctx));
      if (!keep) break;
    }
    if (!keep) continue;
    dmx::Row out_row;
    for (const dmx::DmxSelectItem& item : join->items) {
      DMX_ASSIGN_OR_RETURN(dmx::Value v, dmx::EvaluateDmxExpr(item.expr, ctx));
      out_row.push_back(std::move(v));
    }
    DMX_RETURN_IF_ERROR(out.Append(std::move(out_row)));
  }
  if (join->flattened) {
    Span span("prediction_join.FlattenRowset");
    DMX_ASSIGN_OR_RETURN(out, dmx::FlattenRowset(out));
  }
  parts->result = std::move(out);

  Span span("prediction_join.ExecutePredictionJoin");
  AllocRegion allocs;
  dmx::Result<dmx::Rowset> whole =
      dmx::ExecutePredictionJoin(db, provider->models(), *join);
  parts->join_allocs = allocs.Delta().allocs;
  DMX_RETURN_IF_ERROR(whole.status());
  if (Digest(*whole) != Digest(parts->result)) {
    return dmx::Internal() << "ExecutePredictionJoin disagrees with the "
                              "per-case decomposition";
  }
  return dmx::Status::OK();
}

/// The layer calls of DecomposeTraining, each under its span; fills
/// everything in `parts` but the times.
dmx::Status TrainingLayers(dmx::Provider* provider, const std::string& text,
                           TrainingParts* parts) {
  const dmx::rel::Database& db = *provider->database();
  dmx::Result<dmx::DmxParseResult> parsed = [&] {
    Span span("dmx_parser.ParseDmx");
    return dmx::ParseDmx(text);
  }();
  DMX_RETURN_IF_ERROR(parsed.status());
  const auto* insert = parsed->statement.has_value()
                           ? std::get_if<dmx::InsertIntoStatement>(
                                 &*parsed->statement)
                           : nullptr;
  if (insert == nullptr) {
    return dmx::InvalidArgument() << "not a model INSERT INTO: " << text;
  }
  DMX_RETURN_IF_ERROR(
      RunSourceQueries(db, insert->source, &parts->select_rows));

  // The training source streams; drain it the way InsertCases would.
  std::vector<dmx::Row> rows;
  std::shared_ptr<const dmx::Schema> schema;
  {
    Span span("caseset_source.OpenCasesetSource");
    DMX_ASSIGN_OR_RETURN(std::unique_ptr<dmx::RowsetReader> reader,
                         dmx::OpenCasesetSource(db, insert->source));
    schema = reader->schema();
    dmx::Row row;
    while (true) {
      DMX_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
      if (!more) break;
      rows.push_back(std::move(row));
    }
  }
  parts->cases = rows.size();
  for (const dmx::Row& row : rows) parts->nested_rows += NestedRows(row);

  DMX_ASSIGN_OR_RETURN(const dmx::MiningModel* model,
                       static_cast<const dmx::Provider*>(provider)
                           ->models()
                           ->GetModel(insert->model_name));
  const std::vector<dmx::InsertColumn>* mapping =
      insert->columns.empty() ? nullptr : &insert->columns;

  // Binding on a scratch attribute space, so the catalog model is untouched.
  {
    dmx::AttributeSet attrs =
        dmx::CaseBinder::BuildAttributeSet(model->definition());
    Span span("case_binder.Bind");
    AllocRegion allocs;
    DMX_ASSIGN_OR_RETURN(dmx::CaseBinder binder,
                         dmx::CaseBinder::CreateForTraining(
                             model->definition(), *schema, mapping));
    for (const dmx::Row& row : rows) {
      DMX_RETURN_IF_ERROR(binder.CollectStatistics(row, &attrs));
    }
    DMX_RETURN_IF_ERROR(binder.FinalizeStatistics(&attrs, true));
    dmx::DataCase scratch;
    for (const dmx::Row& row : rows) {
      DMX_RETURN_IF_ERROR(binder.BindCaseInto(row, &attrs, &scratch));
    }
    parts->bind_allocs = allocs.Delta().allocs;
  }

  DMX_ASSIGN_OR_RETURN(
      std::shared_ptr<dmx::MiningService> service,
      provider->services()->Find(model->definition().service_name));
  dmx::MiningModel scratch_model(model->definition(), service, model->params());
  dmx::VectorRowsetReader reader(dmx::Rowset(schema, std::move(rows)));
  Span span("mining_model.InsertCases");
  return scratch_model.InsertCases(&reader, mapping);
}

}  // namespace

dmx::Result<PredictionParts> DecomposePrediction(dmx::Provider* provider,
                                                 const std::string& text,
                                                 uint64_t stmt) {
  PredictionParts parts;
  {
    Span root("pipebench.DecomposePrediction", stmt);
    DMX_RETURN_IF_ERROR(PredictionLayers(provider, text, &parts));
  }
  const auto spans = Tracer::Get().TotalUs(stmt, stmt);
  parts.parse_us = SpanUs(spans, "dmx_parser.ParseDmx");
  parts.select_us = SpanUs(spans, "sql_executor.ExecuteSelect");
  parts.shape_us = SpanUs(spans, "shape.ExecuteShape");
  parts.source_us = SpanUs(spans, "caseset_source.MaterializeCasesetSource");
  parts.bind_us = SpanUs(spans, "case_binder.CreateForPrediction") +
                  SpanUs(spans, "case_binder.BindCaseInto");
  parts.predict_us = SpanUs(spans, "mining_model.Predict");
  parts.join_us = SpanUs(spans, "prediction_join.ExecutePredictionJoin");
  return parts;
}

dmx::Result<TrainingParts> DecomposeTraining(dmx::Provider* provider,
                                             const std::string& text,
                                             uint64_t stmt) {
  TrainingParts parts;
  {
    Span root("pipebench.DecomposeTraining", stmt);
    DMX_RETURN_IF_ERROR(TrainingLayers(provider, text, &parts));
  }
  const auto spans = Tracer::Get().TotalUs(stmt, stmt);
  parts.parse_us = SpanUs(spans, "dmx_parser.ParseDmx");
  parts.select_us = SpanUs(spans, "sql_executor.ExecuteSelect");
  parts.shape_us = SpanUs(spans, "shape.ExecuteShape");
  parts.source_us = SpanUs(spans, "caseset_source.OpenCasesetSource");
  parts.bind_us = SpanUs(spans, "case_binder.Bind");
  parts.insert_us = SpanUs(spans, "mining_model.InsertCases");
  return parts;
}

}  // namespace pipebench
