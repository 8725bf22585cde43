// Shared pieces of the pipe benchmark: run options, the result report, the
// span tracer, statistics, the store and transport probes, and the warehouse
// statements every workload sends through Connection::Execute.
//
// Nothing here reaches inside the provider: spans are recorded around calls
// the benchmark makes into each layer's public functions, and the probes are
// decorators on the two seams the product already exposes (Env for the
// store, Transport for the wire).

#ifndef PIPEBENCH_BENCH_H_
#define PIPEBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/alloc_stats.h"
#include "common/env.h"
#include "common/rowset.h"
#include "core/provider.h"
#include "server/transport.h"

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- options and report -----------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every data size. Only the benchmark's own test changes it.
  double scale = 1.0;
  /// Test hook: "flip" alters one observed prediction, "drop" removes one
  /// observed row, so the test can show that the oracles catch both.
  std::string corrupt;
  /// Scratch directory for stores and the trace file.
  std::string work_dir;

  int Scaled(int n) const;
};

/// Everything one run prints: metrics with unit and sample count, the
/// statement tally, and the oracle verdict.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  /// Records an oracle failure; the run then exits non-zero.
  void Fail(const std::string& what);
  /// A line of context printed with the metrics ("info ..."), for figures
  /// that are informative but too unsteady on a shared host to gate on.
  void Note(const std::string& line);
  /// Counts one statement sent through the pipe.
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    int64_t samples = 0;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  bool correct() const { return failures_.empty() && failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Executes one statement through the pipe and counts it; a failure is also
/// an oracle failure, since every workload is built so that none fails.
dmx::Result<dmx::Rowset> Exec(dmx::Connection* conn, const std::string& text,
                              Report* report);

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- the reference task ---------------------------------------------------------

/// A fixed task made of the benchmark's own code only: a chain of
/// multiply-adds, then dependent loads along one random cycle through each of
/// a 256 KiB, a 2 MiB and a 32 MiB buffer. Its time tracks how fast the host
/// runs at that moment, caches and memory included.
///
/// The timed end-to-end figures are reported in units of it ("ref"): each
/// statement, rotation and checkpoint period is divided by the reference
/// time measured just before it. On a shared host whose speed
/// drifts by a quarter within minutes, that ratio holds where wall time does
/// not; a change to the program moves it exactly as it moves wall time,
/// since the task calls nothing in the program and allocates nothing while
/// timed.
class Reference {
 public:
  /// Builds the buffers and runs the task once, untimed, to fault them in.
  Reference();
  /// Runs the task once; returns its wall time in milliseconds.
  double RunMs();

 private:
  std::vector<uint32_t> cycles_[3];
  volatile uint64_t sink_ = 0;
};

// --- tracing ------------------------------------------------------------------

/// One span: a call into a layer, with the span that caused it and the
/// statement it served. Names are static strings "<layer>.<function>".
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t stmt = 0;
};

/// In-memory span store. Disabled (every Span a no-op) unless the run was
/// started with --trace 1; spans go to per-thread buffers and are written
/// out once, when the run ends.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, all threads. Call it, and the other
  /// readers below, only while no other thread records spans.
  std::vector<SpanRecord> Spans() const;

  /// Summed duration in microseconds, per span name, of every span whose
  /// statement id is in [first_stmt, last_stmt].
  std::map<std::string, double> TotalUs(uint64_t first_stmt,
                                        uint64_t last_stmt) const;

  /// Statement id and duration in microseconds of every span named `name`.
  std::vector<std::pair<uint64_t, double>> Durations(
      const std::string& name) const;

  /// Writes the spans as JSON lines; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

  /// A fresh statement id.
  uint64_t NextStmt() { return next_stmt_.fetch_add(1) + 1; }

  /// One thread's spans; only that thread appends to it.
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  ///< Indices of this thread's open spans.
  };

 private:
  friend class Span;
  ThreadBuffer* Buffer();

  Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_stmt_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // Guarded by mu_.
};

/// `totals[name]`, or 0 when no span of that name was recorded.
double SpanUs(const std::map<std::string, double>& totals,
              const std::string& name);

/// RAII span. `stmt` 0 inherits the statement of the enclosing span.
class Span {
 public:
  explicit Span(const char* name, uint64_t stmt = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  size_t index_ = 0;
};

/// Allocation counter around one call; zero unless the binary was built
/// with -DDMX_ALLOC_STATS=ON (the traced build is).
using AllocRegion = dmx::AllocStats::Region;

// --- probes -------------------------------------------------------------------

/// Store probe passed through StoreOptions::env: forwards every call to
/// Env::Default() and counts appended bytes and syncs (file and directory),
/// timing each sync and recording it as a "store.Sync" span.
class TimingEnv : public dmx::Env {
 public:
  struct Stats {
    uint64_t bytes_written = 0;
    std::vector<double> sync_us;
  };
  /// Returns the counts since the last call and starts new ones.
  Stats Take();
  /// Syncs since the Env was made; Take() does not reset it.
  uint64_t syncs() const { return syncs_.load(); }

  dmx::Result<std::unique_ptr<dmx::WritableFile>> NewWritableFile(
      const std::string& path, bool append) override;
  dmx::Result<std::string> ReadFileToString(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  dmx::Result<uint64_t> GetFileSize(const std::string& path) override;
  dmx::Status RenameFile(const std::string& from,
                         const std::string& to) override;
  dmx::Status DeleteFile(const std::string& path) override;
  dmx::Status TruncateFile(const std::string& path, uint64_t size) override;
  dmx::Status CreateDir(const std::string& path) override;
  dmx::Status SyncDir(const std::string& path) override;
  dmx::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;

  void AddWritten(uint64_t bytes);
  void AddSync(double us);

 private:
  dmx::Env* base_ = dmx::Env::Default();
  std::mutex mu_;
  Stats stats_;  // Guarded by mu_.
  std::atomic<uint64_t> syncs_{0};
};

/// Wire probe on the client end of a session: counts bytes and whole frames
/// in both directions, following the [u32 size][u32 crc][payload] framing.
class CountingTransport : public dmx::server::Transport {
 public:
  explicit CountingTransport(std::unique_ptr<dmx::server::Transport> base)
      : base_(std::move(base)) {}

  dmx::Result<size_t> Read(char* buf, size_t n, int timeout_ms) override;
  dmx::Status Write(std::string_view data, int timeout_ms) override;
  void ShutdownWrite() override { base_->ShutdownWrite(); }
  void Close() override { base_->Close(); }

  uint64_t bytes() const { return bytes_.load(); }
  uint64_t frames() const { return frames_.load(); }

 private:
  /// Frame-boundary tracker for one direction of the byte stream.
  struct FrameCounter {
    unsigned char header[8] = {};
    size_t header_have = 0;
    uint64_t payload_left = 0;
    /// Consumes `n` bytes; returns how many frames they completed.
    uint64_t Feed(const char* data, size_t n);
  };

  std::unique_ptr<dmx::server::Transport> base_;
  FrameCounter in_;
  FrameCounter out_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> frames_{0};
};

// --- data and statements --------------------------------------------------------

/// Order-sensitive FNV-1a digest of a rowset: column names, value kinds and
/// exact payloads (doubles by bit pattern), nested tables included.
uint64_t Digest(const dmx::Rowset& rowset);

/// Applies the --corrupt test hook to an observed result: "flip" changes the
/// first non-key cell of the first row, "drop" removes the last row.
void Corrupt(const std::string& how, dmx::Rowset* rowset);

/// The paper's [Age Prediction] model over `service`.
std::string AgeModelDmx(const std::string& model, const std::string& service);

/// SHAPE caseset over a customers/sales pair, one case per customer with its
/// purchases nested (the caseset of paper §3.1). Training casesets carry the
/// true [Age]; prediction casesets must not, or NATURAL binding would feed
/// the answer in as an input.
std::string AgeShape(const std::string& customers, const std::string& sales,
                     bool with_age);

/// INSERT INTO <model> from AgeShape(customers, sales).
std::string AgeInsertDmx(const std::string& model, const std::string& customers,
                         const std::string& sales);

/// Bytes of the CSV form of every live table: the user data a store holds.
uint64_t UserBytes(const dmx::Provider& provider);

/// Bytes of all regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Removes `dir` and creates it empty.
void ResetDir(const std::string& dir);

/// Replaces `to` with a copy of `from`: a store image to reopen, leaving
/// the original as the provider left it. The copy is flushed to disk before
/// this returns, so no writeback of it overlaps the timed reopen.
void CopyDir(const std::string& from, const std::string& to);

/// Name of the filesystem holding `path` (statfs magic), "unknown" if none
/// matches.
std::string FilesystemOf(const std::string& path);

/// Bucket-level accuracy of predicted ages against the true ages in
/// `customers`, using `model`'s discretization. `predictions` holds
/// (customer id, predicted age) in its first two columns.
double AgeBucketAccuracy(const dmx::Provider& provider,
                         const std::string& model, const std::string& customers,
                         const dmx::Rowset& predictions);

// --- decomposition ----------------------------------------------------------------

/// One prediction statement re-run layer by layer on its own inputs: the
/// public entry point of each layer is called with a span (and an
/// allocation region) around it, and the projection is evaluated with the
/// udf layer's public functions, so the rebuilt result can be compared with
/// what Execute returned. The times are summed from the spans of statement
/// `stmt`, so they read 0 unless tracing is on.
struct PredictionParts {
  dmx::Rowset result;  ///< The rebuilt result.
  uint64_t cases = 0;
  uint64_t nested_rows = 0;
  uint64_t select_rows = 0;  ///< Rows returned by the source's SELECTs.
  double parse_us = 0;
  double select_us = 0;  ///< rel::ExecuteSelect on the source's queries.
  double shape_us = 0;   ///< shape::ExecuteShape, inclusive.
  double source_us = 0;  ///< MaterializeCasesetSource, inclusive.
  double bind_us = 0;    ///< CreateForPrediction + BindCaseInto per case.
  double predict_us = 0;
  double join_us = 0;    ///< ExecutePredictionJoin, inclusive.
  uint64_t bind_allocs = 0;
  uint64_t predict_allocs = 0;
  uint64_t source_allocs = 0;
  uint64_t join_allocs = 0;
};

dmx::Result<PredictionParts> DecomposePrediction(dmx::Provider* provider,
                                                 const std::string& text,
                                                 uint64_t stmt);

/// One model INSERT INTO re-run layer by layer against a throwaway copy of
/// the model, so the catalog and the store are untouched. Times come from
/// the spans, as for DecomposePrediction.
struct TrainingParts {
  uint64_t cases = 0;
  uint64_t nested_rows = 0;
  uint64_t select_rows = 0;
  double parse_us = 0;
  double select_us = 0;
  double shape_us = 0;
  double source_us = 0;   ///< OpenCasesetSource, drained.
  double bind_us = 0;     ///< CreateForTraining + statistics + BindCaseInto.
  double insert_us = 0;   ///< MiningModel::InsertCases on the drained rows.
  uint64_t bind_allocs = 0;
};

dmx::Result<TrainingParts> DecomposeTraining(dmx::Provider* provider,
                                             const std::string& text,
                                             uint64_t stmt);

}  // namespace pipebench

#endif  // PIPEBENCH_BENCH_H_
