// perfbench: the serving benchmark for tchimera_serve.
//
// One harness binary drives three workloads (ingest, history_read,
// mixed) over the paper's project-management schema. The untraced mode
// spawns a real tchimera_serve child on a fresh DBDIR and measures the
// end-to-end metrics a client sees; the traced mode runs the same seed
// and statement stream in process and times calls into each layer's
// public functions. README.md beside this directory documents the
// workloads, the metrics and the layer -> end-to-end map.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/db/database.h"

namespace perfbench {

using tchimera::Oid;
using tchimera::Result;
using tchimera::Status;
using tchimera::TimePoint;

// --- report.cc: clock, statistics, JSON --------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The p-th percentile (0..100) by linear interpolation between the two
// nearest ranks (numpy's default); 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

// FNV-1a over a reply text: the answer checker compares hashes, so the
// ledgers never hold every reply.
uint64_t HashText(std::string_view text);

// One named measurement. `samples` is how many observations the value
// summarizes (1 for a single reading).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 1;
};

// Ordered name -> metric list plus free-form run metadata.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 1);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  const Metric* Find(std::string_view name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  // {"meta": {...}, "metrics": {name: {value, unit, samples}}}.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;  // raw JSON values
};

std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

// --- workload.cc: populations and statement streams --------------------------

enum class Workload { kIngest, kHistoryRead, kMixed };

Result<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

// Connections used by every workload: min(nproc, 4).
int ConnectionCount();

// What BuildPopulation made; the stream generators pick oids and
// instants from it.
struct PopulationInfo {
  std::vector<Oid> persons;    // employees and managers, creation order
  std::vector<Oid> employees;  // persons whose class at `now` is employee
  std::vector<Oid> projects;
  size_t objects = 0;
  size_t history_segments = 0;  // salary segments over all persons
  size_t migrations = 0;
  TimePoint now = 0;            // clock when the snapshot is taken
  std::vector<int64_t> salaries;  // distinct salary values ever recorded
};

// Builds the workload's population into `db` (PopulateDatabase plus the
// indexes the workload declares). Deterministic in `seed`.
Result<PopulationInfo> BuildPopulation(Workload w, uint64_t seed,
                                       tchimera::Database* db);

// A splitmix64 generator: portable, so a seed means the same stream on
// every platform.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Real();                         // [0, 1)
  int64_t Range(int64_t lo, int64_t hi);  // inclusive

 private:
  uint64_t state_;
};

// Zipf(s) over ranks 0..n-1 (rank 0 hottest), inverse-CDF sampling.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Prng& rng) const;

 private:
  std::vector<double> cdf_;
};

enum class OpKind : uint8_t { kRead, kWrite };

// What the write ledger must remember about an acknowledged write.
enum class Effect : uint8_t {
  kNone,
  kCreate,       // ingest: own object #ref created (name, salary)
  kSetSalary,    // salary of `target` (or own object #ref) := value
  kCorrect,      // salary of `target` over [a, b] := value (valid time)
  kMigrate,      // class of `target` := `klass`
};

struct Op {
  OpKind kind = OpKind::kRead;
  std::string category;  // e.g. "read.scan_past", "write.create"
  // Statement text. `{ref}` stands for the oid of the connection's own
  // created object #ref (ingest); Render substitutes it.
  std::string text;
  Effect effect = Effect::kNone;
  int ref = -1;
  Oid target;
  int64_t value = 0;
  TimePoint a = 0, b = 0;
  std::string name;   // kCreate: the object's name
  std::string klass;  // kMigrate: the destination class
};

// One connection's deterministic statement stream.
class OpStream {
 public:
  OpStream(Workload w, uint64_t seed, int conn, int connections,
           const PopulationInfo& pop);
  ~OpStream();
  OpStream(OpStream&&) noexcept;

  Op Next();
  // The statement to send: text with `{ref}` resolved.
  std::string Render(const Op& op) const;
  // Feedback after a successful reply (records created oids).
  void OnAck(const Op& op, std::string_view reply);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- child.cc: the tchimera_serve child process -------------------------------

class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess();  // SIGKILLs and reaps a live child
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  // fork/exec `serve_bin DBDIR --port=0 --workers=N`; returns once the
  // server accepts a connection (hello frame read). Server stderr is
  // appended to `log_path`. The returned seconds run from fork to the
  // accepted connection.
  Result<double> Start(const std::string& serve_bin, const std::string& dbdir,
                       const std::string& log_path, int workers);
  // Sends `sig` and reaps the child. Returns its wait status.
  int Stop(int sig);
  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }
  // VmHWM of the live child, in MiB (0 when unreadable).
  double PeakRssMib() const;
  // CPU time of the live child, all threads, in s (-1 when unreadable).
  double CpuSeconds() const;

 private:
  int pid_ = -1;
  uint16_t port_ = 0;
  int err_fd_ = -1;
  std::unique_ptr<std::thread> drain_;
};

// --- trace.cc: in-memory spans -----------------------------------------------

// One span per layer call: name, start, end, parent span, and the request
// id shared by the spans of one statement.
struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;  // 1-based index into the same thread's spans; 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // Per-thread span buffer; spans stay in memory until WriteCsv.
  class Buffer {
   public:
    explicit Buffer(Tracer* tracer) : tracer_(tracer) {}
    // Opens a span under the innermost open span; returns its handle.
    uint32_t Open(uint32_t name, uint64_t request);
    // Closes `handle` (must be the innermost open span); returns its
    // duration in ns.
    int64_t Close(uint32_t handle);
    const std::vector<Span>& spans() const { return spans_; }

   private:
    friend class Tracer;
    Tracer* tracer_;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
  };

  uint32_t Intern(const std::string& name);
  // Buffers are owned by the tracer; one per thread.
  Buffer* NewBuffer();

  // Self time (duration minus direct children) per span name:
  // name -> (median self us, span count).
  struct SelfTime {
    double median_us = 0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;
  size_t span_count() const;
  Status WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span on a buffer (no-op when the buffer is null).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buf, uint32_t name, uint64_t request)
      : buf_(buf), handle_(buf ? buf->Open(name, request) : 0) {}
  ~ScopedSpan() { End(); }
  int64_t End() {
    if (buf_ == nullptr || handle_ == 0) return 0;
    int64_t d = buf_->Close(handle_);
    handle_ = 0;
    return d;
  }

 private:
  Tracer::Buffer* buf_;
  uint32_t handle_;
};

// --- closed_loop.cc: the closed loop -----------------------------------------

// Executes one statement; OK = the reply text.
using ExecFn = std::function<Result<std::string>(std::string_view)>;

// One acknowledged or failed write, kept for post-restart verification.
struct WriteRecord {
  Op op;
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
  bool ok = false;
};

// Per-text read answers: every reply to the same text must hash equal.
struct ReadEntry {
  uint64_t hash = 0;
  uint64_t count = 0;
  uint64_t inconsistent = 0;  // replies whose hash differed from the first
};

struct ConnLog {
  // Client-observed latency (us) per op category ("read.when", ...).
  std::map<std::string, std::vector<double>> category_us;
  // Every op as (acknowledgement time since the window opened, latency):
  // the per-second slices the end-to-end medians are taken over.
  std::vector<std::pair<int64_t, double>> timeline;
  std::vector<WriteRecord> writes;
  std::unordered_map<std::string, ReadEntry> reads;
  std::vector<std::string> statements;  // every sent text, in order (traced)
  uint64_t attempted = 0, failed = 0;
  uint64_t retries = 0;
  uint64_t reply_bytes = 0;
  std::vector<std::string> failures;  // first few failure messages
};

struct DriveOptions {
  double seconds = 10;
  bool keep_statements = false;
  // Traced mode: spans around each client call and the wire codec.
  Tracer* tracer = nullptr;
  std::vector<double>* codec_ns = nullptr;  // EncodeRequest + FrameReader::Next
  // Called once, on the client thread whose acknowledged write is the
  // `mark_writes`-th of the window (0 = never), with the number of ops
  // completed by then.
  uint64_t mark_writes = 0;
  std::function<void(uint64_t ops_done)> on_mark;
  // Called on the client thread that completes every `segment_ops`-th op
  // of the window (0 = never), with the number of ops completed.
  uint64_t segment_ops = 0;
  std::function<void(uint64_t ops_done)> on_segment;
};

struct DriveResult {
  std::vector<ConnLog> conns;
  double wall_s = 0;
  uint64_t ops() const;
  uint64_t failed() const;
};

// Latencies (us) of every op whose category starts with `prefix` ("" =
// all, "read." = reads), over all connections.
std::vector<double> Latencies(const DriveResult& run, std::string_view prefix);

// Per-slice closed-loop figures: ops completed per second of the slice,
// and the p50 / p99 latency of those ops.
struct Slice {
  double ops_per_s = 0, p50_us = 0, p99_us = 0;
};
// Cuts the window into whole `slice_s` slices (a trailing partial slice
// is dropped).
std::vector<Slice> Slices(const DriveResult& run, double slice_s);

// Runs one closed-loop client thread per stream against 127.0.0.1:port
// until `seconds` elapse; each thread has one connection and one request
// in flight.
Result<DriveResult> Drive(uint16_t port, std::vector<OpStream>* streams,
                          const DriveOptions& options);

// --- checks.cc: answer and durability checks ----------------------------------

struct CheckOutcome {
  uint64_t checked = 0;  // answers / objects examined
  uint64_t failed = 0;   // wrong answers, lost or wrong writes
  std::vector<std::string> messages;  // first few failures
  void Fail(std::string message);
};

// Merges the per-connection read ledgers and compares every distinct
// text's reply against `expected` (an in-process Session on the same
// snapshot). A mismatch fails every op that got that reply.
CheckOutcome CheckReads(const std::vector<const ConnLog*>& logs,
                        const std::vector<ExecFn>& expected);

// After restart: every acknowledged create exists with its name and last
// acknowledged salary, every updated object holds its last acknowledged
// value (for concurrent writers: one not superseded by a later-started
// acknowledged write), corrections hold over their window, migrated
// objects sit in their last class, and `check` reports consistent.
CheckOutcome CheckWrites(Workload w, const std::vector<const ConnLog*>& logs,
                         const ExecFn& exec);

// --- untraced.cc / traced.cc / selftest.cc -----------------------------------

struct RunConfig {
  Workload workload = Workload::kMixed;
  uint64_t seed = 1;
  double seconds = 10;
  std::string serve_bin;
  std::string run_dir;
  std::string revision = "unknown";
};

struct RunOutcome {
  Report report;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Result<RunOutcome> RunUntraced(const RunConfig& config);
Result<RunOutcome> RunTraced(const RunConfig& config);

// Returns failures (empty = all self-tests pass).
std::vector<std::string> RunSelfTests();

// Shared helpers (untraced.cc).
void AddRunMetadata(const RunConfig& config, const PopulationInfo& pop,
                    Report* report);
// Workload-shape shares over the statements a run sent.
void AddShapeMetrics(const DriveResult& run, Report* report);
std::string FreshDir(const std::string& parent, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
