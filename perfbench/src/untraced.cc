// The untraced run: a real tchimera_serve child on a fresh DBDIR, driven
// over the wire in a closed loop. Every end-to-end metric comes from here.
#include <signal.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>

#include "bench.h"
#include "query/session.h"
#include "server/client.h"
#include "storage/recovery.h"
#include "storage/serializer.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Set-up and recovery are each repeated until the repeats add up to
// kRepeatBudgetS, at most kMaxRepeats times, and reported as the median:
// cheap ones get many samples. Set-up runs at least kMinSetups times;
// recovery at least once, since on ingest one journal replay takes
// seconds.
constexpr int kMinSetups = 3;
constexpr int kMaxRepeats = 25;
constexpr double kRepeatBudgetS = 3.0;
constexpr double kSliceSeconds = 1.0;
// server_cpu_us_per_op is the median, over consecutive segments of
// kSegmentOps completed statements, of the server's CPU time per
// statement in the segment: a burst of CPU steal or a slow patch of the
// shared host moves the segments it covers, not the figure.
constexpr uint64_t kSegmentOps = 500;

// The share of the machine's CPU time the hypervisor stole, from the
// aggregate line of /proc/stat (in clock ticks): run metadata that says
// how shared the host was while a run measured.
struct HostTicks {
  uint64_t steal = 0, total = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& us) {
  if (us.empty()) return;
  report->Add(prefix + "p50_us", Percentile(us, 50), "us", us.size());
  report->Add(prefix + "p99_us", Percentile(us, 99), "us", us.size());
  report->Add(prefix + "p999_us", Percentile(us, 99.9), "us", us.size());
}

// On ingest, whose class grows with every create, server_cpu_us_per_op
// and server_rss_mib are taken once the clients have had this many writes
// acknowledged: the stream prefix, and with it the class size, is then the
// same on every run, whatever the throughput. A run that never gets there
// (a much slower build) reports the whole window. mixed and history_read
// do not grow (mixed never ticks, so a salary update rewrites the current
// segment) and report the whole window.
uint64_t MarkWrites(Workload w) {
  return w == Workload::kIngest ? 16000 : 0;
}

bool RepeatAgain(const std::vector<double>& samples, int min_repeats) {
  double total = 0;
  for (double s : samples) total += s;
  const int n = static_cast<int>(samples.size());
  return n < min_repeats || (n < kMaxRepeats && total < kRepeatBudgetS);
}

}  // namespace

std::string FreshDir(const std::string& parent, const std::string& name) {
  fs::path dir = fs::path(parent) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

void AddRunMetadata(const RunConfig& config, const PopulationInfo& pop,
                    Report* report) {
  report->Meta("workload", WorkloadName(config.workload));
  report->Meta("seed", static_cast<double>(config.seed));
  report->Meta("git_sha", config.revision);
  report->Meta("host_cores",
               static_cast<double>(std::thread::hardware_concurrency()));
  report->Meta("build_type", PERFBENCH_BUILD_TYPE);
  report->Meta("connections", static_cast<double>(ConnectionCount()));
  report->Meta("window_s", config.seconds);
  report->Meta("flush_policy",
               "GroupCommitJournal defaults (max_batch 64, max_delay 0): one "
               "fdatasync per batch, journal on the checkout's local disk");
  report->Meta("population.persons", static_cast<double>(pop.persons.size()));
  report->Meta("population.objects", static_cast<double>(pop.objects));
  report->Meta("population.projects", static_cast<double>(pop.projects.size()));
  report->Meta("population.salary_segments",
               static_cast<double>(pop.history_segments));
  report->Meta("population.migrations", static_cast<double>(pop.migrations));
  report->Meta("population.now", static_cast<double>(pop.now));
}

void AddShapeMetrics(const DriveResult& run, Report* report) {
  uint64_t reads = 0, distinct = 0, writes = 0;
  std::set<std::string> texts;
  std::map<std::string, uint64_t> categories;
  std::map<uint64_t, uint64_t> per_target;
  for (const ConnLog& c : run.conns) {
    for (const auto& [text, entry] : c.reads) {
      reads += entry.count;
      texts.insert(text);
    }
    for (const WriteRecord& w : c.writes) {
      ++writes;
      ++categories[w.op.category];
      if (w.op.target.valid()) ++per_target[w.op.target.id];
    }
  }
  distinct = texts.size();
  if (reads > 0) {
    report->Add("workload.read_distinct_text_share",
                static_cast<double>(distinct) / reads, "fraction", reads);
    report->Add("workload.read_distinct_texts", static_cast<double>(distinct),
                "count");
  }
  if (!per_target.empty()) {
    // Share of targeted writes that land on the hottest 1% of targets.
    std::vector<uint64_t> counts;
    uint64_t targeted = 0;
    for (const auto& [id, n] : per_target) {
      counts.push_back(n);
      targeted += n;
    }
    std::sort(counts.rbegin(), counts.rend());
    const size_t top = std::max<size_t>(1, counts.size() / 100);
    uint64_t hot = 0;
    for (size_t i = 0; i < top; ++i) hot += counts[i];
    report->Add("workload.hot_write_share",
                static_cast<double>(hot) / targeted, "fraction", targeted);
  }
  const uint64_t ops = run.ops();
  if (ops > 0) {
    report->Add("workload.write_share", static_cast<double>(writes) / ops,
                "fraction", ops);
  }
  for (const auto& [category, n] : categories) {
    report->Add("workload.share." + category, static_cast<double>(n) / ops,
                "fraction", ops);
  }
}

Result<RunOutcome> RunUntraced(const RunConfig& config) {
  RunOutcome out;
  Report& report = out.report;
  const Workload w = config.workload;
  const int conns = ConnectionCount();
  const std::string dir =
      FreshDir(config.run_dir, std::string(WorkloadName(w)) + "-untraced");
  const std::string dbdir = dir + "/db";
  const std::string snapshot = dbdir + "/snapshot.tchdb";
  const std::string log = dir + "/serve.log";
  fs::create_directories(dbdir);

  // Data prep (not measured): the population, saved as the snapshot the
  // server starts from.
  PopulationInfo pop;
  {
    tchimera::Database db;
    TCH_ASSIGN_OR_RETURN(pop, BuildPopulation(w, config.seed, &db));
    TCH_RETURN_IF_ERROR(tchimera::SaveDatabaseToFile(db, snapshot, 1));
  }
  AddRunMetadata(config, pop, &report);

  // setup_s: spawn -> accepting connections. Repeated until the spawns
  // add up to kRepeatBudgetS (between kMinSetups and kMaxRepeats times);
  // the median is reported.
  std::vector<double> setup;
  auto server = std::make_unique<ServeProcess>();
  while (true) {
    TCH_ASSIGN_OR_RETURN(double s,
                         server->Start(config.serve_bin, dbdir, log, 4));
    setup.push_back(s);
    if (!RepeatAgain(setup, kMinSetups)) break;
    server->Stop(SIGTERM);
    server = std::make_unique<ServeProcess>();
  }

  std::vector<OpStream> streams;
  for (int c = 0; c < conns; ++c) streams.emplace_back(w, config.seed, c, conns, pop);
  DriveOptions drive;
  drive.seconds = config.seconds;
  double rss_at_mark = 0;
  uint64_t ops_at_mark = 0;
  int64_t mark_ns = 0;
  drive.mark_writes = MarkWrites(w);
  const int64_t window_start_ns = NowNs();
  const double cpu_start_s = server->CpuSeconds();
  if (drive.mark_writes > 0) {
    drive.on_mark = [&](uint64_t ops_done) {
      rss_at_mark = server->PeakRssMib();
      ops_at_mark = ops_done;
      mark_ns = NowNs();
    };
  }
  // (statements completed, server CPU seconds) at segment boundaries.
  std::mutex marks_mu;
  std::vector<std::pair<uint64_t, double>> marks = {{0, cpu_start_s}};
  drive.segment_ops = kSegmentOps;
  drive.on_segment = [&](uint64_t ops_done) {
    std::lock_guard<std::mutex> lock(marks_mu);
    // A boundary whose thread reaches the lock after a later boundary's
    // is dropped (two segments become one), so the marks stay in order in
    // both statements and time.
    if (ops_done < marks.back().first) return;
    marks.emplace_back(ops_done, server->CpuSeconds());
  };
  const HostTicks host_start = ReadHostTicks();
  TCH_ASSIGN_OR_RETURN(DriveResult run, Drive(server->port(), &streams, drive));
  const double cpu_s = server->CpuSeconds() - cpu_start_s;
  if (cpu_start_s < 0 || cpu_s <= 0) {
    return Status::Internal("cannot read the server's CPU time");
  }
  const double rss_end = server->PeakRssMib();
  const double cpu_us_per_op_end =
      cpu_s * 1e6 / std::max<uint64_t>(run.ops(), 1);
  double rss = rss_end;
  const HostTicks host_end = ReadHostTicks();
  report.Meta("host_steal_share",
              static_cast<double>(host_end.steal - host_start.steal) /
                  std::max<uint64_t>(host_end.total - host_start.total, 1));
  // The segments that end within the measured prefix.
  const uint64_t cpu_ops = ops_at_mark > 0 ? ops_at_mark : run.ops();
  std::vector<double> segment_us;
  for (size_t k = 1; k < marks.size() && marks[k].first <= cpu_ops; ++k) {
    const auto& [ops0, cpu0] = marks[k - 1];
    const auto& [ops1, cpu1] = marks[k];
    if (cpu1 < 0) return Status::Internal("cannot read the server's CPU time");
    segment_us.push_back((cpu1 - cpu0) * 1e6 / static_cast<double>(ops1 - ops0));
  }
  if (segment_us.empty()) {
    return Status::Internal("the window completed fewer than " +
                            std::to_string(kSegmentOps) + " statements");
  }
  if (ops_at_mark > 0) {
    rss = rss_at_mark;
    report.Meta("prefix_metrics_at",
                std::to_string(drive.mark_writes) + " acknowledged writes");
    report.Meta("prefix_mark_s",
                static_cast<double>(mark_ns - window_start_ns) * 1e-9);
  } else {
    report.Meta("prefix_metrics_at", "end of window");
  }

  // recovery_s: SIGKILL, restart on the same DBDIR, time to accept;
  // repeated like set-up (every restart replays the same journal).
  std::vector<double> recovery;
  do {
    server->Stop(SIGKILL);
    server = std::make_unique<ServeProcess>();
    TCH_ASSIGN_OR_RETURN(double s,
                         server->Start(config.serve_bin, dbdir, log, 4));
    recovery.push_back(s);
  } while (RepeatAgain(recovery, 1));
  std::error_code ec;
  const uint64_t journal_bytes = fs::file_size(dbdir + "/journal.tql", ec);

  // Durability: every acknowledged write survived the kill.
  std::vector<const ConnLog*> logs;
  uint64_t writes_ok = 0, retries = 0, reply_bytes = 0;
  std::vector<std::string> messages;
  for (const ConnLog& c : run.conns) {
    logs.push_back(&c);
    for (const WriteRecord& r : c.writes) writes_ok += r.ok ? 1 : 0;
    retries += c.retries;
    reply_bytes += c.reply_bytes;
    messages.insert(messages.end(), c.failures.begin(), c.failures.end());
  }

  CheckOutcome write_check;
  bool writes_verified = false;
  if (w != Workload::kHistoryRead) {
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<tchimera::Client> client,
                         tchimera::Client::Connect("127.0.0.1", server->port()));
    write_check = CheckWrites(w, logs, [&](std::string_view s) {
      return client->ExecuteRetrying(s);
    });
    writes_verified = true;
  }
  server->Stop(SIGTERM);

  // Read answers: compared with in-process Sessions on the same snapshot.
  CheckOutcome read_check;
  {
    tchimera::RecoveryManager loader(snapshot, dir + "/unused.journal");
    tchimera::RecoveryStats stats;
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<tchimera::Database> db,
                         loader.LoadSnapshot(&stats));
    tchimera::Engine engine(std::move(db));
    std::vector<tchimera::Session> sessions;
    std::vector<ExecFn> expected;
    for (int c = 0; c < conns; ++c) sessions.push_back(engine.OpenSession());
    for (int c = 0; c < conns; ++c) {
      tchimera::Session* s = &sessions[c];
      expected.push_back([s](std::string_view t) { return s->Execute(t); });
    }
    read_check = CheckReads(logs, expected);
  }

  // End-to-end metrics (the gated set first).
  // Throughput and latency are medians over one-second slices of the
  // window, so a transient stall of the host moves one slice, not the
  // figure; the whole-window values are reported beside them.
  std::vector<double> slice_ops, slice_p50, slice_p99;
  for (const Slice& s : Slices(run, kSliceSeconds)) {
    slice_ops.push_back(s.ops_per_s);
    slice_p50.push_back(s.p50_us);
    slice_p99.push_back(s.p99_us);
  }
  report.Add("setup_s", Median(setup), "s", setup.size());
  report.Add("ops_per_s", Median(slice_ops), "ops/s", slice_ops.size());
  report.Add("p50_us", Median(slice_p50), "us", slice_p50.size());
  report.Add("p99_us", Median(slice_p99), "us", slice_p99.size());
  report.Add("recovery_s", Median(recovery), "s", recovery.size());
  report.Add("server_cpu_us_per_op", Median(segment_us), "us",
             segment_us.size());
  report.Add("window.server_cpu_us_per_op", cpu_us_per_op_end, "us",
             run.ops());
  report.Add("server_rss_mib", rss, "MiB");
  report.Add("window.server_rss_mib", rss_end, "MiB");
  std::string samples;
  for (double r : recovery) samples += JsonNumber(r) + " ";
  report.Meta("recovery_samples_s", samples);
  report.Add("window.ops_per_s", static_cast<double>(run.ops()) / run.wall_s,
             "ops/s", run.ops());
  AddLatency(&report, "window.", Latencies(run, ""));
  AddLatency(&report, "read_", Latencies(run, "read."));
  AddLatency(&report, "write_", Latencies(run, "write."));
  if (writes_ok > 0) {
    report.Add("journal_bytes_per_write",
               static_cast<double>(journal_bytes) / writes_ok, "B", writes_ok);
  }
  std::map<std::string, std::vector<double>> by_category;
  for (const ConnLog& c : run.conns) {
    for (const auto& [category, us] : c.category_us) {
      std::vector<double>& all = by_category[category];
      all.insert(all.end(), us.begin(), us.end());
    }
  }
  for (const auto& [category, us] : by_category) {
    AddLatency(&report, "latency." + category + ".", us);
  }
  AddShapeMetrics(run, &report);

  out.attempted = run.ops();
  out.failed = run.failed() + read_check.failed + write_check.failed;
  report.Add("error_rate",
             static_cast<double>(out.failed) / std::max<uint64_t>(out.attempted, 1),
             "fraction", out.attempted);
  report.Meta("ops_failed_in_window", static_cast<double>(run.failed()));
  report.Meta("read_answers_checked", static_cast<double>(read_check.checked));
  report.Meta("read_answers_wrong", static_cast<double>(read_check.failed));
  report.Meta("writes_acknowledged", static_cast<double>(writes_ok));
  report.Meta("restart_checks", static_cast<double>(write_check.checked));
  report.Meta("restart_checks_failed", static_cast<double>(write_check.failed));
  report.Meta("client_retries", static_cast<double>(retries));
  report.Meta("reply_bytes", static_cast<double>(reply_bytes));
  messages.insert(messages.end(), read_check.messages.begin(),
                  read_check.messages.end());
  messages.insert(messages.end(), write_check.messages.begin(),
                  write_check.messages.end());
  for (size_t i = 0; i < messages.size() && i < 10; ++i) {
    report.Meta("failure." + std::to_string(i), messages[i]);
  }
  out.correct = out.failed == 0 &&
                (writes_verified || w == Workload::kHistoryRead) &&
                (read_check.checked > 0 || w == Workload::kIngest);
  fs::remove_all(dbdir, ec);
  return out;
}

}  // namespace perfbench
