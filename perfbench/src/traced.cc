// The traced run: the same seed and statement stream, in process, with
// spans around calls into each layer's public functions.
//
//   phase A   in-process Server, closed loop alternating untraced and
//             traced slices (server, core.db; the untraced slices price
//             the tracing: trace.overhead_frac)
//   phase B   one thread replays the statements of A through the read path
//             taken apart (parse -> plan key -> plan cache -> lower -> VM or
//             tree-walker) and through Session::Execute, which must agree
//   phase C   storage: a standalone GroupCommitJournal fed A's durable
//             statements, journal replay, replica shipping
//
// The end-to-end metrics never come from here.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <mutex>

#include "bench.h"
#include "query/interpreter.h"
#include "query/parser.h"
#include "query/session.h"
#include "query/vm.h"
#include "server/server.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"
#include "storage/replication.h"
#include "storage/serializer.h"

namespace perfbench {

namespace fs = std::filesystem;
using tchimera::Database;
using tchimera::Engine;
using tchimera::GroupCommitJournal;
using tchimera::Session;

namespace {

std::string FirstWord(std::string_view text) {
  size_t end = text.find(' ');
  std::string w(text.substr(0, end));
  for (char& c : w) c = static_cast<char>(std::tolower(c));
  return w;
}

bool IsRead(std::string_view text) {
  const std::string w = FirstWord(text);
  return w == "select" || w == "when" || w == "history" || w == "snapshot" ||
         w == "show";
}

Result<std::unique_ptr<Database>> LoadSnapshot(const std::string& snapshot,
                                               const std::string& journal,
                                               tchimera::RecoveryStats* stats) {
  tchimera::RecoveryManager loader(snapshot, journal);
  return loader.LoadSnapshot(stats);
}

// Passes every commit through to the group-commit journal and, while
// `recording` is set, times each write's durability wait: Enqueue plus
// Await, which the engine calls on the same worker thread.
class TimedSink : public tchimera::CommitSink {
 public:
  explicit TimedSink(GroupCommitJournal* journal) : journal_(journal) {}

  Ticket Enqueue(std::string_view statement) override {
    const int64_t t0 = NowNs();
    Ticket t = journal_->Enqueue(statement);
    enqueue_ns_ = NowNs() - t0;
    return t;
  }

  Status Await(Ticket ticket) override {
    const int64_t t0 = NowNs();
    Status s = journal_->Await(ticket);
    const int64_t wait_ns = enqueue_ns_ + (NowNs() - t0);
    enqueue_ns_ = 0;
    if (recording.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      wait_us_.push_back(static_cast<double>(wait_ns) * 1e-3);
    }
    return s;
  }

  std::vector<double> wait_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wait_us_;
  }

  std::atomic<bool> recording{false};

 private:
  GroupCommitJournal* journal_;
  static thread_local int64_t enqueue_ns_;
  mutable std::mutex mu_;
  std::vector<double> wait_us_;
};

thread_local int64_t TimedSink::enqueue_ns_ = 0;

// Engine + group-commit sink + Server over a copy of the snapshot,
// assembled the way tools/tchimera_serve.cpp does, with the sink behind a
// TimedSink.
struct InProcessServer {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<GroupCommitJournal> sink;
  std::unique_ptr<TimedSink> timed;
  std::unique_ptr<tchimera::Server> server;
  std::string journal;

  Status Start(const std::string& snapshot, const std::string& dir) {
    fs::create_directories(dir);
    const std::string snap = dir + "/snapshot.tchdb";
    fs::copy_file(snapshot, snap, fs::copy_options::overwrite_existing);
    journal = dir + "/journal.tql";
    tchimera::RecoveryManager recovery(snap, journal);
    tchimera::RecoveryStats stats;
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         recovery.LoadSnapshot(&stats));
    engine = std::make_unique<Engine>(std::move(db));
    Session boot = engine->OpenSession();
    TCH_RETURN_IF_ERROR(recovery.ReplayJournals(
        [&boot](const std::string& s) { return boot.Execute(s).status(); },
        &stats));
    sink = std::make_unique<GroupCommitJournal>();
    tchimera::JournalOptions jo;
    jo.epoch = stats.next_epoch;
    TCH_RETURN_IF_ERROR(sink->Open(journal, jo));
    timed = std::make_unique<TimedSink>(sink.get());
    engine->set_commit_sink(timed.get());
    tchimera::ServerOptions options;
    GroupCommitJournal* s = sink.get();
    options.commit_backlog = [s]() -> uint64_t {
      uint64_t d = s->durable();
      uint64_t e = s->enqueued();
      return e > d ? e - d : 0;
    };
    server = std::make_unique<tchimera::Server>(engine.get(), options);
    return server->Start();
  }

  void Stop() {
    if (server != nullptr) server->Stop();
    if (sink != nullptr && sink->is_open()) sink->Close();
  }
};

std::vector<OpStream> Streams(const RunConfig& config,
                              const PopulationInfo& pop) {
  std::vector<OpStream> streams;
  const int n = ConnectionCount();
  for (int c = 0; c < n; ++c) {
    streams.emplace_back(config.workload, config.seed, c, n, pop);
  }
  return streams;
}

// Span names of the in-process layers.
struct Names {
  uint32_t read_root, parse, plan_key, plan_cache, lower, vm_select, vm_when,
      treewalk, session_read, write_root, session_write, gc_await, replay,
      fetch, apply;
  explicit Names(Tracer* t)
      : read_root(t->Intern("query.read_decomposed")),
        parse(t->Intern("query.parse")),
        plan_key(t->Intern("query.plan_key")),
        plan_cache(t->Intern("query.plan_cache.lookup")),
        lower(t->Intern("query.lower")),
        vm_select(t->Intern("query.vm.select")),
        vm_when(t->Intern("query.vm.when")),
        treewalk(t->Intern("query.treewalk")),
        session_read(t->Intern("query.session.read")),
        write_root(t->Intern("query.write")),
        session_write(t->Intern("query.session.write")),
        gc_await(t->Intern("storage.group_commit.await")),
        replay(t->Intern("storage.recovery.replay")),
        fetch(t->Intern("storage.replication.fetch")),
        apply(t->Intern("storage.replication.apply")) {}
};

// Phase B accumulators.
struct ReadPath {
  std::vector<double> parse_read_us, parse_write_us, plan_key_ns, lower_us,
      vm_select_us, vm_when_us, treewalk_us, session_read_us,
      session_write_us, create_us, migrate_us;
  uint64_t reads = 0, rows = 0, candidates = 0, compiled_selects = 0,
           index_access = 0, fallbacks = 0, mismatches = 0;
  std::map<std::string, uint64_t> fallback_reasons;
  std::vector<std::string> messages;
};

// Concatenates one closed-loop slice onto the logs of earlier slices.
void Append(DriveResult* into, DriveResult&& from) {
  if (into->conns.empty()) {
    *into = std::move(from);
    return;
  }
  into->wall_s += from.wall_s;
  for (size_t i = 0; i < into->conns.size(); ++i) {
    ConnLog& a = into->conns[i];
    ConnLog& b = from.conns[i];
    auto cat = [](auto* x, auto& y) {
      x->insert(x->end(), std::make_move_iterator(y.begin()),
                std::make_move_iterator(y.end()));
    };
    for (auto& [category, us] : b.category_us) cat(&a.category_us[category], us);
    cat(&a.writes, b.writes);
    cat(&a.statements, b.statements);
    cat(&a.failures, b.failures);
    for (auto& [text, entry] : b.reads) {
      auto [it, fresh] = a.reads.try_emplace(text, entry);
      if (fresh) continue;
      it->second.count += entry.count;
      it->second.inconsistent += it->second.hash == entry.hash
                                     ? entry.inconsistent
                                     : entry.count;
    }
    a.attempted += b.attempted;
    a.failed += b.failed;
    a.retries += b.retries;
    a.reply_bytes += b.reply_bytes;
  }
}

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// Appends `us` to `to` when the call was timed cold.
void Keep(bool timed, std::vector<double>* to, double us) {
  if (timed) to->push_back(us);
}

// The read path of Session::Execute, one public call at a time. Its
// timings are kept only when `timed`; the counts always are.
Result<std::string> DecomposedRead(const std::string& text, const Database& db,
                                   tchimera::PlanCache* cache,
                                   Tracer::Buffer* buf, const Names& n,
                                   uint64_t req, bool timed, ReadPath* rp) {
  ScopedSpan parse_span(buf, n.parse, req);
  Result<tchimera::Statement> parsed = tchimera::ParseStatement(text);
  Keep(timed, &rp->parse_read_us, Us(parse_span.End()));
  if (!parsed.ok()) return parsed.status();
  tchimera::Statement stmt = std::move(parsed).value();
  using Kind = tchimera::Statement::Kind;
  if (stmt.kind == Kind::kSelect || stmt.kind == Kind::kWhen) {
    ScopedSpan key_span(buf, n.plan_key, req);
    const std::string key = tchimera::NormalizePlanKey(text);
    Keep(timed, &rp->plan_key_ns, static_cast<double>(key_span.End()));
    ScopedSpan lookup_span(buf, n.plan_cache, req);
    std::shared_ptr<const tchimera::CachedPlan> cached =
        cache->Lookup(key, db.schema_version());
    lookup_span.End();
    if (cached == nullptr) {
      ScopedSpan lower_span(buf, n.lower, req);
      Result<tchimera::LowerOutcome> outcome = tchimera::LowerStatement(&stmt, db);
      Keep(timed, &rp->lower_us, Us(lower_span.End()));
      if (!outcome.ok()) return outcome.status();
      auto fresh = std::make_shared<tchimera::CachedPlan>();
      if (outcome->compiled()) {
        fresh->plan = std::move(outcome->plan);
      } else {
        fresh->fallback_reason = std::move(outcome->fallback_reason);
      }
      cache->Insert(key, db.schema_version(), fresh);
      cached = std::move(fresh);
    }
    if (cached->plan.has_value()) {
      const tchimera::LoweredPlan& plan = *cached->plan;
      if (plan.kind == tchimera::LoweredPlan::Kind::kSelect) {
        ScopedSpan vm_span(buf, n.vm_select, req);
        Result<std::vector<tchimera::SelectRow>> rows =
            tchimera::RunSelect(plan.program, db);
        Keep(timed, &rp->vm_select_us, Us(vm_span.End()));
        if (!rows.ok()) return rows.status();
        ++rp->compiled_selects;
        rp->rows += rows->size();
        if (plan.program.access.has_value()) {
          ++rp->index_access;
          rp->candidates += plan.program.est_index_rows;
        } else {
          rp->candidates += plan.program.est_extent_rows;
        }
        return tchimera::FormatSelectRows(*rows);
      }
      ScopedSpan vm_span(buf, n.vm_when, req);
      Result<tchimera::IntervalSet> held = tchimera::RunWhen(plan.program, db);
      Keep(timed, &rp->vm_when_us, Us(vm_span.End()));
      if (!held.ok()) return held.status();
      return held->ToString();
    }
    ++rp->fallbacks;
    ++rp->fallback_reasons[cached->fallback_reason];
  }
  ScopedSpan walk_span(buf, n.treewalk, req);
  tchimera::Interpreter interp(const_cast<Database*>(&db));
  Result<std::string> out = interp.ExecuteStatement(&stmt);
  Keep(timed, &rp->treewalk_us, Us(walk_span.End()));
  return out;
}

bool SameOutcome(const Result<std::string>& a, const Result<std::string>& b) {
  if (a.ok() != b.ok()) return false;
  return a.ok() ? *a == *b : a.status().ToString() == b.status().ToString();
}

void AddMedian(Report* r, const std::string& name, std::vector<double> v,
               const std::string& unit) {
  if (v.empty()) return;
  const uint64_t n = v.size();
  r->Add(name, Median(std::move(v)), unit, n);
}

}  // namespace

Result<RunOutcome> RunTraced(const RunConfig& config) {
  RunOutcome out;
  Report& report = out.report;
  const Workload w = config.workload;
  const int conns = ConnectionCount();
  const std::string dir =
      FreshDir(config.run_dir, std::string(WorkloadName(w)) + "-traced");
  const std::string snapshot = dir + "/population.tchdb";
  const double phase_s = std::max(config.seconds / 3.0, 0.5);

  PopulationInfo pop;
  {
    Database db;
    TCH_ASSIGN_OR_RETURN(pop, BuildPopulation(w, config.seed, &db));
    TCH_RETURN_IF_ERROR(tchimera::SaveDatabaseToFile(db, snapshot, 1));
  }
  AddRunMetadata(config, pop, &report);

  // storage: snapshot load (median of 3) and size.
  {
    std::vector<double> load_s;
    for (int i = 0; i < 3; ++i) {
      tchimera::RecoveryStats stats;
      const int64_t t0 = NowNs();
      TCH_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           LoadSnapshot(snapshot, dir + "/unused.journal",
                                        &stats));
      load_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    report.Add("storage.snapshot_load_s", Median(load_s), "s", load_s.size());
    report.Add("storage.snapshot_bytes_per_object",
               static_cast<double>(fs::file_size(snapshot)) /
                   std::max<size_t>(pop.objects, 1),
               "B", pop.objects);
  }

  // Phase A: one in-process Server, the closed loop alternating untraced
  // and traced slices in the order U T T U U T T U over the same streams,
  // so a linear drift over the phase (a growing class, a warming cache)
  // cancels out of trace.overhead_frac. Spans and statements come from
  // the traced slices; server and engine counters cover the whole phase.
  Tracer tracer;
  const Names names(&tracer);
  std::vector<double> codec_ns;
  InProcessServer srv;
  TCH_RETURN_IF_ERROR(srv.Start(snapshot, dir + "/a"));
  std::vector<OpStream> streams = Streams(config, pop);
  std::atomic<bool> sampling{true};
  std::vector<double> live;
  std::thread sampler([&] {
    while (sampling.load()) {
      live.push_back(static_cast<double>(Database::live_instance_count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  DriveResult untraced_run, traced_run;
  Status served = Status::OK();
  for (int slice = 0; slice < 8 && served.ok(); ++slice) {
    const bool traced = slice % 4 == 1 || slice % 4 == 2;
    DriveOptions opts;
    opts.seconds = phase_s / 4;
    srv.timed->recording.store(traced);
    if (traced) {
      opts.tracer = &tracer;
      opts.codec_ns = &codec_ns;
      opts.keep_statements = true;
    }
    Result<DriveResult> part = Drive(srv.server->port(), &streams, opts);
    if (!part.ok()) {
      served = part.status();
      break;
    }
    Append(traced ? &traced_run : &untraced_run, std::move(part).value());
  }
  sampling.store(false);
  sampler.join();
  if (!served.ok()) {
    srv.Stop();
    return served;
  }
  const double untraced_ops_s =
      static_cast<double>(untraced_run.ops()) / untraced_run.wall_s;
  const DriveResult& run = traced_run;
  const tchimera::ServerStats& ss = srv.server->stats();
  const uint64_t admission = ss.admission_rejections.load();
  const uint64_t conflict_retries = ss.conflict_retries.load();
  const uint64_t budget_exhausted = ss.conflict_budget_exhausted.load();
  srv.Stop();
  const std::vector<double> served_wait_us = srv.timed->wait_us();
  const uint64_t served_enqueued = srv.sink->enqueued();
  const uint64_t served_batches = srv.sink->batches();
  uint64_t writes_ok = 0, client_retries = 0, reply_bytes = 0;
  const std::vector<double> client_read_us = Latencies(run, "read.");
  const std::vector<double> client_write_us = Latencies(run, "write.");
  for (const ConnLog& c : run.conns) {
    for (const WriteRecord& r : c.writes) writes_ok += r.ok ? 1 : 0;
    client_retries += c.retries;
    reply_bytes += c.reply_bytes;
  }
  const double traced_ops_s = static_cast<double>(run.ops()) / run.wall_s;
  {
    const Database& db = srv.engine->writer_db();
    // Population shape at the end of phase A: run metadata, not a
    // performance figure (the inputs fix them, or on ingest the
    // throughput does).
    report.Meta("shape.extent_members",
                static_cast<double>(db.Pi("employee", db.now()).size()));
    size_t segments = 0, persons = 0;
    for (Oid oid : db.Pi("employee", db.now())) {
      const tchimera::Object* obj = db.GetObject(oid);
      const tchimera::Value* v = obj ? obj->Attribute("salary") : nullptr;
      if (v == nullptr || v->kind() != tchimera::ValueKind::kTemporal) continue;
      segments += v->AsTemporal().segment_count();
      ++persons;
    }
    report.Meta("shape.segments_per_object",
                static_cast<double>(segments) / std::max<size_t>(persons, 1));
    const uint64_t conflicts = srv.engine->conflict_count();
    uint64_t commits = writes_ok;
    for (const ConnLog& c : untraced_run.conns) {
      for (const WriteRecord& r : c.writes) commits += r.ok ? 1 : 0;
    }
    if (commits > 0) {
      report.Add("core.db.commit_success_ratio",
                 static_cast<double>(commits) / (commits + conflicts),
                 "fraction", commits + conflicts);
    }
  }
  AddMedian(&report, "core.db.live_instances", live, "count");
  srv.server.reset();
  srv.engine.reset();

  // Phase B: the same statements, one thread, layer by layer.
  ReadPath rp;
  std::vector<std::string> journal_stmts;
  {
    tchimera::RecoveryManager rm(snapshot, srv.journal);
    tchimera::RecoveryStats stats;
    TCH_RETURN_IF_ERROR(rm.LoadSnapshot(&stats).status());
    TCH_RETURN_IF_ERROR(rm.ReplayJournals(
        [&](const std::string& s) {
          journal_stmts.push_back(s);
          return Status::OK();
        },
        &stats));
  }
  {
    tchimera::RecoveryStats stats;
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         LoadSnapshot(snapshot, dir + "/unused.journal", &stats));
    Engine engine(std::move(db));
    Session session = engine.OpenSession();
    tchimera::PlanCache cache;
    Tracer::Buffer* buf = tracer.NewBuffer();
    // Round-robin over the connections' logs; writes are taken in commit
    // (journal) order so the replay is the history A actually produced.
    std::vector<size_t> pos(run.conns.size(), 0);
    size_t next_write = 0;
    const int64_t deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
    uint64_t req = uint64_t{1} << 62;
    bool more = true;
    while (more && NowNs() < deadline) {
      more = false;
      for (size_t c = 0; c < run.conns.size(); ++c) {
        const std::vector<std::string>& log = run.conns[c].statements;
        if (pos[c] >= log.size()) continue;
        more = true;
        const std::string& text = log[pos[c]++];
        ++req;
        // Session::Execute and the decomposed path (for writes: the
        // parse) alternate which runs first, reads and writes counted
        // apart; each path's timings come only from the statements it
        // ran first on, so neither is a warm re-run.
        if (IsRead(text)) {
          const bool session_first = rp.reads % 2 == 0;
          Result<std::string> whole = Status::Internal("not run");
          Result<std::string> parts = Status::Internal("not run");
          auto run_session = [&] {
            ScopedSpan span(buf, names.session_read, req);
            whole = session.Execute(text);
            Keep(session_first, &rp.session_read_us, Us(span.End()));
          };
          if (session_first) run_session();
          {
            ScopedSpan root(buf, names.read_root, req);
            tchimera::ReadSnapshot snap = engine.OpenSnapshot();
            parts = DecomposedRead(text, snap.db(), &cache, buf, names, req,
                                   !session_first, &rp);
          }
          if (!session_first) run_session();
          ++rp.reads;
          if (!SameOutcome(parts, whole)) {
            ++rp.mismatches;
            if (rp.messages.size() < 5) {
              rp.messages.push_back("decomposed read differs: " + text);
            }
          }
          continue;
        }
        if (next_write >= journal_stmts.size()) continue;
        const std::string& stmt = journal_stmts[next_write++];
        const bool session_first = next_write % 2 == 0;
        ScopedSpan root(buf, names.write_root, req);
        auto parse = [&] {
          ScopedSpan span(buf, names.parse, req);
          (void)tchimera::ParseStatement(stmt);
          Keep(!session_first, &rp.parse_write_us, Us(span.End()));
        };
        if (!session_first) parse();
        ScopedSpan span(buf, names.session_write, req);
        Result<std::string> done = session.Execute(stmt);
        const double us = Us(span.End());
        if (session_first) {
          rp.session_write_us.push_back(us);
          const std::string verb = FirstWord(stmt);
          if (verb == "create") rp.create_us.push_back(us);
          if (verb == "migrate") rp.migrate_us.push_back(us);
        }
        if (session_first) parse();
        if (!done.ok()) {
          ++rp.mismatches;
          if (rp.messages.size() < 5) {
            rp.messages.push_back("journaled write failed on replay: " + stmt);
          }
        }
      }
    }
    tchimera::PlanCache::Stats cs = cache.stats();
    if (cs.hits + cs.misses > 0) {
      report.Add("query.plan_cache.hit_ratio",
                 static_cast<double>(cs.hits) / (cs.hits + cs.misses),
                 "fraction", cs.hits + cs.misses);
      report.Add("query.plan_cache.invalidations",
                 static_cast<double>(cs.invalidations), "count");
    }
  }

  // Phase C: storage layers over A's durable statements.
  if (!journal_stmts.empty()) {
    const size_t cap = std::min<size_t>(journal_stmts.size(), 4000);
    GroupCommitJournal gc;
    TCH_RETURN_IF_ERROR(gc.Open(dir + "/group_commit.tql"));
    std::vector<Tracer::Buffer*> bufs;
    for (int c = 0; c < conns; ++c) bufs.push_back(tracer.NewBuffer());
    std::vector<std::vector<double>> await_us(conns);
    std::vector<std::thread> threads;
    const int64_t deadline = NowNs() + static_cast<int64_t>(phase_s * 0.5e9);
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < cap && NowNs() < deadline; i += conns) {
          ScopedSpan span(bufs[c], names.gc_await, (uint64_t{3} << 60) + i);
          tchimera::CommitSink::Ticket t = gc.Enqueue(journal_stmts[i]);
          (void)gc.Await(t);
          await_us[c].push_back(Us(span.End()));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<double> all;
    for (auto& v : await_us) all.insert(all.end(), v.begin(), v.end());
    AddMedian(&report, "storage.group_commit.await_us", all, "us");
    if (gc.batches() > 0) {
      report.Add("storage.group_commit.writes_per_sync",
                 static_cast<double>(gc.enqueued()) / gc.batches(), "count",
                 gc.batches());
    }
    gc.Close();
    if (served_batches > 0) {
      report.Add("storage.group_commit.served_writes_per_sync",
                 static_cast<double>(served_enqueued) / served_batches, "count",
                 served_batches);
    }

    // Journal replay (what restart recovery does after the snapshot).
    {
      const std::string rdir = dir + "/replay";
      fs::create_directories(rdir);
      fs::copy_file(snapshot, rdir + "/snapshot.tchdb");
      fs::copy_file(srv.journal, rdir + "/journal.tql");
      tchimera::RecoveryManager rm(rdir + "/snapshot.tchdb",
                                   rdir + "/journal.tql");
      tchimera::RecoveryStats stats;
      TCH_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           rm.LoadSnapshot(&stats));
      Engine engine(std::move(db));
      Session boot = engine.OpenSession();
      Tracer::Buffer* buf = tracer.NewBuffer();
      ScopedSpan span(buf, names.replay, uint64_t{4} << 60);
      TCH_RETURN_IF_ERROR(rm.ReplayJournals(
          [&boot](const std::string& s) { return boot.Execute(s).status(); },
          &stats));
      const double s = static_cast<double>(span.End()) * 1e-9;
      report.Add("storage.recovery.replay_stmts_per_s",
                 stats.statements_applied / std::max(s, 1e-9), "stmts/s",
                 stats.statements_applied);
    }

    // Replica shipping: Fetch + Apply until the replica drains the journal
    // (or the phase budget runs out).
    {
      tchimera::ReplicationSource::Options so;
      so.snapshot_path = snapshot;
      tchimera::ReplicationSource source(srv.journal, so);
      fs::create_directories(dir + "/replica");
      TCH_ASSIGN_OR_RETURN(std::unique_ptr<tchimera::Replica> replica,
                           tchimera::Replica::Open(dir + "/replica"));
      TCH_ASSIGN_OR_RETURN(auto image, source.FetchCheckpoint());
      TCH_RETURN_IF_ERROR(replica->InstallCheckpoint(image));
      Tracer::Buffer* buf = tracer.NewBuffer();
      const int64_t t0 = NowNs();
      const int64_t deadline = t0 + static_cast<int64_t>(phase_s * 0.5e9);
      uint64_t shipped = 0;
      while (NowNs() < deadline) {
        const uint64_t req = (uint64_t{5} << 60) + shipped;
        ScopedSpan fetch_span(buf, names.fetch, req);
        Result<tchimera::ReplicationBatch> batch =
            source.Fetch(replica->cursor(), 256);
        fetch_span.End();
        if (!batch.ok()) return batch.status();
        if (batch->records.empty() && batch->at_horizon) break;
        ScopedSpan apply_span(buf, names.apply, req);
        TCH_RETURN_IF_ERROR(replica->Apply(*batch));
        apply_span.End();
        shipped += batch->records.size();
      }
      const double s = static_cast<double>(NowNs() - t0) * 1e-9;
      report.Add("storage.replication.apply_stmts_per_s",
                 shipped / std::max(s, 1e-9), "stmts/s", shipped);
    }
  }

  // server layer.
  AddMedian(&report, "server.wire.encode_decode_ns", codec_ns, "ns");
  report.Add("server.wire.reply_bytes",
             static_cast<double>(reply_bytes) / std::max<uint64_t>(run.ops(), 1),
             "B", run.ops());
  // Server overhead: traced client latency minus engine time, and for
  // writes minus the durability wait the served sink measured, so a
  // change to group commit does not read as a server-layer change. Each
  // is a difference of medians; it includes queueing for the server's
  // workers under the workload's concurrency. server.overhead_us weights
  // the two by the op mix, so it exists on every workload.
  std::vector<double> session_all = rp.session_read_us;
  session_all.insert(session_all.end(), rp.session_write_us.begin(),
                     rp.session_write_us.end());
  double overhead_sum = 0;
  uint64_t overhead_n = 0;
  if (!client_read_us.empty() && !rp.session_read_us.empty()) {
    const double us = Median(client_read_us) - Median(rp.session_read_us);
    report.Add("server.read_overhead_us", us, "us", client_read_us.size());
    overhead_sum += us * client_read_us.size();
    overhead_n += client_read_us.size();
  }
  if (!client_write_us.empty() && !rp.session_write_us.empty()) {
    const double wait = served_wait_us.empty() ? 0 : Median(served_wait_us);
    const double us =
        Median(client_write_us) - Median(rp.session_write_us) - wait;
    report.Add("server.write_overhead_us", us, "us", client_write_us.size());
    overhead_sum += us * client_write_us.size();
    overhead_n += client_write_us.size();
  }
  if (overhead_n > 0) {
    report.Add("server.overhead_us", overhead_sum / overhead_n, "us",
               overhead_n);
  }
  AddMedian(&report, "storage.group_commit.served_await_us", served_wait_us,
            "us");
  report.Add("server.admission_rejections", static_cast<double>(admission),
             "count");
  report.Add("server.conflict_retries", static_cast<double>(conflict_retries),
             "count");
  report.Add("server.conflict_budget_exhausted",
             static_cast<double>(budget_exhausted), "count");
  report.Add("server.client_retries_per_kop",
             1000.0 * client_retries / std::max<uint64_t>(run.ops(), 1),
             "1/kop", run.ops());

  // query layers.
  std::vector<double> parse_all = rp.parse_read_us;
  parse_all.insert(parse_all.end(), rp.parse_write_us.begin(),
                   rp.parse_write_us.end());
  AddMedian(&report, "query.parse_us", parse_all, "us");
  AddMedian(&report, "query.parse_read_us", rp.parse_read_us, "us");
  AddMedian(&report, "query.parse_write_us", rp.parse_write_us, "us");
  AddMedian(&report, "query.plan_key_ns", rp.plan_key_ns, "ns");
  AddMedian(&report, "query.lower_us", rp.lower_us, "us");
  AddMedian(&report, "query.vm_select_us", rp.vm_select_us, "us");
  AddMedian(&report, "query.vm_when_us", rp.vm_when_us, "us");
  AddMedian(&report, "query.treewalk_us", rp.treewalk_us, "us");
  if (rp.reads > 0) {
    report.Add("query.rows_per_read",
               static_cast<double>(rp.rows) / std::max<uint64_t>(rp.compiled_selects, 1),
               "count", rp.compiled_selects);
    if (rp.rows > 0) {
      report.Add("query.candidates_per_row",
                 static_cast<double>(rp.candidates) / rp.rows, "count",
                 rp.rows);
    }
    report.Add("query.index_access_share",
               static_cast<double>(rp.index_access) /
                   std::max<uint64_t>(rp.compiled_selects, 1),
               "fraction", rp.compiled_selects);
    report.Add("query.fallback_share",
               static_cast<double>(rp.fallbacks) / rp.reads, "fraction",
               rp.reads);
    for (const auto& [reason, count] : rp.fallback_reasons) {
      std::string key;
      for (char c : reason) {
        key += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      report.Add("query.fallback." + key.substr(0, 48),
                 static_cast<double>(count), "count");
    }
  }
  std::vector<double> session_exec = session_all;
  AddMedian(&report, "query.session.execute_us", session_exec, "us");
  AddMedian(&report, "query.session.read_us", rp.session_read_us, "us");
  AddMedian(&report, "query.session.write_us", rp.session_write_us, "us");
  if (rp.create_us.size() >= 10) {
    const size_t d = rp.create_us.size() / 10;
    AddMedian(&report, "query.session.create_us.first_decile",
              {rp.create_us.begin(), rp.create_us.begin() + d}, "us");
    AddMedian(&report, "query.session.create_us.last_decile",
              {rp.create_us.end() - d, rp.create_us.end()}, "us");
  }
  AddMedian(&report, "query.session.migrate_us", rp.migrate_us, "us");

  AddShapeMetrics(run, &report);
  report.Add("trace.overhead_frac", 1.0 - traced_ops_s / untraced_ops_s,
             "fraction");
  report.Add("trace.untraced_ops_per_s", untraced_ops_s, "ops/s");
  report.Add("trace.traced_ops_per_s", traced_ops_s, "ops/s");
  for (const auto& [name, st] : tracer.SelfTimes()) {
    report.Add("trace.self_us." + name, st.median_us, "us", st.count);
  }
  report.Add("trace.spans", static_cast<double>(tracer.span_count()), "count");
  TCH_RETURN_IF_ERROR(tracer.WriteCsv(dir + "/spans.csv"));
  report.Meta("spans_csv", dir + "/spans.csv");

  out.attempted = run.ops();
  out.failed = run.failed() + rp.mismatches;
  report.Meta("decomposed_reads_checked", static_cast<double>(rp.reads));
  report.Meta("decomposed_mismatches", static_cast<double>(rp.mismatches));
  std::vector<std::string> messages = rp.messages;
  for (const ConnLog& c : run.conns) {
    messages.insert(messages.end(), c.failures.begin(), c.failures.end());
  }
  for (size_t i = 0; i < messages.size() && i < 10; ++i) {
    report.Meta("failure." + std::to_string(i), messages[i]);
  }
  out.correct = out.failed == 0 && (rp.reads > 0 || w == Workload::kIngest);
  std::error_code ec;
  for (const char* sub : {"a0", "a", "replay", "replica"}) {
    fs::remove_all(dir + "/" + sub, ec);
  }
  fs::remove(dir + "/group_commit.tql", ec);
  return out;
}

}  // namespace perfbench
