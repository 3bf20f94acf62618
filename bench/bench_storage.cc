// Experiment ST (DESIGN.md): persistence — snapshot serialization /
// deserialization and journal replay over databases of growing size
// (making the paper's "implementation issues" future-work item concrete).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "core/db/timeslice.h"
#include "storage/deserializer.h"
#include "storage/journal.h"
#include "storage/serializer.h"
#include "workload/generator.h"

namespace tchimera {
namespace {

struct Fixture {
  Database db;
  std::string snapshot;
};

Fixture& SharedFixture(int64_t persons) {
  static std::map<int64_t, Fixture>& cache =
      *new std::map<int64_t, Fixture>();
  auto it = cache.find(persons);
  if (it == cache.end()) {
    it = cache.emplace(std::piecewise_construct,
                       std::forward_as_tuple(persons),
                       std::forward_as_tuple())
             .first;
    PopulationConfig config;
    config.persons = static_cast<size_t>(persons);
    config.projects = static_cast<size_t>(persons / 5 + 1);
    config.timesteps = 32;
    config.updates_per_step = 10;
    config.migration_rate = 0.2;
    (void)PopulateDatabase(&it->second.db, config);
    it->second.snapshot = SaveDatabaseToString(it->second.db).value();
  }
  return it->second;
}

void BM_Serialize(benchmark::State& state) {
  Fixture& fx = SharedFixture(state.range(0));
  for (auto _ : state) {
    auto text = SaveDatabaseToString(fx.db);
    if (!text.ok()) state.SkipWithError("serialize failed");
    benchmark::DoNotOptimize(text);
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(fx.snapshot.size());
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Serialize)->Arg(20)->Arg(100)->Arg(400);

void BM_Deserialize(benchmark::State& state) {
  Fixture& fx = SharedFixture(state.range(0));
  for (auto _ : state) {
    auto db = LoadDatabaseFromString(fx.snapshot);
    if (!db.ok()) state.SkipWithError("deserialize failed");
    benchmark::DoNotOptimize(db);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Deserialize)->Arg(20)->Arg(100)->Arg(400);

void BM_JournalAppend(benchmark::State& state) {
  // The price of durability: Arg is how many records the owner appends
  // per Sync() (0 = never), so the three rows show what each fdatasync
  // discipline costs per record.
  const int64_t sync_every = state.range(0);
  std::string path = (std::filesystem::temp_directory_path() /
                      "tchimera_bench_journal.tql")
                         .string();
  std::remove(path.c_str());
  Journal journal;
  if (!journal.Open(path).ok()) {
    state.SkipWithError("cannot open journal");
    return;
  }
  int64_t unsynced = 0;
  for (auto _ : state) {
    Status s = journal.Append("update i1 set salary = 12345");
    if (s.ok() && sync_every > 0 && ++unsynced == sync_every) {
      s = journal.Sync();
      unsynced = 0;
    }
    if (!s.ok()) state.SkipWithError("append failed");
  }
  journal.Close();
  state.SetLabel(sync_every == 0
                     ? std::string("sync=none")
                     : "sync=every-" + std::to_string(sync_every));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(32)->Arg(1);

void BM_JournalReplay(benchmark::State& state) {
  // Recovery time for a journal of `n` statements.
  const int64_t n = state.range(0);
  std::string path = (std::filesystem::temp_directory_path() /
                      "tchimera_bench_replay.tql")
                         .string();
  std::remove(path.c_str());
  {
    Journal out;
    Status s = out.Open(path);
    if (s.ok()) {
      s = out.Append(
          "define class worker attributes salary: temporal(integer) end");
    }
    if (s.ok()) s = out.Append("create worker (salary: 1)");
    for (int64_t i = 0; s.ok() && i < n; ++i) {
      s = out.Append("tick");
      if (s.ok()) s = out.Append("update i1 set salary = " + std::to_string(i));
    }
    out.Close();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    Database db;
    ActiveDatabase active(&db);
    auto applied = Journal::Replay(path, &active);
    if (!applied.ok()) {
      state.SkipWithError(applied.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(applied);
  }
  state.SetItemsProcessed(state.iterations() * (2 * n + 2));
  state.SetLabel("updates=" + std::to_string(n));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalReplay)->Arg(64)->Arg(512);

void BM_TimeSliceMaterialization(benchmark::State& state) {
  // Materializing the whole database as of a past instant (the
  // whole-database snapshot coercion; see core/db/timeslice.h).
  Fixture& fx = SharedFixture(state.range(0));
  TimePoint mid = fx.db.now() / 2;
  for (auto _ : state) {
    auto slice = TimeSlice(fx.db, mid);
    if (!slice.ok()) state.SkipWithError("slice failed");
    benchmark::DoNotOptimize(slice);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_TimeSliceMaterialization)->Arg(20)->Arg(100)->Arg(400);

void BM_RoundTripFidelity(benchmark::State& state) {
  // Save -> load -> save: the cost of a full checkpoint cycle; the
  // byte-identity is also verified each iteration.
  Fixture& fx = SharedFixture(50);
  for (auto _ : state) {
    auto loaded = LoadDatabaseFromString(fx.snapshot);
    if (!loaded.ok()) state.SkipWithError("load failed");
    auto again = SaveDatabaseToString(**loaded);
    if (!again.ok() || *again != fx.snapshot) {
      state.SkipWithError("round trip not a fixed point");
    }
    benchmark::DoNotOptimize(again);
  }
}
BENCHMARK(BM_RoundTripFidelity);

}  // namespace
}  // namespace tchimera

BENCHMARK_MAIN();
