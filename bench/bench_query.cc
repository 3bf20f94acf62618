// Experiment QU (DESIGN.md): the TQL pipeline — parse, type check
// (Definition 3.6 rules + the Section 6.1 coercion) and evaluate —
// over populated databases, plus the compiled pipeline (query/lower.h +
// query/vm.h) head-to-head against the tree-walking evaluator.
//
// Besides the google-benchmark suite, a custom main emits the
// machine-readable compiled-vs-interpreted report (BENCH_query.json, a
// CI artifact): a sweep over history length (WHEN over an object with H
// salary segments) and extent size (WHERE over N objects).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "query/interpreter.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/session.h"
#include "query/type_checker.h"
#include "query/vm.h"
#include "workload/generator.h"
#include "report.h"

namespace tchimera {
namespace {

struct Fixture {
  Database db;
  Population pop;
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
    it->second.pop = PopulateDatabase(&it->second.db, config).value();
  }
  return it->second;
}

constexpr const char* kSelect =
    "select x.name from x in employee where x.salary > 50000 and "
    "x.birthyear < 1990";

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = ParseStatement(kSelect);
    if (!stmt.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_Parse);

void BM_TypeCheck(benchmark::State& state) {
  Fixture& fx = SharedFixture(50);
  Statement stmt = ParseStatement(kSelect).value();
  for (auto _ : state) {
    // Re-check in place (annotations are overwritten).
    auto types = TypeCheckSelect(&*stmt.select, fx.db);
    if (!types.ok()) state.SkipWithError("type check failed");
    benchmark::DoNotOptimize(types);
  }
}
BENCHMARK(BM_TypeCheck);

void BM_EvaluateSelect(benchmark::State& state) {
  Fixture& fx = SharedFixture(state.range(0));
  Statement stmt = ParseStatement(kSelect).value();
  (void)TypeCheckSelect(&*stmt.select, fx.db);
  for (auto _ : state) {
    auto rows = EvaluateSelect(*stmt.select, fx.db);
    if (!rows.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvaluateSelect)->Arg(20)->Arg(100)->Arg(400);

void BM_EvaluateTimeSliceSelect(benchmark::State& state) {
  // AT-clause queries evaluate against past extents and coerce temporal
  // attributes at the past instant.
  Fixture& fx = SharedFixture(state.range(0));
  Statement stmt =
      ParseStatement(
          "select x from x in employee at 10 where x.salary > 50000")
          .value();
  (void)TypeCheckSelect(&*stmt.select, fx.db);
  for (auto _ : state) {
    auto rows = EvaluateSelect(*stmt.select, fx.db);
    if (!rows.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvaluateTimeSliceSelect)->Arg(20)->Arg(100)->Arg(400);

void BM_EvaluateEqualityPredicate(benchmark::State& state) {
  // vinstant() in a WHERE clause: quadratic-ish work per pair, the
  // expensive end of the language.
  Fixture& fx = SharedFixture(20);
  std::string query =
      "select x from x in employee where vinstant(x, " +
      fx.pop.persons.front().ToString() + ")";
  Statement stmt = ParseStatement(query).value();
  (void)TypeCheckSelect(&*stmt.select, fx.db);
  for (auto _ : state) {
    auto rows = EvaluateSelect(*stmt.select, fx.db);
    if (!rows.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_EvaluateEqualityPredicate);

void BM_When(benchmark::State& state) {
  // Temporal selection: piecewise evaluation over one object's history.
  Fixture& fx = SharedFixture(state.range(0));
  std::string q = "when " + fx.pop.persons.front().ToString() +
                  ".salary > 50000";
  Statement stmt = ParseStatement(q).value();
  for (auto _ : state) {
    auto held = EvaluateWhen(*stmt.when->condition, fx.db);
    if (!held.ok()) state.SkipWithError("when failed");
    benchmark::DoNotOptimize(held);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_When)->Arg(20)->Arg(100);

void BM_ExpressionEvaluation(benchmark::State& state) {
  // A single bound expression evaluation (the per-row cost).
  Fixture& fx = SharedFixture(50);
  ExprPtr expr =
      ParseExpression("x.salary > 50000 and x.birthyear < 1990").value();
  TypeEnv tenv;
  tenv.emplace("x", "employee");
  (void)TypeCheckExpr(expr.get(), fx.db, tenv);
  ValueEnv venv;
  venv.emplace("x", fx.pop.persons.front());
  for (auto _ : state) {
    auto v = EvaluateExpr(*expr, fx.db, venv, fx.db.now());
    if (!v.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExpressionEvaluation);

void BM_CompiledSelect(benchmark::State& state) {
  // The same query as BM_EvaluateSelect, lowered once and executed on
  // the batch VM each iteration (the plan-cache steady state).
  Fixture& fx = SharedFixture(state.range(0));
  Statement stmt = ParseStatement(kSelect).value();
  LowerOutcome outcome = LowerStatement(&stmt, fx.db).value();
  const ExecProgram& prog = outcome.plan->program;
  for (auto _ : state) {
    auto rows = RunSelect(prog, fx.db);
    if (!rows.ok()) state.SkipWithError("vm failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompiledSelect)->Arg(20)->Arg(100)->Arg(400);

void BM_CompiledWhen(benchmark::State& state) {
  Fixture& fx = SharedFixture(state.range(0));
  std::string q = "when " + fx.pop.persons.front().ToString() +
                  ".salary > 50000";
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, fx.db).value();
  const ExecProgram& prog = outcome.plan->program;
  for (auto _ : state) {
    auto held = RunWhen(prog, fx.db);
    if (!held.ok()) state.SkipWithError("vm failed");
    benchmark::DoNotOptimize(held);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompiledWhen)->Arg(20)->Arg(100);

// --- the compiled-vs-interpreted report (BENCH_query.json) -------------------

// Mean microseconds per call of `fn` over one timed span long enough to
// dominate timer noise.
template <typename Fn>
double SpanUs(Fn&& fn) {
  constexpr auto kMinSpan = std::chrono::milliseconds(60);
  int iters = 0;
  auto begin = std::chrono::steady_clock::now();
  auto end = begin;
  do {
    fn();
    ++iters;
    end = std::chrono::steady_clock::now();
  } while (end - begin < kMinSpan);
  return std::chrono::duration<double, std::micro>(end - begin).count() /
         iters;
}

struct SweepPoint {
  long long x = 0;  // history length or extent size
  double interp_us = 0.0;
  double vm_us = 0.0;
  double speedup() const { return vm_us > 0.0 ? interp_us / vm_us : 0.0; }
};

// Measures both sides of a sweep point with INTERLEAVED repeats (best
// span of each): a transient load spike then degrades the same repeats
// of both executors instead of landing entirely on whichever side
// happened to be measured during it.
template <typename InterpFn, typename VmFn>
void MeasurePair(InterpFn&& interp, VmFn&& vm, SweepPoint* p) {
  constexpr int kRepeats = 5;
  for (int r = 0; r < kRepeats; ++r) {
    double i_us = SpanUs(interp);
    double v_us = SpanUs(vm);
    if (r == 0 || i_us < p->interp_us) p->interp_us = i_us;
    if (r == 0 || v_us < p->vm_us) p->vm_us = v_us;
  }
}

// One object whose salary flips across a threshold every step: H
// segments, maximally fragmented WHEN answer (worst case for both
// executors).
Database MakeHistoryDb(int history) {
  Database db;
  Interpreter interp(&db);
  (void)interp.Execute(
      "define class employee attributes salary: temporal(integer), "
      "name: string end");
  (void)interp.Execute("create employee (salary: 0, name: 'h')");
  for (int k = 1; k < history; ++k) {
    (void)interp.Execute("tick 2");
    (void)interp.Execute("update i1 set salary = " +
                         std::to_string(k % 2 == 0 ? 0 : 100));
  }
  return db;
}

// N objects; every `stride`-th one gets a new salary at each of
// `history - 1` steps, so stride 1 gives every object `history` salary
// segments.
Database MakeExtentDb(int objects, int history, int stride = 7) {
  Database db;
  Interpreter interp(&db);
  (void)interp.Execute(
      "define class employee attributes salary: temporal(integer), "
      "name: string end");
  for (int i = 0; i < objects; ++i) {
    (void)interp.Execute("create employee (salary: " +
                         std::to_string(i % 100) + ", name: 'e" +
                         std::to_string(i) + "')");
  }
  for (int k = 1; k < history; ++k) {
    (void)interp.Execute("tick 2");
    for (int i = 0; i < objects; i += stride) {
      (void)interp.Execute("update i" + std::to_string(i + 1) +
                           " set salary = " +
                           std::to_string((i + k) % 100));
    }
  }
  return db;
}

// A compiled scan at a past instant over an extent far larger than L2:
// 4000 employees with 16 salary segments each. Every row projects a
// temporal attribute at the instant, so this measures the VM's per-row
// object, slot and segment lookups rather than dispatch.
constexpr int kPastScanObjects = 4000;
constexpr int kPastScanHistory = 16;
constexpr const char* kPastScan =
    "select x.name, x.salary from x in employee at 15 where x.salary > 40";

void BM_CompiledPastScan(benchmark::State& state) {
  static Database& db = *new Database(
      MakeExtentDb(kPastScanObjects, kPastScanHistory, 1));
  Statement stmt = ParseStatement(kPastScan).value();
  LowerOutcome outcome = LowerStatement(&stmt, db).value();
  const ExecProgram& prog = outcome.plan->program;
  for (auto _ : state) {
    auto rows = RunSelect(prog, db);
    if (!rows.ok()) state.SkipWithError("vm failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("objects=" + std::to_string(kPastScanObjects) +
                 " segments=" + std::to_string(kPastScanHistory));
}
BENCHMARK(BM_CompiledPastScan)->Unit(benchmark::kMicrosecond);

// Each sweep point compares the two paths as a Session executes them
// per statement:
//   interpreted — parse, type check, tree-walk (the tree-walker path
//     repeats all three on every execution);
//   compiled — normalize the cache key, then run the cached program
//     (parse/type-check/lowering happened once at plan-cache miss; the
//     per-execution residue is the O(length) key normalization — the
//     map lookup itself is noise).
// Result formatting is excluded from both sides: it is identical work.
SweepPoint MeasureWhenPoint(int history) {
  Database db = MakeHistoryDb(history);
  // A compound condition with several temporal reads: the tree-walker
  // pays a recursive descent plus a binary search per attribute access
  // per boundary; the VM merge-walks the history once per batch (CSE
  // folds the repeated reads into one load).
  const std::string q =
      "when i1.salary > 50 and i1.salary * 2 < 300 or "
      "i1.salary + 25 = 25";
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, db).value();
  const ExecProgram& prog = outcome.plan->program;
  SweepPoint p;
  p.x = history;
  MeasurePair(
      [&] {
        Statement walk_stmt = ParseStatement(q).value();
        auto type =
            TypeCheckExpr(walk_stmt.when->condition.get(), db, TypeEnv{});
        benchmark::DoNotOptimize(type);
        auto held = EvaluateWhen(*walk_stmt.when->condition, db);
        benchmark::DoNotOptimize(held);
      },
      [&] {
        std::string key = NormalizePlanKey(q);
        benchmark::DoNotOptimize(key);
        auto held = RunWhen(prog, db);
        benchmark::DoNotOptimize(held);
      },
      &p);
  return p;
}

SweepPoint MeasureSelectPoint(const std::string& q, Database db,
                              int objects) {
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, db).value();
  const ExecProgram& prog = outcome.plan->program;
  SweepPoint p;
  p.x = objects;
  MeasurePair(
      [&] {
        Statement walk_stmt = ParseStatement(q).value();
        auto types = TypeCheckSelect(&*walk_stmt.select, db);
        benchmark::DoNotOptimize(types);
        auto rows = EvaluateSelect(*walk_stmt.select, db);
        benchmark::DoNotOptimize(rows);
      },
      [&] {
        std::string key = NormalizePlanKey(q);
        benchmark::DoNotOptimize(key);
        auto rows = RunSelect(prog, db);
        benchmark::DoNotOptimize(rows);
      },
      &p);
  return p;
}

// --- the index-vs-scan report (temporal secondary indexes) -------------------

// One sweep point comparing the VM's two access paths over identical
// data: the full extent scan (PR 8 behavior, still what the planner
// picks when no index helps) against an index probe.
struct IndexPoint {
  long long x = 0;  // extent size or history length
  double scan_us = 0.0;
  double index_us = 0.0;
  double speedup() const {
    return index_us > 0.0 ? scan_us / index_us : 0.0;
  }
};

// Selective WHERE over N objects: the scan projects salary for every
// extent row; the probe touches ~N/100 postings plus the survivors.
// Both programs run over the SAME database (an index never changes what
// a scan program does), so the comparison is access path only.
IndexPoint MeasureIndexSelectPoint(int objects, int history) {
  Database db = MakeExtentDb(objects, history);
  const std::string q =
      "select x.name from x in employee where x.salary = 5";
  Statement scan_stmt = ParseStatement(q).value();
  LowerOutcome scan_outcome = LowerStatement(&scan_stmt, db).value();
  const ExecProgram& scan_prog = scan_outcome.plan->program;

  Status created = db.CreateIndex(
      {"bench_salary", IndexKind::kValue, "employee", "salary"});
  if (!created.ok()) {
    std::fprintf(stderr, "index creation failed: %s\n",
                 created.ToString().c_str());
  }
  Statement idx_stmt = ParseStatement(q).value();
  LowerOutcome idx_outcome = LowerStatement(&idx_stmt, db).value();
  const ExecProgram& idx_prog = idx_outcome.plan->program;
  if (!idx_prog.access.has_value()) {
    std::fprintf(stderr,
                 "planner skipped the index at %d objects: %s\n", objects,
                 idx_prog.access_note.c_str());
  }

  IndexPoint p;
  p.x = objects;
  SweepPoint raw;
  MeasurePair(
      [&] {
        auto rows = RunSelect(scan_prog, db);
        benchmark::DoNotOptimize(rows);
      },
      [&] {
        auto rows = RunSelect(idx_prog, db);
        benchmark::DoNotOptimize(rows);
      },
      &raw);
  p.scan_us = raw.interp_us;
  p.index_us = raw.vm_us;
  return p;
}

// Selective `during` window over one object with H salary segments: the
// boundary collection either walks all H segments (scan) or slices the
// index's pre-extracted timeline with binary search. Two identical
// databases (MakeHistoryDb is deterministic), one indexed — the WHEN
// program itself is access-path agnostic.
IndexPoint MeasureWhenDuringPoint(int history) {
  Database scan_db = MakeHistoryDb(history);
  Database idx_db = MakeHistoryDb(history);
  Status created = idx_db.CreateIndex(
      {"bench_salary", IndexKind::kValue, "employee", "salary"});
  if (!created.ok()) {
    std::fprintf(stderr, "index creation failed: %s\n",
                 created.ToString().c_str());
  }
  const TimePoint end = scan_db.now();
  const std::string q = "when i1.salary > 50 during [" +
                        std::to_string(end > 8 ? end - 8 : 0) + "," +
                        std::to_string(end) + "]";
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, scan_db).value();
  const ExecProgram& prog = outcome.plan->program;

  IndexPoint p;
  p.x = history;
  SweepPoint raw;
  MeasurePair(
      [&] {
        auto held = RunWhen(prog, scan_db);
        benchmark::DoNotOptimize(held);
      },
      [&] {
        auto held = RunWhen(prog, idx_db);
        benchmark::DoNotOptimize(held);
      },
      &raw);
  p.scan_us = raw.interp_us;
  p.index_us = raw.vm_us;
  return p;
}

void AppendIndexSweep(const std::vector<IndexPoint>& points,
                      const char* xname, std::string* json) {
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\": %lld, \"scan_us\": %.2f, "
                  "\"index_us\": %.2f, \"speedup\": %.2f}%s\n",
                  xname, points[i].x, points[i].scan_us, points[i].index_us,
                  points[i].speedup(), i + 1 < points.size() ? "," : "");
    *json += buf;
  }
}

void AppendSweep(const std::vector<SweepPoint>& points, const char* xname,
                 std::string* json) {
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\": %lld, \"interp_us\": %.2f, "
                  "\"vm_us\": %.2f, \"speedup\": %.2f}%s\n",
                  xname, points[i].x, points[i].interp_us, points[i].vm_us,
                  points[i].speedup(), i + 1 < points.size() ? "," : "");
    *json += buf;
  }
}

int WriteQueryReport(const std::string& path) {
  std::vector<SweepPoint> history_sweep;
  for (int h : {64, 256, 1024, 4096}) {
    history_sweep.push_back(MeasureWhenPoint(h));
  }
  std::vector<SweepPoint> extent_sweep;
  for (int n : {100, 1000, 4000}) {
    extent_sweep.push_back(MeasureSelectPoint(
        "select x.name from x in employee where x.salary > 40 and "
        "x.salary < 90",
        MakeExtentDb(n, 16), n));
  }
  std::vector<SweepPoint> past_scan_sweep;
  for (int n : {1000, kPastScanObjects}) {
    past_scan_sweep.push_back(MeasureSelectPoint(
        kPastScan, MakeExtentDb(n, kPastScanHistory, 1), n));
  }
  std::vector<IndexPoint> index_select_sweep;
  for (int n : {100, 1000, 4000}) {
    index_select_sweep.push_back(MeasureIndexSelectPoint(n, 16));
  }
  std::vector<IndexPoint> during_sweep;
  for (int h : {64, 256, 1024, 4096, 16384}) {
    during_sweep.push_back(MeasureWhenDuringPoint(h));
  }
  // The acceptance gate: index-vs-scan speedup on the selective WHERE at
  // the largest extent and the selective `during` at the longest history.
  const double index_speedup_at_max =
      std::min(index_select_sweep.back().speedup(),
               during_sweep.back().speedup());

  double min_history_speedup = 0.0;
  for (const SweepPoint& p : history_sweep) {
    if (min_history_speedup == 0.0 || p.speedup() < min_history_speedup) {
      min_history_speedup = p.speedup();
    }
  }

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"query\",\n";
  json += "  \"pipeline\": \"lower+vm vs tree-walker\",\n";
  json += "  \"history_sweep\": [\n";
  AppendSweep(history_sweep, "history", &json);
  json += "  ],\n";
  json += "  \"extent_sweep\": [\n";
  AppendSweep(extent_sweep, "objects", &json);
  json += "  ],\n";
  json += "  \"past_scan_sweep\": [\n";
  AppendSweep(past_scan_sweep, "objects", &json);
  json += "  ],\n";
  json += "  \"index_select_sweep\": [\n";
  AppendIndexSweep(index_select_sweep, "objects", &json);
  json += "  ],\n";
  json += "  \"during_sweep\": [\n";
  AppendIndexSweep(during_sweep, "history", &json);
  json += "  ],\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  \"history_sweep_min_speedup\": %.2f,\n"
                "  \"index_speedup_at_max\": %.2f\n",
                min_history_speedup, index_speedup_at_max);
  json += buf;
  json += "}\n";

  std::snprintf(buf, sizeof(buf),
                " (min history-sweep speedup: %.2fx, "
                "index speedup at max size: %.2fx)",
                min_history_speedup, index_speedup_at_max);
  if (WriteReport(path, json, buf) != 0) return 1;
  // The gates (docs/QUERY_EXEC.md): an index must still beat the scan
  // by a wide margin, and the VM must still beat the tree-walker on
  // every history length.
  constexpr double kMinIndexSpeedup = 5.0;
  constexpr double kMinHistorySpeedup = 1.5;
  int exit_code = 0;
  if (index_speedup_at_max < kMinIndexSpeedup) {
    std::fprintf(stderr, "index_speedup_at_max %.2f is below the %.1f gate\n",
                 index_speedup_at_max, kMinIndexSpeedup);
    exit_code = 1;
  }
  if (min_history_speedup < kMinHistorySpeedup) {
    std::fprintf(stderr,
                 "history_sweep_min_speedup %.2f is below the %.1f gate\n",
                 min_history_speedup, kMinHistorySpeedup);
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace tchimera

// Custom main: the google-benchmark suite as usual, plus the
// machine-readable compiled-vs-interpreted report (flags: bench/report.h).
int main(int argc, char** argv) {
  return tchimera::RunBenchMain(argc, argv, "BENCH_query.json",
                                tchimera::WriteQueryReport);
}
