// Experiment EX (DESIGN.md): the Section 7 future-work features —
// temporal integrity constraints, trigger cascades, and deep value
// equality — measured over growing histories, rule sets and reference
// chains.
#include <benchmark/benchmark.h>

#include "constraints/constraint.h"
#include "core/db/equality.h"
#include "core/types/type_registry.h"
#include "triggers/trigger.h"
#include "workload/generator.h"
#include "workload/project_schema.h"

namespace tchimera {
namespace {

void BM_ConstraintAlways(benchmark::State& state) {
  // `always` over one object's salary history of growing length.
  Database db;
  (void)InstallProjectSchema(&db);
  Oid e = db.CreateObject("employee",
                          {{"salary", Value::Integer(1)}})
              .value();
  Rng rng(3);
  for (int64_t i = 0; i < state.range(0); ++i) {
    db.Tick();
    (void)db.UpdateAttribute(e, "salary",
                             Value::Integer(rng.Uniform(1, 1000)));
  }
  TemporalConstraint c =
      TemporalConstraint::Parse(
          "constraint pos on employee always x.salary > 0")
          .value();
  for (auto _ : state) {
    Status s = c.Check(db);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetLabel("history=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ConstraintAlways)->Arg(8)->Arg(64)->Arg(512);

void BM_ConstraintNondecreasing(benchmark::State& state) {
  // The segment-walk modes are cheaper than expression quantification.
  Database db;
  (void)InstallProjectSchema(&db);
  Oid e = db.CreateObject("employee",
                          {{"salary", Value::Integer(1)}})
              .value();
  for (int64_t i = 0; i < state.range(0); ++i) {
    db.Tick();
    (void)db.UpdateAttribute(e, "salary", Value::Integer(i + 2));
  }
  TemporalConstraint c =
      TemporalConstraint::Parse(
          "constraint pay on employee nondecreasing salary")
          .value();
  for (auto _ : state) {
    Status s = c.Check(db);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetLabel("history=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ConstraintNondecreasing)->Arg(8)->Arg(64)->Arg(512);

void BM_ConstraintRegistryOverPopulation(benchmark::State& state) {
  Database db;
  PopulationConfig config;
  config.persons = static_cast<size_t>(state.range(0));
  config.timesteps = 32;
  config.updates_per_step = 10;
  (void)PopulateDatabase(&db, config);
  ConstraintRegistry registry;
  (void)registry.Define(
      "constraint pos on employee always x.salary > 0");
  (void)registry.Define(
      "constraint named on person sometime defined(x.name)");
  for (auto _ : state) {
    Status s = registry.CheckAll(db);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ConstraintRegistryOverPopulation)->Arg(20)->Arg(100);

void BM_TriggerOverheadPerUpdate(benchmark::State& state) {
  // Marginal cost of N matching triggers per update (each action is a
  // no-op tick-free statement: a SELECT would fire nothing, so use an
  // update of an unrelated attribute exactly once per chain step).
  const int64_t rules = state.range(0);
  Database db;
  ActiveDatabase active(&db);
  (void)InstallProjectSchema(&db);
  Oid e = db.CreateObject("employee").value();
  // N independent triggers all matching updates of salary; their actions
  // touch `office`, which no trigger matches — cascade depth 1.
  for (int64_t i = 0; i < rules; ++i) {
    (void)active.Define(
        "trigger t" + std::to_string(i) +
        " on update of employee.salary do update $self set office = 'x'");
  }
  std::string stmt = "update " + e.ToString() + " set salary = 7";
  for (auto _ : state) {
    auto r = active.Execute(stmt);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.counters["fired"] = static_cast<double>(active.fired_count());
  state.SetLabel("rules=" + std::to_string(rules));
}
BENCHMARK(BM_TriggerOverheadPerUpdate)->Arg(0)->Arg(1)->Arg(8)->Arg(32);

void BM_TriggerCascadeDepth(benchmark::State& state) {
  // A linear chain of depth D: update a0 -> a1 -> ... -> aD.
  const int64_t depth = state.range(0);
  Database db;
  ActiveDatabase active(&db, /*max_cascade_depth=*/depth + 4);
  ClassSpec spec;
  spec.name = "chain";
  for (int64_t i = 0; i <= depth; ++i) {
    spec.attributes.push_back({"a" + std::to_string(i), types::Integer()});
  }
  (void)db.DefineClass(spec);
  Oid obj = db.CreateObject("chain").value();
  for (int64_t i = 0; i < depth; ++i) {
    (void)active.Define(
        "trigger s" + std::to_string(i) + " on update of chain.a" +
        std::to_string(i) + " do update $self set a" +
        std::to_string(i + 1) + " = 1");
  }
  std::string stmt = "update " + obj.ToString() + " set a0 = 1";
  for (auto _ : state) {
    auto r = active.Execute(stmt);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.SetLabel("depth=" + std::to_string(depth));
}
BENCHMARK(BM_TriggerCascadeDepth)->Arg(1)->Arg(4)->Arg(16);

void BM_DeepEqualityChain(benchmark::State& state) {
  // Two parallel reference chains of growing length; deep equality walks
  // both to the end.
  const int64_t length = state.range(0);
  Database db;
  ClassSpec node;
  node.name = "node";
  node.attributes = {{"label", types::String()},
                     {"next", types::Object("node")}};
  (void)db.DefineClass(node);
  auto build_chain = [&db](int64_t n) {
    Oid prev = Oid::Invalid();
    Oid head = Oid::Invalid();
    for (int64_t i = 0; i < n; ++i) {
      Oid cur = db.CreateObject(
                      "node", {{"label", Value::String("x")}})
                    .value();
      if (prev.valid()) {
        (void)db.UpdateAttribute(prev, "next", Value::OfOid(cur));
      } else {
        head = cur;
      }
      prev = cur;
    }
    return head;
  };
  Oid a = build_chain(length);
  Oid b = build_chain(length);
  const Object* oa = db.GetObject(a);
  const Object* ob = db.GetObject(b);
  for (auto _ : state) {
    bool eq = DeepValueEqual(db, *oa, *ob);
    if (!eq) state.SkipWithError("chains should be deep-equal");
    benchmark::DoNotOptimize(eq);
  }
  state.SetLabel("chain=" + std::to_string(length));
}
BENCHMARK(BM_DeepEqualityChain)->Arg(2)->Arg(16)->Arg(128);

void BM_DeepEqualityCycle(benchmark::State& state) {
  // Bisimulation on reference cycles: the in-progress set bounds work.
  const int64_t length = state.range(0);
  Database db;
  ClassSpec node;
  node.name = "node";
  node.attributes = {{"label", types::String()},
                     {"next", types::Object("node")}};
  (void)db.DefineClass(node);
  auto build_cycle = [&db](int64_t n) {
    std::vector<Oid> ring;
    for (int64_t i = 0; i < n; ++i) {
      ring.push_back(db.CreateObject(
                           "node", {{"label", Value::String("x")}})
                         .value());
    }
    for (int64_t i = 0; i < n; ++i) {
      (void)db.UpdateAttribute(ring[i], "next",
                               Value::OfOid(ring[(i + 1) % n]));
    }
    return ring.front();
  };
  Oid a = build_cycle(length);
  Oid b = build_cycle(length);
  const Object* oa = db.GetObject(a);
  const Object* ob = db.GetObject(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeepValueEqual(db, *oa, *ob));
  }
  state.SetLabel("cycle=" + std::to_string(length));
}
BENCHMARK(BM_DeepEqualityCycle)->Arg(2)->Arg(16)->Arg(128);

}  // namespace
}  // namespace tchimera

BENCHMARK_MAIN();
