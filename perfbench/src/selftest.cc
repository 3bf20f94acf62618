// Self-tests of the benchmark's own machinery, run before every
// measurement: the stream generator is
// deterministic, the percentile helper matches hand-computed values, and
// the answer checkers catch a planted wrong reply and a planted lost
// write.
#include <cmath>

#include "bench.h"
#include "query/session.h"
#include "storage/serializer.h"
#include "workload/project_schema.h"

namespace perfbench {

namespace {

// A small stand-in population: the generators only read oids, instants
// and salary values from it.
PopulationInfo FakePopulation() {
  PopulationInfo pop;
  for (uint64_t id = 1; id <= 200; ++id) {
    pop.persons.push_back(Oid{id});
    if (id % 5 != 0) pop.employees.push_back(Oid{id});
    pop.salaries.push_back(20000 + static_cast<int64_t>(id) * 37);
  }
  pop.projects = {Oid{201}, Oid{202}};
  pop.now = 40;
  pop.objects = 202;
  return pop;
}

std::string StreamBytes(Workload w, uint64_t seed, const PopulationInfo& pop) {
  std::string bytes;
  const int conns = 4;
  for (int c = 0; c < conns; ++c) {
    OpStream stream(w, seed, c, conns, pop);
    for (int i = 0; i < 3000; ++i) {
      Op op = stream.Next();
      bytes += op.category + "|" + op.text + "\n";
      // Creates are acknowledged with a fixed oid so `{ref}` renders.
      if (op.effect == Effect::kCreate) stream.OnAck(op, Oid{1000u + i}.ToString());
    }
  }
  return bytes;
}

void Expect(bool ok, const std::string& what, std::vector<std::string>* f) {
  if (!ok) f->push_back(what);
}

void TestStreams(std::vector<std::string>* f) {
  const PopulationInfo pop = FakePopulation();
  for (Workload w : {Workload::kIngest, Workload::kHistoryRead,
                     Workload::kMixed}) {
    const std::string a = StreamBytes(w, 7, pop);
    const std::string b = StreamBytes(w, 7, pop);
    const std::string c = StreamBytes(w, 8, pop);
    Expect(a == b,
           std::string("same seed, different stream: ") + WorkloadName(w), f);
    Expect(a != c,
           std::string("different seeds, same stream: ") + WorkloadName(w), f);
  }
  // The population itself is part of the input: same seed, same bytes.
  tchimera::Database x, y;
  Result<PopulationInfo> px = BuildPopulation(Workload::kIngest, 3, &x);
  Result<PopulationInfo> py = BuildPopulation(Workload::kIngest, 3, &y);
  Result<std::string> sx = tchimera::SaveDatabaseToString(x);
  Result<std::string> sy = tchimera::SaveDatabaseToString(y);
  Expect(px.ok() && py.ok() && sx.ok() && sy.ok() && *sx == *sy,
         "same seed, different population snapshot", f);
}

void TestPercentile(std::vector<std::string>* f) {
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  const std::vector<double> four = {4, 1, 3, 2};  // unsorted on purpose
  Expect(near(Percentile(four, 50), 2.5), "p50 of 1..4 is 2.5", f);
  Expect(near(Percentile(four, 25), 1.75), "p25 of 1..4 is 1.75", f);
  Expect(near(Percentile(four, 99), 3.97), "p99 of 1..4 is 3.97", f);
  Expect(near(Percentile(four, 0), 1) && near(Percentile(four, 100), 4),
         "p0/p100 are min/max", f);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(near(Percentile(hundred, 99), 99.01), "p99 of 1..100 is 99.01", f);
  Expect(near(Percentile({5}, 99), 5), "one sample is every percentile", f);
  Expect(Percentile({}, 50) == 0, "empty sample gives 0", f);
}

void TestCheckers(std::vector<std::string>* f) {
  auto db = std::make_unique<tchimera::Database>();
  if (!tchimera::InstallProjectSchema(db.get()).ok()) {
    f->push_back("cannot install the project schema");
    return;
  }
  tchimera::Engine engine(std::move(db));
  tchimera::Session session = engine.OpenSession();
  ExecFn exec = [&](std::string_view s) { return session.Execute(s); };
  Result<std::string> made = exec(
      "create employee (name: 'ann', birthyear: 1970, salary: 100, "
      "office: 'a1')");
  Result<std::string> ticked = exec("tick 5");
  Result<std::string> updated = exec("update i1 set salary = 250");
  Result<std::string> corrected =
      exec("update i1 set salary = 77 during [1,2]");
  if (!made.ok() || *made != "i1" || !ticked.ok() || !updated.ok() ||
      !corrected.ok()) {
    f->push_back("cannot set up the checker fixture");
    return;
  }

  // Reads: the right reply passes, a planted wrong one is flagged.
  const std::string query = "select x, x.salary from x in employee";
  Result<std::string> truth = exec(query);
  ConnLog good, bad;
  good.reads[query] = ReadEntry{HashText(truth.ok() ? *truth : ""), 3, 0};
  bad.reads[query] = ReadEntry{HashText("i1 | 999"), 2, 0};
  Expect(CheckReads({&good}, {exec}).failed == 0, "a right reply passes", f);
  Expect(CheckReads({&bad}, {exec}).failed == 2,
         "a planted wrong reply is flagged for every op that got it", f);

  // Writes: acknowledged state passes; a lost create, a lost update and a
  // lost correction are flagged.
  auto record = [](Effect e, uint64_t id, int64_t value, std::string name) {
    WriteRecord r;
    r.op.kind = OpKind::kWrite;
    r.op.effect = e;
    r.op.target = Oid{id};
    r.op.value = value;
    r.op.name = std::move(name);
    r.ok = true;
    r.send_ns = 1;
    r.ack_ns = 2;
    return r;
  };
  ConnLog kept;
  kept.writes.push_back(record(Effect::kCreate, 1, 100, "ann"));
  kept.writes.push_back(record(Effect::kSetSalary, 1, 250, ""));
  kept.writes.back().send_ns = 3;
  kept.writes.back().ack_ns = 4;
  kept.writes.push_back(record(Effect::kCorrect, 1, 77, ""));
  kept.writes.back().op.a = 1;
  kept.writes.back().op.b = 2;
  Expect(CheckWrites(Workload::kIngest, {&kept}, exec).failed == 0,
         "acknowledged writes that survived pass", f);
  ConnLog lost = kept;
  lost.writes.push_back(record(Effect::kCreate, 77, 5, "ghost"));
  Expect(CheckWrites(Workload::kIngest, {&lost}, exec).failed == 1,
         "a planted lost create is flagged", f);
  ConnLog uncorrected = kept;
  uncorrected.writes.back().op.value = 78;
  Expect(CheckWrites(Workload::kIngest, {&uncorrected}, exec).failed == 1,
         "a planted lost correction is flagged", f);
  ConnLog stale = kept;
  stale.writes.push_back(record(Effect::kSetSalary, 1, 300, ""));
  stale.writes.back().send_ns = 5;
  stale.writes.back().ack_ns = 6;
  Expect(CheckWrites(Workload::kMixed, {&stale}, exec).failed == 1,
         "a planted lost update is flagged", f);
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  std::vector<std::string> failures;
  TestStreams(&failures);
  TestPercentile(&failures);
  TestCheckers(&failures);
  return failures;
}

}  // namespace perfbench
