// Populations and statement streams of the three workloads. Every
// statement is generated TQL over the project-management schema; every
// random choice comes from a Prng seeded by (seed, workload, connection),
// so a seed always yields the same stream.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "bench.h"
#include "workload/generator.h"

namespace perfbench {

using tchimera::Database;
using tchimera::PopulationConfig;

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Prng::Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

int64_t Prng::Range(int64_t lo, int64_t hi) {
  if (hi <= lo) return lo;
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(std::max<size_t>(n, 1));
  double total = 0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Prng& rng) const {
  const double u = rng.Real();
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

Result<Workload> ParseWorkload(std::string_view name) {
  if (name == "ingest") return Workload::kIngest;
  if (name == "history_read") return Workload::kHistoryRead;
  if (name == "mixed") return Workload::kMixed;
  return Status::InvalidArgument("unknown workload " + std::string(name));
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kIngest: return "ingest";
    case Workload::kHistoryRead: return "history_read";
    case Workload::kMixed: return "mixed";
  }
  return "?";
}

int ConnectionCount() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, 4));
}

namespace {

// Population shapes. The person population carries the salary histories
// (projects = 0 turns every PopulateDatabase update into a salary
// change); a second, small PopulateDatabase call adds the project class
// the multi-binder reads join over.
struct Shape {
  size_t persons, timesteps, updates_per_step;
  double migration_rate;
  bool projects;
  bool value_index, lifespan_index;
};

Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kIngest: return {1000, 8, 250, 0.5, false, false, false};
    case Workload::kHistoryRead: return {3000, 48, 1250, 1.0, true, true, true};
    case Workload::kMixed: return {1000, 24, 250, 0.5, true, true, false};
  }
  return {};
}

uint64_t StreamSeed(uint64_t seed, Workload w, int conn) {
  Prng mix(seed * 0x100000001b3ull + static_cast<uint64_t>(w) * 1315423911ull +
           static_cast<uint64_t>(conn) * 2654435761ull);
  return mix.Next();
}

}  // namespace

Result<PopulationInfo> BuildPopulation(Workload w, uint64_t seed,
                                       Database* db) {
  const Shape shape = ShapeOf(w);
  PopulationInfo info;
  PopulationConfig people;
  people.seed = seed;
  people.persons = shape.persons;
  people.projects = 0;
  people.timesteps = shape.timesteps;
  people.updates_per_step = shape.updates_per_step;
  people.migration_rate = shape.migration_rate;
  TCH_ASSIGN_OR_RETURN(tchimera::Population first,
                       tchimera::PopulateDatabase(db, people));
  info.persons = first.persons;
  info.migrations = first.migrations_applied;
  if (shape.projects) {
    PopulationConfig projects;
    projects.seed = seed + 1;
    projects.persons = 48;
    projects.projects = 12;
    projects.tasks_per_project = 3;
    projects.timesteps = 8;
    projects.updates_per_step = 8;
    projects.migration_rate = 0.25;
    TCH_ASSIGN_OR_RETURN(tchimera::Population second,
                         tchimera::PopulateDatabase(db, projects));
    info.persons.insert(info.persons.end(), second.persons.begin(),
                        second.persons.end());
    info.projects = second.projects;
    info.migrations += second.migrations_applied;
  }
  if (shape.value_index) {
    TCH_RETURN_IF_ERROR(db->CreateIndex(
        {"emp_salary", tchimera::IndexKind::kValue, "employee", "salary"}));
  }
  if (shape.lifespan_index) {
    TCH_RETURN_IF_ERROR(db->CreateIndex(
        {"emp_life", tchimera::IndexKind::kLifespan, "employee", ""}));
  }
  info.now = db->now();
  info.objects = db->object_count();
  std::set<int64_t> salaries;
  for (Oid oid : info.persons) {
    const tchimera::Object* obj = db->GetObject(oid);
    if (obj == nullptr) continue;
    if (obj->CurrentClass() == std::optional<std::string>("employee")) {
      info.employees.push_back(oid);
    }
    const tchimera::Value* salary = obj->Attribute("salary");
    if (salary == nullptr || salary->kind() != tchimera::ValueKind::kTemporal) {
      continue;
    }
    for (const auto& seg : salary->AsTemporal().segments()) {
      ++info.history_segments;
      if (seg.value.kind() == tchimera::ValueKind::kInteger) {
        salaries.insert(seg.value.AsInteger());
      }
    }
  }
  info.salaries.assign(salaries.begin(), salaries.end());
  return info;
}

// --- streams -----------------------------------------------------------------

struct OpStream::Impl {
  Workload w;
  int conn, connections;
  const PopulationInfo& pop;
  Prng rng;
  uint64_t seq = 0;

  // Hot ranks map onto a seeded shuffle of the persons (shared by every
  // connection of one seed), so "hot" is not "created first".
  std::vector<Oid> by_heat;
  Zipf person_zipf, instant_zipf, salary_zipf, threshold_zipf, year_zipf;
  std::vector<int64_t> salary_pool;  // shuffled salary values

  // mixed: the shared read texts and this connection's migration pool.
  struct ReadGroup {
    std::string category;
    double weight = 0;
    std::vector<std::string> texts;
  };
  std::vector<ReadGroup> read_groups;  // weights sum to 1
  Zipf text_zipf{8, 0.8};
  std::vector<Oid> migration_pool;
  std::optional<Op> pending;  // the back-migration owed after a promotion

  // ingest: this connection's share of the initial persons and the
  // objects it has created (oid text per own index; empty until acked).
  std::vector<Oid> own_initial;
  Zipf own_zipf{1, 1.0};
  std::vector<std::string> created;
  int creates_sent = 0;

  Impl(Workload w_, uint64_t seed, int conn_, int connections_,
       const PopulationInfo& pop_)
      : w(w_),
        conn(conn_),
        connections(connections_),
        pop(pop_),
        rng(StreamSeed(seed, w_, conn_)),
        person_zipf(pop_.persons.size(), 0.9),
        instant_zipf(static_cast<size_t>(std::max<TimePoint>(pop_.now - 1, 1)),
                     0.6),
        salary_zipf(std::max<size_t>(pop_.salaries.size(), 1), 0.9),
        threshold_zipf(100, 0.7),
        year_zipf(51, 0.5) {
    Prng shared(StreamSeed(seed, w_, -1));
    by_heat = pop.persons;
    salary_pool = pop.salaries;
    if (salary_pool.empty()) salary_pool.push_back(50000);
    Shuffle(&by_heat, &shared);
    Shuffle(&salary_pool, &shared);
    if (w == Workload::kMixed) BuildMixed(&shared);
    if (w == Workload::kIngest) {
      for (size_t i = conn; i < pop.persons.size(); i += connections) {
        own_initial.push_back(pop.persons[i]);
      }
      own_zipf = Zipf(std::max<size_t>(own_initial.size(), 1), 0.9);
    }
  }

  template <typename T>
  static void Shuffle(std::vector<T>* v, Prng* rng) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng->Next() % i]);
    }
  }

  Oid HotPerson() { return by_heat[person_zipf.Sample(rng)]; }
  // An instant strictly before the snapshot's clock, recent ones hotter.
  TimePoint PastInstant() {
    return std::max<TimePoint>(pop.now - 1 - instant_zipf.Sample(rng), 0);
  }
  int64_t Threshold() {
    return 20000 + 1000 * static_cast<int64_t>(threshold_zipf.Sample(rng));
  }
  int64_t Year() { return 1950 + static_cast<int64_t>(year_zipf.Sample(rng)); }
  int64_t Salary() { return salary_pool[salary_zipf.Sample(rng)]; }
  // A value no other write of the run uses.
  int64_t UniqueValue() {
    return 1000000 + static_cast<int64_t>(conn) * 100000000 +
           static_cast<int64_t>(++seq);
  }

  static Op Read(std::string category, std::string text) {
    Op op;
    op.kind = OpKind::kRead;
    op.category = std::move(category);
    op.text = std::move(text);
    return op;
  }

  std::string WhenText(Oid p, TimePoint lo, TimePoint hi) {
    TimePoint a = rng.Range(0, std::max<TimePoint>(lo, 0));
    TimePoint b = std::clamp<TimePoint>(a + rng.Range(2, 16), a, hi);
    return "when " + p.ToString() + ".salary > " + std::to_string(Threshold()) +
           " during [" + std::to_string(a) + "," + std::to_string(b) + "]";
  }

  Op HistoryRead() {
    const double u = rng.Real();
    const std::string t = std::to_string(PastInstant());
    if (u < 0.22) {
      return Read("read.scan_past",
                  "select x.name, x.salary from x in employee at " + t +
                      " where x.salary > " + std::to_string(Threshold()) +
                      " and x.birthyear < " + std::to_string(Year()));
    }
    if (u < 0.36) {
      return Read("read.index_select",
                  "select x, x.name from x in employee where x.salary = " +
                      std::to_string(Salary()));
    }
    if (u < 0.50) {
      return Read("read.index_select_past",
                  "select x from x in employee at " + t +
                      " where x.salary = " + std::to_string(Salary()));
    }
    if (u < 0.70) {
      return Read("read.when",
                  WhenText(HotPerson(), pop.now - 2, pop.now));
    }
    if (u < 0.80) {
      return Read("read.history", "history " + HotPerson().ToString() +
                                      ".salary");
    }
    if (u < 0.90) {
      return Read("read.snapshot", "snapshot " + HotPerson().ToString());
    }
    if (u < 0.95) {
      return Read("read.scan_person",
                  "select x from x in person at " + t +
                      " where x.birthyear = " + std::to_string(Year()));
    }
    return Read("read.multi_binder",
                "select p.name, m.name from p in project, m in manager "
                "where m.birthyear < " + std::to_string(Year()));
  }

  // mixed: < 64 read texts, all stable under the workload's writes
  // (past instants, or attributes the writes never touch), so every
  // answer can be checked against the snapshot.
  void BuildMixed(Prng* shared) {
    Prng& r = *shared;
    auto past = [&] { return std::to_string(r.Range(1, pop.now - 1)); };
    auto year = [&] { return std::to_string(r.Range(1950, 2000)); };
    auto thr = [&] { return std::to_string(20000 + 1000 * r.Range(0, 99)); };
    auto person = [&] { return by_heat[r.Next() % by_heat.size()]; };
    // Fixed category weights, so the cost mix does not depend on which
    // texts a seed drew; Zipf over the texts within a category.
    auto group = [&](std::string category, double weight, auto make) {
      ReadGroup g;
      g.category = std::move(category);
      g.weight = weight;
      for (int i = 0; i < 8; ++i) g.texts.push_back(make(i));
      read_groups.push_back(std::move(g));
    };
    group("read.scan_past", 0.30, [&](int) {
      return "select x from x in employee at " + past() +
             " where x.salary > " + thr() + " and x.birthyear = " + year();
    });
    group("read.scan_current", 0.15, [&](int) {
      return "select x.name from x in person where x.birthyear = " + year();
    });
    group("read.index_select_past", 0.20, [&](int) {
      return "select x from x in employee at " + past() +
             " where x.salary = " +
             std::to_string(salary_pool[r.Next() % salary_pool.size()]);
    });
    group("read.when", 0.15, [&](int) {
      TimePoint a = r.Range(0, pop.now - 4);
      TimePoint b = std::min<TimePoint>(a + r.Range(2, 12), pop.now - 1);
      return "when " + person().ToString() + ".salary > " + thr() +
             " during [" + std::to_string(a) + "," + std::to_string(b) + "]";
    });
    group("read.history", 0.15, [&](int) {
      return "history " + person().ToString() + ".name";
    });
    group("read.multi_binder", 0.05, [&](int i) {
      return "select p.name, q.name from p in project, q in project "
             "where p.objective < q.objective and q.name <> '" +
             std::to_string(i) + "'";
    });
    // Migration pools: employees (not managers) the salary writers never
    // pick, disjoint per connection, so each has one writer.
    std::set<uint64_t> pooled;
    const size_t per_conn = 8;
    for (size_t i = 0; i < pop.employees.size() &&
                       pooled.size() < per_conn * connections;
         ++i) {
      pooled.insert(pop.employees[pop.employees.size() - 1 - i].id);
    }
    size_t k = 0;
    for (uint64_t id : pooled) {
      if (static_cast<int>(k++ % connections) == conn) {
        migration_pool.push_back(Oid{id});
      }
    }
    std::vector<Oid> hot;
    for (Oid p : by_heat) {
      if (pooled.count(p.id) == 0) hot.push_back(p);
    }
    by_heat = std::move(hot);
    person_zipf = Zipf(by_heat.size(), 0.9);
  }

  Op Mixed() {
    if (pending.has_value()) {
      Op op = std::move(*pending);
      pending.reset();
      return op;
    }
    if (rng.Real() < 0.8) {
      double u = rng.Real();
      const ReadGroup* g = &read_groups.back();
      for (const ReadGroup& candidate : read_groups) {
        if (u < candidate.weight) {
          g = &candidate;
          break;
        }
        u -= candidate.weight;
      }
      return Read(g->category, g->texts[text_zipf.Sample(rng)]);
    }
    Op op;
    op.kind = OpKind::kWrite;
    if (rng.Real() < 0.04 && !migration_pool.empty()) {
      op.target = migration_pool[rng.Next() % migration_pool.size()];
      op.category = "write.migrate";
      op.effect = Effect::kMigrate;
      op.klass = "manager";
      op.text = "migrate " + op.target.ToString() +
                " to manager set dependents = " +
                std::to_string(rng.Range(0, 5)) + ", officialcar = 'car" +
                std::to_string(conn) + "'";
      Op back = op;
      back.klass = "employee";
      back.text = "migrate " + op.target.ToString() + " to employee";
      pending = std::move(back);
      return op;
    }
    op.target = HotPerson();
    op.category = "write.update";
    op.effect = Effect::kSetSalary;
    op.value = UniqueValue();
    op.text = "update " + op.target.ToString() + " set salary = " +
              std::to_string(op.value);
    return op;
  }

  Op Ingest() {
    Op op;
    op.kind = OpKind::kWrite;
    ++seq;
    if (conn == 0 && seq % 64 == 0) {
      op.category = "write.tick";
      op.text = "tick";
      return op;
    }
    const double u = rng.Real();
    if (u < 0.15 || (u < 0.70 && creates_sent == 0)) {
      op.category = "write.create";
      op.effect = Effect::kCreate;
      op.ref = creates_sent++;
      op.value = UniqueValue();
      op.name = "c" + std::to_string(conn) + "n" + std::to_string(op.ref);
      op.text = "create employee (name: '" + op.name + "', birthyear: " +
                std::to_string(Year()) + ", salary: " +
                std::to_string(op.value) + ", office: 'o" +
                std::to_string(rng.Range(1, 99)) + "')";
      return op;
    }
    op.effect = Effect::kSetSalary;
    op.value = UniqueValue();
    if (u < 0.70) {
      op.category = "write.update_own";
      op.ref = static_cast<int>(rng.Next() % creates_sent);
      op.text = "update {ref} set salary = " + std::to_string(op.value);
      return op;
    }
    op.target = own_initial[own_zipf.Sample(rng)];
    if (u < 0.90) {
      op.category = "write.update_initial";
      op.text = "update " + op.target.ToString() + " set salary = " +
                std::to_string(op.value);
      return op;
    }
    // Valid-time correction strictly before the run's first instant:
    // never touches the current value, always inside the lifespan.
    op.category = "write.correct";
    op.effect = Effect::kCorrect;
    op.a = rng.Range(1, std::max<TimePoint>(pop.now - 2, 1));
    op.b = std::min<TimePoint>(op.a + rng.Range(0, 3), pop.now - 1);
    op.text = "update " + op.target.ToString() + " set salary = " +
              std::to_string(op.value) + " during [" + std::to_string(op.a) +
              "," + std::to_string(op.b) + "]";
    return op;
  }
};

OpStream::OpStream(Workload w, uint64_t seed, int conn, int connections,
                   const PopulationInfo& pop)
    : impl_(std::make_unique<Impl>(w, seed, conn, connections, pop)) {}
OpStream::~OpStream() = default;
OpStream::OpStream(OpStream&&) noexcept = default;

Op OpStream::Next() {
  switch (impl_->w) {
    case Workload::kIngest: return impl_->Ingest();
    case Workload::kHistoryRead: return impl_->HistoryRead();
    case Workload::kMixed: return impl_->Mixed();
  }
  return Op();
}

std::string OpStream::Render(const Op& op) const {
  if (op.ref < 0 || op.effect == Effect::kCreate) return op.text;
  std::string out = op.text;
  size_t at = out.find("{ref}");
  if (at == std::string::npos) return out;
  // A create that failed leaves no oid; "i0" names no object, so the
  // statement fails and is counted instead of silently retargeted.
  const auto& created = impl_->created;
  const bool known = static_cast<size_t>(op.ref) < created.size() &&
                     !created[op.ref].empty();
  out.replace(at, 5, known ? created[op.ref] : std::string("i0"));
  return out;
}

void OpStream::OnAck(const Op& op, std::string_view reply) {
  if (op.effect != Effect::kCreate) return;
  if (impl_->created.size() <= static_cast<size_t>(op.ref)) {
    impl_->created.resize(op.ref + 1);
  }
  impl_->created[op.ref] = std::string(reply);
}

}  // namespace perfbench
