// Answer and durability checks. Reads are compared with an in-process
// Session on the same snapshot; writes are re-read after the server was
// SIGKILLed and restarted on the same DBDIR.
//
// A SIGKILL leaves the OS page cache intact, so the restart check proves
// "acknowledged => journaled" (the record reached the journal file before
// the acknowledgement), not that the fdatasync made it to the platter;
// flush durability is what the fault-FS crash tests cover.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>

#include "bench.h"

namespace perfbench {

namespace {

constexpr size_t kKeptMessages = 8;

// "salary:123" / "name:'abc'" fields of a `snapshot` reply.
std::optional<int64_t> IntField(const std::string& rec, const std::string& f) {
  size_t at = rec.find(f + ":");
  if (at == std::string::npos) return std::nullopt;
  const char* p = rec.c_str() + at + f.size() + 1;
  char* end = nullptr;
  long long v = std::strtoll(p, &end, 10);
  if (end == p) return std::nullopt;
  return v;
}

std::optional<std::string> StringField(const std::string& rec,
                                       const std::string& f) {
  size_t at = rec.find(f + ":'");
  if (at == std::string::npos) return std::nullopt;
  size_t begin = at + f.size() + 2;
  size_t end = rec.find('\'', begin);
  if (end == std::string::npos) return std::nullopt;
  return rec.substr(begin, end - begin);
}

// The value a printed temporal function `{<[a,b],v>,...}` holds at t
// (`b` may be `now`).
std::optional<int64_t> ValueAt(const std::string& history, TimePoint t) {
  size_t pos = 0;
  while ((pos = history.find("<[", pos)) != std::string::npos) {
    const size_t comma = history.find(',', pos);
    const size_t close = history.find("],", pos);
    if (comma == std::string::npos || close == std::string::npos ||
        comma > close) {
      return std::nullopt;
    }
    const long long a = std::strtoll(history.c_str() + pos + 2, nullptr, 10);
    const std::string upper = history.substr(comma + 1, close - comma - 1);
    const long long b =
        upper == "now" ? INT64_MAX : std::strtoll(upper.c_str(), nullptr, 10);
    const long long v = std::strtoll(history.c_str() + close + 2, nullptr, 10);
    if (a <= t && t <= b) return v;
    pos = close;
  }
  return std::nullopt;
}

}  // namespace

void CheckOutcome::Fail(std::string message) {
  ++failed;
  if (messages.size() < kKeptMessages) messages.push_back(std::move(message));
}

CheckOutcome CheckReads(const std::vector<const ConnLog*>& logs,
                        const std::vector<ExecFn>& expected) {
  std::vector<const std::string*> texts;
  std::unordered_map<std::string, uint64_t> want;
  for (const ConnLog* log : logs) {
    for (const auto& [text, entry] : log->reads) {
      if (want.emplace(text, 0).second) texts.push_back(&text);
    }
  }
  // Expected replies, computed once per distinct text in parallel.
  std::vector<std::thread> workers;
  std::vector<uint64_t> hashes(texts.size());
  std::vector<char> ok(texts.size(), 0);
  for (size_t w = 0; w < expected.size(); ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < texts.size(); i += expected.size()) {
        Result<std::string> r = expected[w](*texts[i]);
        if (r.ok()) {
          hashes[i] = HashText(*r);
          ok[i] = 1;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t i = 0; i < texts.size(); ++i) {
    want[*texts[i]] = ok[i] ? hashes[i] : 0;
  }
  CheckOutcome out;
  for (const ConnLog* log : logs) {
    for (const auto& [text, entry] : log->reads) {
      out.checked += entry.count;
      const uint64_t expect = want[text];
      if (entry.hash != expect) {
        for (uint64_t k = 0; k < entry.count - entry.inconsistent; ++k) {
          out.Fail("wrong reply to: " + text);
        }
      }
      for (uint64_t k = 0; k < entry.inconsistent; ++k) {
        out.Fail("replies differ across repeats of: " + text);
      }
    }
  }
  return out;
}

CheckOutcome CheckWrites(Workload w, const std::vector<const ConnLog*>& logs,
                         const ExecFn& exec) {
  CheckOutcome out;
  // Per object: acknowledged salary writes (send, ack, value), in send
  // order per connection; failed writes may or may not have landed.
  struct Write {
    int64_t send, ack, value;
  };
  std::map<uint64_t, std::vector<Write>> salary;
  std::map<uint64_t, std::vector<int64_t>> maybe;  // values of failed writes
  std::map<uint64_t, std::string> names;           // created: oid -> name
  std::map<uint64_t, std::pair<TimePoint, int64_t>> correction;  // last
  std::map<uint64_t, std::string> klass;           // last migration target
  for (const ConnLog* log : logs) {
    for (const WriteRecord& rec : log->writes) {
      const Op& op = rec.op;
      const uint64_t id = op.target.id;
      if (!rec.ok) {
        if (op.effect == Effect::kSetSalary && id != 0) {
          maybe[id].push_back(op.value);
        }
        continue;
      }
      switch (op.effect) {
        case Effect::kCreate:
          names[id] = op.name;
          salary[id].push_back({rec.send_ns, rec.ack_ns, op.value});
          break;
        case Effect::kSetSalary:
          salary[id].push_back({rec.send_ns, rec.ack_ns, op.value});
          break;
        case Effect::kCorrect:
          correction[id] = {op.b, op.value};
          break;
        case Effect::kMigrate:
          klass[id] = op.klass;
          break;
        case Effect::kNone:
          break;
      }
    }
  }
  // The values an object may hold now: any acknowledged write that no
  // later-started acknowledged write supersedes, or a failed write.
  auto allowed = [&](uint64_t id) {
    std::set<int64_t> ok;
    const std::vector<Write>& ws = salary[id];
    int64_t last_send = INT64_MIN;
    for (const Write& x : ws) last_send = std::max(last_send, x.send);
    for (const Write& x : ws) {
      if (x.ack >= last_send) ok.insert(x.value);
    }
    for (int64_t v : maybe[id]) ok.insert(v);
    return ok;
  };

  if (w == Workload::kIngest) {
    for (const auto& [id, writes] : salary) {
      const std::string oid = Oid{id}.ToString();
      ++out.checked;
      Result<std::string> snap = exec("snapshot " + oid);
      if (!snap.ok()) {
        out.Fail("acknowledged object " + oid + " missing after restart: " +
                 snap.status().ToString());
        continue;
      }
      auto it = names.find(id);
      if (it != names.end() && StringField(*snap, "name") != it->second) {
        out.Fail("created " + oid + " holds another object: " + *snap);
        continue;
      }
      std::optional<int64_t> v = IntField(*snap, "salary");
      if (!v.has_value() || allowed(id).count(*v) == 0) {
        out.Fail(oid + " lost its last acknowledged salary: " + *snap);
      }
    }
    for (const auto& [id, fix] : correction) {
      const std::string oid = Oid{id}.ToString();
      ++out.checked;
      Result<std::string> hist = exec("history " + oid + ".salary");
      std::optional<int64_t> v =
          hist.ok() ? ValueAt(*hist, fix.first) : std::nullopt;
      if (v != fix.second) {
        out.Fail(oid + " lost its correction at " + std::to_string(fix.first) +
                 ": " + (hist.ok() ? *hist : hist.status().ToString()));
      }
    }
  } else {
    Result<std::string> rows = exec("select x, x.salary from x in employee");
    std::map<uint64_t, int64_t> current;
    if (rows.ok()) {
      size_t pos = 0;
      while (pos < rows->size()) {
        size_t eol = rows->find('\n', pos);
        if (eol == std::string::npos) eol = rows->size();
        std::string line = rows->substr(pos, eol - pos);
        size_t bar = line.find(" | ");
        if (line.size() > 1 && line[0] == 'i' && bar != std::string::npos) {
          current[std::strtoull(line.c_str() + 1, nullptr, 10)] =
              std::strtoll(line.c_str() + bar + 3, nullptr, 10);
        }
        pos = eol + 1;
      }
    }
    for (const auto& [id, writes] : salary) {
      ++out.checked;
      auto it = current.find(id);
      if (it == current.end() || allowed(id).count(it->second) == 0) {
        out.Fail(Oid{id}.ToString() + " does not hold an acknowledged salary");
      }
    }
    Result<std::string> managers = exec("select x from x in manager");
    std::set<std::string> in_manager;
    if (managers.ok()) {
      size_t pos = 0;
      while (pos < managers->size()) {
        size_t eol = managers->find('\n', pos);
        if (eol == std::string::npos) eol = managers->size();
        in_manager.insert(managers->substr(pos, eol - pos));
        pos = eol + 1;
      }
    }
    for (const auto& [id, target] : klass) {
      ++out.checked;
      const std::string oid = Oid{id}.ToString();
      if ((in_manager.count(oid) > 0) != (target == "manager")) {
        out.Fail(oid + " is not in its last acknowledged class " + target);
      }
    }
  }
  ++out.checked;
  Result<std::string> check = exec("check");
  if (!check.ok() || *check != "consistent") {
    out.Fail("check after restart: " +
             (check.ok() ? *check : check.status().ToString()));
  }
  return out;
}

}  // namespace perfbench
