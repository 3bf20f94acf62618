#include "storage/deserializer.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
#include "core/types/type_parser.h"
#include "core/types/type_registry.h"
#include "core/values/temporal_function.h"
#include "core/values/value_parser.h"
#include "triggers/trigger.h"

namespace tchimera {
namespace {

Status Corrupt(size_t line_no, const std::string& what) {
  return Status::Corruption("snapshot line " + std::to_string(line_no) +
                            ": " + what);
}

class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream* in) : in_(in) {}

  Result<std::unique_ptr<Database>> Load() {
    auto db = std::make_unique<Database>();
    TCH_ASSIGN_OR_RETURN(std::string header, NextLine());
    if (header != "TCHIMERA-SNAPSHOT 5") {
      return Corrupt(line_no_, "bad header '" + header + "'");
    }
    TimePoint now = 0;
    uint64_t next_oid = 1;
    size_t records = 0;
    while (true) {
      TCH_ASSIGN_OR_RETURN(std::string line, NextLine());
      auto [tag, rest] = SplitTag(line);
      if (tag == "CHECKSUM") {
        // Already verified by the caller; the record count is
        // cross-checked as a parser self-test.
        size_t footer_records = std::strtoull(rest.c_str(), nullptr, 10);
        if (footer_records != records) {
          return Corrupt(line_no_, "record count mismatch");
        }
        TCH_ASSIGN_OR_RETURN(std::string eof_line, NextLine());
        if (eof_line != "EOF") {
          return Corrupt(line_no_, "missing EOF terminator");
        }
        break;
      }
      if (tag == "NOW") {
        now = std::strtoll(rest.c_str(), nullptr, 10);
      } else if (tag == "EPOCH") {
        // Checkpoint ordering metadata; see ProbeSnapshot / recovery.h.
      } else if (tag == "NEXT-OID") {
        next_oid = std::strtoull(rest.c_str(), nullptr, 10);
      } else if (tag == "CLASS") {
        ++records;
        TCH_RETURN_IF_ERROR(LoadClass(rest, db.get()));
      } else if (tag == "OBJECT") {
        ++records;
        TCH_RETURN_IF_ERROR(LoadObject(rest, db.get()));
      } else if (tag == "DEFINE") {
        // A trigger / constraint definition, installed into the database
        // in record order (DEFINE follows every CLASS and OBJECT record).
        Result<std::string> defined = ActiveDatabase(db.get()).Define(rest);
        if (!defined.ok()) {
          return Corrupt(line_no_, "bad definition: " +
                                       defined.status().message());
        }
      } else if (tag == "INDEX") {
        // Applied immediately: INDEX records follow every CLASS and
        // OBJECT record, so CreateIndex validates against the restored
        // schema and rebuilds the index data from the restored objects
        // (only definitions are persisted — data is a pure function of
        // object state; docs/INDEXING.md).
        TCH_RETURN_IF_ERROR(LoadIndex(rest, db.get()));
      } else {
        return Corrupt(line_no_, "unexpected record '" + tag + "'");
      }
    }
    db->RestoreClock(now);
    db->RestoreNextOid(next_oid);
    return db;
  }

 private:
  Result<std::string> NextLine() {
    std::string line;
    if (!std::getline(*in_, line)) {
      return Corrupt(line_no_, "unexpected end of snapshot");
    }
    ++line_no_;
    return line;
  }

  static std::pair<std::string, std::string> SplitTag(
      const std::string& line) {
    size_t sp = line.find(' ');
    if (sp == std::string::npos) return {line, ""};
    return {line.substr(0, sp), line.substr(sp + 1)};
  }

  // "name rest" -> (name, rest).
  static std::pair<std::string, std::string> SplitName(
      const std::string& text) {
    return SplitTag(text);
  }

  Result<Interval> ParseIntervalText(const std::string& text) {
    // "[a,b]" or "[]".
    if (text == "[]") return Interval::Empty();
    if (text.size() < 5 || text.front() != '[' || text.back() != ']') {
      return Corrupt(line_no_, "bad interval '" + text + "'");
    }
    std::vector<std::string> parts =
        Split(text.substr(1, text.size() - 2), ',');
    if (parts.size() != 2) {
      return Corrupt(line_no_, "bad interval '" + text + "'");
    }
    auto parse_instant = [](const std::string& s) -> TimePoint {
      return s == "now" ? kNow : std::strtoll(s.c_str(), nullptr, 10);
    };
    return Interval(parse_instant(parts[0]), parse_instant(parts[1]));
  }

  // Postings: "<oid>:[a,b][c,d] <oid>:[e,now] ..." (empty: no member
  // ever). Well-formedness (oid order, disjoint sorted intervals) is
  // checked by FromPostings.
  Result<ExtentPostings> ParsePostings(const std::string& text) {
    std::vector<ExtentPostings::Posting> postings;
    for (const std::string& token : Split(text, ' ')) {
      if (token.empty()) continue;
      size_t colon = token.find(':');
      char* end = nullptr;
      uint64_t id = std::strtoull(token.c_str(), &end, 10);
      if (colon == std::string::npos || colon == 0 ||
          end != token.c_str() + colon) {
        return Corrupt(line_no_, "bad extent posting '" + token + "'");
      }
      ExtentPostings::Posting posting{Oid{id}, {}};
      size_t pos = colon + 1;
      while (pos < token.size()) {
        size_t close = token.find(']', pos);
        if (close == std::string::npos) {
          return Corrupt(line_no_, "bad extent posting '" + token + "'");
        }
        TCH_ASSIGN_OR_RETURN(
            Interval iv,
            ParseIntervalText(token.substr(pos, close + 1 - pos)));
        posting.intervals.push_back(iv);
        pos = close + 1;
      }
      postings.push_back(std::move(posting));
    }
    Result<ExtentPostings> out = ExtentPostings::FromPostings(postings);
    if (!out.ok()) return Corrupt(line_no_, out.status().message());
    return out;
  }

  Result<TemporalFunction> ParseTemporalText(const std::string& text,
                                             const Type* hint) {
    TCH_ASSIGN_OR_RETURN(Value v, ParseValue(text, hint));
    if (v.kind() == ValueKind::kSet && v.Elements().empty()) {
      return TemporalFunction();  // "{}" without a usable hint
    }
    if (v.kind() != ValueKind::kTemporal) {
      return Corrupt(line_no_, "expected a temporal value, got '" + text +
                                   "'");
    }
    return v.AsTemporal();
  }

  Result<std::vector<const Type*>> ParseTypeList(const std::string& text) {
    std::vector<const Type*> out;
    if (text == "-") return out;
    // Types can nest commas inside parentheses; split at depth 0.
    std::string cur;
    int depth = 0;
    for (char c : text) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 0) {
        TCH_ASSIGN_OR_RETURN(const Type* t, ParseType(cur));
        out.push_back(t);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) {
      TCH_ASSIGN_OR_RETURN(const Type* t, ParseType(cur));
      out.push_back(t);
    }
    return out;
  }

  Status LoadClass(const std::string& name, Database* db) {
    ClassSpec spec;
    spec.name = name;
    Interval lifespan;
    ExtentPostings ext, pext;
    std::vector<Value::Field> c_values;
    while (true) {
      TCH_ASSIGN_OR_RETURN(std::string line, NextLine());
      if (line == "END") break;
      auto [tag, rest] = SplitTag(line);
      if (tag == "SUPERS") {
        if (rest != "-") spec.superclasses = Split(rest, ',');
      } else if (tag == "LIFESPAN") {
        TCH_ASSIGN_OR_RETURN(lifespan, ParseIntervalText(rest));
      } else if (tag == "ATTR" || tag == "CATTR") {
        auto [attr_name, type_text] = SplitName(rest);
        TCH_ASSIGN_OR_RETURN(const Type* t, ParseType(type_text));
        (tag == "ATTR" ? spec.attributes : spec.c_attributes)
            .push_back({attr_name, t});
      } else if (tag == "METHOD" || tag == "CMETHOD") {
        auto [m_name, sig] = SplitName(rest);
        auto [ins_text, out_text] = SplitName(sig);
        MethodDef m;
        m.name = m_name;
        TCH_ASSIGN_OR_RETURN(m.inputs, ParseTypeList(ins_text));
        TCH_ASSIGN_OR_RETURN(m.output, ParseType(out_text));
        (tag == "METHOD" ? spec.methods : spec.c_methods)
            .push_back(std::move(m));
      } else if (tag == "CATTRVAL") {
        auto [attr_name, value_text] = SplitName(rest);
        const Type* hint = nullptr;
        for (const AttributeDef& a : spec.c_attributes) {
          if (a.name == attr_name) hint = a.type;
        }
        TCH_ASSIGN_OR_RETURN(Value v, ParseValue(value_text, hint));
        c_values.emplace_back(attr_name, std::move(v));
      } else if (tag == "EXT" || tag == "PEXT") {
        TCH_ASSIGN_OR_RETURN(ExtentPostings postings, ParsePostings(rest));
        (tag == "EXT" ? ext : pext) = std::move(postings);
      } else {
        return Corrupt(line_no_, "unexpected class record '" + tag + "'");
      }
    }
    return db->RestoreClass(spec, lifespan, std::move(ext), std::move(pext),
                            std::move(c_values));
  }

  // "INDEX <name> <kind> <class> <attr|->".
  Status LoadIndex(const std::string& rest, Database* db) {
    auto [name, after_name] = SplitName(rest);
    auto [kind_text, after_kind] = SplitName(after_name);
    auto [class_name, attr_text] = SplitName(after_kind);
    IndexDef def;
    def.name = name;
    def.class_name = class_name;
    def.attr = attr_text == "-" ? "" : attr_text;
    if (kind_text == "value") {
      def.kind = IndexKind::kValue;
    } else if (kind_text == "lifespan") {
      def.kind = IndexKind::kLifespan;
    } else {
      return Corrupt(line_no_, "bad index kind '" + kind_text + "'");
    }
    Status s = db->CreateIndex(def);
    if (!s.ok()) {
      return Corrupt(line_no_, "index '" + name +
                                   "' failed to restore: " + s.message());
    }
    return Status::OK();
  }

  Status LoadObject(const std::string& header, Database* db) {
    auto [oid_text, lifespan_text] = SplitName(header);
    Oid oid{std::strtoull(oid_text.c_str(), nullptr, 10)};
    TCH_ASSIGN_OR_RETURN(Interval lifespan,
                         ParseIntervalText(lifespan_text));
    TemporalFunction class_history;
    std::vector<Value::Field> attrs;
    // The object's class (for attribute type hints) is known only after
    // CLASSHIST; hints matter only for the "{}" ambiguity, so resolve
    // hints lazily from the restored schema.
    while (true) {
      TCH_ASSIGN_OR_RETURN(std::string line, NextLine());
      if (line == "END") break;
      auto [tag, rest] = SplitTag(line);
      if (tag == "CLASSHIST") {
        const Type* hint = types::Temporal(types::String()).value();
        TCH_ASSIGN_OR_RETURN(class_history, ParseTemporalText(rest, hint));
      } else if (tag == "ATTRVAL") {
        auto [attr_name, marked] = SplitName(rest);
        auto [marker, value_text] = SplitName(marked);
        if (marker != "T" && marker != "S") {
          return Corrupt(line_no_, "bad ATTRVAL marker '" + marker + "'");
        }
        const Type* hint = nullptr;
        if (!class_history.empty()) {
          const auto& last = class_history.segments().back();
          if (last.value.kind() == ValueKind::kString) {
            const ClassDef* cls = db->GetClass(last.value.AsString());
            if (cls != nullptr) {
              const AttributeDef* a = cls->FindAttribute(attr_name);
              if (a != nullptr) hint = a->type;
            }
          }
        }
        TCH_ASSIGN_OR_RETURN(Value v, ParseValue(value_text, hint));
        if (marker == "T" && v.kind() != ValueKind::kTemporal) {
          if (v.kind() == ValueKind::kSet && v.Elements().empty()) {
            v = Value::Temporal(TemporalFunction());
          } else {
            return Corrupt(line_no_, "attribute '" + attr_name +
                                         "' marked temporal but value is " +
                                         ValueKindName(v.kind()));
          }
        }
        attrs.emplace_back(attr_name, std::move(v));
      } else {
        return Corrupt(line_no_, "unexpected object record '" + tag + "'");
      }
    }
    return db->RestoreObject(oid, lifespan, std::move(class_history),
                             std::move(attrs));
  }

  std::istream* in_;
  size_t line_no_ = 0;
};

// Returns the first line of `text` (without the newline).
std::string FirstLine(const std::string& text) {
  size_t eol = text.find('\n');
  return eol == std::string::npos ? text : text.substr(0, eol);
}

}  // namespace

Result<SnapshotInfo> ProbeSnapshot(const std::string& text) {
  SnapshotInfo info;
  info.byte_size = text.size();
  info.integrity = Status::OK();
  const std::string kMagic = "TCHIMERA-SNAPSHOT ";
  std::string header = FirstLine(text);
  if (header.rfind(kMagic, 0) != 0) {
    info.integrity =
        Status::Corruption("bad snapshot header '" + header + "'");
    return info;
  }
  std::string version_text = header.substr(kMagic.size());
  if (version_text != "5") {
    info.integrity = Status::Corruption("unsupported snapshot version '" +
                                        version_text + "'");
    return info;
  }
  info.version = 5;
  const std::string kEof = "EOF\n";
  if (text.size() < header.size() + 1 + kEof.size() ||
      text.compare(text.size() - kEof.size(), kEof.size(), kEof) != 0) {
    info.integrity =
        Status::Corruption("snapshot is truncated (missing EOF terminator)");
    return info;
  }
  // Footer: "...body...\nCHECKSUM <records> <crc32>\nEOF\n". The CRC
  // covers every byte of the body, newline included.
  size_t footer_nl = text.rfind("\nCHECKSUM ");
  if (footer_nl == std::string::npos) {
    info.integrity = Status::Corruption("snapshot has no CHECKSUM footer");
    return info;
  }
  size_t footer_start = footer_nl + 1;
  size_t footer_end = text.find('\n', footer_start);
  if (footer_end == std::string::npos ||
      text.substr(footer_end + 1) != kEof) {
    info.integrity =
        Status::Corruption("snapshot footer is not followed by EOF");
    return info;
  }
  std::istringstream footer(
      text.substr(footer_start, footer_end - footer_start));
  std::string tag, records_text, crc_text;
  footer >> tag >> records_text >> crc_text;
  uint32_t want_crc = 0;
  char* end = nullptr;
  unsigned long long records =
      std::strtoull(records_text.c_str(), &end, 10);
  if (records_text.empty() || end == nullptr || *end != '\0' ||
      !ParseCrc32Hex(crc_text, &want_crc)) {
    info.integrity = Status::Corruption("malformed CHECKSUM footer");
    return info;
  }
  info.records = static_cast<size_t>(records);
  uint32_t got_crc = Crc32(std::string_view(text).substr(0, footer_start));
  if (got_crc != want_crc) {
    info.integrity = Status::Corruption(
        "snapshot checksum mismatch: footer says " + crc_text +
        ", body hashes to " + Crc32Hex(got_crc));
    return info;
  }
  // The body is now known intact, so the EPOCH line is exactly as
  // written.
  size_t second = header.size() + 1;
  std::string line2 = FirstLine(text.substr(second));
  const std::string kEpoch = "EPOCH ";
  if (line2.rfind(kEpoch, 0) == 0) {
    info.epoch = std::strtoull(line2.c_str() + kEpoch.size(), nullptr, 10);
  }
  return info;
}

Result<SnapshotInfo> ProbeSnapshotFile(const std::string& path,
                                       FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string text, fs->ReadFileToString(path));
  return ProbeSnapshot(text);
}

Result<std::unique_ptr<Database>> LoadDatabase(std::istream* in) {
  std::ostringstream buf;
  buf << in->rdbuf();
  if (!in->good() && !in->eof()) {
    return Status::IoError("failed to read snapshot stream");
  }
  return LoadDatabaseFromString(buf.str());
}

Result<std::unique_ptr<Database>> LoadDatabaseFromFile(
    const std::string& path) {
  TCH_ASSIGN_OR_RETURN(std::string text,
                       FileSystem::Default()->ReadFileToString(path));
  return LoadDatabaseFromString(text);
}

Result<std::unique_ptr<Database>> LoadDatabaseFromString(
    const std::string& text) {
  TCH_ASSIGN_OR_RETURN(SnapshotInfo info, ProbeSnapshot(text));
  // Integrity failures (bad header, truncation, checksum mismatch) are
  // surfaced before any database state is built.
  TCH_RETURN_IF_ERROR(info.integrity);
  std::istringstream in(text);
  SnapshotReader reader(&in);
  return reader.Load();
}

}  // namespace tchimera
