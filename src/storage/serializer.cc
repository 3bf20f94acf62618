#include "storage/serializer.h"

#include <set>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
#include "core/values/temporal_function.h"
#include "triggers/trigger.h"

namespace tchimera {
namespace {

std::string JoinTypes(const std::vector<const Type*>& types) {
  if (types.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(types.size());
  for (const Type* t : types) parts.push_back(t->ToString());
  return Join(parts, ",");
}

void WriteClass(const Database& db, const ClassDef& cls, std::ostream* out) {
  *out << "CLASS " << cls.name() << "\n";
  *out << "SUPERS "
       << (cls.direct_superclasses().empty()
               ? "-"
               : Join(cls.direct_superclasses(), ","))
       << "\n";
  *out << "LIFESPAN " << cls.lifespan().ToString() << "\n";
  for (const AttributeDef& a : cls.attributes()) {
    *out << "ATTR " << a.name << " " << a.type->ToString() << "\n";
  }
  for (const MethodDef& m : cls.methods()) {
    *out << "METHOD " << m.name << " " << JoinTypes(m.inputs) << " "
         << m.output->ToString() << "\n";
  }
  for (const AttributeDef& a : cls.c_attributes()) {
    *out << "CATTR " << a.name << " " << a.type->ToString() << "\n";
  }
  for (const MethodDef& m : cls.c_methods()) {
    *out << "CMETHOD " << m.name << " " << JoinTypes(m.inputs) << " "
         << m.output->ToString() << "\n";
  }
  for (const AttributeDef& a : cls.c_attributes()) {
    Result<Value> v = cls.CAttributeValue(a.name);
    if (v.ok()) {
      *out << "CATTRVAL " << a.name << " " << v->ToString() << "\n";
    }
  }
  // v5: the extents as interval postings, "<oid>:[a,b][c,now] ...".
  *out << "EXT " << cls.member_postings().ToString() << "\n";
  *out << "PEXT " << cls.instance_postings().ToString() << "\n";
  *out << "END\n";
  (void)db;
}

void WriteObject(const Object& obj, std::ostream* out) {
  *out << "OBJECT " << obj.id().id << " " << obj.lifespan().ToString()
       << "\n";
  *out << "CLASSHIST " << obj.class_history().ToString() << "\n";
  for (const std::string& name : obj.AttributeNames()) {
    const Value* v = obj.Attribute(name);
    // The T/S marker disambiguates an empty temporal function from an
    // empty set (both print "{}").
    *out << "ATTRVAL " << name << " "
         << (v->kind() == ValueKind::kTemporal ? "T " : "S ")
         << v->ToString() << "\n";
  }
  *out << "END\n";
}

// Writes header through NEXT-OID (everything the footer checksums) and
// reports the CLASS+OBJECT record count.
Status SaveDatabaseBody(const Database& db, std::ostream* out,
                        uint64_t epoch, size_t* records) {
  *out << "TCHIMERA-SNAPSHOT 5\n";
  *out << "EPOCH " << epoch << "\n";
  *out << "NOW " << db.now() << "\n";
  // Emit classes in an ISA-respecting order: repeatedly flush classes
  // whose superclasses were already written.
  std::vector<std::string> pending = db.ClassNames();
  std::vector<std::string> ordered;
  std::set<std::string> written;
  while (!pending.empty()) {
    bool progress = false;
    std::vector<std::string> next;
    for (const std::string& name : pending) {
      const ClassDef* cls = db.GetClass(name);
      bool ready = true;
      for (const std::string& super : cls->direct_superclasses()) {
        if (written.count(super) == 0) {
          ready = false;
          break;
        }
      }
      if (ready) {
        ordered.push_back(name);
        written.insert(name);
        progress = true;
      } else {
        next.push_back(name);
      }
    }
    if (!progress) {
      return Status::Internal("ISA cycle detected while serializing");
    }
    pending = std::move(next);
  }
  for (const std::string& name : ordered) {
    WriteClass(db, *db.GetClass(name), out);
  }
  for (Oid oid : db.AllOids()) {
    WriteObject(*db.GetObject(oid), out);
  }
  // DEFINE records after all schema/objects (a trigger or constraint may
  // reference any class), inside the checksummed body; excluded from the
  // footer's record count, which stays CLASS+OBJECT for v2 parity.
  if (db.definitions() != nullptr) {
    for (const std::string& stmt : db.definitions()->Statements()) {
      if (stmt.find('\n') != std::string::npos) {
        return Status::InvalidArgument(
            "definition statement contains a newline");
      }
      *out << "DEFINE " << stmt << "\n";
    }
  }
  // v4: index definitions, after classes and objects (CreateIndex on
  // restore validates against the loaded schema and rebuilds from the
  // loaded objects). Only definitions are persisted — index data is a
  // pure function of object state and is rebuilt deterministically
  // (docs/INDEXING.md) — and, like DEFINE, these are excluded from the
  // footer's CLASS+OBJECT record count.
  for (const IndexDef& def : db.IndexDefs()) {
    *out << "INDEX " << def.name << " " << IndexKindName(def.kind) << " "
         << def.class_name << " " << (def.attr.empty() ? "-" : def.attr)
         << "\n";
  }
  // NEXT-OID last so restore can clamp upward regardless of object order.
  *out << "NEXT-OID " << db.next_oid() << "\n";
  if (!out->good()) return Status::IoError("write failed");
  *records = ordered.size() + db.object_count();
  return Status::OK();
}

}  // namespace

Status SaveDatabase(const Database& db, std::ostream* out, uint64_t epoch) {
  // The footer checksums every byte above it, so the body is staged in
  // memory first (snapshots are line-oriented text; the whole database
  // already round-trips through strings in tests and benches).
  std::ostringstream body;
  size_t records = 0;
  TCH_RETURN_IF_ERROR(SaveDatabaseBody(db, &body, epoch, &records));
  std::string text = body.str();
  *out << text << "CHECKSUM " << records << " " << Crc32Hex(Crc32(text))
       << "\nEOF\n";
  if (!out->good()) return Status::IoError("write failed");
  return Status::OK();
}

Status SaveDatabaseToFile(const Database& db, const std::string& path,
                          uint64_t epoch, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string text, SaveDatabaseToString(db, epoch));
  std::string tmp = path + ".tmp";
  {
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                         fs->OpenWritable(tmp, /*truncate=*/true));
    TCH_RETURN_IF_ERROR(out->Append(text));
    TCH_RETURN_IF_ERROR(out->Sync());
    TCH_RETURN_IF_ERROR(out->Close());
  }
  // Durable rename: the snapshot becomes visible atomically, and the
  // parent directory is fsynced so the rename itself survives a crash.
  return fs->RenameFile(tmp, path);
}

Result<std::string> SaveDatabaseToString(const Database& db,
                                         uint64_t epoch) {
  std::ostringstream out;
  TCH_RETURN_IF_ERROR(SaveDatabase(db, &out, epoch));
  return out.str();
}

Result<uint32_t> DatabaseStateHash(const Database& db) {
  // Epoch 0 on purpose: the hash compares logical state across nodes
  // whose checkpoint cadence (and hence epoch counter) differs.
  TCH_ASSIGN_OR_RETURN(std::string text,
                       SaveDatabaseToString(db, /*epoch=*/0));
  return Crc32(text);
}

}  // namespace tchimera
