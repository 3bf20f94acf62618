// Persistence for T_Chimera databases: a line-oriented text snapshot
// format that round-trips the full database state (schema with effective
// members, extent histories, c-attribute values, objects with complete
// attribute histories and class histories, clock and oid counter).
//
// Format sketch (one record per line; values/types in their canonical
// textual syntax, which never contains newlines):
//
//   TCHIMERA-SNAPSHOT 5
//   EPOCH <e>
//   NOW <t>
//   CLASS <name>
//   SUPERS <name>,<name> | SUPERS -
//   LIFESPAN [a,b]
//   ATTR <name> <type>
//   METHOD <name> <in1,in2|-> <out>
//   CATTR <name> <type>
//   CMETHOD <name> <in1,in2|-> <out>
//   CATTRVAL <name> <value>
//   EXT <postings>
//   PEXT <postings>
//   END
//   OBJECT <oid> [a,b]
//   CLASSHIST <temporal-value>
//   ATTRVAL <name> <value>
//   END
//   DEFINE <statement>
//   INDEX <name> <kind> <class> <attr|->
//   NEXT-OID <n>
//   CHECKSUM <records> <crc32>
//   EOF
//
// Version 5 is the only version read or written; a snapshot with any
// other header is Corruption. The footer carries the CLASS+OBJECT record
// count and a CRC32 over every byte above it, so a truncated or
// bit-flipped snapshot is rejected before a single record is parsed.
// EPOCH orders the snapshot against journals: it contains the effects of
// every journal with epoch < e (see storage/recovery.h).
//
// DEFINE records are the database's trigger / constraint definitions
// (triggers/trigger.h), triggers in definition order then constraints,
// one re-parseable statement per line inside the checksummed body.
// Restore installs them into the loaded database.
//
// INDEX records are temporal secondary index definitions (name, kind,
// class, attribute), written after DEFINE. Only the definition is
// persisted — index *data* is a pure function of object state and is
// rebuilt deterministically on restore (docs/INDEXING.md). DEFINE and
// INDEX records are excluded from the footer's record count.
//
// Each extent (EXT: members, PEXT: instances) is written as its interval
// postings (core/schema/extent_postings.h), ascending by oid:
// "<oid>:[a,b][c,now] <oid>:[e,now] ...", empty when the class never had
// a member.
//
// Classes are emitted in topological (ISA) order so restore never sees a
// dangling superclass.
#ifndef TCHIMERA_STORAGE_SERIALIZER_H_
#define TCHIMERA_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/fault_fs.h"
#include "common/status.h"
#include "core/db/database.h"

namespace tchimera {

// Writes a full v5 snapshot of `db` (footer included). A definition
// statement containing a newline (a trigger action written across lines)
// cannot be a DEFINE record and fails with InvalidArgument.
Status SaveDatabase(const Database& db, std::ostream* out,
                    uint64_t epoch = 0);
// Convenience: snapshot to a file, atomically and durably — the bytes are
// written to `<path>.tmp`, fsynced, renamed over `path`, and the parent
// directory fsynced; a crash at any point leaves either the old snapshot
// or the new one, never a torn file.
Status SaveDatabaseToFile(const Database& db, const std::string& path,
                          uint64_t epoch = 0, FileSystem* fs = nullptr);
// Snapshot into a string (tests, benchmarks).
Result<std::string> SaveDatabaseToString(const Database& db,
                                         uint64_t epoch = 0);

// A content hash of the full logical state (schema, extents, objects,
// histories, clock, oid counter, trigger and constraint definitions):
// CRC32 over the canonical snapshot serialization at epoch 0, so the
// epoch a node happens to be at never perturbs the hash. Two databases
// hash equal iff they serialize identically — the equality check
// replication uses to assert a replica converged to its primary (tests,
// `tchimera_recover verify-replica`).
Result<uint32_t> DatabaseStateHash(const Database& db);

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_SERIALIZER_H_
