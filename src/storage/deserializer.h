// Restores a Database from the snapshot format written by serializer.h.
// Only version 5 is read; any other header is Corruption.
#ifndef TCHIMERA_STORAGE_DESERIALIZER_H_
#define TCHIMERA_STORAGE_DESERIALIZER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string>

#include "common/fault_fs.h"
#include "common/result.h"
#include "core/db/database.h"

namespace tchimera {

// Structural metadata of a snapshot, read without parsing any record.
struct SnapshotInfo {
  int version = 0;      // the header's version (5 once it is accepted)
  uint64_t epoch = 0;
  size_t records = 0;   // CLASS+OBJECT count from the footer
  uint64_t byte_size = 0;
  // OK when the snapshot is structurally sound: a version-5 header, the
  // footer present and the CRC32 over the body matching — a truncated or
  // bit-flipped snapshot fails here, before any record is parsed.
  Status integrity;
};

// Inspects snapshot text / a snapshot file. Fails only when the input
// cannot be read at all; corruption is reported via `integrity`.
Result<SnapshotInfo> ProbeSnapshot(const std::string& text);
Result<SnapshotInfo> ProbeSnapshotFile(const std::string& path,
                                       FileSystem* fs = nullptr);

// Parses a snapshot; fails with Corruption on any malformed record. The
// snapshot is checksum-verified up front, so corruption is rejected
// before any state is built. DEFINE records are installed as the
// database's trigger / constraint definitions (triggers/trigger.h), so
// the loaded database fires and checks them like the one that was saved.
Result<std::unique_ptr<Database>> LoadDatabase(std::istream* in);
Result<std::unique_ptr<Database>> LoadDatabaseFromFile(
    const std::string& path);
Result<std::unique_ptr<Database>> LoadDatabaseFromString(
    const std::string& text);

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_DESERIALIZER_H_
