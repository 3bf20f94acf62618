// Helpers for tests that hand-shape snapshot text into earlier format
// versions (header-only; each test binary includes it on its own).
#ifndef TCHIMERA_TESTS_SNAPSHOT_TEST_UTIL_H_
#define TCHIMERA_TESTS_SNAPSHOT_TEST_UTIL_H_

#include <sstream>
#include <string>

#include "common/crc32.h"
#include "core/db/database.h"

namespace tchimera {

// Recomputes the footer of snapshot text whose body was edited by hand,
// keeping the footer's CLASS+OBJECT record count.
inline std::string Reseal(const std::string& text) {
  size_t chk = text.find("CHECKSUM ");
  if (chk == std::string::npos) return text;
  std::string body = text.substr(0, chk);
  size_t count_end = text.find(' ', chk + 9);
  std::string records = text.substr(chk + 9, count_end - chk - 9);
  return body + "CHECKSUM " + records + " " + Crc32Hex(Crc32(body)) +
         "\nEOF\n";
}

// Rewrites the EXT/PEXT records of a v5 snapshot of `db` into the v1-v4
// syntax, a set-valued temporal function per extent — what the v4 writer
// emitted. The header and footer are left to the caller.
inline std::string WithSetHistoryExtents(const std::string& text,
                                         const Database& db) {
  std::istringstream in(text);
  std::string out, line, cls;
  while (std::getline(in, line)) {
    if (line.rfind("CLASS ", 0) == 0) cls = line.substr(6);
    if (line.rfind("EXT ", 0) == 0) {
      line = "EXT " + db.GetClass(cls)->ext().ToString();
    } else if (line.rfind("PEXT ", 0) == 0) {
      line = "PEXT " + db.GetClass(cls)->proper_ext().ToString();
    }
    out += line + "\n";
  }
  return out;
}

// `text` as a version-`version` snapshot (2-4): set-history extents, the
// header relabeled and the footer resealed. Valid for snapshots without
// records newer than `version` (DEFINE needs 3, INDEX needs 4).
inline std::string AsEarlierVersion(const std::string& text,
                                    const Database& db, int version) {
  std::string out = WithSetHistoryExtents(text, db);
  out.replace(0, out.find('\n'),
              "TCHIMERA-SNAPSHOT " + std::to_string(version));
  return Reseal(out);
}

}  // namespace tchimera

#endif  // TCHIMERA_TESTS_SNAPSHOT_TEST_UTIL_H_
