#include "storage/journal.h"

#include <limits>

#include "common/crc32.h"
#include "common/string_util.h"

namespace tchimera {
namespace {

constexpr std::string_view kJournalMagic = "TCHIMERA-JOURNAL";

// Strict all-digits parse (no sign, no trailing junk).
bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// Consumes the next space-delimited token of `line` starting at `pos`.
bool NextToken(std::string_view line, size_t* pos, std::string_view* token) {
  size_t start = *pos;
  size_t space = line.find(' ', start);
  if (space == std::string_view::npos) return false;
  *token = line.substr(start, space - start);
  *pos = space + 1;
  return true;
}

std::string RecordPayload(uint64_t seq, std::string_view statement) {
  std::string payload = std::to_string(seq);
  payload.push_back(' ');
  payload.append(statement);
  return payload;
}

// A journal's header line: "TCHIMERA-JOURNAL 2 <epoch>".
struct Header {
  // Offset of the first record; 0 while the header line is incomplete
  // (an empty file, or one torn before the header's newline).
  size_t end = 0;
  uint64_t epoch = 0;
  Status damage;  // a complete header line that does not parse
};

// The one header parser. Fails (rather than reporting `damage`) for bytes
// that are not a v2 journal at all: a non-empty file that neither starts
// with the magic nor is a proper prefix of it (a header torn at
// creation), or a header of another version. No reader salvages or
// appends to such a file.
Result<Header> ParseHeader(std::string_view content) {
  Header header;
  const size_t probe = std::min(content.size(), kJournalMagic.size());
  if (content.substr(0, probe) != kJournalMagic.substr(0, probe)) {
    return Status::Corruption("not a journal (no " +
                              std::string(kJournalMagic) + " header)");
  }
  const size_t newline = content.find('\n');
  if (newline == std::string_view::npos) return header;
  header.end = newline + 1;
  std::string_view line = content.substr(0, newline);
  size_t pos = 0;
  std::string_view magic, version_text;
  uint64_t version = 0;
  if (!NextToken(line, &pos, &magic) || magic != kJournalMagic ||
      !NextToken(line, &pos, &version_text) ||
      !ParseU64(version_text, &version)) {
    header.damage = Status::Corruption("malformed journal header");
  } else if (version != 2) {
    return Status::Corruption("unsupported journal version " +
                              std::to_string(version));
  } else if (!ParseU64(line.substr(pos), &header.epoch)) {
    header.damage = Status::Corruption("malformed journal epoch");
  }
  return header;
}

// Where and why DecodeRecords stopped.
struct RecordRun {
  size_t end = 0;     // offset just past the last record decoded
  bool torn = false;  // stopped at trailing bytes with no newline
  // Stopped at a complete line with bad framing, length, sequence or CRC.
  Status damage;
};

// The one decoder of framed records, "R <seq> <len> <crc32> <stmt>\n".
// Decodes `content` from `offset`, calling emit(seq, crc, statement) for
// each valid record, until `max_records`, EOF, a torn record or damage.
// `expected_seq` 0 accepts whatever sequence the first record carries;
// after that, sequences must be contiguous.
template <typename Emit>
RecordRun DecodeRecords(std::string_view content, size_t offset,
                        uint64_t expected_seq, size_t max_records,
                        Emit&& emit) {
  RecordRun run;
  run.end = offset;
  for (size_t n = 0; n < max_records && offset < content.size(); ++n) {
    const size_t newline = content.find('\n', offset);
    if (newline == std::string_view::npos) {
      run.torn = true;
      break;
    }
    std::string_view line = content.substr(offset, newline - offset);
    size_t pos = 0;
    std::string_view tag, seq_text, len_text, crc_text;
    uint64_t seq = 0, len = 0;
    uint32_t crc = 0;
    auto damaged = [&run, offset](const std::string& what) {
      run.damage = Status::Corruption(what + " at offset " +
                                      std::to_string(offset));
    };
    if (!NextToken(line, &pos, &tag) || tag != "R" ||
        !NextToken(line, &pos, &seq_text) || !ParseU64(seq_text, &seq) ||
        !NextToken(line, &pos, &len_text) || !ParseU64(len_text, &len) ||
        !NextToken(line, &pos, &crc_text) || !ParseCrc32Hex(crc_text, &crc)) {
      damaged("malformed record framing");
      break;
    }
    std::string_view statement = line.substr(pos);
    if (statement.size() != len) {
      damaged("record length mismatch (framed " + std::to_string(len) +
              ", actual " + std::to_string(statement.size()) + ")");
      break;
    }
    if (expected_seq != 0 && seq != expected_seq) {
      damaged("sequence gap (expected " + std::to_string(expected_seq) +
              ", found " + std::to_string(seq) + ")");
      break;
    }
    if (Crc32(RecordPayload(seq, statement)) != crc) {
      damaged("checksum mismatch at record " + std::to_string(seq));
      break;
    }
    emit(seq, crc, statement);
    expected_seq = seq + 1;
    offset = newline + 1;
    run.end = offset;
  }
  return run;
}

}  // namespace

Result<JournalScan> ScanJournal(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  Result<Header> header = ParseHeader(content);
  if (!header.ok()) {
    return Status::Corruption("journal " + path + ": " +
                              header.status().message());
  }
  JournalScan scan;
  if (header->end == 0 || !header->damage.ok()) {
    // Empty: a fresh journal. Otherwise the unreadable header makes the
    // whole file the corrupt tail.
    if (!content.empty()) {
      scan.tail_error = header->end == 0
                            ? Status::Corruption("torn journal header")
                            : header->damage;
      scan.dropped_bytes = content.size();
    }
    return scan;
  }
  scan.format = 2;
  scan.epoch = header->epoch;
  RecordRun run = DecodeRecords(
      content, header->end, /*expected_seq=*/1,
      std::numeric_limits<size_t>::max(),
      [&scan](uint64_t seq, uint32_t, std::string_view statement) {
        scan.statements.emplace_back(statement);
        scan.last_seq = seq;
      });
  scan.valid_bytes = run.end;
  scan.dropped_bytes = content.size() - run.end;
  scan.tail_error =
      run.torn ? Status::Corruption("torn record (no newline)") : run.damage;
  return scan;
}

Result<TailScan> ScanJournalTail(const std::string& path, uint64_t offset,
                                 uint64_t expected_seq, size_t max_records,
                                 FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  TailScan scan;
  if (offset > content.size()) {
    // The file shrank below our position: it was rotated or truncated
    // underneath us. Not corruption — the caller re-resolves its cursor.
    scan.error = Status::Unavailable(
        "journal " + path + " is shorter (" +
        std::to_string(content.size()) + " bytes) than the read offset " +
        std::to_string(offset) + "; the file was rotated or truncated");
    return scan;
  }
  if (offset == 0) {
    Result<Header> header = ParseHeader(content);
    if (!header.ok() || !header->damage.ok()) {
      scan.error = Status::Corruption(
          "journal " + path + ": " +
          (header.ok() ? header->damage : header.status()).message());
      return scan;
    }
    if (header->end == 0) {
      // Empty or mid-append: an open in flight, retryable.
      scan.partial_tail = true;
      return scan;
    }
    scan.epoch = header->epoch;
    offset = header->end;
  }
  scan.format = 2;
  RecordRun run = DecodeRecords(
      content, offset, expected_seq, max_records,
      [&scan](uint64_t seq, uint32_t crc, std::string_view statement) {
        scan.records.push_back({seq, crc, std::string(statement)});
      });
  scan.end_offset = run.end;
  // A torn record is an append in flight (or a torn tail recovery has not
  // yet seen): retryable, never salvageable from here.
  scan.partial_tail = run.torn;
  if (!run.damage.ok()) {
    scan.error = Status::Corruption(run.damage.message() + " in " + path);
  }
  return scan;
}

Result<JournalScan> SalvageJournal(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  TCH_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(path, fs));
  if (scan.tail_error.ok()) return scan;
  TCH_ASSIGN_OR_RETURN(std::string content, fs->ReadFileToString(path));
  std::string_view tail =
      std::string_view(content).substr(scan.valid_bytes);
  {
    TCH_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> corrupt,
        fs->OpenWritable(path + ".corrupt", /*truncate=*/false));
    TCH_RETURN_IF_ERROR(corrupt->Append(tail));
    TCH_RETURN_IF_ERROR(corrupt->Sync());
    TCH_RETURN_IF_ERROR(corrupt->Close());
  }
  TCH_RETURN_IF_ERROR(fs->TruncateFile(path, scan.valid_bytes));
  return scan;
}

FileSystem* Journal::fs() const {
  return options_.fs == nullptr ? FileSystem::Default() : options_.fs;
}

Status Journal::WriteHeader() {
  std::string header(kJournalMagic);
  header += " 2 " + std::to_string(epoch_) + "\n";
  TCH_RETURN_IF_ERROR(file_->Append(header));
  // The header (and the file's existence) must be durable before any
  // record: a record without its header makes the file unreadable.
  TCH_RETURN_IF_ERROR(file_->Sync());
  size_t slash = path_.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
  if (dir.empty()) dir = "/";
  return fs()->SyncDir(dir);
}

Status Journal::Open(const std::string& path, const JournalOptions& options) {
  if (file_ != nullptr) return Status::FailedPrecondition("journal is open");
  options_ = options;
  path_ = path;
  epoch_ = options.epoch;
  next_seq_ = 1;
  appended_ = 0;

  bool needs_header = true;
  if (fs()->FileExists(path)) {
    // Never append after corrupt bytes: quarantine a torn tail first. A
    // file that is not a v2 journal fails the scan and is left untouched.
    TCH_ASSIGN_OR_RETURN(JournalScan scan, SalvageJournal(path, fs()));
    if (scan.format == 2) {
      epoch_ = scan.epoch;
      next_seq_ = scan.last_seq + 1;
      needs_header = false;
    }
  }
  TCH_ASSIGN_OR_RETURN(file_, fs()->OpenWritable(path, /*truncate=*/false));
  if (needs_header) {
    Status s = WriteHeader();
    if (!s.ok()) {
      file_.reset();
      return s;
    }
  }
  return Status::OK();
}

Status Journal::Append(std::string_view statement) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (statement.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(
        "journaled statements cannot contain raw newlines");
  }
  const uint64_t seq = next_seq_;
  std::string line = "R " + std::to_string(seq) + " " +
                     std::to_string(statement.size()) + " " +
                     Crc32Hex(Crc32(RecordPayload(seq, statement))) + " ";
  line.append(statement);
  line.push_back('\n');
  TCH_RETURN_IF_ERROR(file_->Append(line));
  ++next_seq_;
  ++appended_;
  return Status::OK();
}

Status Journal::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open");
  }
  TCH_RETURN_IF_ERROR(file_->Sync());
  ++sync_count_;
  return Status::OK();
}

std::string Journal::RotatedPath(const std::string& path, uint64_t epoch) {
  return path + ".e" + std::to_string(epoch);
}

Result<std::string> Journal::Rotate() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open");
  }
  // The rotated file must carry everything appended so far.
  TCH_RETURN_IF_ERROR(file_->Sync());
  TCH_RETURN_IF_ERROR(file_->Close());
  file_.reset();
  std::string rotated = RotatedPath(path_, epoch_);
  TCH_RETURN_IF_ERROR(fs()->RenameFile(path_, rotated));
  ++epoch_;
  next_seq_ = 1;
  TCH_ASSIGN_OR_RETURN(file_, fs()->OpenWritable(path_, /*truncate=*/false));
  TCH_RETURN_IF_ERROR(WriteHeader());
  return rotated;
}

void Journal::Close() {
  if (file_ != nullptr) {
    (void)file_->Sync();
    (void)file_->Close();
    file_.reset();
  }
}

Result<size_t> Journal::Replay(const std::string& path,
                               ActiveDatabase* active) {
  return ReplayPrefix(path, active, std::numeric_limits<size_t>::max());
}

Result<size_t> Journal::ReplayPrefix(const std::string& path,
                                     ActiveDatabase* active,
                                     size_t max_statements) {
  TCH_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(path));
  size_t applied = 0;
  for (const std::string& statement : scan.statements) {
    if (applied >= max_statements) break;
    Result<std::string> r = active->Execute(statement);
    if (!r.ok()) {
      return Status::Corruption(
          "journal " + path + " statement " + std::to_string(applied + 1) +
          " failed to replay: " + r.status().ToString());
    }
    ++applied;
  }
  // Strict semantics: a torn tail is an error here — but only if the
  // requested prefix actually reaches into it.
  if (!scan.tail_error.ok() && applied < max_statements) {
    return Status::Corruption("journal " + path + " has a corrupt tail: " +
                              scan.tail_error.message());
  }
  return applied;
}

}  // namespace tchimera
