// An interactive TQL shell over a persistent T_Chimera database.
//
//   ./build/examples/temporal_repl [db-directory]
//
// On startup the shell runs crash recovery over the database directory
// (snapshot load, journal replay in epoch order with torn-tail salvage,
// consistency audit — see storage/recovery.h). Statements then run
// through a query Session over the concurrent Engine (query/session.h):
// mutating statements are serialized, journaled through the group-commit
// sink (storage/group_commit.h) and acknowledged only once durable;
// `.checkpoint` runs the safe rotate-snapshot-delete protocol with the
// sink quiesced. Without a directory argument the session is in-memory
// only.
//
// `trigger` and `constraint` definitions are part of the database: they
// are journaled like any mutation, a checkpoint persists them as the
// snapshot's DEFINE records, and loading the snapshot installs them.
//
// Meta commands: .help .checkpoint .quit — everything else is TQL
// (see src/query/parser.h for the grammar).
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "core/db/database.h"
#include "query/session.h"
#include "server/net.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"

namespace {

constexpr const char* kHelp = R"(TQL statements:
  define class NAME [under SUPER,...] [attributes a: type, ...]
      [methods m(T,...): T, ...] [c-attributes a: type, ...] end
  create CLASS [at T] (attr: value, ...)
  update iN set attr = value [during [a,b]]
  migrate iN to CLASS [set attr = value, ...]
  delete iN
  select expr, ... from x in CLASS [at T] [where expr]
  snapshot iN [at T]   |  history iN.attr
  tick [n]  |  advance to T  |  check  |  when <expr>
  explain <select|when ...>   (print the compiled plan or fallback reason)
  show class NAME | show object iN | show classes | show now
  trigger NAME on EVENT [of CLASS[.ATTR]] do <stmt>
  constraint NAME on CLASS always|sometime <expr>
  constraint NAME on CLASS nondecreasing|immutable ATTR
meta commands:
  .help  .checkpoint  .quit
)";

}  // namespace

int main(int argc, char** argv) {
  // A shell piped into `head` (or a dying pager) should see EPIPE as an
  // ordinary write error, not take the process down mid-fdatasync.
  tchimera::IgnoreSigpipe();
  using tchimera::Database;
  using tchimera::Engine;
  using tchimera::GroupCommitJournal;
  using tchimera::Result;
  using tchimera::Session;
  using tchimera::Status;

  // At most one argument: the database directory. Anything that looks
  // like a flag is refused rather than taken for a directory name.
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [DIRECTORY]\n", argv[0]);
    return 1;
  }
  std::string dir_arg = argc == 2 ? argv[1] : "";

  std::string snapshot_path, journal_path;
  if (!dir_arg.empty()) {
    std::filesystem::path dir(dir_arg);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    snapshot_path = (dir / "snapshot.tchdb").string();
    journal_path = (dir / "journal.tql").string();
  } else {
    std::printf("(in-memory session; pass a directory to persist)\n");
  }

  tchimera::RecoveryManager recovery(snapshot_path, journal_path);
  tchimera::RecoveryStats stats;
  std::unique_ptr<Database> db = std::make_unique<Database>();
  if (!journal_path.empty()) {
    Result<std::unique_ptr<Database>> loaded = recovery.LoadSnapshot(&stats);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", snapshot_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded).value();
  }

  // The engine owns the database from here on; recovery replay runs
  // through a session before the commit sink is installed, so replayed
  // statements are not re-journaled.
  Engine engine(std::move(db));
  Session session = engine.OpenSession();
  GroupCommitJournal sink;
  if (!journal_path.empty()) {
    Status replayed = recovery.ReplayJournals(
        [&session](const std::string& statement) {
          return session.Execute(statement).status();
        },
        &stats);
    for (const std::string& note : stats.notes) {
      std::fprintf(stderr, "recovery: %s\n", note.c_str());
    }
    if (!replayed.ok()) {
      std::fprintf(stderr, "journal replay failed: %s\n",
                   replayed.ToString().c_str());
      return 1;
    }
    Status audit = tchimera::RecoveryManager::Audit(
        &engine.writer_db(), tchimera::AuditMode::kFail, &stats);
    if (!audit.ok()) {
      std::fprintf(stderr, "post-recovery audit failed: %s\n",
                   audit.ToString().c_str());
      return 1;
    }
    std::printf("recovered: %zu objects, now = %lld "
                "(%zu statement(s) replayed)\n",
                engine.writer_db().object_count(),
                static_cast<long long>(engine.writer_db().now()),
                stats.statements_applied);
    tchimera::JournalOptions options;
    options.epoch = stats.next_epoch;
    Status opened = sink.Open(journal_path, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.ToString().c_str());
      return 1;
    }
    engine.set_commit_sink(&sink);
  }
  std::printf("T_Chimera temporal shell — .help for help\n");
  std::string line;
  while (true) {
    std::printf("tql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = tchimera::StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed == ".help") {
      std::printf("%s", kHelp);
      continue;
    }
    if (trimmed == ".checkpoint") {
      if (snapshot_path.empty()) {
        std::printf("no database directory; nothing to checkpoint\n");
        continue;
      }
      // Exclusive over the engine, quiesced over the sink: the snapshot
      // sees a committed state and the journal rotates at a batch
      // boundary. Lock order (writer lock, then sink mutex) matches the
      // write path.
      Status s = engine.WithExclusive([&](Database& live) {
        return sink.WithQuiesced([&](tchimera::Journal& journal) {
          return tchimera::RecoveryManager::Checkpoint(live, &journal,
                                                       snapshot_path);
        });
      });
      std::printf("%s\n", s.ok() ? "checkpointed" : s.ToString().c_str());
      continue;
    }
    // Session::Execute routes reads to a snapshot and mutations through
    // the serialized write path; a mutating statement is journaled and
    // fdatasynced (group commit) before the prompt acknowledges it.
    Result<std::string> out = session.Execute(trimmed);
    if (!out.ok()) {
      std::printf("error: %s\n", out.status().ToString().c_str());
      continue;
    }
    std::printf("%s\n", out->c_str());
  }
  std::printf("\nbye\n");
  return 0;
}
