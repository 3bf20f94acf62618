// The tchimera socket server: an epoll front end over the concurrent
// engine (query/session.h).
//
// Threading model (sized for "many connections, few cores"):
//
//   IO thread    — owns the listening socket, the epoll set, and ALL
//                  per-connection state (frame decoder, output buffer).
//                  No connection state is ever touched by two threads,
//                  so connections need no locks. Ping frames are
//                  answered inline; request frames become tasks.
//   worker pool  — N threads, each owning ONE pooled Session for its
//                  whole life (Sessions are single-threaded; the pool is
//                  the bound on concurrent statement execution). Workers
//                  pop tasks, execute, and post the encoded response
//                  frame to a completion queue; an eventfd wakes the IO
//                  thread to flush it.
//
// Ordering: one request in flight per connection. The IO thread stops
// decoding a connection's frames while its request is executing, so a
// pipelining client still gets responses in request order, and a client
// that streams requests faster than they execute is throttled by TCP
// (its readable events are parked once the input buffer fills).
//
// Backpressure (admission control) — the server sheds load instead of
// queueing without bound:
//   * task-queue depth > max_pending_requests  → retryable error frame
//   * group-commit backlog (enqueued - durable) > max_commit_backlog,
//     for journaled statements only (a peek at the statement's leading
//     tokens; PeekStatementKind in query/parser.h) → retryable error frame
// Both are counted in ServerStats::admission_rejections; the client is
// expected to back off and resend (client.h does).
//
// Conflict policy: pooled Sessions run WriteRetryPolicy{1, false}, so an
// optimistic validation loss surfaces kConflict to the *server* loop,
// which retries up to conflict_retry_budget times. An exhausted budget
// becomes a retryable wire error — backpressure to the client — instead
// of the embedded default of convoying every loser on the writer lock.
//
// A protocol violation (oversized length prefix, unknown frame type,
// garbage bytes) gets a best-effort error frame and a close; a client
// that stops reading until its output buffer exceeds
// max_output_buffer_bytes is closed as a slow reader. Neither path can
// leak a pooled session: sessions belong to workers, never to
// connections.
#ifndef TCHIMERA_SERVER_SERVER_H_
#define TCHIMERA_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"

namespace tchimera {

class Engine;

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; Server::port() reports the real one
  int listen_backlog = 1024;

  // Worker pool size == number of pooled Sessions == max concurrent
  // statement executions. Small on purpose: throughput comes from group
  // commit, not from thousands of threads convoying on the writer lock.
  int worker_threads = 4;

  // Admission control.
  size_t max_pending_requests = 256;
  uint64_t max_commit_backlog = 1024;
  // Probe for the group-commit backlog (enqueued - durable). Unset =
  // no durability-based admission (in-memory serving).
  std::function<uint64_t()> commit_backlog;

  // Conflict-retry budget per request (total optimistic attempts).
  int conflict_retry_budget = 5;

  // Wire limits.
  size_t max_frame_bytes = 1 << 20;          // 1 MiB statement cap
  size_t max_output_buffer_bytes = 4 << 20;  // slow-reader close threshold
};

// All counters are cumulative since Start(); readable at any time.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> results{0};
  std::atomic<uint64_t> error_frames{0};
  // Retryable rejections from admission control (both limits).
  std::atomic<uint64_t> admission_rejections{0};
  // kConflict losses retried inside the server's budget...
  std::atomic<uint64_t> conflict_retries{0};
  // ...and requests whose budget ran out (surfaced as retryable errors).
  std::atomic<uint64_t> conflict_budget_exhausted{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> slow_reader_closes{0};
};

class Server {
 public:
  // Serves `engine`, which must outlive the server. The engine's commit
  // sink / recovery wiring is the caller's job (tools/tchimera_serve.cpp
  // is the canonical assembly).
  Server(Engine* engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the IO thread + worker pool.
  Status Start();
  // Stops accepting, closes every connection, drains the workers, joins
  // all threads. Idempotent.
  void Stop();

  // The bound port (after Start; resolves port 0).
  uint16_t port() const { return port_; }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServerStats stats_;
  uint16_t port_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_SERVER_SERVER_H_
