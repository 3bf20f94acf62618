// The closed loop: one thread and one blocking connection per stream,
// one request in flight, until the window closes.
#include <atomic>
#include <cstdlib>

#include "bench.h"
#include "server/client.h"
#include "server/wire.h"

namespace perfbench {

namespace {

Oid ParseOid(std::string_view text) {
  if (text.size() < 2 || text[0] != 'i') return Oid{};
  return Oid{std::strtoull(std::string(text.substr(1)).c_str(), nullptr, 10)};
}

constexpr size_t kKeptFailures = 5;

}  // namespace

uint64_t DriveResult::ops() const {
  uint64_t n = 0;
  for (const ConnLog& c : conns) n += c.attempted;
  return n;
}

uint64_t DriveResult::failed() const {
  uint64_t n = 0;
  for (const ConnLog& c : conns) n += c.failed;
  return n;
}

std::vector<double> Latencies(const DriveResult& run, std::string_view prefix) {
  std::vector<double> out;
  for (const ConnLog& c : run.conns) {
    for (const auto& [category, us] : c.category_us) {
      if (category.rfind(prefix, 0) == 0) out.insert(out.end(), us.begin(), us.end());
    }
  }
  return out;
}

std::vector<Slice> Slices(const DriveResult& run, double slice_s) {
  const int64_t width = static_cast<int64_t>(slice_s * 1e9);
  const size_t n = static_cast<size_t>(run.wall_s / slice_s);
  std::vector<std::vector<double>> lat(n);
  for (const ConnLog& c : run.conns) {
    for (const auto& [t, us] : c.timeline) {
      const size_t k = static_cast<size_t>(t / width);
      if (k < n) lat[k].push_back(us);
    }
  }
  std::vector<Slice> out;
  for (std::vector<double>& v : lat) {
    Slice s;
    s.ops_per_s = static_cast<double>(v.size()) / slice_s;
    s.p50_us = Percentile(v, 50);
    s.p99_us = Percentile(v, 99);
    out.push_back(s);
  }
  return out;
}

Result<DriveResult> Drive(uint16_t port, std::vector<OpStream>* streams,
                          const DriveOptions& options) {
  const size_t n = streams->size();
  DriveResult result;
  result.conns.resize(n);
  std::vector<std::unique_ptr<tchimera::Client>> clients;
  for (size_t i = 0; i < n; ++i) {
    Result<std::unique_ptr<tchimera::Client>> c =
        tchimera::Client::Connect("127.0.0.1", port);
    if (!c.ok()) return c.status();
    clients.push_back(std::move(c).value());
  }
  std::vector<Tracer::Buffer*> buffers(n, nullptr);
  uint32_t span_call = 0, span_codec = 0;
  if (options.tracer != nullptr) {
    span_call = options.tracer->Intern("server.client_call");
    span_codec = options.tracer->Intern("server.wire.encode_decode");
    for (size_t i = 0; i < n; ++i) buffers[i] = options.tracer->NewBuffer();
  }
  std::vector<std::vector<double>> codec(n);

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  const int64_t window_ns = static_cast<int64_t>(options.seconds * 1e9);
  std::vector<int64_t> last_ack(n, 0);
  std::atomic<uint64_t> writes_acked{0}, ops_done{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ConnLog& log = result.conns[i];
      OpStream& stream = (*streams)[i];
      tchimera::Client& client = *clients[i];
      Tracer::Buffer* buf = buffers[i];
      tchimera::FrameReader reader(1 << 20);
      tchimera::Frame frame;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const int64_t deadline = start_ns + window_ns;
      uint64_t request = static_cast<uint64_t>(i) << 40;
      while (NowNs() < deadline) {
        Op op = stream.Next();
        std::string text = stream.Render(op);
        if (options.keep_statements) log.statements.push_back(text);
        ++request;
        if (buf != nullptr) {
          // The codec cost of this statement, measured beside the call
          // (the server's own decode is not observable from here).
          ScopedSpan span(buf, span_codec, request);
          const int64_t t0 = NowNs();
          reader.Feed(tchimera::EncodeRequest(text, 0));
          reader.Next(&frame);
          codec[i].push_back(static_cast<double>(NowNs() - t0));
        }
        ScopedSpan span(buf, span_call, request);
        const int64_t send = NowNs();
        Result<std::string> reply = client.ExecuteRetrying(text);
        const int64_t ack = NowNs();
        span.End();
        ++log.attempted;
        const uint64_t done = ops_done.fetch_add(1) + 1;
        if (options.on_segment && done % options.segment_ops == 0) {
          options.on_segment(done);
        }
        const double us = static_cast<double>(ack - send) * 1e-3;
        log.timeline.emplace_back(ack - start_ns, us);
        log.category_us[op.category].push_back(us);
        if (reply.ok()) {
          log.reply_bytes += reply->size();
          stream.OnAck(op, *reply);
        } else {
          ++log.failed;
          if (log.failures.size() < kKeptFailures) {
            log.failures.push_back(text + " -> " +
                                   reply.status().ToString());
          }
        }
        if (op.kind == OpKind::kRead) {
          if (reply.ok()) {
            const uint64_t h = HashText(*reply);
            auto [it, fresh] = log.reads.try_emplace(text, ReadEntry{h, 0, 0});
            ++it->second.count;
            if (!fresh && it->second.hash != h) ++it->second.inconsistent;
          }
        } else {
          WriteRecord rec;
          if (op.ref >= 0 && op.effect != Effect::kCreate) {
            op.target = ParseOid(text.substr(text.find(' ') + 1));
          }
          if (op.effect == Effect::kCreate && reply.ok()) {
            op.target = ParseOid(*reply);
          }
          rec.op = std::move(op);
          rec.send_ns = send;
          rec.ack_ns = ack;
          rec.ok = reply.ok();
          log.writes.push_back(std::move(rec));
          if (reply.ok() && options.on_mark &&
              writes_acked.fetch_add(1) + 1 == options.mark_writes) {
            options.on_mark(ops_done.load());
          }
        }
        last_ack[i] = ack;
      }
      log.retries = client.retries_absorbed();
    });
  }
  while (ready.load() < static_cast<int>(n)) std::this_thread::yield();
  start_ns = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  int64_t end_ns = start_ns;
  for (int64_t t : last_ack) end_ns = std::max(end_ns, t);
  result.wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  if (options.codec_ns != nullptr) {
    for (auto& c : codec) {
      options.codec_ns->insert(options.codec_ns->end(), c.begin(), c.end());
    }
  }
  return result;
}

}  // namespace perfbench
