// In-memory span recording for the traced run: spans are appended to a
// per-thread buffer while the run executes and written out once, at the
// end, as CSV.
#include <cstdio>

#include "bench.h"

namespace perfbench {

uint32_t Tracer::Buffer::Open(uint32_t name, uint64_t request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? 0 : open_.back();
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<uint32_t>(spans_.size()));
  return open_.back();
}

int64_t Tracer::Buffer::Close(uint32_t handle) {
  Span& s = spans_[handle - 1];
  s.end_ns = NowNs();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
  return s.end_ns - s.start_ns;
}

uint32_t Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

Tracer::Buffer* Tracer::NewBuffer() {
  buffers_.push_back(std::make_unique<Buffer>(this));
  return buffers_.back().get();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::map<std::string, std::vector<double>> self_us;
  for (const auto& buf : buffers_) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].end_ns - spans[i].start_ns;
    }
    for (const Span& s : spans) {
      if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self_us[names_[spans[i].name]].push_back(
          static_cast<double>(self[i]) * 1e-3);
    }
  }
  std::map<std::string, SelfTime> out;
  for (auto& [name, v] : self_us) {
    SelfTime& st = out[name];
    st.count = v.size();
    st.median_us = Median(std::move(v));
  }
  return out;
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const auto& buf : buffers_) n += buf->spans().size();
  return n;
}

Status Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "thread,span,parent,request,name,start_ns,end_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%u,%llu,%s,%lld,%lld\n", t, i + 1, s.parent,
                   static_cast<unsigned long long>(s.request),
                   names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot write " + path);
}

}  // namespace perfbench
