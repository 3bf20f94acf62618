#include "core/schema/extent_postings.h"

#include <algorithm>
#include <set>

namespace tchimera {
namespace {

bool CoversInstant(std::span<const Interval> posting, TimePoint t) {
  for (const Interval& iv : posting) {
    if (t < iv.start()) return false;
    if (t <= iv.end()) return true;
  }
  return false;
}

// posting ∪ [t, now]: the first interval touching [t, now] and every
// later one merge into a single ongoing interval.
void JoinFrom(std::vector<Interval>* posting, TimePoint t) {
  TimePoint start = t;
  size_t keep = 0;
  for (; keep < posting->size(); ++keep) {
    const Interval& iv = (*posting)[keep];
    if (iv.end() + 1 >= t) {
      start = std::min(start, iv.start());
      break;
    }
  }
  posting->resize(keep);
  posting->push_back(Interval::FromUntilNow(start));
}

// posting \ [t, now].
void LeaveFrom(std::vector<Interval>* posting, TimePoint t) {
  size_t keep = 0;
  while (keep < posting->size() && (*posting)[keep].start() < t) ++keep;
  posting->resize(keep);
  if (!posting->empty() && posting->back().end() >= t) {
    posting->back() = Interval(posting->back().start(), t - 1);
  }
}

}  // namespace

// --- Chunk -------------------------------------------------------------

void ExtentPostings::Chunk::Splice(size_t i, bool present, Oid oid,
                                   const std::vector<Interval>& posting) {
  const uint32_t begin = Begin(i);
  const uint32_t end = present ? ends[i] : begin;
  const int64_t delta =
      static_cast<int64_t>(posting.size()) - static_cast<int64_t>(end - begin);
  intervals.erase(intervals.begin() + begin, intervals.begin() + end);
  intervals.insert(intervals.begin() + begin, posting.begin(), posting.end());
  const uint32_t new_end = begin + static_cast<uint32_t>(posting.size());
  size_t shift_from = i + 1;  // first posting whose end moves by delta
  if (posting.empty()) {
    oids.erase(oids.begin() + i);
    ends.erase(ends.begin() + i);
    shift_from = i;
  } else if (present) {
    ends[i] = new_end;
  } else {
    oids.insert(oids.begin() + i, oid);
    ends.insert(ends.begin() + i, new_end);
  }
  for (size_t j = shift_from; j < ends.size(); ++j) {
    ends[j] = static_cast<uint32_t>(ends[j] + delta);
  }
}

std::shared_ptr<const ExtentPostings::Chunk>
ExtentPostings::Chunk::SplitOff(size_t from) {
  auto tail = std::make_shared<Chunk>();
  const uint32_t base = Begin(from);
  tail->oids.assign(oids.begin() + from, oids.end());
  tail->intervals.assign(intervals.begin() + base, intervals.end());
  tail->ends.reserve(ends.size() - from);
  for (size_t j = from; j < ends.size(); ++j) {
    tail->ends.push_back(ends[j] - base);
  }
  oids.resize(from);
  ends.resize(from);
  intervals.resize(base);
  return tail;
}

// --- construction / mutation -------------------------------------------

Result<ExtentPostings> ExtentPostings::FromPostings(
    const std::vector<Posting>& postings) {
  ExtentPostings out;
  std::shared_ptr<Chunk> tail;
  for (size_t p = 0; p < postings.size(); ++p) {
    const Posting& posting = postings[p];
    if (p > 0 && posting.oid <= postings[p - 1].oid) {
      return Status::InvalidArgument("extent posting " +
                                     posting.oid.ToString() +
                                     " is out of oid order");
    }
    if (posting.intervals.empty()) {
      return Status::InvalidArgument("extent posting " +
                                     posting.oid.ToString() + " is empty");
    }
    for (size_t k = 0; k < posting.intervals.size(); ++k) {
      const Interval& iv = posting.intervals[k];
      if (iv.empty() ||
          (k > 0 && posting.intervals[k - 1].end() + 1 >= iv.start())) {
        return Status::InvalidArgument(
            "extent posting " + posting.oid.ToString() +
            " has an empty, unsorted, overlapping or adjacent interval " +
            iv.ToString());
      }
    }
    if (tail == nullptr || tail->oids.size() == kChunkSize) {
      if (tail != nullptr) out.chunks_.push_back(std::move(tail));
      tail = std::make_shared<Chunk>();
    }
    tail->Splice(tail->oids.size(), /*present=*/false, posting.oid,
                 posting.intervals);
  }
  if (tail != nullptr) out.chunks_.push_back(std::move(tail));
  return out;
}

size_t ExtentPostings::ChunkFor(Oid oid) const {
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), oid,
      [](Oid o, const std::shared_ptr<const Chunk>& c) {
        return o < c->oids.front();
      });
  return it == chunks_.begin()
             ? 0
             : static_cast<size_t>(it - chunks_.begin()) - 1;
}

template <typename Edit>
void ExtentPostings::Update(Oid oid, Edit edit) {
  const size_t k = ChunkFor(oid);
  std::vector<Interval> posting;
  if (k == chunks_.size()) {  // no chunks yet
    edit(&posting);
    if (posting.empty()) return;
    auto chunk = std::make_shared<Chunk>();
    chunk->Splice(0, /*present=*/false, oid, posting);
    chunks_.push_back(std::move(chunk));
    return;
  }
  const Chunk& old = *chunks_[k];
  const size_t i = static_cast<size_t>(
      std::lower_bound(old.oids.begin(), old.oids.end(), oid) -
      old.oids.begin());
  const bool present = i < old.oids.size() && old.oids[i] == oid;
  if (present) {
    std::span<const Interval> current = old.IntervalsAt(i);
    posting.assign(current.begin(), current.end());
  }
  edit(&posting);
  if (present ? std::ranges::equal(posting, old.IntervalsAt(i))
              : posting.empty()) {
    return;  // no change: keep sharing the chunk
  }
  // Creates hand out ascending oids: past a full tail chunk they open a
  // new chunk instead of cloning and splitting the old one.
  if (!present && k + 1 == chunks_.size() && i == old.oids.size() &&
      old.oids.size() >= kChunkSize) {
    auto chunk = std::make_shared<Chunk>();
    chunk->Splice(0, /*present=*/false, oid, posting);
    chunks_.push_back(std::move(chunk));
    return;
  }
  auto chunk = std::make_shared<Chunk>(old);
  chunk->Splice(i, present, oid, posting);
  if (chunk->oids.empty()) {
    chunks_.erase(chunks_.begin() + k);
    return;
  }
  std::shared_ptr<const Chunk> split;
  if (chunk->oids.size() > kChunkSize) {
    split = chunk->SplitOff(chunk->oids.size() / 2);
  }
  chunks_[k] = std::move(chunk);
  if (split != nullptr) chunks_.insert(chunks_.begin() + k + 1, split);
}

void ExtentPostings::AddFrom(Oid oid, TimePoint t) {
  Update(oid, [t](std::vector<Interval>* p) { JoinFrom(p, t); });
}

void ExtentPostings::RemoveFrom(Oid oid, TimePoint t) {
  Update(oid, [t](std::vector<Interval>* p) { LeaveFrom(p, t); });
}

void ExtentPostings::Erase(Oid oid) {
  Update(oid, [](std::vector<Interval>* p) { p->clear(); });
}

void ExtentPostings::CloseAt(TimePoint t) {
  std::vector<std::shared_ptr<const Chunk>> kept;
  kept.reserve(chunks_.size());
  for (std::shared_ptr<const Chunk>& chunk : chunks_) {
    const bool reaches_past_t =
        std::any_of(chunk->intervals.begin(), chunk->intervals.end(),
                    [t](const Interval& iv) { return iv.end() > t; });
    if (!reaches_past_t) {
      kept.push_back(std::move(chunk));
      continue;
    }
    auto clipped = std::make_shared<Chunk>();
    for (size_t i = 0; i < chunk->oids.size(); ++i) {
      std::span<const Interval> current = chunk->IntervalsAt(i);
      std::vector<Interval> posting(current.begin(), current.end());
      LeaveFrom(&posting, t + 1);
      if (posting.empty()) continue;
      clipped->Splice(clipped->oids.size(), /*present=*/false,
                      chunk->oids[i], posting);
    }
    if (!clipped->oids.empty()) kept.push_back(std::move(clipped));
  }
  chunks_ = std::move(kept);
}

// --- reads -------------------------------------------------------------

size_t ExtentPostings::posting_count() const {
  size_t n = 0;
  for (const auto& chunk : chunks_) n += chunk->oids.size();
  return n;
}

template <typename Fn>
void ExtentPostings::ForEachMemberAt(TimePoint t, Fn&& fn) const {
  // The scan behind every pi(c, t): walks each chunk's arrays directly.
  for (const auto& chunk : chunks_) {
    const Interval* intervals = chunk->intervals.data();
    uint32_t begin = 0;
    for (size_t i = 0; i < chunk->oids.size(); ++i) {
      const uint32_t end = chunk->ends[i];
      if (end == begin + 1) {  // the common single-interval posting
        if (intervals[begin].start() <= t && t <= intervals[begin].end()) {
          fn(chunk->oids[i]);
        }
      } else if (CoversInstant({intervals + begin, intervals + end}, t)) {
        fn(chunk->oids[i]);
      }
      begin = end;
    }
  }
}

std::vector<Oid> ExtentPostings::MembersAt(TimePoint t) const {
  std::vector<Oid> out(posting_count());
  size_t n = 0;
  ForEachMemberAt(t, [&](Oid oid) { out[n++] = oid; });
  out.resize(n);
  return out;
}

size_t ExtentPostings::CountAt(TimePoint t) const {
  size_t n = 0;
  ForEachMemberAt(t, [&n](Oid) { ++n; });
  return n;
}

IntervalSet ExtentPostings::Domain(TimePoint current) const {
  std::vector<Interval> out;
  ForEach([&](Oid, std::span<const Interval> posting) {
    for (const Interval& iv : posting) {
      Interval r = iv.Resolve(current);
      if (!r.empty()) out.push_back(r);
    }
  });
  return IntervalSet(std::move(out));
}

bool ExtentPostings::ContainsAt(Oid oid, TimePoint t) const {
  return CoversInstant(IntervalsOf(oid), t);
}

std::span<const Interval> ExtentPostings::IntervalsOf(Oid oid) const {
  const size_t k = ChunkFor(oid);
  if (k == chunks_.size()) return {};
  const Chunk& chunk = *chunks_[k];
  auto it = std::lower_bound(chunk.oids.begin(), chunk.oids.end(), oid);
  if (it == chunk.oids.end() || *it != oid) return {};
  return chunk.IntervalsAt(static_cast<size_t>(it - chunk.oids.begin()));
}

TemporalFunction ExtentPostings::ToSetHistory() const {
  // Sweep the join/leave events in time order; each stretch between two
  // event instants holds one member set.
  struct Event {
    TimePoint at;
    Oid oid;
    bool join;
  };
  std::vector<Event> events;
  ForEach([&](Oid oid, std::span<const Interval> posting) {
    for (const Interval& iv : posting) {
      events.push_back({iv.start(), oid, true});
      if (!IsNow(iv.end())) events.push_back({iv.end() + 1, oid, false});
    }
  });
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  std::set<Oid> members;
  std::vector<TemporalFunction::Segment> segments;
  for (size_t e = 0; e < events.size();) {
    const TimePoint at = events[e].at;
    for (; e < events.size() && events[e].at == at; ++e) {
      if (events[e].join) {
        members.insert(events[e].oid);
      } else {
        members.erase(events[e].oid);
      }
    }
    if (members.empty()) continue;
    // Members left at the last event never leave: the stretch is ongoing.
    const TimePoint end = e < events.size() ? events[e].at - 1 : kNow;
    std::vector<Value> elements;
    elements.reserve(members.size());
    for (Oid oid : members) elements.push_back(Value::OfOid(oid));
    segments.push_back({Interval(at, end), Value::Set(std::move(elements))});
  }
  // The stretches are disjoint by construction, so Make cannot fail.
  Result<TemporalFunction> f = TemporalFunction::Make(std::move(segments));
  return f.ok() ? *std::move(f) : TemporalFunction();
}

std::string ExtentPostings::ToString() const {
  std::string out;
  ForEach([&](Oid oid, std::span<const Interval> posting) {
    if (!out.empty()) out += ' ';
    out += std::to_string(oid.id);
    out += ':';
    for (const Interval& iv : posting) out += iv.ToString();
  });
  return out;
}

}  // namespace tchimera
