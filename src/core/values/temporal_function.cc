#include "core/values/temporal_function.h"

#include <algorithm>

namespace tchimera {

Result<TemporalFunction> TemporalFunction::Make(
    std::vector<Segment> segments) {
  // Drop empty intervals, sort by start.
  std::vector<Segment> kept;
  kept.reserve(segments.size());
  for (Segment& s : segments) {
    if (!s.interval.empty()) kept.push_back(std::move(s));
  }
  std::sort(kept.begin(), kept.end(), [](const Segment& a, const Segment& b) {
    return a.interval.start() < b.interval.start();
  });
  for (size_t i = 1; i < kept.size(); ++i) {
    if (kept[i].interval.start() <= kept[i - 1].interval.end()) {
      return Status::TemporalError(
          "temporal value has overlapping intervals " +
          kept[i - 1].interval.ToString() + " and " +
          kept[i].interval.ToString());
    }
  }
  TemporalFunction f;
  f.segments_ = std::move(kept);
  f.Coalesce();
  return f;
}

TemporalFunction TemporalFunction::Constant(const Interval& interval,
                                            Value v) {
  TemporalFunction f;
  if (!interval.empty()) {
    f.segments_.push_back({interval, std::move(v)});
  }
  return f;
}

const Value* TemporalFunction::At(TimePoint t) const {
  // Last segment whose start <= t.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](TimePoint v, const Segment& s) { return v < s.interval.start(); });
  if (it == segments_.begin()) return nullptr;
  --it;
  if (t <= it->interval.end()) return &it->value;
  return nullptr;
}

IntervalSet TemporalFunction::Domain(TimePoint current) const {
  std::vector<Interval> out;
  out.reserve(segments_.size());
  for (const Segment& s : segments_) {
    Interval r = s.interval.Resolve(current);
    if (!r.empty()) out.push_back(r);
  }
  return IntervalSet(std::move(out));
}

IntervalSet TemporalFunction::RawDomain() const {
  std::vector<Interval> out;
  out.reserve(segments_.size());
  for (const Segment& s : segments_) out.push_back(s.interval);
  return IntervalSet(std::move(out));
}

Status TemporalFunction::Define(const Interval& interval, Value v) {
  if (interval.empty()) return Status::OK();
  TCH_RETURN_IF_ERROR(Erase(interval));
  // Insert the new segment at its sorted position.
  auto pos = std::lower_bound(
      segments_.begin(), segments_.end(), interval.start(),
      [](const Segment& s, TimePoint t) { return s.interval.start() < t; });
  segments_.insert(pos, Segment{interval, std::move(v)});
  Coalesce();
  return Status::OK();
}

Status TemporalFunction::Erase(const Interval& interval) {
  if (interval.empty()) return Status::OK();
  std::vector<Segment> out;
  out.reserve(segments_.size() + 1);
  for (Segment& s : segments_) {
    const Interval& iv = s.interval;
    if (iv.end() < interval.start() || iv.start() > interval.end()) {
      out.push_back(std::move(s));
      continue;
    }
    // Keep the part before the erased range.
    if (iv.start() < interval.start()) {
      out.push_back({Interval(iv.start(), interval.start() - 1), s.value});
    }
    // Keep the part after the erased range (interval.end()+1 would
    // overflow when the erased range is ongoing; an ongoing erase leaves
    // no tail).
    if (!IsNow(interval.end()) && iv.end() > interval.end()) {
      out.push_back({Interval(interval.end() + 1, iv.end()),
                     std::move(s.value)});
    }
  }
  segments_ = std::move(out);
  return Status::OK();
}

Status TemporalFunction::AssertFrom(TimePoint t, Value v) {
  // Asserting from `t` onward is the hot path (every current-time update
  // lands here); when `t` is at or after the final segment the splice
  // reduces to closing/extending the tail in O(1) instead of rebuilding
  // the whole segment vector.
  if (!segments_.empty()) {
    Segment& last = segments_.back();
    if (last.interval.is_ongoing() && last.interval.start() <= t) {
      if (last.value == v) return Status::OK();  // value unchanged
      if (last.interval.start() == t) {
        // Same-instant rewrite; may now coalesce with the previous
        // segment.
        last.value = std::move(v);
        if (segments_.size() >= 2) {
          Segment& prev = segments_[segments_.size() - 2];
          if (prev.interval.end() + 1 == t && prev.value == last.value) {
            prev.interval = Interval(prev.interval.start(), kNow);
            segments_.pop_back();
          }
        }
        return Status::OK();
      }
      last.interval = Interval(last.interval.start(), t - 1);
      segments_.push_back({Interval::FromUntilNow(t), std::move(v)});
      return Status::OK();
    }
    if (!last.interval.is_ongoing() && last.interval.end() < t) {
      if (last.interval.end() + 1 == t && last.value == v) {
        // Adjacent equal value: the closed tail simply reopens.
        last.interval = Interval(last.interval.start(), kNow);
        return Status::OK();
      }
      segments_.push_back({Interval::FromUntilNow(t), std::move(v)});
      return Status::OK();
    }
  }
  return Define(Interval::FromUntilNow(t), std::move(v));
}

void TemporalFunction::CloseAt(TimePoint t) {
  if (segments_.empty()) return;
  Segment& last = segments_.back();
  if (!last.interval.is_ongoing()) return;
  if (t < last.interval.start()) {
    // Closing before the segment began removes it entirely.
    segments_.pop_back();
    return;
  }
  last.interval = Interval(last.interval.start(), t);
}

int TemporalFunction::Compare(const TemporalFunction& a,
                              const TemporalFunction& b) {
  size_t n = std::min(a.segments_.size(), b.segments_.size());
  for (size_t i = 0; i < n; ++i) {
    const Segment& sa = a.segments_[i];
    const Segment& sb = b.segments_[i];
    if (sa.interval.start() != sb.interval.start()) {
      return sa.interval.start() < sb.interval.start() ? -1 : 1;
    }
    if (sa.interval.end() != sb.interval.end()) {
      return sa.interval.end() < sb.interval.end() ? -1 : 1;
    }
    int c = Value::Compare(sa.value, sb.value);
    if (c != 0) return c;
  }
  if (a.segments_.size() != b.segments_.size()) {
    return a.segments_.size() < b.segments_.size() ? -1 : 1;
  }
  return 0;
}

void TemporalFunction::AppendTo(std::string* out) const {
  out->push_back('{');
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('<');
    segments_[i].interval.AppendTo(out);
    out->push_back(',');
    segments_[i].value.AppendTo(out);
    out->push_back('>');
  }
  out->push_back('}');
}

std::string TemporalFunction::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

size_t TemporalFunction::ApproxBytes() const {
  size_t bytes = sizeof(TemporalFunction);
  for (const Segment& s : segments_) {
    bytes += sizeof(Segment) - sizeof(Value) + s.value.ApproxBytes();
  }
  return bytes;
}

void TemporalFunction::Coalesce() {
  if (segments_.empty()) return;
  std::vector<Segment> out;
  out.reserve(segments_.size());
  out.push_back(std::move(segments_.front()));
  for (size_t i = 1; i < segments_.size(); ++i) {
    Segment& prev = out.back();
    Segment& cur = segments_[i];
    if (!prev.interval.is_ongoing() &&
        prev.interval.end() + 1 == cur.interval.start() &&
        prev.value == cur.value) {
      prev.interval = Interval(prev.interval.start(), cur.interval.end());
    } else {
      out.push_back(std::move(cur));
    }
  }
  segments_ = std::move(out);
}

}  // namespace tchimera
