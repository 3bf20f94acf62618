#include "core/temporal/interval_set.h"

#include <algorithm>

namespace tchimera {

IntervalSet::IntervalSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  Normalize();
}

void IntervalSet::Normalize() {
  std::vector<Interval> in;
  in.reserve(intervals_.size());
  for (const Interval& i : intervals_) {
    if (!i.empty()) in.push_back(i);
  }
  std::sort(in.begin(), in.end(), [](const Interval& a, const Interval& b) {
    if (a.start() != b.start()) return a.start() < b.start();
    return a.end() < b.end();
  });
  intervals_.clear();
  for (const Interval& i : in) {
    if (!intervals_.empty()) {
      Interval& last = intervals_.back();
      // Merge when overlapping or adjacent.
      if (i.start() <= last.end() + 1) {
        if (i.end() > last.end()) last = Interval(last.start(), i.end());
        continue;
      }
    }
    intervals_.push_back(i);
  }
}

int64_t IntervalSet::Cardinality() const {
  int64_t total = 0;
  for (const Interval& i : intervals_) total += i.end() - i.start() + 1;
  return total;
}

bool IntervalSet::Contains(TimePoint t) const {
  // First interval with start > t is the one *after* the candidate.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](TimePoint v, const Interval& i) { return v < i.start(); });
  if (it == intervals_.begin()) return false;
  --it;
  return t <= it->end();
}

bool IntervalSet::CoversInterval(const Interval& interval) const {
  if (interval.empty()) return true;
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), interval.start(),
      [](TimePoint v, const Interval& i) { return v < i.start(); });
  if (it == intervals_.begin()) return false;
  --it;
  return interval.start() >= it->start() && interval.end() <= it->end();
}

bool IntervalSet::CoversSet(const IntervalSet& other) const {
  for (const Interval& i : other.intervals_) {
    if (!CoversInterval(i)) return false;
  }
  return true;
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  std::vector<Interval> all = intervals_;
  all.insert(all.end(), other.intervals_.begin(), other.intervals_.end());
  return IntervalSet(std::move(all));
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  std::vector<Interval> out;
  size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    TimePoint s = std::max(a.start(), b.start());
    TimePoint e = std::min(a.end(), b.end());
    if (s <= e) out.emplace_back(s, e);
    // Advance the interval that ends first.
    if (a.end() < b.end()) {
      ++i;
    } else {
      ++j;
    }
  }
  return IntervalSet(std::move(out));
}

IntervalSet IntervalSet::Difference(const IntervalSet& other) const {
  std::vector<Interval> out;
  size_t j = 0;
  for (const Interval& a : intervals_) {
    TimePoint cursor = a.start();
    while (j < other.intervals_.size() &&
           other.intervals_[j].end() < cursor) {
      ++j;
    }
    size_t k = j;
    while (k < other.intervals_.size() &&
           other.intervals_[k].start() <= a.end()) {
      const Interval& b = other.intervals_[k];
      if (b.start() > cursor) out.emplace_back(cursor, b.start() - 1);
      cursor = std::max(cursor, b.end() + 1);
      if (cursor > a.end()) break;
      ++k;
    }
    if (cursor <= a.end()) out.emplace_back(cursor, a.end());
  }
  return IntervalSet(std::move(out));
}

void IntervalSet::Add(const Interval& interval) {
  if (interval.empty()) return;
  // In-order adds are O(1): WHEN evaluation (query/evaluator.cc,
  // query/vm.cc) appends qualifying boundary intervals in ascending
  // order, and the full re-normalize made that quadratic in the number
  // of result intervals.
  if (intervals_.empty() || interval.start() > intervals_.back().end() + 1) {
    intervals_.push_back(interval);
    return;
  }
  Interval& last = intervals_.back();
  if (interval.start() >= last.start()) {
    // Overlaps or abuts the last interval: extend it in place.
    if (interval.end() > last.end()) {
      last = Interval(last.start(), interval.end());
    }
    return;
  }
  intervals_.push_back(interval);
  Normalize();
}

std::string IntervalSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += ",";
    intervals_[i].AppendTo(&out);
  }
  out += "}";
  return out;
}

}  // namespace tchimera
