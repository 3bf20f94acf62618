// The discrete time domain of T_Chimera (Section 3.2 of the paper):
//   TIME = {0, 1, ..., now, ...}, isomorphic to the natural numbers.
// '0' is the relative beginning; `now` is a special moving constant denoting
// the current time.
//
// We represent instants as 64-bit integers. The symbolic constant `kNow`
// (the largest representable value) stands for the moving `now`; it is
// resolved to the database clock's concrete value by ResolveInstant before
// arithmetic interval algebra is applied. An interval such as [10, now]
// (the paper's own notation, e.g. Example 4.1) is stored with end == kNow
// and means "from 10 through the current time, still ongoing".
#ifndef TCHIMERA_CORE_TEMPORAL_INSTANT_H_
#define TCHIMERA_CORE_TEMPORAL_INSTANT_H_

#include <cstdint>
#include <limits>
#include <string>

namespace tchimera {

// A point of the discrete TIME domain. Valid model instants are >= 0;
// kNow is the symbolic 'now'.
using TimePoint = int64_t;

// The relative beginning of time ('0' in the paper).
inline constexpr TimePoint kTimeOrigin = 0;

// The symbolic moving constant `now`. Deliberately far below the int64
// maximum: interval algebra computes `end + 1` / `start - 1` freely, and
// this leaves plenty of headroom with no overflow special-casing. Any
// concrete model instant is astronomically smaller.
inline constexpr TimePoint kNow = std::numeric_limits<int64_t>::max() / 2;

// True if `t` is the symbolic `now`.
constexpr bool IsNow(TimePoint t) { return t == kNow; }

// True if `t` is a usable instant: a concrete non-negative instant or the
// symbolic `now`.
constexpr bool IsValidInstant(TimePoint t) { return t >= 0; }

// Replaces the symbolic `now` with the concrete current time `current`.
// Concrete instants pass through unchanged.
constexpr TimePoint ResolveInstant(TimePoint t, TimePoint current) {
  return IsNow(t) ? current : t;
}

// Renders an instant: "now" for the symbolic constant, the decimal value
// otherwise. AppendInstant appends the same text to `out`.
void AppendInstant(TimePoint t, std::string* out);
std::string InstantToString(TimePoint t);

}  // namespace tchimera

#endif  // TCHIMERA_CORE_TEMPORAL_INSTANT_H_
