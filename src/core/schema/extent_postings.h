// Class extents stored as oid-ordered interval postings.
//
// Definition 4.1 puts `ext` and `proper-ext` in a class's history as
// temporal values of type temporal(set-of(c)): E(t) is the set of members
// at instant t. Storing that function segment by segment repeats the whole
// member set in every segment, so every create or delete would copy it.
// ExtentPostings stores the same information transposed: one posting per
// oid that was ever a member, holding the maximal disjoint intervals of
// its membership (an ongoing one ends at kNow). E(t) is the set of oids
// whose posting contains t; ToSetHistory() rebuilds the temporal value.
//
// Postings live in fixed-size chunks behind shared_ptr<const Chunk>, in
// ascending oid order across and within chunks. Chunks are immutable: a
// mutation builds a new version of the one chunk it touches and swaps the
// pointer, so copying an ExtentPostings (every copy-on-write ClassDef
// clone) copies one pointer per chunk and the copies share every chunk
// neither side has changed since.
#ifndef TCHIMERA_CORE_SCHEMA_EXTENT_POSTINGS_H_
#define TCHIMERA_CORE_SCHEMA_EXTENT_POSTINGS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/temporal/interval.h"
#include "core/temporal/interval_set.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"

namespace tchimera {

class ExtentPostings {
 public:
  // Postings per chunk: a mutation copies at most this many postings.
  static constexpr size_t kChunkSize = 128;

  // One oid's membership: maximal intervals, sorted, pairwise disjoint
  // and non-adjacent; an ongoing one ends at kNow.
  struct Posting {
    Oid oid;
    std::vector<Interval> intervals;
  };

  ExtentPostings() = default;
  // Builds postings given in strictly ascending oid order, each well
  // formed (see Posting); InvalidArgument otherwise. Loaders use this.
  static Result<ExtentPostings> FromPostings(
      const std::vector<Posting>& postings);

  // --- mutation ------------------------------------------------------------

  // Makes `oid` a member over [t, now] (joining any interval that touches
  // it). Later history of other oids is untouched.
  void AddFrom(Oid oid, TimePoint t);
  // Ends `oid`'s membership at t - 1: removes [t, now] from its posting.
  void RemoveFrom(Oid oid, TimePoint t);
  // Drops `oid`'s posting entirely.
  void Erase(Oid oid);
  // Clips every membership to end no later than t (class deletion).
  void CloseAt(TimePoint t);

  // --- reads ---------------------------------------------------------------

  // E(t) in ascending oid order.
  std::vector<Oid> MembersAt(TimePoint t) const;
  // |E(t)|, without materializing it.
  size_t CountAt(TimePoint t) const;
  bool ContainsAt(Oid oid, TimePoint t) const;
  // The instants with at least one member, ongoing intervals clipped to
  // `current` (TemporalFunction::Domain of ToSetHistory(), without
  // building it).
  IntervalSet Domain(TimePoint current) const;
  // `oid`'s posting (raw: ongoing intervals end at kNow); empty when it
  // was never a member. Valid until the next mutation.
  std::span<const Interval> IntervalsOf(Oid oid) const;

  // Calls fn(Oid, std::span<const Interval>) for every posting in
  // ascending oid order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (size_t i = 0; i < chunk->oids.size(); ++i) {
        fn(chunk->oids[i], chunk->IntervalsAt(i));
      }
    }
  }

  // The set-valued temporal function these postings denote: defined at
  // exactly the instants with at least one member, coalesced.
  TemporalFunction ToSetHistory() const;

  // "1:[0,now] 3:[0,4][9,now]" — the snapshot EXT/PEXT syntax.
  std::string ToString() const;

  // Structural-sharing introspection (tests).
  size_t chunk_count() const { return chunks_.size(); }
  long chunk_use_count(size_t i) const { return chunks_[i].use_count(); }

 private:
  struct Chunk {
    std::vector<Oid> oids;       // ascending
    std::vector<uint32_t> ends;  // posting i is intervals[ends[i-1], ends[i])
    std::vector<Interval> intervals;

    uint32_t Begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
    std::span<const Interval> IntervalsAt(size_t i) const {
      return {intervals.data() + Begin(i), intervals.data() + ends[i]};
    }
    // Replaces (or inserts at position i, when !present) the posting of
    // `oid`; an empty `posting` removes it.
    void Splice(size_t i, bool present, Oid oid,
                const std::vector<Interval>& posting);
    // Moves postings [from, end) into a new chunk.
    std::shared_ptr<const Chunk> SplitOff(size_t from);
  };

  // Oids that were ever members.
  size_t posting_count() const;
  // The chunk whose oid range `oid` falls in (0 when it precedes every
  // chunk); chunks_.size() only when there are no chunks.
  size_t ChunkFor(Oid oid) const;
  // Calls fn(Oid) for every member at instant t, in ascending order.
  template <typename Fn>
  void ForEachMemberAt(TimePoint t, Fn&& fn) const;
  // Rewrites `oid`'s posting with `edit`, cloning only its chunk.
  template <typename Edit>
  void Update(Oid oid, Edit edit);

  std::vector<std::shared_ptr<const Chunk>> chunks_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_SCHEMA_EXTENT_POSTINGS_H_
