// Prioritized rebuild queue: exposure tier first, cost tiebreak second.
//
// The queue holds the output of one scan epoch (recovery/exposure.h) sorted
// by scheduling priority:
//
//   1. tolerance_left ascending — a stripe one failure away from data loss
//      (tolerance 0) is rebuilt before any fresh-degraded stripe, the
//      Facebook warehouse-cluster prioritization (PAPERS.md);
//   2. estimated cross-rack cost ascending — cheap repairs first within a
//      tier, so exposed stripes leave the window sooner;
//   3. stripe id ascending — a total, deterministic order.
//
// Re-prioritization on membership change is by reconstruction: the
// coordinator re-scans at the new epoch and calls reset() with the fresh
// census, so a second failure that turns a queued fresh-degraded stripe
// into a most-exposed one automatically moves it to the front.
//
// Batches must share one failure signature (identical plan_hosts): a
// recovery/multi scenario treats every node outside its failed set as
// alive, so mixing signatures in one batch would let a planner read chunks
// from a dead node that merely isn't in *this* stripe's signature.
// pop_batch therefore returns a head-run of equal-signature entries.
//
// reset() groups the sorted entries by signature once; a pop then touches
// only the entries it returns (plus, amortised, the taken entries the head
// cursor steps over), so draining an epoch costs O(census) in total rather
// than O(census) per batch.  Because the (tier, cost, stripe) key is a
// total order, the grouped pop returns exactly the batches a linear scan
// of the sorted queue would.
//
// The queue is shared state between the coordinator and (in principle)
// concurrent scan producers, so it carries the PR 7 lock discipline:
// util::Mutex + CAR_GUARDED_BY, analyzable by -Wthread-safety.
#pragma once

#include <cstddef>
#include <vector>

#include "recovery/exposure.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace car::rebuild {

class RebuildQueue {
 public:
  /// Replace the queue's contents with a fresh epoch's census (any order);
  /// entries are sorted by the priority above.
  void reset(std::vector<recovery::StripeExposure> census) CAR_EXCLUDES(mu_);

  /// Remove and return the highest-priority entry plus subsequent entries
  /// with the *same failure signature* (plan_hosts), up to `max_stripes`
  /// total.  Lower-priority same-signature entries are taken in queue
  /// order, skipping over other signatures (which keep their position).
  /// Empty result iff the queue is empty.  `max_stripes` must be >= 1
  /// (util::CheckError otherwise).  Costs O(returned entries), amortised.
  std::vector<recovery::StripeExposure> pop_batch(std::size_t max_stripes)
      CAR_EXCLUDES(mu_);

  [[nodiscard]] bool empty() const CAR_EXCLUDES(mu_);
  [[nodiscard]] std::size_t size() const CAR_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  /// Sorted by (tolerance_left, cross_rack_cost(), stripe) ascending;
  /// popped entries stay in place, moved-from, with taken_ set.
  std::vector<recovery::StripeExposure> entries_ CAR_GUARDED_BY(mu_);
  /// entries_[i]'s signature, an index into by_signature_.
  std::vector<std::size_t> signature_of_ CAR_GUARDED_BY(mu_);
  /// Per signature, the ascending entries_ indices that carry it.
  std::vector<std::vector<std::size_t>> by_signature_ CAR_GUARDED_BY(mu_);
  /// Per signature, the position in by_signature_ of its first untaken
  /// entry: each signature's entries are taken as a prefix of its list.
  std::vector<std::size_t> next_ CAR_GUARDED_BY(mu_);
  std::vector<char> taken_ CAR_GUARDED_BY(mu_);
  /// No untaken entry lies before head_.
  std::size_t head_ CAR_GUARDED_BY(mu_) = 0;
  std::size_t remaining_ CAR_GUARDED_BY(mu_) = 0;
};

}  // namespace car::rebuild
