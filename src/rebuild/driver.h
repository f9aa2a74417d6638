// The fault-aware virtual-time event loop.
//
// BatchDriver runs one or more slice-lowered recovery plans ("batches") on
// one shared virtual timeline under a link/transfer FaultPlan.  It is the
// only engine that executes recovery plans under faults: the rebuild
// coordinator runs many overlapping batches on it, and
// inject::ResilientRuntime runs one plan at a time on it, adding a
// crash-escalation policy on top (cancel, drop the node, re-plan, admit).
//
// Per step it applies: per-slice transfer timeouts (preview-based, no wire
// commit), drop/corrupt fault matching via inject::transfer_fault_applies,
// bounded retries with seeded backoff, at-most-once traffic accounting,
// pooled zero-copy staging, and real GF kernels through recovery/compute.h.
// A step is ready at the latest finish of all its producers.
//
//   * admit() — enqueue a batch at the current virtual time; its slice
//     steps interleave with in-flight batches on the (time, batch, step,
//     attempt) event heap (emul/event_queue.h), so cross-rack shipping of
//     one batch overlaps partial decoding of another.
//   * Step-output isolation — every batch's plans use dense step ids
//     starting at 0, so step-output buffer refs are biased by a per-batch
//     base (batch k gets ids k << 32) before touching the cluster; chunk
//     refs are globally unique already (batches own disjoint stripes).
//   * run_until() — execute until a batch completes, the timeline reaches
//     a deadline, a requested number of steps has completed, or everything
//     is idle; callers interleave membership changes and fresh batches
//     between calls.
//   * cancel_all() — the membership-change protocol: publish every output
//     whose producing step delivered ALL slices, wipe step outputs
//     cluster-wide, and report what survived, so the caller can re-plan
//     the remainder and resume bit-exact.
//
// Text that differs between callers is theirs: each batch carries a label
// appended to its records (the coordinator's ", batch N"; empty for the
// inject runtime), the constructor names the owner in error messages, and
// callers write their own run-start records (run_start_detail) and choose
// where the link-fault-armed records go (log_link_faults).
//
// Node crashes are NOT handled here (the FaultPlan must not contain any):
// they are membership events owned by the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/types.h"
#include "emul/cluster.h"
#include "emul/event_queue.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "inject/runtime.h"
#include "recovery/plan.h"
#include "recovery/slice.h"
#include "util/rng.h"

namespace car::rebuild {

/// A (stripe, chunk index) recovered and published as a replica on the
/// replacement node.
struct PublishedChunk {
  cluster::StripeId stripe = 0;
  std::size_t chunk_index = 0;
};

/// Why run_until returned.
enum class StopReason : std::uint8_t {
  kIdle,       // no in-flight batch and nothing queued
  kBatchDone,  // a batch completed (outputs published); others may run on
  kDeadline,   // the next event would land at/after the given deadline
  kStepCount,  // the requested number of steps has completed
};

struct RunOutcome {
  StopReason stop = StopReason::kIdle;
  /// Batch ids that completed during this call (kBatchDone).
  std::vector<std::size_t> finished;
  /// kDeadline: the time of the event the call stopped before.
  double next_event_t = 0.0;
};

/// One cancelled batch's salvage report.
struct CancelledBatch {
  std::size_t batch = 0;                  // admit()'s batch id
  std::vector<PublishedChunk> published;  // outputs that fully delivered
  std::vector<cluster::StripeId> unfinished_stripes;  // need re-planning
  std::size_t cancelled_steps = 0;        // slice steps abandoned
};

/// The run-start record detail for an admitted plan: "S steps, O outputs",
/// then `note`, then the slicing summary when the plan is sliced.
[[nodiscard]] std::string run_start_detail(
    const recovery::RecoveryPlan& plan, const recovery::SlicePlan& sliced,
    std::string_view note);

class BatchDriver {
 public:
  /// `faults` must contain no node crashes (util::CheckError otherwise) —
  /// link and transfer faults only; link fault windows are armed relative
  /// to the cluster clock's time at construction.  The cluster must use
  /// ClockMode::kVirtual.  `slice_bytes` == 0 means chunk-granular (one
  /// slice per step).  `owner` prefixes error messages ("rebuild: ...").
  BatchDriver(emul::Cluster& cluster, const inject::FaultPlan& faults,
              const inject::RetryPolicy& policy, std::uint64_t seed,
              std::uint64_t slice_bytes, inject::DataPolicy data,
              inject::EventLog& log, std::string owner = "rebuild");

  /// Record one link-fault-armed event per link fault, at the start time.
  void log_link_faults();

  /// Admit a validated plan as batch `batch_id` at the current virtual
  /// time, appending `label` to every record the batch writes.  All of its
  /// outputs must target plan.replacement, which must be alive.  Returns
  /// the batch's slice lowering, valid until the next admit or cancel_all.
  const recovery::SlicePlan& admit(std::size_t batch_id,
                                   const recovery::RecoveryPlan& plan,
                                   std::string label);
  /// As above, labelled ", batch <batch_id>".
  const recovery::SlicePlan& admit(std::size_t batch_id,
                                   const recovery::RecoveryPlan& plan);

  /// Drive the shared event loop.  With a deadline (absolute virtual
  /// seconds), execution stops before processing any event scheduled at or
  /// after it — the point where the caller injects a membership change.
  /// With a step count, execution stops once that many slice steps have
  /// completed since construction or the last cancel_all — before a batch
  /// that this completes is published.  Throws util::StateError when a
  /// transfer exhausts its retry budget.
  RunOutcome run_until(std::optional<double> deadline,
                       std::optional<std::size_t> step_count = std::nullopt);

  /// Membership-change protocol: for every in-flight batch, publish the
  /// outputs whose producing step delivered all slices, then wipe step
  /// outputs cluster-wide and forget the batches.  Returns one salvage
  /// report per cancelled batch (admit order); completed batches are not
  /// listed (their outputs were already published).
  std::vector<CancelledBatch> cancel_all();

  /// Advance the shared timeline (monotone; used by callers to move to a
  /// failure event's time before acting on it).
  void advance_to(double t);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }
  [[nodiscard]] const emul::ExecutionReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] const inject::RunStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct Batch {
    std::size_t id = 0;
    std::string label;  // appended to every record of the batch
    recovery::RecoveryPlan plan;
    recovery::SlicePlan sliced;
    std::vector<std::size_t> indegrees;
    std::vector<std::vector<std::size_t>> dependents;
    std::vector<double> ready_at;  // latest producer finish so far
    std::vector<char> done;
    std::size_t completed = 0;
    std::uint64_t buffer_base = 0;  // added to step-output buffer ids
    bool finished = false;
  };

  // (ready time, batch slot, step id, 1-based attempt) — ties break on the
  // earliest-admitted batch, then the lowest step id, then attempt, so the
  // pop order is a pure function of the admitted plans.  The three
  // non-time fields pack into one event key as
  // slot(16) | step(32) | attempt(16), which makes the heap's (time, key)
  // lexicographic order exactly the tuple order; pack_event CHECKs the
  // field ranges.
  static std::uint64_t pack_event(std::size_t slot, std::size_t id,
                                  std::size_t attempt);

  [[nodiscard]] bool is_real(cluster::StripeId stripe) const;
  [[nodiscard]] recovery::BufferRef biased(const recovery::BufferRef& ref,
                                           const Batch& batch) const;
  double run_compute(const Batch& batch, const recovery::PlanStep& step,
                     const recovery::SliceInfo& slice, double t);
  std::optional<double> run_transfer_attempt(std::size_t slot,
                                             const recovery::PlanStep& step,
                                             const recovery::SliceInfo& slice,
                                             double t, std::size_t attempt);
  /// Publish outputs of `batch` whose producing step delivered every slice
  /// (all of them when whole_batch).  Returns the published chunks.
  std::vector<PublishedChunk> publish_outputs(const Batch& batch,
                                              bool whole_batch);
  void advance(double t);

  emul::Cluster& cluster_;
  inject::FaultPlan faults_;
  inject::RetryPolicy policy_;
  std::uint64_t seed_;
  std::uint64_t slice_bytes_;
  inject::DataPolicy data_;
  inject::EventLog& log_;
  std::string owner_;
  util::Rng backoff_rng_;
  std::vector<Batch> batches_;  // finished slots stay, emptied
  std::size_t admitted_ = 0;    // lifetime batch count, keys buffer_base
  std::size_t inflight_ = 0;
  std::size_t completed_ = 0;  // slice steps since the last cancel_all
  emul::EventQueue queue_;
  double t0_;
  double now_;
  emul::ExecutionReport report_;
  inject::RunStats stats_;
};

}  // namespace car::rebuild
