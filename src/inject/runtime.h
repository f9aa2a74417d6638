// Resilient recovery-plan execution under injected faults.
//
// ResilientRuntime executes a RecoveryPlan against emul::Cluster the way a
// production repair pipeline would run it on a misbehaving network: every
// transfer has a timeout, failed attempts (drop, corruption, timeout) are
// retried with seeded exponential backoff + jitter (util::BackoffSchedule),
// and when a FaultPlan kills a *second* node mid-plan the runtime escalates
// — cancels the outstanding steps, drops the node, re-plans the remaining
// work through recovery/multi, re-validates the new plan with
// recovery/validate, and resumes on the same virtual timeline.
//
// The plan runs as a one-batch rebuild::BatchDriver — the fault-aware
// event loop the rebuild coordinator also runs on — and this runtime is
// the crash-escalation policy over it: a time-triggered crash is a
// run_until deadline, a fraction-triggered crash a completed-step stop,
// and the escalation is cancel_all, drop_node, re-plan, admit.  With a
// virtual-clock cluster a run is a pure function of (plan, FaultPlan,
// seed): the EventLog two identical runs produce is byte-identical.  Real
// bytes still move and the real GF kernels still run — recovered chunks
// are bit-exact, not simulated.
//
// Accounting is at-most-once: ExecutionReport traffic counts a transfer's
// payload exactly once, no matter how many attempts it took (failed
// attempts accumulate separately in RunStats::wasted_wire_bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "emul/cluster.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "recovery/plan.h"
#include "recovery/validate.h"
#include "rs/code.h"
#include "util/stats.h"

namespace car::inject {

/// Per-transfer failure handling knobs.
struct RetryPolicy {
  /// A transfer attempt that has not delivered after this many virtual
  /// seconds is abandoned and retried.
  double transfer_timeout_s = 0.5;
  /// Total tries per transfer (first attempt included).  Exhaustion is a
  /// permanent failure: the run throws util::StateError.
  std::size_t max_attempts = 5;
  /// Retry delay for 1-based attempt a: min(base * factor^(a-1), cap),
  /// jittered by the run seed.
  util::BackoffSchedule backoff{0.01, 2.0, 0.25, 0.2};
};

/// Which planner the crash escalation re-plans with (mirrors the strategy
/// of the original plan).
enum class ReplanStrategy : std::uint8_t { kCar, kRr };

/// Everything the runtime needs to re-plan after a mid-recovery crash.
/// placement/code may be null when the FaultPlan contains no node crashes.
struct ReplanContext {
  const cluster::Placement* placement = nullptr;
  const rs::Code* code = nullptr;
  /// Nodes whose data was already lost before this run (the original
  /// failure); the crashed node joins them in the multi-failure scenario.
  std::vector<cluster::NodeId> failed_nodes;
  ReplanStrategy strategy = ReplanStrategy::kCar;
};

/// What payload actually moves during a run.  The default carries real
/// bytes for every stripe.  A metadata-only run keeps the *identical*
/// event loop, virtual timeline, fault matching, retry schedule, and byte
/// accounting — every event lands at the same time with the same declared
/// bytes — but skips payload staging, GF compute, and buffer writes for
/// stripes not listed in sampled_stripes: their recoveries are measured,
/// not materialised.  Sampled stripes carry real bytes end to end, so a
/// seeded sample of a datacenter-scale run is still verified bit-exactly.
///
/// Caveat: a corrupt-fault checksum detail requires payload bytes, so
/// kTransferCorrupt events on *unsampled* stripes log a metadata-only
/// placeholder instead of real checksums.  When comparing a metadata run's
/// log byte-for-byte against a real-byte run, aim corrupt faults at
/// sampled stripes.
struct DataPolicy {
  bool metadata_only = false;
  /// Stripes that stay real-byte (order/duplicates irrelevant); ignored
  /// when metadata_only is false.
  std::vector<cluster::StripeId> sampled_stripes;
};

struct RunStats {
  std::size_t attempts = 0;      // transfer attempts issued
  std::size_t retries = 0;       // attempts beyond the first
  std::size_t timeouts = 0;      // attempts abandoned at the deadline
  std::size_t drops = 0;         // attempts lost in flight (fault)
  std::size_t corruptions = 0;   // attempts rejected by checksum (fault)
  std::size_t replans = 0;       // crash escalations
  std::size_t cancelled_steps = 0;  // steps abandoned by escalations
  /// Bytes that crossed links in attempts that ultimately failed — wire
  /// waste, deliberately kept out of ExecutionReport's traffic totals.
  std::uint64_t wasted_wire_bytes = 0;
};

struct RunResult {
  emul::ExecutionReport report;  // at-most-once traffic, modelled compute
  EventLog log;
  RunStats stats;
  bool replanned = false;
  /// The plan that actually finished: the re-plan after the last crash
  /// escalation, or a copy of the input plan when no crash fired.
  recovery::RecoveryPlan final_plan;
  /// Validation report of the last re-plan (empty when !replanned).
  recovery::ValidationReport replan_validation;
};

class ResilientRuntime {
 public:
  /// The cluster must use ClockMode::kVirtual (util::StateError otherwise —
  /// wall clocks cannot reproduce an EventLog byte-for-byte).  `faults` is
  /// validated against the cluster topology on execute().
  ResilientRuntime(emul::Cluster& cluster, FaultPlan faults,
                   RetryPolicy policy, std::uint64_t seed);

  /// Run `plan` to completion under the fault schedule.  Throws
  /// util::StateError when a transfer exhausts its retry budget, a re-plan
  /// fails validation, or a crash targets the replacement node; propagates
  /// util::CheckError from malformed plans/faults.  On success every plan
  /// output is published on the replacement as a regular chunk replica.
  /// Runs chunk-granular (a degenerate one-slice lowering of the sliced
  /// engine below — identical events, bytes, and timeline).
  RunResult execute(const recovery::RecoveryPlan& plan,
                    const ReplanContext& context);

  /// Slice-pipelined variant: lower `plan` onto a `slice_bytes` grid
  /// (recovery/slice.h) and run it with timeouts, retries, fault matching,
  /// and crash escalation at slice granularity.  Cross-rack shipping of
  /// slice s overlaps partial decoding of slice s+1 on the virtual
  /// timeline, so the makespan approaches max(transfer, compute).
  /// At-most-once accounting is preserved per slice (slices of one
  /// transfer sum to exactly chunk_size), recovered bytes are bit-identical
  /// to the chunk-granular run, and same-seed runs stay byte-identical in
  /// the EventLog.  Crash escalations re-plan at chunk granularity and
  /// re-lower the new plan onto the same grid.
  RunResult execute_sliced(const recovery::RecoveryPlan& plan,
                           std::uint64_t slice_bytes,
                           const ReplanContext& context);

  /// As above, under an explicit payload policy (see DataPolicy).  The
  /// three-argument overload is this one with the default (all-real)
  /// policy.
  RunResult execute_sliced(const recovery::RecoveryPlan& plan,
                           std::uint64_t slice_bytes,
                           const ReplanContext& context,
                           const DataPolicy& data);

 private:
  emul::Cluster& cluster_;
  FaultPlan faults_;
  RetryPolicy policy_;
  std::uint64_t seed_;
};

}  // namespace car::inject
