// Reference timing replay for the arena engine.
//
// heap_replay re-runs the phase-2 timing replay of Cluster::execute_arena
// with a std::priority_queue in place of the production calendar queue.
// The per-event work is the production loop's — the same link
// reservations through the cluster's links, the same compute charge, the
// same dependent release — so the two differ only in the queue.  That makes
// it both the event-order oracle of the replay tests (equal reports and
// equal replay digests mean the calendar queue popped the exact
// (time, id) sequence a binary heap pops) and the comparator
// bench/micro_recovery times the calendar queue against.
#pragma once

#include "emul/cluster.h"
#include "recovery/plan_arena.h"

namespace car::oracle {

/// Replay `plan`'s timeline on `cluster`: reserve its links, advance its
/// clock to the makespan, and return the report execute_arena(plan) would
/// on an identically prepared cluster — wall_s, compute_s,
/// replacement_compute_s, the byte totals and replay_digest.  Moves no
/// payload and touches no node buffer.  Requires ClockMode::kVirtual.
emul::ExecutionReport heap_replay(emul::Cluster& cluster,
                                  const recovery::PlanArena& plan);

}  // namespace car::oracle
