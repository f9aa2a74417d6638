// Reference timing replay for the arena engine.
//
// heap_replay re-runs the phase-2 timing replay of Cluster::execute_arena
// over a bare std::priority_queue of (time, id) pairs, written
// independently of the production loop.  The per-event work is the
// production loop's — the same link reservations through the cluster's
// links, the same compute charge, the same dependent release — without
// its payload pass, its drain-frontier CHECK or its shared event type.
// That makes it both the event-order oracle of the replay tests (equal
// reports and equal replay digests mean the production replay committed
// the exact (time, id) sequence) and the comparator bench/micro_recovery
// times the production loop's overhead against.
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
