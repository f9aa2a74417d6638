// Reference plan builders for the template-cached arena planner.
//
// Hand-written per-stripe builders: each walks its solutions and appends
// PlanSteps one by one (paper Algorithm 1 — gather transfers to one
// aggregator per rack, one partial decode per rack and lost chunk, a final
// XOR-combine at the replacement; RR ships every fetched survivor to the
// replacement and decodes there).
// Production plans come from recovery::build_multi_{car,rr}_arena
// (recovery/plan_template.h), read back through PlanArena::to_plan() where
// chunk-granular steps are needed.  The differential tests prove the two
// are the same function, step for step, and bench/micro_recovery times the
// arena build against build_multi_car_plan + PlanArena::build.
#pragma once

#include <cstdint>
#include <span>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "recovery/planner.h"
#include "recovery/random_recovery.h"
#include "rs/code.h"

namespace car::oracle {

/// Compile a CAR multi-stripe solution into an executable plan.  Each
/// contributing rack designates the host of its first picked chunk as
/// aggregator; aggregators partially decode and forward one chunk to the
/// replacement, which XOR-combines the partials (paper Algorithm 1).
recovery::RecoveryPlan build_car_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const recovery::PerStripeSolution> solutions,
    std::uint64_t chunk_size, cluster::NodeId replacement);

/// Compile an RR multi-stripe solution: every fetched survivor is shipped
/// directly to the replacement, which runs the full decode.
recovery::RecoveryPlan build_rr_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const recovery::RrSolution> solutions, std::uint64_t chunk_size,
    cluster::NodeId replacement);

/// Multi-failure CAR: per contributing rack, the aggregator computes one
/// partial per lost chunk and ships each to the replacement.
recovery::RecoveryPlan build_multi_car_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const recovery::MultiStripeSolution> solutions,
    std::uint64_t chunk_size, cluster::NodeId replacement);

/// Multi-failure RR: fetch the k chosen survivors to the replacement, which
/// decodes every lost chunk there.
recovery::RecoveryPlan build_multi_rr_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const recovery::MultiRrSolution> solutions,
    std::uint64_t chunk_size, cluster::NodeId replacement);

}  // namespace car::oracle
