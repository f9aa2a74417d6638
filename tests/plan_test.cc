#include "recovery/plan.h"

#include <gtest/gtest.h>

#include <span>

#include "cluster/configs.h"
#include "recovery/balancer.h"
#include "recovery/multi.h"
#include "recovery/plan_template.h"

namespace car::recovery {
namespace {

using cluster::Placement;

struct Fixture {
  cluster::CfsConfig cfg;
  Placement placement;
  rs::Code code;
  cluster::FailureScenario scenario;
  std::vector<StripeCensus> censuses;

  explicit Fixture(int cfg_index, std::uint64_t seed, std::size_t stripes = 30)
      : cfg(cluster::paper_configs()[cfg_index]),
        placement(make_placement(cfg, stripes, seed)),
        code(cfg.k, cfg.m) {
    util::Rng rng(seed + 1);
    scenario = cluster::inject_random_failure(placement, rng);
    censuses = build_censuses(placement, scenario);
  }

  static Placement make_placement(const cluster::CfsConfig& cfg,
                                  std::size_t stripes, std::uint64_t seed) {
    util::Rng rng(seed);
    return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  }
};

// Single-failure plans the way production builds them: the L = 1 case of
// the one planner per strategy, read back as chunk-granular steps.
RecoveryPlan car_plan(const Fixture& f,
                      std::span<const PerStripeSolution> solutions,
                      std::uint64_t chunk) {
  PlanTemplateCache templates;
  return build_multi_car_arena(f.placement, f.code, to_multi(solutions),
                               chunk, chunk, f.scenario.failed_node, templates)
      .to_plan();
}

RecoveryPlan rr_plan(const Fixture& f, std::span<const RrSolution> solutions,
                     std::uint64_t chunk) {
  PlanTemplateCache templates;
  return build_multi_rr_arena(f.placement, f.code, to_multi(solutions), chunk,
                              chunk, f.scenario.failed_node, templates)
      .to_plan();
}

void check_dag(const RecoveryPlan& plan) {
  // Deps reference earlier steps only (the builders emit topologically).
  for (const auto& step : plan.steps) {
    for (std::size_t dep : step.deps) {
      EXPECT_LT(dep, step.id) << "dependency must precede the step";
    }
  }
}

class PlanSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PlanSweep, CarPlanMatchesAnalyticTrafficAccounting) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto balanced = balance_greedy(f.placement, f.censuses, {50});
  constexpr std::uint64_t kChunk = 1 << 20;
  const auto plan = car_plan(f, balanced.solutions, kChunk);
  check_dag(plan);

  const auto summary =
      car_traffic(balanced.solutions, f.placement.topology().num_racks(),
                  f.scenario.failed_rack);
  EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));

  const auto per_rack = plan.per_rack_cross_bytes(f.placement.topology());
  for (cluster::RackId r = 0; r < per_rack.size(); ++r) {
    EXPECT_EQ(per_rack[r], summary.per_rack_chunks[r] * kChunk)
        << "rack " << r;
  }
  EXPECT_EQ(plan.outputs.size(), f.censuses.size());
}

TEST_P(PlanSweep, RrPlanMatchesAnalyticTrafficAccounting) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  util::Rng rng(std::get<1>(GetParam()) + 5);
  const auto rr = plan_rr(f.placement, f.censuses, rng);
  constexpr std::uint64_t kChunk = 1 << 18;
  const auto plan = rr_plan(f, rr, kChunk);
  check_dag(plan);

  const auto summary = rr_traffic(f.placement, rr, f.scenario.failed_rack);
  EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));
  EXPECT_EQ(plan.outputs.size(), f.censuses.size());

  // RR ships each fetched chunk once and computes once per stripe.
  std::size_t expected_transfers = 0;
  for (const auto& solution : rr) {
    for (std::size_t chunk : solution.chunk_indices) {
      expected_transfers +=
          f.placement.node_of(solution.stripe, chunk) != f.scenario.failed_node;
    }
  }
  EXPECT_EQ(plan.num_transfers(), expected_transfers);
  EXPECT_EQ(plan.num_computes(), rr.size());
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, PlanSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(11u, 47u)));

TEST(CarPlan, StructurePerStripe) {
  Fixture f(0, 3, 5);
  const auto solutions = plan_car_initial(f.placement, f.censuses);
  const auto plan = car_plan(f, solutions, 4096);

  // Per stripe: one partial-decode compute per contributing rack, one
  // partial shipment per contributing rack, one final combine.
  std::size_t expected_computes = 0;
  std::size_t expected_partial_ships = 0;
  for (const auto& s : solutions) {
    expected_computes += s.picks.size() + 1;  // partials + final XOR
    expected_partial_ships += s.picks.size();
  }
  EXPECT_EQ(plan.num_computes(), expected_computes);

  // Intra-rack gather transfers: picked chunks not hosted by the aggregator.
  std::size_t gather = 0;
  for (const auto& s : solutions) {
    for (const auto& pick : s.picks) gather += pick.chunk_indices.size() - 1;
  }
  EXPECT_EQ(plan.num_transfers(), gather + expected_partial_ships);

  // The final combine for each stripe runs on the replacement and XORs one
  // partial per contributing rack.
  for (const auto& out : plan.outputs) {
    const auto& step = plan.steps[out.step_id];
    EXPECT_EQ(step.kind, StepKind::kCompute);
    EXPECT_EQ(step.node, f.scenario.failed_node);
    for (const auto& in : step.inputs) {
      EXPECT_EQ(in.coeff, 1) << "final combine must be a pure XOR";
      EXPECT_EQ(in.buffer.kind, BufferRef::Kind::kStepOutput);
    }
  }
}

TEST(Plan, ZeroChunkSizeRejected) {
  Fixture f(0, 4, 2);
  const auto solutions = plan_car_initial(f.placement, f.censuses);
  EXPECT_THROW(car_plan(f, solutions, 0), std::invalid_argument);
  util::Rng rng(8);
  const auto rr = plan_rr(f.placement, f.censuses, rng);
  EXPECT_THROW(rr_plan(f, rr, 0), std::invalid_argument);
  // A zero slice is rejected the same way.
  PlanTemplateCache templates;
  EXPECT_THROW(build_multi_car_arena(f.placement, f.code, to_multi(solutions),
                                     4096, 0, f.scenario.failed_node,
                                     templates),
               std::invalid_argument);
}

TEST(Plan, ReplacementOutOfRangeRejected) {
  Fixture f(0, 4, 2);
  const auto solutions = to_multi(plan_car_initial(f.placement, f.censuses));
  util::Rng rng(8);
  const auto rr = to_multi(plan_rr(f.placement, f.censuses, rng));
  const cluster::NodeId bad = f.placement.topology().num_nodes();
  PlanTemplateCache templates;
  EXPECT_THROW(build_multi_car_arena(f.placement, f.code, solutions, 4096,
                                     4096, bad, templates),
               std::invalid_argument);
  EXPECT_THROW(build_multi_rr_arena(f.placement, f.code, rr, 4096, 4096, bad,
                                    templates),
               std::invalid_argument);
}

TEST(Plan, EmptyRackPickRejected) {
  // Every pick names at least its aggregator's chunk; an empty one has no
  // aggregator to plan around.
  Fixture f(0, 4, 2);
  auto solutions = to_multi(plan_car_initial(f.placement, f.censuses));
  ASSERT_FALSE(solutions.empty());
  solutions.front().picks.push_back({0, {}});
  PlanTemplateCache templates;
  EXPECT_THROW(build_multi_car_arena(f.placement, f.code, solutions, 4096,
                                     4096, f.scenario.failed_node, templates),
               std::invalid_argument);
}

TEST(Plan, IntraPlusCrossEqualsAllTransferBytes) {
  Fixture f(2, 9, 20);
  const auto solutions = plan_car_initial(f.placement, f.censuses);
  const auto plan = car_plan(f, solutions, 1024);
  std::uint64_t all = 0;
  for (const auto& step : plan.steps) {
    if (step.kind == StepKind::kTransfer) all += step.bytes;
  }
  EXPECT_EQ(plan.cross_rack_bytes() + plan.intra_rack_bytes(), all);
}

}  // namespace
}  // namespace car::recovery
