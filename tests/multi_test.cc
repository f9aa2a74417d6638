#include "recovery/multi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "recovery/plan_template.h"
#include "recovery/weighted.h"
#include "util/check.h"
#include "classic_plan.h"
#include "plan_equal.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using cluster::Topology;

Placement make_placement(const cluster::CfsConfig& cfg, std::size_t stripes,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
}

TEST(MultiFailure, ScenarioValidation) {
  const auto cfg = cluster::cfs1();
  const auto p = make_placement(cfg, 5, 1);
  EXPECT_THROW(make_multi_failure(p, {}), std::invalid_argument);
  EXPECT_THROW(make_multi_failure(p, {0, 0}), std::invalid_argument);
  EXPECT_THROW(make_multi_failure(p, {99}), std::invalid_argument);
  const auto scenario = make_multi_failure(p, {3, 7});
  EXPECT_EQ(scenario.replacement, 3u);
  EXPECT_EQ(scenario.replacement_rack, p.topology().rack_of(3));
  EXPECT_TRUE(scenario.is_failed(7));
  EXPECT_FALSE(scenario.is_failed(1));
}

TEST(MultiFailure, CensusCountsLostAndSurvivingConsistently) {
  const auto cfg = cluster::cfs2();
  const auto p = make_placement(cfg, 40, 2);
  const auto scenario = make_multi_failure(p, {0, 5});
  const auto censuses = build_multi_censuses(p, scenario);
  ASSERT_FALSE(censuses.empty());
  for (const auto& census : censuses) {
    const std::size_t surviving = std::accumulate(
        census.surviving.begin(), census.surviving.end(), std::size_t{0});
    EXPECT_EQ(surviving + census.lost_chunks.size(), cfg.k + cfg.m);
    EXPECT_GE(census.lost_chunks.size(), 1u);
    EXPECT_LE(census.lost_chunks.size(), 2u);
    EXPECT_TRUE(std::is_sorted(census.lost_chunks.begin(),
                               census.lost_chunks.end()));
    for (std::size_t c : census.lost_chunks) {
      EXPECT_TRUE(scenario.is_failed(p.node_of(census.stripe, c)));
    }
  }
}

TEST(MultiFailure, SingleFailureIsASpecialCase) {
  // With one failed node, the multi machinery must agree with the
  // single-failure path on censuses and traffic.
  const auto cfg = cluster::cfs3();
  const auto p = make_placement(cfg, 60, 3);
  const cluster::NodeId victim = 4;
  const auto single = cluster::inject_node_failure(p, victim);
  if (single.lost.empty()) GTEST_SKIP();
  const auto single_censuses = build_censuses(p, single);
  const auto multi = make_multi_failure(p, {victim});
  const auto multi_censuses = build_multi_censuses(p, multi);
  ASSERT_EQ(multi_censuses.size(), single_censuses.size());

  const auto single_balanced = balance_greedy(p, single_censuses, {50});
  const auto multi_balanced = balance_multi(p, multi_censuses, 50);
  const auto racks = p.topology().num_racks();
  EXPECT_EQ(car_traffic(single_balanced.solutions, racks, single.failed_rack)
                .total_chunks(),
            multi_traffic(multi_balanced.solutions, racks,
                          multi.replacement_rack)
                .total_chunks());

  // Plans: a single-failure solution converted to its L = 1 multi-failure
  // form plans, through the one planner per strategy, to exactly the
  // classic single-failure oracle's plan, step for step — for greedy CAR,
  // bandwidth-weighted CAR and RR.
  constexpr std::uint64_t kChunk = 4096;
  for (const int cfg_index : {0, 1, 2}) {
    for (const std::uint64_t seed : {5u, 23u, 71u}) {
      SCOPED_TRACE("cfs" + std::to_string(cfg_index + 1) + " seed " +
                   std::to_string(seed));
      const auto paper = cluster::paper_configs()[cfg_index];
      const auto placement = make_placement(paper, 40, seed);
      util::Rng rng(seed + 1);
      const auto failure = cluster::inject_random_failure(placement, rng);
      const auto censuses = build_censuses(placement, failure);
      ASSERT_FALSE(censuses.empty());
      const rs::Code code(paper.k, paper.m);
      const cluster::NodeId replacement = failure.failed_node;
      PlanTemplateCache templates;  // CAR and RR keys never collide

      const auto greedy = balance_greedy(placement, censuses, {50});
      oracle::expect_plan_equal(
          build_multi_car_arena(placement, code, to_multi(greedy.solutions),
                                kChunk, kChunk, replacement, templates)
              .to_plan(),
          oracle::build_car_plan(placement, code, greedy.solutions, kChunk,
                                 replacement));

      std::vector<double> bandwidth(placement.topology().num_racks());
      for (std::size_t i = 0; i < bandwidth.size(); ++i) {
        bandwidth[i] = 1.0 + static_cast<double>(i % 3);
      }
      const auto weighted = balance_weighted(placement, censuses, bandwidth);
      oracle::expect_plan_equal(
          build_multi_car_arena(placement, code, to_multi(weighted.solutions),
                                kChunk, kChunk, replacement, templates)
              .to_plan(),
          oracle::build_car_plan(placement, code, weighted.solutions, kChunk,
                                 replacement));

      util::Rng rr_rng(seed + 2);
      const auto rr = plan_rr(placement, censuses, rr_rng);
      oracle::expect_plan_equal(
          build_multi_rr_arena(placement, code, to_multi(rr), kChunk, kChunk,
                               replacement, templates)
              .to_plan(),
          oracle::build_rr_plan(placement, code, rr, kChunk, replacement));
    }
  }
}

TEST(MultiFailure, UnrecoverableStripeThrows) {
  // Force a stripe losing more than m chunks: fail m+1 of its hosts.
  const auto cfg = cluster::cfs1();  // m = 3
  const auto p = make_placement(cfg, 10, 4);
  const auto hosts = p.stripe(0);
  std::vector<cluster::NodeId> victims(hosts.begin(),
                                       hosts.begin() + cfg.m + 1);
  const auto scenario = make_multi_failure(p, victims);
  EXPECT_THROW(build_multi_censuses(p, scenario), std::invalid_argument);
}

void expect_same_census(const MultiStripeCensus& a,
                        const MultiStripeCensus& b) {
  EXPECT_EQ(a.stripe, b.stripe);
  EXPECT_EQ(a.lost_chunks, b.lost_chunks);
  EXPECT_EQ(a.replacement_rack, b.replacement_rack);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.surviving, b.surviving);
}

TEST(MultiFailure, StripeListCensusMatchesFilteredFullScan) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    const auto configs = cluster::paper_configs();
    const auto& cfg = configs[rng.next_below(configs.size())];
    const std::size_t stripes = 1 + rng.next_below(80);
    const auto p = make_placement(cfg, stripes, rng());
    // At most m failed nodes: no stripe can lose more than m chunks.
    const auto victims = rng.sample_indices(
        p.topology().num_nodes(), 1 + rng.next_below(cfg.m));
    const auto scenario = make_multi_failure_onto(
        p, std::vector<cluster::NodeId>(victims.begin(), victims.end()),
        rng.next_below(p.topology().num_nodes()));

    std::vector<std::vector<cluster::StripeId>> subsets;
    subsets.emplace_back();                        // empty
    subsets.push_back({rng.next_below(stripes)});  // single
    subsets.emplace_back(stripes);                 // all
    std::iota(subsets.back().begin(), subsets.back().end(), 0);
    for (int i = 0; i < 4; ++i) {
      const double keep = rng.next_double();
      std::vector<cluster::StripeId> subset;
      for (cluster::StripeId s = 0; s < stripes; ++s) {
        if (rng.next_bool(keep)) subset.push_back(s);
      }
      subsets.push_back(std::move(subset));
    }

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      const auto full = build_multi_censuses(p, scenario, shards);
      for (const auto& subset : subsets) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " shards "
                                        << shards << " subset size "
                                        << subset.size());
        std::vector<MultiStripeCensus> expected;
        for (const auto& census : full) {
          if (std::binary_search(subset.begin(), subset.end(),
                                 census.stripe)) {
            expected.push_back(census);
          }
        }
        const auto listed = build_multi_censuses(
            p, scenario, std::span<const cluster::StripeId>(subset));
        ASSERT_EQ(listed.size(), expected.size());
        for (std::size_t i = 0; i < listed.size(); ++i) {
          expect_same_census(listed[i], expected[i]);
        }
      }
    }
  }
}

TEST(MultiFailure, StripeListCensusRejectsBadLists) {
  const auto cfg = cluster::cfs1();  // m = 3
  const auto p = make_placement(cfg, 10, 4);
  const auto ok = make_multi_failure(p, {p.node_of(0, 0)});
  using Ids = std::vector<cluster::StripeId>;
  const auto census = [&](const MultiFailureScenario& scenario,
                          const Ids& ids) {
    return build_multi_censuses(p, scenario,
                                std::span<const cluster::StripeId>(ids));
  };
  EXPECT_NO_THROW(census(ok, Ids{0, 3, 9}));
  EXPECT_THROW(census(ok, Ids{3, 1}), util::CheckError);   // unsorted
  EXPECT_THROW(census(ok, Ids{2, 2}), util::CheckError);   // duplicate
  EXPECT_THROW(census(ok, Ids{0, 10}), util::CheckError);  // out of range

  MultiFailureScenario bad_node = ok;
  bad_node.failed_nodes.push_back(p.topology().num_nodes());
  EXPECT_THROW(census(bad_node, Ids{0}), util::CheckError);

  // Stripe 0 loses m + 1 chunks: listing it throws; a list of stripes
  // that each lost at most m chunks does not.
  const auto hosts = p.stripe(0);
  const auto lost = make_multi_failure(
      p, std::vector<cluster::NodeId>(hosts.begin(),
                                      hosts.begin() + cfg.m + 1));
  EXPECT_THROW(census(lost, Ids{0}), util::CheckError);
  Ids recoverable;
  for (cluster::StripeId s = 1; s < p.num_stripes(); ++s) {
    const auto stripe_hosts = p.stripe(s);
    const auto count = std::count_if(
        stripe_hosts.begin(), stripe_hosts.end(),
        [&](cluster::NodeId node) { return lost.is_failed(node); });
    if (static_cast<std::size_t>(count) <= cfg.m) recoverable.push_back(s);
  }
  ASSERT_FALSE(recoverable.empty());
  EXPECT_NO_THROW(census(lost, recoverable));
}

class MultiFailureSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(MultiFailureSweep, SolutionsAreMinimalAndCompleteAndBalanced) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  const int failures = std::get<1>(GetParam());
  const auto p = make_placement(cfg, 50, std::get<2>(GetParam()));
  util::Rng rng(std::get<2>(GetParam()) + 100);

  const auto victims =
      rng.sample_indices(p.topology().num_nodes(), failures);
  std::vector<cluster::NodeId> nodes(victims.begin(), victims.end());
  const auto scenario = make_multi_failure(p, nodes);

  std::vector<MultiStripeCensus> censuses;
  try {
    censuses = build_multi_censuses(p, scenario);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "random failure exceeded code tolerance";
  }
  if (censuses.empty()) GTEST_SKIP();

  const auto result = balance_multi(p, censuses, 50);
  ASSERT_EQ(result.solutions.size(), censuses.size());

  for (std::size_t j = 0; j < censuses.size(); ++j) {
    const auto& solution = result.solutions[j];
    // Exactly k distinct survivors, none of them lost.
    const auto all = solution.all_chunk_indices();
    EXPECT_EQ(all.size(), censuses[j].k);
    for (std::size_t c : all) {
      EXPECT_FALSE(std::binary_search(censuses[j].lost_chunks.begin(),
                                      censuses[j].lost_chunks.end(), c));
      EXPECT_FALSE(scenario.is_failed(p.node_of(censuses[j].stripe, c)));
    }
    // Rack set is a valid minimal selection.
    EXPECT_TRUE(is_valid_minimal_for(censuses[j].k,
                                     censuses[j].replacement_rack,
                                     censuses[j].surviving,
                                     solution.rack_set));
  }

  // Lambda trace is monotone non-increasing.
  for (std::size_t i = 1; i < result.lambda_trace.size(); ++i) {
    EXPECT_LE(result.lambda_trace[i], result.lambda_trace[i - 1] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, MultiFailureSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(11u, 57u)));

TEST(MultiFailure, EmulatedRecoveryIsBitExactForDoubleFailure) {
  const auto cfg = cluster::cfs2();
  const auto p = make_placement(cfg, 12, 8);
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 32 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng data_rng(77);
  const auto originals = cluster.populate(p, code, kChunk, data_rng);

  const auto scenario = make_multi_failure(p, {1, 9});
  cluster.erase_node(1);
  cluster.erase_node(9);
  const auto censuses = build_multi_censuses(p, scenario);
  ASSERT_FALSE(censuses.empty());

  const auto balanced = balance_multi(p, censuses, 50);
  const auto plan = oracle::build_multi_car_plan(p, code, balanced.solutions,
                                                 kChunk, scenario.replacement);
  cluster.execute(plan);

  for (const auto& census : censuses) {
    for (std::size_t lost : census.lost_chunks) {
      const auto* rec =
          cluster.find_chunk(scenario.replacement, census.stripe, lost);
      ASSERT_NE(rec, nullptr) << "stripe " << census.stripe;
      EXPECT_EQ(*rec, originals[census.stripe][lost]);
    }
  }
}

TEST(MultiFailure, EmulatedRrRecoveryIsBitExact) {
  const auto cfg = cluster::cfs3();
  const auto p = make_placement(cfg, 8, 9);
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 16 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng data_rng(78);
  const auto originals = cluster.populate(p, code, kChunk, data_rng);

  const auto scenario = make_multi_failure(p, {2, 11});
  cluster.erase_node(2);
  cluster.erase_node(11);
  const auto censuses = build_multi_censuses(p, scenario);
  if (censuses.empty()) GTEST_SKIP();

  util::Rng rr_rng(79);
  const auto rr = plan_multi_rr(p, censuses, rr_rng);
  const auto plan =
      oracle::build_multi_rr_plan(p, code, rr, kChunk, scenario.replacement);
  cluster.execute(plan);

  for (const auto& census : censuses) {
    for (std::size_t lost : census.lost_chunks) {
      const auto* rec =
          cluster.find_chunk(scenario.replacement, census.stripe, lost);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(*rec, originals[census.stripe][lost]);
    }
  }
}

TEST(MultiFailure, WholeRackFailureIsAlwaysRecoverable) {
  // The placement quota c_{i,j} <= m exists precisely so that losing an
  // entire rack never exceeds the code's tolerance (paper §IV-B).  Fail
  // every node of each rack in turn; build_multi_censuses must never throw
  // and recovery must be planable with the replacement in another rack.
  for (int cfg_index = 0; cfg_index < 3; ++cfg_index) {
    const auto cfg = cluster::paper_configs()[cfg_index];
    const auto p = make_placement(cfg, 40, 1000 + cfg_index);
    for (cluster::RackId rack = 0; rack < p.topology().num_racks(); ++rack) {
      auto victims = p.topology().nodes_in_rack(rack);
      // Rebuild onto a node outside the failed rack.
      const cluster::NodeId replacement =
          p.topology().rack_range((rack + 1) % p.topology().num_racks())
              .first;
      auto scenario = make_multi_failure(p, victims);
      scenario.replacement = replacement;
      scenario.replacement_rack = p.topology().rack_of(replacement);

      std::vector<MultiStripeCensus> censuses;
      ASSERT_NO_THROW(censuses = build_multi_censuses(p, scenario))
          << cfg.name << " rack " << rack;
      if (censuses.empty()) continue;
      const auto balanced = balance_multi(p, censuses, 50);
      ASSERT_EQ(balanced.solutions.size(), censuses.size());
      for (std::size_t j = 0; j < censuses.size(); ++j) {
        EXPECT_LE(censuses[j].lost_chunks.size(), cfg.m);
        EXPECT_EQ(balanced.solutions[j].all_chunk_indices().size(), cfg.k);
      }
    }
  }
}

TEST(MultiFailure, TrafficAccountingMatchesPlanBytes) {
  const auto cfg = cluster::cfs3();
  const auto p = make_placement(cfg, 30, 10);
  const rs::Code code(cfg.k, cfg.m);
  const auto scenario = make_multi_failure(p, {0, 7});
  const auto censuses = build_multi_censuses(p, scenario);
  const auto balanced = balance_multi(p, censuses, 50);
  constexpr std::uint64_t kChunk = 4096;
  const auto plan = oracle::build_multi_car_plan(p, code, balanced.solutions,
                                                 kChunk, scenario.replacement);
  const auto summary = multi_traffic(
      balanced.solutions, p.topology().num_racks(), scenario.replacement_rack);
  EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));

  util::Rng rng(11);
  const auto rr = plan_multi_rr(p, censuses, rng);
  const auto rr_plan =
      oracle::build_multi_rr_plan(p, code, rr, kChunk, scenario.replacement);
  const auto rr_summary =
      multi_rr_traffic(p, rr, scenario.replacement_rack);
  EXPECT_EQ(rr_plan.cross_rack_bytes(), rr_summary.total_bytes(kChunk));
}

}  // namespace
}  // namespace car::recovery
