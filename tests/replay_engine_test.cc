// Replay differentials: the production timing replay and its payload shard
// count are pure implementation choices — every observable (makespan,
// compute time, per-rack byte totals, recovered bytes, and the replay
// digest that pins the committed event order) must be bit-identical to the
// binary-heap oracle in tests/support, and a template-cached build must be
// bit-equal to its rebuild from a warm cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cluster/configs.h"
#include "cluster/placement.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "heap_replay.h"
#include "rs/code.h"
#include "util/check.h"
#include "util/rng.h"

namespace car {
namespace {

using recovery::MultiFailureScenario;
using recovery::MultiStripeCensus;
using recovery::PlanArena;
using recovery::PlanTemplateCache;

constexpr std::uint64_t kChunk = 48 * 1024 + 5;  // no slice size divides it

struct Fixture {
  cluster::Placement placement;
  rs::Code code;
  MultiFailureScenario scenario;
  std::vector<MultiStripeCensus> censuses;
};

/// A whole-rack failure (capped at the code's tolerance) on a paper config.
Fixture make_fixture(int cfg_index, std::uint64_t seed, std::size_t stripes) {
  const auto cfg = cluster::paper_configs()[cfg_index];
  util::Rng rng(seed);
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  std::vector<cluster::NodeId> failed;
  for (const auto node : placement.topology().nodes_in_rack(0)) {
    failed.push_back(node);
    if (failed.size() >= cfg.m) break;
  }
  rs::Code code(cfg.k, cfg.m);
  auto scenario = recovery::make_multi_failure(placement, failed);
  auto censuses = recovery::build_multi_censuses(placement, scenario);
  return {std::move(placement), std::move(code), std::move(scenario),
          std::move(censuses)};
}

emul::EmulConfig emul_config() {
  emul::EmulConfig config;
  config.node_bps = 200e6;
  config.oversubscription = 4.0;
  config.page_bytes = 16 * 1024;
  config.clock_mode = emul::ClockMode::kVirtual;
  return config;
}

void expect_reports_identical(const emul::ExecutionReport& a,
                              const emul::ExecutionReport& b) {
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.replacement_compute_s, b.replacement_compute_s);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
  EXPECT_EQ(a.intra_rack_bytes, b.intra_rack_bytes);
  EXPECT_EQ(a.per_rack_cross_bytes, b.per_rack_cross_bytes);
  EXPECT_EQ(a.replay_digest, b.replay_digest);
}

/// The heap oracle's report for `arena` on a fresh cluster.  The oracle
/// replays timing only, so nothing is populated.
emul::ExecutionReport run_oracle(const Fixture& fx, const PlanArena& arena,
                                 const emul::EmulConfig& config) {
  emul::Cluster cluster(fx.placement.topology(), config);
  return oracle::heap_replay(cluster, arena);
}

/// Populate a fresh cluster (all stripes, seeded bytes), fail the scenario
/// nodes, and execute `arena` under `options`.  Every run starts from an
/// identical cluster, so any report divergence is the replay's fault.
emul::ExecutionReport run_barrier(const Fixture& fx, const PlanArena& arena,
                                  const emul::ArenaExecOptions& options,
                                  const emul::EmulConfig& config = emul_config(),
                                  std::uint64_t chunk = kChunk) {
  emul::Cluster cluster(fx.placement.topology(), config);
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  (void)cluster.populate_sampled(fx.placement, fx.code, chunk, 7, all);
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);
  return cluster.execute_arena(arena, options);
}

void expect_slice_plans_equal(const PlanArena& a, const PlanArena& b) {
  ASSERT_EQ(a.num_base_steps(), b.num_base_steps());
  EXPECT_EQ(a.stripe_closed(), b.stripe_closed());
  const auto sa = a.to_slice_plan();
  const auto sb = b.to_slice_plan();
  ASSERT_EQ(sa.steps.size(), sb.steps.size());
  for (std::size_t i = 0; i < sa.steps.size(); ++i) {
    const auto& x = sa.steps[i];
    const auto& y = sb.steps[i];
    ASSERT_EQ(x.id, y.id) << "step " << i;
    ASSERT_EQ(x.kind, y.kind) << "step " << i;
    ASSERT_EQ(x.stripe, y.stripe) << "step " << i;
    ASSERT_EQ(x.deps, y.deps) << "step " << i;
    ASSERT_EQ(x.src, y.src) << "step " << i;
    ASSERT_EQ(x.dst, y.dst) << "step " << i;
    ASSERT_EQ(x.payload, y.payload) << "step " << i;
    ASSERT_EQ(x.bytes, y.bytes) << "step " << i;
    ASSERT_EQ(x.inputs.size(), y.inputs.size()) << "step " << i;
    for (std::size_t j = 0; j < x.inputs.size(); ++j) {
      ASSERT_EQ(x.inputs[j].buffer, y.inputs[j].buffer) << "step " << i;
      ASSERT_EQ(x.inputs[j].coeff, y.inputs[j].coeff) << "step " << i;
    }
  }
  const auto oa = a.outputs();
  const auto ob = b.outputs();
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].stripe, ob[i].stripe);
    EXPECT_EQ(oa[i].chunk_index, ob[i].chunk_index);
    EXPECT_EQ(oa[i].step_id, ob[i].step_id);
  }
}

// --- replay equality -----------------------------------------------------

// Production replay vs the binary-heap oracle, across payload shard counts:
// one timeline and one event order, bit for bit.  Two inputs: a ragged
// chunk (no slice size divides it) on the default fabric, and an evenly
// sliced chunk on links so slow that every dependent lands hundreds of
// thousands of virtual seconds past the start — the skewed event density
// that once exposed a queue misroute.
TEST(ReplayEngine, CalendarReplayMatchesHeapOracle) {
  struct Input {
    const char* name;
    Fixture fx;
    std::uint64_t chunk;
    emul::EmulConfig config;
  };
  auto slow = emul_config();
  slow.node_bps = 0.05;  // one 16 KiB slice ~327,680 virtual seconds
  slow.virtual_gf_bps = 0.05;
  Input inputs[] = {
      {"ragged chunk", make_fixture(0, 61, /*stripes=*/24), kChunk,
       emul_config()},
      {"slow links", make_fixture(0, 53, /*stripes=*/16), 48 * 1024, slow},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const auto balanced =
        recovery::balance_multi(in.fx.placement, in.fx.censuses);
    PlanTemplateCache cache;
    const auto arena = recovery::build_multi_car_arena(
        in.fx.placement, in.fx.code, balanced.solutions, in.chunk, 16 * 1024,
        in.fx.scenario.replacement, cache);

    const auto reference = run_oracle(in.fx, arena, in.config);
    ASSERT_GT(reference.wall_s, 0.0);
    ASSERT_NE(reference.replay_digest, emul::kReplayDigestBasis);
    for (const std::size_t shards : {1u, 2u, 8u}) {
      emul::ArenaExecOptions options;
      options.shards = shards;
      expect_reports_identical(
          reference, run_barrier(in.fx, arena, options, in.config, in.chunk));
      ASSERT_FALSE(::testing::Test::HasFailure()) << "shards " << shards;
    }
  }
}

// The timing replay has one consumer; the surviving replay_shards field
// rejects anything else.
TEST(ReplayEngine, ReplayShardsOtherThanOneThrows) {
  const auto fx = make_fixture(0, 61, /*stripes=*/8);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  emul::Cluster cluster(fx.placement.topology(), emul_config());
  for (const std::size_t replay_shards : {0u, 2u, 8u}) {
    emul::ArenaExecOptions options;
    options.replay_shards = replay_shards;
    EXPECT_THROW((void)cluster.execute_arena(arena, options),
                 util::CheckError);
  }
}

// Recovered bytes decode bit-exactly through the timing replay behind a
// sharded payload pass.
TEST(ReplayEngine, CalendarShardedReplayDecodesBitExact) {
  const auto fx = make_fixture(0, 29, /*stripes=*/18);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);

  emul::Cluster cluster(fx.placement.topology(), emul_config());
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  const auto originals =
      cluster.populate_sampled(fx.placement, fx.code, kChunk, 7, all);
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);

  emul::ArenaExecOptions options;
  options.shards = 2;
  (void)cluster.execute_arena(arena, options);

  std::size_t verified = 0;
  for (const auto& out : arena.outputs()) {
    const auto it = originals.find(out.stripe);
    ASSERT_NE(it, originals.end());
    const auto* rec = cluster.find_chunk(fx.scenario.replacement, out.stripe,
                                         out.chunk_index);
    ASSERT_NE(rec, nullptr) << "stripe " << out.stripe;
    EXPECT_EQ(*rec, it->second[out.chunk_index])
        << "stripe " << out.stripe << " chunk " << out.chunk_index;
    ++verified;
  }
  EXPECT_EQ(verified, arena.outputs().size());
  EXPECT_GT(verified, 0u);
}

// Building twice from one cache exercises the release-then-reseal path:
// the first build frees each template's reverse-CSR copy at its last use,
// so the second build's cache hits must re-seal transparently and yield a
// bit-equal arena.
TEST(ReplayEngine, TemplateRdepReleaseResealsOnCacheReuse) {
  const auto fx = make_fixture(0, 83, /*stripes=*/32);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto first = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  const auto hits_after_first = cache.stats().hits;
  const auto second = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  // Every template resolves from the cache the second time around.
  EXPECT_GT(cache.stats().hits, hits_after_first);
  expect_slice_plans_equal(first, second);
}

}  // namespace
}  // namespace car
