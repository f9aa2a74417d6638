#include "classic_plan.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace car::oracle {

using recovery::BufferRef;
using recovery::ComputeInput;
using recovery::MultiRrSolution;
using recovery::MultiStripeSolution;
using recovery::PerStripeSolution;
using recovery::PlanStep;
using recovery::RecoveryPlan;
using recovery::RepairMemo;
using recovery::RrSolution;
using recovery::StepKind;

namespace {

struct PlanBuilder {
  RecoveryPlan plan;
  const cluster::Topology& topology;

  // Plan-DAG well-formedness: every appended step may only depend on steps
  // that already exist, which keeps the DAG acyclic by construction.
  void check_deps(std::size_t id, const std::vector<std::size_t>& deps) const {
    for (const std::size_t dep : deps) {
      CAR_CHECK_LT(dep, id, "PlanBuilder: dependency on a future step");
    }
  }

  std::size_t add_transfer(cluster::StripeId stripe, cluster::NodeId src,
                           cluster::NodeId dst, BufferRef payload,
                           std::vector<std::size_t> deps) {
    CAR_CHECK_LT(src, topology.num_nodes(), "PlanBuilder: bad src node");
    CAR_CHECK_LT(dst, topology.num_nodes(), "PlanBuilder: bad dst node");
    PlanStep step;
    step.id = plan.steps.size();
    check_deps(step.id, deps);
    step.kind = StepKind::kTransfer;
    step.stripe = stripe;
    step.src = src;
    step.dst = dst;
    step.payload = payload;
    step.cross_rack = topology.rack_of(src) != topology.rack_of(dst);
    step.bytes = plan.chunk_size;
    step.deps = std::move(deps);
    plan.steps.push_back(std::move(step));
    return plan.steps.back().id;
  }

  std::size_t add_compute(cluster::StripeId stripe, cluster::NodeId node,
                          std::vector<ComputeInput> inputs,
                          std::vector<std::size_t> deps) {
    CAR_CHECK_LT(node, topology.num_nodes(), "PlanBuilder: bad compute node");
    CAR_CHECK(!inputs.empty(), "PlanBuilder: compute without inputs");
    PlanStep step;
    step.id = plan.steps.size();
    check_deps(step.id, deps);
    step.kind = StepKind::kCompute;
    step.stripe = stripe;
    step.node = node;
    step.bytes = plan.chunk_size * inputs.size();
    step.inputs = std::move(inputs);
    step.deps = std::move(deps);
    plan.steps.push_back(std::move(step));
    return plan.steps.back().id;
  }
};

}  // namespace

RecoveryPlan build_car_plan(const cluster::Placement& placement,
                            const rs::Code& code,
                            std::span<const PerStripeSolution> solutions,
                            std::uint64_t chunk_size,
                            cluster::NodeId replacement) {
  CAR_CHECK(chunk_size > 0, "build_car_plan: chunk_size must be > 0");
  const auto& topology = placement.topology();
  PlanBuilder b{{}, topology};
  b.plan.replacement = replacement;
  b.plan.replacement_rack = topology.rack_of(replacement);
  b.plan.chunk_size = chunk_size;

  for (const auto& solution : solutions) {
    const auto survivors = solution.all_chunk_indices();
    const auto y = code.repair_vector(solution.lost_chunk, survivors);
    CAR_CHECK_EQ(y.size(), survivors.size(),
                 "build_car_plan: repair vector arity");

    std::size_t position = 0;  // index into survivors / y, follows pick order
    std::vector<std::size_t> partial_transfer_ids;
    std::vector<ComputeInput> final_inputs;

    for (const auto& pick : solution.picks) {
      // The host of the first picked chunk aggregates for this rack.
      const cluster::NodeId aggregator =
          placement.node_of(solution.stripe, pick.chunk_indices.front());

      std::vector<ComputeInput> inputs;
      std::vector<std::size_t> deps;
      for (std::size_t chunk : pick.chunk_indices) {
        const cluster::NodeId host = placement.node_of(solution.stripe, chunk);
        const auto buf = BufferRef::chunk(solution.stripe, chunk);
        if (host != aggregator) {
          deps.push_back(b.add_transfer(solution.stripe, host, aggregator,
                                        buf, {}));
        }
        inputs.push_back({buf, y[position]});
        ++position;
      }
      const std::size_t partial = b.add_compute(
          solution.stripe, aggregator, std::move(inputs), std::move(deps));
      const std::size_t ship =
          b.add_transfer(solution.stripe, aggregator, replacement,
                         BufferRef::step(partial), {partial});
      partial_transfer_ids.push_back(ship);
      final_inputs.push_back({BufferRef::step(partial), 1});
    }

    // Partial-decoding sum: the per-rack partials must cover every survivor
    // term exactly once to reconstruct H_i.
    CAR_CHECK_EQ(position, survivors.size(),
                 "build_car_plan: picks do not cover the survivor set");

    const std::size_t final_step =
        b.add_compute(solution.stripe, replacement, std::move(final_inputs),
                      std::move(partial_transfer_ids));
    b.plan.outputs.push_back(
        {solution.stripe, solution.lost_chunk, final_step});
  }
  return std::move(b.plan);
}

RecoveryPlan build_rr_plan(const cluster::Placement& placement,
                           const rs::Code& code,
                           std::span<const RrSolution> solutions,
                           std::uint64_t chunk_size,
                           cluster::NodeId replacement) {
  CAR_CHECK(chunk_size > 0, "build_rr_plan: chunk_size must be > 0");
  const auto& topology = placement.topology();
  PlanBuilder b{{}, topology};
  b.plan.replacement = replacement;
  b.plan.replacement_rack = topology.rack_of(replacement);
  b.plan.chunk_size = chunk_size;

  for (const auto& solution : solutions) {
    const auto y =
        code.repair_vector(solution.lost_chunk, solution.chunk_indices);

    std::vector<std::size_t> deps;
    std::vector<ComputeInput> inputs;
    for (std::size_t pos = 0; pos < solution.chunk_indices.size(); ++pos) {
      const std::size_t chunk = solution.chunk_indices[pos];
      const cluster::NodeId host = placement.node_of(solution.stripe, chunk);
      const auto buf = BufferRef::chunk(solution.stripe, chunk);
      if (host != replacement) {
        deps.push_back(
            b.add_transfer(solution.stripe, host, replacement, buf, {}));
      }
      inputs.push_back({buf, y[pos]});
    }
    const std::size_t final_step = b.add_compute(
        solution.stripe, replacement, std::move(inputs), std::move(deps));
    b.plan.outputs.push_back(
        {solution.stripe, solution.lost_chunk, final_step});
  }
  return std::move(b.plan);
}

RecoveryPlan build_multi_car_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    cluster::NodeId replacement) {
  CAR_CHECK(chunk_size > 0, "build_multi_car_plan: chunk_size must be > 0");
  const auto& topology = placement.topology();
  RecoveryPlan plan;
  plan.replacement = replacement;
  plan.replacement_rack = topology.rack_of(replacement);
  plan.chunk_size = chunk_size;

  auto add_transfer = [&](cluster::StripeId stripe, cluster::NodeId src,
                          cluster::NodeId dst, BufferRef payload,
                          std::vector<std::size_t> deps) {
    PlanStep step;
    step.id = plan.steps.size();
    step.kind = StepKind::kTransfer;
    step.stripe = stripe;
    step.src = src;
    step.dst = dst;
    step.payload = payload;
    step.cross_rack = topology.rack_of(src) != topology.rack_of(dst);
    step.bytes = chunk_size;
    step.deps = std::move(deps);
    plan.steps.push_back(std::move(step));
    return plan.steps.back().id;
  };
  auto add_compute = [&](cluster::StripeId stripe, cluster::NodeId node,
                         std::vector<ComputeInput> inputs,
                         std::vector<std::size_t> deps) {
    PlanStep step;
    step.id = plan.steps.size();
    step.kind = StepKind::kCompute;
    step.stripe = stripe;
    step.node = node;
    step.bytes = chunk_size * inputs.size();
    step.inputs = std::move(inputs);
    step.deps = std::move(deps);
    plan.steps.push_back(std::move(step));
    return plan.steps.back().id;
  };

  // repair_vector solves a k x k system; at scale most stripes share the
  // same (lost chunk, survivor set) shape, so memoise on a packed integer
  // key and read coefficients canonically by chunk index.
  RepairMemo repair_memo;

  for (const auto& solution : solutions) {
    const auto survivors = solution.all_chunk_indices();
    // One canonical coefficient table per lost chunk; the spans survive
    // later coeffs() inserts because unordered_map rehashing never moves
    // mapped values.
    std::vector<std::span<const std::uint8_t>> ys;
    ys.reserve(solution.lost_chunks.size());
    for (std::size_t lost : solution.lost_chunks) {
      ys.push_back(repair_memo.coeffs(code, lost, survivors));
    }

    // final_inputs[l] / final_deps[l]: partials for lost chunk l.
    std::vector<std::vector<ComputeInput>> final_inputs(ys.size());
    std::vector<std::vector<std::size_t>> final_deps(ys.size());

    for (const auto& pick : solution.picks) {
      const cluster::NodeId aggregator =
          placement.node_of(solution.stripe, pick.chunk_indices.front());
      std::vector<std::size_t> gather_deps;
      for (std::size_t chunk : pick.chunk_indices) {
        const cluster::NodeId host = placement.node_of(solution.stripe, chunk);
        if (host != aggregator) {
          gather_deps.push_back(
              add_transfer(solution.stripe, host, aggregator,
                           BufferRef::chunk(solution.stripe, chunk), {}));
        }
      }
      for (std::size_t l = 0; l < ys.size(); ++l) {
        std::vector<ComputeInput> inputs;
        inputs.reserve(pick.chunk_indices.size());
        for (std::size_t chunk : pick.chunk_indices) {
          inputs.push_back(
              {BufferRef::chunk(solution.stripe, chunk), ys[l][chunk]});
        }
        const std::size_t partial = add_compute(solution.stripe, aggregator,
                                                std::move(inputs), gather_deps);
        const std::size_t ship =
            add_transfer(solution.stripe, aggregator, replacement,
                         BufferRef::step(partial), {partial});
        final_inputs[l].push_back({BufferRef::step(partial), 1});
        final_deps[l].push_back(ship);
      }
    }

    for (std::size_t l = 0; l < ys.size(); ++l) {
      const std::size_t final_step =
          add_compute(solution.stripe, replacement, std::move(final_inputs[l]),
                      std::move(final_deps[l]));
      plan.outputs.push_back(
          {solution.stripe, solution.lost_chunks[l], final_step});
    }
  }
  return plan;
}

RecoveryPlan build_multi_rr_plan(const cluster::Placement& placement,
                                 const rs::Code& code,
                                 std::span<const MultiRrSolution> solutions,
                                 std::uint64_t chunk_size,
                                 cluster::NodeId replacement) {
  CAR_CHECK(chunk_size > 0, "build_multi_rr_plan: chunk_size must be > 0");
  const auto& topology = placement.topology();
  RecoveryPlan plan;
  plan.replacement = replacement;
  plan.replacement_rack = topology.rack_of(replacement);
  plan.chunk_size = chunk_size;

  RepairMemo repair_memo;
  for (const auto& solution : solutions) {
    std::vector<std::size_t> deps;
    for (std::size_t chunk : solution.chunk_indices) {
      const cluster::NodeId host = placement.node_of(solution.stripe, chunk);
      if (host == replacement) continue;
      PlanStep step;
      step.id = plan.steps.size();
      step.kind = StepKind::kTransfer;
      step.stripe = solution.stripe;
      step.src = host;
      step.dst = replacement;
      step.payload = BufferRef::chunk(solution.stripe, chunk);
      step.cross_rack =
          topology.rack_of(host) != topology.rack_of(replacement);
      step.bytes = chunk_size;
      plan.steps.push_back(std::move(step));
      deps.push_back(plan.steps.back().id);
    }
    for (std::size_t lost : solution.lost_chunks) {
      const auto y = repair_memo.coeffs(code, lost, solution.chunk_indices);
      PlanStep step;
      step.id = plan.steps.size();
      step.kind = StepKind::kCompute;
      step.stripe = solution.stripe;
      step.node = replacement;
      step.bytes = chunk_size * solution.chunk_indices.size();
      for (std::size_t chunk : solution.chunk_indices) {
        step.inputs.push_back(
            {BufferRef::chunk(solution.stripe, chunk), y[chunk]});
      }
      step.deps = deps;
      plan.steps.push_back(std::move(step));
      plan.outputs.push_back({solution.stripe, lost, plan.steps.back().id});
    }
  }
  return plan;
}

}  // namespace car::oracle
