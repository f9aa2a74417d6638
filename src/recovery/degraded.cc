#include "recovery/degraded.h"

#include <algorithm>
#include <stdexcept>

#include "recovery/planner.h"
#include "util/check.h"

namespace car::recovery {

DegradedReadCensus build_degraded_census(const cluster::Placement& placement,
                                         const DegradedReadRequest& request) {
  CAR_CHECK_LT(request.chunk_index, placement.chunks_per_stripe(),
               "degraded read: chunk index out of range");
  const auto& topology = placement.topology();
  DegradedReadCensus census;
  census.stripe = request.stripe;
  census.chunk_index = request.chunk_index;
  census.reader_rack = topology.rack_of(request.reader);
  census.k = placement.k();
  census.surviving = placement.rack_census(request.stripe);
  // The read chunk itself is unavailable.
  const auto host = placement.node_of(request.stripe, request.chunk_index);
  --census.surviving[topology.rack_of(host)];
  return census;
}

namespace {

/// Shared plan assembly: given the k survivor chunk indices grouped by rack
/// (reader's rack first when present), emit aggregate+ship steps, or direct
/// fetches when `aggregate` is false.
RecoveryPlan assemble(const cluster::Placement& placement, const rs::Code& code,
                      const DegradedReadRequest& request,
                      std::uint64_t chunk_size,
                      const std::vector<RackPick>& picks, bool aggregate) {
  const auto& topology = placement.topology();
  RecoveryPlan plan;
  plan.replacement = request.reader;
  plan.replacement_rack = topology.rack_of(request.reader);
  plan.chunk_size = chunk_size;

  auto add_transfer = [&](cluster::NodeId src, cluster::NodeId dst,
                          BufferRef payload, std::vector<std::size_t> deps) {
    PlanStep step;
    step.id = plan.steps.size();
    step.kind = StepKind::kTransfer;
    step.stripe = request.stripe;
    step.src = src;
    step.dst = dst;
    step.payload = payload;
    step.cross_rack = topology.rack_of(src) != topology.rack_of(dst);
    step.bytes = chunk_size;
    step.deps = std::move(deps);
    plan.steps.push_back(std::move(step));
    return plan.steps.back().id;
  };
  auto add_compute = [&](cluster::NodeId node, std::vector<ComputeInput> inputs,
                         std::vector<std::size_t> deps) {
    PlanStep step;
    step.id = plan.steps.size();
    step.kind = StepKind::kCompute;
    step.stripe = request.stripe;
    step.node = node;
    step.bytes = chunk_size * inputs.size();
    step.inputs = std::move(inputs);
    step.deps = std::move(deps);
    plan.steps.push_back(std::move(step));
    return plan.steps.back().id;
  };

  std::vector<std::size_t> survivors;
  for (const auto& pick : picks) {
    survivors.insert(survivors.end(), pick.chunk_indices.begin(),
                     pick.chunk_indices.end());
  }
  const auto y = code.repair_vector(request.chunk_index, survivors);

  std::size_t position = 0;
  std::vector<ComputeInput> final_inputs;
  std::vector<std::size_t> final_deps;
  for (const auto& pick : picks) {
    if (aggregate) {
      const cluster::NodeId aggregator =
          placement.node_of(request.stripe, pick.chunk_indices.front());
      std::vector<std::size_t> deps;
      std::vector<ComputeInput> inputs;
      for (std::size_t chunk : pick.chunk_indices) {
        const auto host = placement.node_of(request.stripe, chunk);
        const auto buf = BufferRef::chunk(request.stripe, chunk);
        if (host != aggregator) {
          deps.push_back(add_transfer(host, aggregator, buf, {}));
        }
        inputs.push_back({buf, y[position++]});
      }
      const std::size_t partial =
          add_compute(aggregator, std::move(inputs), std::move(deps));
      if (aggregator == request.reader) {
        // The reader itself aggregates its rack — no shipment needed.
        final_deps.push_back(partial);
      } else {
        final_deps.push_back(add_transfer(aggregator, request.reader,
                                          BufferRef::step(partial),
                                          {partial}));
      }
      final_inputs.push_back({BufferRef::step(partial), 1});
    } else {
      for (std::size_t chunk : pick.chunk_indices) {
        const auto host = placement.node_of(request.stripe, chunk);
        const auto buf = BufferRef::chunk(request.stripe, chunk);
        if (host != request.reader) {
          final_deps.push_back(add_transfer(host, request.reader, buf, {}));
        }
        final_inputs.push_back({buf, y[position++]});
      }
    }
  }
  const std::size_t final_step = add_compute(
      request.reader, std::move(final_inputs), std::move(final_deps));
  plan.outputs.push_back({request.stripe, request.chunk_index, final_step});
  return plan;
}

}  // namespace

RecoveryPlan plan_degraded_read_car(const cluster::Placement& placement,
                                    const rs::Code& code,
                                    const DegradedReadRequest& request,
                                    std::uint64_t chunk_size) {
  CAR_CHECK(chunk_size > 0, "degraded read: chunk_size must be > 0");
  const auto census = build_degraded_census(placement, request);
  const auto set =
      default_rack_set(census.k, census.reader_rack, census.surviving);

  // Materialise: reader-rack survivors first, then chosen racks largest
  // first, trimming the last (mirrors recovery/planner.cc).
  std::vector<RackPick> picks;
  std::size_t needed = census.k;
  auto take_from = [&](cluster::RackId rack) {
    auto indices = placement.chunk_indices_in_rack(request.stripe, rack);
    std::erase(indices, request.chunk_index);
    if (indices.empty() || needed == 0) return;
    const std::size_t take = std::min(indices.size(), needed);
    indices.resize(take);
    needed -= take;
    picks.push_back({rack, std::move(indices)});
  };
  take_from(census.reader_rack);
  std::vector<cluster::RackId> order = set.racks;
  std::stable_sort(order.begin(), order.end(),
                   [&](cluster::RackId a, cluster::RackId b) {
                     return census.surviving[a] > census.surviving[b];
                   });
  for (cluster::RackId rack : order) take_from(rack);
  if (needed != 0) {
    throw std::logic_error("degraded read: could not gather k survivors");
  }
  return assemble(placement, code, request, chunk_size, picks,
                  /*aggregate=*/true);
}

RecoveryPlan plan_degraded_read_direct(const cluster::Placement& placement,
                                       const rs::Code& code,
                                       const DegradedReadRequest& request,
                                       std::uint64_t chunk_size,
                                       util::Rng& rng) {
  CAR_CHECK(chunk_size > 0, "degraded read: chunk_size must be > 0");
  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < placement.chunks_per_stripe(); ++c) {
    if (c != request.chunk_index) survivors.push_back(c);
  }
  rng.shuffle(survivors);
  survivors.resize(placement.k());
  std::sort(survivors.begin(), survivors.end());
  // One flat pick per chunk keeps assemble() in direct-fetch mode simple.
  std::vector<RackPick> picks;
  const auto& topology = placement.topology();
  for (std::size_t chunk : survivors) {
    const auto rack =
        topology.rack_of(placement.node_of(request.stripe, chunk));
    picks.push_back({rack, {chunk}});
  }
  return assemble(placement, code, request, chunk_size, picks,
                  /*aggregate=*/false);
}

}  // namespace car::recovery
