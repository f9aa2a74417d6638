#include "heap_replay.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "emul/link.h"

namespace car::oracle {

emul::ExecutionReport heap_replay(emul::Cluster& cluster,
                                  const recovery::PlanArena& plan) {
  using recovery::StepKind;
  emul::EmulClock& clock = cluster.clock();
  clock.require_virtual("oracle::heap_replay");
  const auto& topology = cluster.topology();
  const auto& config = cluster.config();

  emul::ExecutionReport report;
  report.per_rack_cross_bytes.assign(topology.num_racks(), 0);
  const std::uint64_t n_base = plan.num_base_steps();
  const std::uint64_t num_slices = plan.num_slices();
  const std::uint64_t chunk = plan.chunk_size();

  // Byte accounting: every cross-node transfer moves one whole chunk.
  for (std::uint64_t base = 0; base < n_base; ++base) {
    if (plan.kind(base) != StepKind::kTransfer) continue;
    const cluster::NodeId src = plan.src(base);
    const cluster::NodeId dst = plan.dst(base);
    if (src == dst) continue;
    const auto src_rack = topology.rack_of(src);
    if (src_rack != topology.rack_of(dst)) {
      report.cross_rack_bytes += chunk;
      report.per_rack_cross_bytes[src_rack] += chunk;
    } else {
      report.intra_rack_bytes += chunk;
    }
  }

  const double t_start = clock.now();
  const std::uint64_t n_sliced = plan.num_sliced_steps();
  std::vector<std::uint32_t> pending(n_sliced, 0);
  std::vector<double> start_at(n_sliced, t_start);
  using Entry = std::pair<double, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  for (std::uint64_t base = 0; base < n_base; ++base) {
    const auto degree = static_cast<std::uint32_t>(plan.deps(base).size());
    for (std::uint64_t s = 0; s < num_slices; ++s) {
      const std::uint64_t sid = plan.sliced_id(base, s);
      pending[sid] = degree;
      if (degree == 0) ready.emplace(t_start, sid);
    }
  }

  double end = t_start;
  while (!ready.empty()) {
    const auto [at, id] = ready.top();
    ready.pop();
    const std::uint64_t base = id / num_slices;
    const std::uint64_t slice = id % num_slices;
    const std::uint64_t bytes = plan.step_bytes(base, slice);
    double finish = at;
    if (plan.kind(base) == StepKind::kTransfer) {
      const cluster::NodeId src = plan.src(base);
      const cluster::NodeId dst = plan.dst(base);
      if (src != dst) {
        // Hop by hop, each hop's pages under one reservation — the
        // production loop's commit order (see Cluster::execute_arena).
        emul::SerialLink* hops[emul::LinkPath::kMaxHops];
        std::size_t n_hops = 0;
        hops[n_hops++] = &cluster.node_up_link(src);
        const auto src_rack = topology.rack_of(src);
        const auto dst_rack = topology.rack_of(dst);
        if (src_rack != dst_rack) {
          hops[n_hops++] = &cluster.rack_up_link(src_rack);
          hops[n_hops++] = &cluster.rack_down_link(dst_rack);
        }
        hops[n_hops++] = &cluster.node_down_link(dst);
        for (std::size_t h = 0; h < n_hops; ++h) {
          finish = std::max(
              finish, hops[h]->reserve_pages(at, bytes, config.page_bytes));
        }
      }
    } else {
      const double dt = static_cast<double>(bytes) / config.virtual_gf_bps;
      finish = at + dt;
      report.compute_s += dt;
      if (plan.node(base) == plan.replacement()) {
        report.replacement_compute_s += dt;
      }
    }
    end = std::max(end, finish);
    report.replay_digest =
        emul::fold_replay_event(report.replay_digest, at, id, finish);
    for (const std::uint64_t dep_base : plan.dependents(base)) {
      const std::uint64_t did = plan.sliced_id(dep_base, slice);
      start_at[did] = std::max(start_at[did], finish);
      if (--pending[did] == 0) ready.emplace(start_at[did], did);
    }
  }
  clock.advance_to(end);
  report.wall_s = end - t_start;
  return report;
}

}  // namespace car::oracle
