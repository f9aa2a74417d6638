#include "recovery/plan.h"

namespace car::recovery {

std::size_t RecoveryPlan::num_transfers() const noexcept {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.kind == StepKind::kTransfer;
  return n;
}

std::size_t RecoveryPlan::num_computes() const noexcept {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.kind == StepKind::kCompute;
  return n;
}

std::uint64_t cross_rack_bytes(std::span<const PlanStep> steps) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : steps) {
    if (s.kind == StepKind::kTransfer && s.cross_rack) total += s.bytes;
  }
  return total;
}

std::uint64_t intra_rack_bytes(std::span<const PlanStep> steps) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : steps) {
    // Loopback moves (src == dst) never leave the node, so they are not
    // network traffic — mirrored by the emulator, which reserves no link
    // capacity for them.
    if (s.kind == StepKind::kTransfer && !s.cross_rack && s.src != s.dst) {
      total += s.bytes;
    }
  }
  return total;
}

std::vector<std::uint64_t> per_rack_cross_bytes(
    std::span<const PlanStep> steps, const cluster::Topology& topology) {
  std::vector<std::uint64_t> per_rack(topology.num_racks(), 0);
  for (const auto& s : steps) {
    if (s.kind == StepKind::kTransfer && s.cross_rack) {
      per_rack[topology.rack_of(s.src)] += s.bytes;
    }
  }
  return per_rack;
}

std::uint64_t compute_bytes(std::span<const PlanStep> steps) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : steps) {
    if (s.kind == StepKind::kCompute) total += s.bytes;
  }
  return total;
}

std::uint64_t RecoveryPlan::cross_rack_bytes() const noexcept {
  return recovery::cross_rack_bytes(std::span<const PlanStep>(steps));
}

std::uint64_t RecoveryPlan::intra_rack_bytes() const noexcept {
  return recovery::intra_rack_bytes(std::span<const PlanStep>(steps));
}

std::vector<std::uint64_t> RecoveryPlan::per_rack_cross_bytes(
    const cluster::Topology& topology) const {
  return recovery::per_rack_cross_bytes(std::span<const PlanStep>(steps),
                                        topology);
}

std::uint64_t RecoveryPlan::compute_bytes() const noexcept {
  return recovery::compute_bytes(std::span<const PlanStep>(steps));
}

}  // namespace car::recovery
