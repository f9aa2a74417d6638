#include "cfs/filesystem.h"

#include <algorithm>
#include <stdexcept>

#include "recovery/degraded.h"
#include "recovery/multi.h"
#include "recovery/plan_template.h"
#include "util/check.h"

namespace car::cfs {

FileSystem::FileSystem(FsConfig config)
    : config_(std::move(config)),
      code_(config_.k, config_.m),
      placement_(config_.topology, config_.k, config_.m),
      cluster_(config_.topology, config_.emul),
      rng_(config_.seed) {
  CAR_CHECK(config_.chunk_size > 0, "FileSystem: chunk_size must be > 0");
}

FileMeta FileSystem::write_file(const std::string& name,
                                std::span<const std::uint8_t> data) {
  CAR_CHECK(!files_.contains(name),
            "FileSystem::write_file: name already exists");
  CAR_CHECK(!data.empty(), "FileSystem::write_file: empty data");
  if (!failed_.empty()) {
    throw std::logic_error(
        "FileSystem::write_file: repair failed nodes before writing");
  }

  FileMeta meta;
  meta.name = name;
  meta.size = data.size();

  const std::uint64_t stripe_bytes = config_.chunk_size * config_.k;
  for (std::uint64_t offset = 0; offset < data.size();
       offset += stripe_bytes) {
    // Build k data chunks, zero-padding the tail.
    std::vector<rs::Chunk> chunks(config_.k,
                                  rs::Chunk(config_.chunk_size, 0));
    for (std::size_t c = 0; c < config_.k; ++c) {
      const std::uint64_t begin = offset + c * config_.chunk_size;
      if (begin >= data.size()) break;
      const std::uint64_t len =
          std::min<std::uint64_t>(config_.chunk_size, data.size() - begin);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(begin), len,
                  chunks[c].begin());
    }
    std::vector<rs::ChunkView> views(chunks.begin(), chunks.end());
    const auto stripe = code_.encode_stripe(views);

    const auto nodes = cluster::Placement::choose_stripe_nodes(
        config_.topology, config_.k, config_.m, rng_);
    const cluster::StripeId stripe_id = placement_.num_stripes();
    placement_.add_stripe(nodes);
    for (std::size_t c = 0; c < stripe.size(); ++c) {
      cluster_.store_chunk(nodes[c], stripe_id, c, stripe[c]);
    }
    meta.stripes.push_back(stripe_id);
  }

  files_[name] = meta;
  return meta;
}

std::optional<FileMeta> FileSystem::stat(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint8_t> FileSystem::read_file(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw std::out_of_range("FileSystem::read_file: unknown file");
  }
  const FileMeta& meta = it->second;

  std::vector<std::uint8_t> out;
  out.reserve(meta.size);
  for (const cluster::StripeId stripe : meta.stripes) {
    for (std::size_t c = 0; c < config_.k && out.size() < meta.size; ++c) {
      const cluster::NodeId host = placement_.node_of(stripe, c);
      const rs::Chunk* chunk = nullptr;
      recovery::RecoveryPlan degraded_plan;
      if (!failed_.contains(host)) {
        chunk = cluster_.find_chunk(host, stripe, c);
      }
      if (chunk == nullptr) {
        // Degraded read: reconstruct at any alive node via CAR.
        cluster::NodeId reader = config_.topology.num_nodes();
        for (cluster::NodeId n = 0; n < config_.topology.num_nodes(); ++n) {
          if (!failed_.contains(n)) {
            reader = n;
            break;
          }
        }
        CAR_CHECK_STATE(reader != config_.topology.num_nodes(),
                        "FileSystem::read_file: no node alive");
        degraded_plan = recovery::plan_degraded_read_car(
            placement_, code_, {stripe, c, reader}, config_.chunk_size);
        cluster_.execute(degraded_plan);
        chunk = cluster_.find_step_output(reader,
                                          degraded_plan.outputs[0].step_id);
        CAR_CHECK_STATE(chunk != nullptr,
                        "FileSystem::read_file: degraded read failed");
      }
      const std::uint64_t want =
          std::min<std::uint64_t>(config_.chunk_size, meta.size - out.size());
      out.insert(out.end(), chunk->begin(),
                 chunk->begin() + static_cast<std::ptrdiff_t>(want));
    }
  }
  return out;
}

void FileSystem::fail_node(cluster::NodeId node) {
  if (node >= config_.topology.num_nodes()) {
    throw std::out_of_range("FileSystem::fail_node: bad node id");
  }
  cluster_.erase_node(node);
  failed_.insert(node);
}

RepairReport FileSystem::repair(std::optional<cluster::NodeId> replacement) {
  if (failed_.empty()) {
    throw std::logic_error("FileSystem::repair: no failed node");
  }
  std::vector<cluster::NodeId> failed(failed_.begin(), failed_.end());
  const cluster::NodeId target = replacement.value_or(failed.front());
  CAR_CHECK(!failed_.contains(target) || target == failed.front(),
            "FileSystem::repair: replacement must be alive or the primary "
            "failed node");

  // Anchor the scenario at the chosen replacement.
  auto scenario = recovery::make_multi_failure(placement_, failed);
  scenario.replacement = target;
  scenario.replacement_rack = config_.topology.rack_of(target);

  RepairReport report;
  report.replacement = target;
  const auto censuses = recovery::build_multi_censuses(placement_, scenario);
  if (!censuses.empty()) {
    const auto balanced = recovery::balance_multi(placement_, censuses, 50);
    recovery::PlanTemplateCache templates;
    const auto plan =
        recovery::build_multi_car_arena(placement_, code_, balanced.solutions,
                                        config_.chunk_size,
                                        config_.chunk_size, target, templates)
            .to_plan();
    const auto exec = cluster_.execute(plan);
    report.wall_s = exec.wall_s;
    report.cross_rack_bytes = exec.cross_rack_bytes;
    report.chunks_rebuilt = plan.outputs.size();
    report.lambda = recovery::multi_traffic(balanced.solutions,
                                            config_.topology.num_racks(),
                                            scenario.replacement_rack)
                        .lambda();

    // Re-host every rebuilt chunk.  The replacement keeps what it can;
    // chunks that would violate the distinct-node or rack-quota invariants
    // there (possible when one stripe lost several chunks) are redistributed
    // to other alive nodes.
    failed_.erase(target);  // the replacement is alive from here on
    for (const auto& out : plan.outputs) {
      cluster::NodeId host = target;
      if (!placement_.can_host(out.stripe, out.chunk_index, host)) {
        host = config_.topology.num_nodes();
        for (cluster::NodeId n = 0; n < config_.topology.num_nodes(); ++n) {
          if (!failed_.contains(n) && n != target &&
              placement_.can_host(out.stripe, out.chunk_index, n)) {
            host = n;
            break;
          }
        }
        CAR_CHECK_STATE(host != config_.topology.num_nodes(),
                        "FileSystem::repair: no valid host for a rebuilt "
                        "chunk");
        const rs::Chunk* rebuilt =
            cluster_.find_chunk(target, out.stripe, out.chunk_index);
        CAR_CHECK_STATE(rebuilt != nullptr,
                        "FileSystem::repair: rebuilt chunk missing on "
                        "replacement");
        cluster_.store_chunk(host, out.stripe, out.chunk_index, *rebuilt);
      }
      placement_.set_host(out.stripe, out.chunk_index, host);
    }
  }

  failed_.clear();
  return report;
}

std::size_t FileSystem::total_chunks() const noexcept {
  std::size_t total = 0;
  for (const auto& [name, meta] : files_) {
    total += meta.stripes.size() * (config_.k + config_.m);
  }
  return total;
}

}  // namespace car::cfs
