#include "recovery/multi.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/spsc_queue.h"

namespace car::recovery {

bool MultiFailureScenario::is_failed(cluster::NodeId node) const noexcept {
  return std::find(failed_nodes.begin(), failed_nodes.end(), node) !=
         failed_nodes.end();
}

MultiFailureScenario make_multi_failure(const cluster::Placement& placement,
                                        std::vector<cluster::NodeId> nodes) {
  CAR_CHECK(!nodes.empty(), "make_multi_failure: no failed nodes");
  std::unordered_set<cluster::NodeId> seen;
  for (cluster::NodeId node : nodes) {
    CAR_CHECK_LT(node, placement.topology().num_nodes(),
                 "make_multi_failure: node id out of range");
    CAR_CHECK(seen.insert(node).second,
              "make_multi_failure: duplicate node id");
  }
  MultiFailureScenario scenario;
  scenario.replacement = nodes.front();
  scenario.replacement_rack = placement.topology().rack_of(nodes.front());
  scenario.failed_nodes = std::move(nodes);
  return scenario;
}

MultiFailureScenario make_multi_failure_onto(
    const cluster::Placement& placement, std::vector<cluster::NodeId> nodes,
    cluster::NodeId replacement) {
  CAR_CHECK_LT(replacement, placement.topology().num_nodes(),
               "make_multi_failure_onto: replacement node id out of range");
  auto scenario = make_multi_failure(placement, std::move(nodes));
  scenario.replacement = replacement;
  scenario.replacement_rack = placement.topology().rack_of(replacement);
  return scenario;
}

namespace {

/// Serial census core over one contiguous stripe range, appending to `out`.
void census_range(const cluster::Placement& placement,
                  const MultiFailureScenario& scenario,
                  const std::vector<char>& failed, cluster::StripeId begin,
                  cluster::StripeId end, std::vector<MultiStripeCensus>& out) {
  const auto& topology = placement.topology();
  for (cluster::StripeId s = begin; s < end; ++s) {
    MultiStripeCensus census;
    census.stripe = s;
    census.replacement_rack = scenario.replacement_rack;
    census.k = placement.k();
    census.surviving.assign(topology.num_racks(), 0);
    const auto hosts = placement.stripe(s);
    for (std::size_t c = 0; c < hosts.size(); ++c) {
      if (failed[hosts[c]] != 0) {
        census.lost_chunks.push_back(c);
      } else {
        ++census.surviving[topology.rack_of(hosts[c])];
      }
    }
    if (census.lost_chunks.empty()) continue;
    CAR_CHECK_LE(census.lost_chunks.size(), placement.m(),
                 "build_multi_censuses: stripe lost more than m chunks — "
                 "beyond the code's fault tolerance");
    out.push_back(std::move(census));
  }
}

/// Bitset lookup: is_failed() is a linear scan over failed_nodes, and the
/// census asks it once per chunk — at datacenter scale (1M stripes, a full
/// rack of failed nodes) that linear scan dominates the census.
std::vector<char> failed_bitset(const cluster::Placement& placement,
                                const MultiFailureScenario& scenario) {
  const std::size_t num_nodes = placement.topology().num_nodes();
  std::vector<char> failed(num_nodes, 0);
  for (cluster::NodeId node : scenario.failed_nodes) {
    CAR_CHECK_LT(node, num_nodes,
                 "build_multi_censuses: failed node id out of range");
    failed[node] = 1;
  }
  return failed;
}

}  // namespace

std::vector<MultiStripeCensus> build_multi_censuses(
    const cluster::Placement& placement, const MultiFailureScenario& scenario,
    std::span<const cluster::StripeId> stripes) {
  const std::vector<char> failed = failed_bitset(placement, scenario);
  std::vector<MultiStripeCensus> out;
  out.reserve(stripes.size());
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    CAR_CHECK_LT(stripes[i], placement.num_stripes(),
                 "build_multi_censuses: stripe id out of range");
    if (i > 0) {
      CAR_CHECK_LT(stripes[i - 1], stripes[i],
                   "build_multi_censuses: stripe ids must be strictly "
                   "ascending");
    }
    census_range(placement, scenario, failed, stripes[i], stripes[i] + 1, out);
  }
  return out;
}

std::vector<MultiStripeCensus> build_multi_censuses(
    const cluster::Placement& placement, const MultiFailureScenario& scenario,
    std::size_t shards) {
  CAR_CHECK(shards >= 1, "build_multi_censuses: shards must be >= 1");
  const std::vector<char> failed = failed_bitset(placement, scenario);
  const cluster::StripeId n = placement.num_stripes();
  if (shards <= 1 || n < 2) {
    std::vector<MultiStripeCensus> out;
    census_range(placement, scenario, failed, 0, n, out);
    return out;
  }
  // Contiguous ranges per shard; each worker streams fixed-size census
  // batches through a bounded SPSC ring (exactly one producer — the
  // worker — and one consumer — this thread), and the collector drains
  // the rings in shard order.  Concatenation therefore overlaps the tail
  // of the scan instead of waiting behind the slowest shard, peak memory
  // is bounded by the ring capacities instead of a full per-shard copy,
  // and the output is still the serial scan's verbatim for every shard
  // count (batches of one range concatenate to that range's output, and
  // ranges flush in range order).
  shards = std::min<std::size_t>(shards, n);
  constexpr cluster::StripeId kBatchStripes = 1 << 14;
  using Batch = std::vector<MultiStripeCensus>;
  std::vector<std::unique_ptr<util::SpscQueue<Batch>>> rings;
  rings.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    rings.push_back(std::make_unique<util::SpscQueue<Batch>>(64));
  }
  std::vector<std::thread> workers;
  workers.reserve(shards);
  std::mutex error_mu;
  std::exception_ptr error;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const cluster::StripeId begin = n * shard / shards;
    const cluster::StripeId end = n * (shard + 1) / shards;
    workers.emplace_back([&, shard, begin, end] {
      const util::SpscProducerToken<Batch> token(*rings[shard]);
      try {
        for (cluster::StripeId at = begin; at < end; at += kBatchStripes) {
          Batch batch;
          census_range(placement, scenario, failed, at,
                       std::min<cluster::StripeId>(end, at + kBatchStripes),
                       batch);
          if (!batch.empty()) rings[shard]->push(std::move(batch));
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      // Close even on error, or the collector's pop() spins forever.
      rings[shard]->close();
    });
  }
  std::vector<MultiStripeCensus> out;
  try {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const util::SpscConsumerToken<Batch> token(*rings[shard]);
      while (auto batch = rings[shard]->pop()) {
        std::move(batch->begin(), batch->end(), std::back_inserter(out));
      }
    }
  } catch (...) {
    // The collector died mid-drain (e.g. bad_alloc growing `out`).
    // Producers may be spinning in SpscQueue::push with no way to observe
    // consumer death, and destroying a joinable std::thread terminates the
    // process — so drain every ring dry (pop() past a closed, empty ring
    // is a cheap no-op) and join before letting the exception unwind.
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const util::SpscConsumerToken<Batch> token(*rings[shard]);
      while (rings[shard]->pop()) {
      }
    }
    for (auto& worker : workers) worker.join();
    throw;
  }
  for (auto& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
  return out;
}

std::vector<std::size_t> MultiStripeSolution::all_chunk_indices() const {
  std::vector<std::size_t> out;
  for (const auto& pick : picks) {
    out.insert(out.end(), pick.chunk_indices.begin(),
               pick.chunk_indices.end());
  }
  return out;
}

std::vector<MultiStripeSolution> to_multi(
    std::span<const PerStripeSolution> solutions) {
  std::vector<MultiStripeSolution> out;
  out.reserve(solutions.size());
  for (const PerStripeSolution& solution : solutions) {
    out.push_back({solution.stripe,
                   {solution.lost_chunk},
                   solution.rack_set,
                   solution.picks});
  }
  return out;
}

std::vector<MultiRrSolution> to_multi(std::span<const RrSolution> solutions) {
  std::vector<MultiRrSolution> out;
  out.reserve(solutions.size());
  for (const RrSolution& solution : solutions) {
    out.push_back(
        {solution.stripe, {solution.lost_chunk}, solution.chunk_indices});
  }
  return out;
}

namespace {

/// Chunk indices of `stripe` in `rack` that survived (not in lost_chunks).
std::vector<std::size_t> surviving_in_rack(const cluster::Placement& placement,
                                           const MultiStripeCensus& census,
                                           cluster::RackId rack) {
  auto indices = placement.chunk_indices_in_rack(census.stripe, rack);
  std::erase_if(indices, [&](std::size_t c) {
    return std::binary_search(census.lost_chunks.begin(),
                              census.lost_chunks.end(), c);
  });
  return indices;
}

}  // namespace

MultiStripeSolution materialize_multi(const cluster::Placement& placement,
                                      const MultiStripeCensus& census,
                                      const RackSet& set) {
  CAR_CHECK(is_valid_minimal_for(census.k, census.replacement_rack,
                                 census.surviving, set),
            "materialize_multi: rack set is not a valid minimal solution");

  MultiStripeSolution solution;
  solution.stripe = census.stripe;
  solution.lost_chunks = census.lost_chunks;
  solution.rack_set = set;
  std::sort(solution.rack_set.racks.begin(), solution.rack_set.racks.end());

  std::size_t needed = census.k;

  // Home rack survivors first (free at the rack level).
  {
    auto local =
        surviving_in_rack(placement, census, census.replacement_rack);
    if (!local.empty()) {
      const std::size_t take = std::min(local.size(), needed);
      local.resize(take);
      needed -= take;
      solution.picks.push_back({census.replacement_rack, std::move(local)});
    }
  }

  // Chosen racks, largest availability first, trimming the last.
  std::vector<cluster::RackId> order = set.racks;
  std::stable_sort(order.begin(), order.end(),
                   [&](cluster::RackId a, cluster::RackId b) {
                     return census.surviving[a] > census.surviving[b];
                   });
  for (cluster::RackId rack : order) {
    if (needed == 0) {
      throw std::logic_error(
          "materialize_multi: chosen rack contributes no chunk");
    }
    auto indices = surviving_in_rack(placement, census, rack);
    const std::size_t take = std::min(indices.size(), needed);
    indices.resize(take);
    needed -= take;
    solution.picks.push_back({rack, std::move(indices)});
  }
  if (needed != 0) {
    throw std::logic_error("materialize_multi: could not gather k chunks");
  }
  return solution;
}

namespace {

double lambda_of(const std::vector<std::size_t>& t, cluster::RackId home) {
  std::size_t total = 0;
  std::size_t max = 0;
  for (cluster::RackId i = 0; i < t.size(); ++i) {
    total += t[i];
    if (i != home) max = std::max(max, t[i]);
  }
  if (total == 0 || t.size() < 2) return 1.0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(t.size() - 1);
  return static_cast<double>(max) / avg;
}

}  // namespace

MultiBalanceResult balance_multi(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses, std::size_t iterations) {
  CAR_CHECK(!censuses.empty(), "balance_multi: no stripes to recover");
  const cluster::RackId home = censuses.front().replacement_rack;
  const std::size_t num_racks = censuses.front().num_racks();

  std::vector<RackSet> chosen(censuses.size());
  std::vector<std::size_t> weight(censuses.size());
  std::vector<std::size_t> t(num_racks, 0);
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    chosen[j] = default_rack_set(censuses[j].k, home, censuses[j].surviving);
    weight[j] = censuses[j].lost_count();
    for (cluster::RackId rack : chosen[j].racks) t[rack] += weight[j];
  }

  MultiBalanceResult result;
  result.lambda_trace.push_back(lambda_of(t, home));

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    cluster::RackId heaviest = home;
    std::size_t heaviest_t = 0;
    for (cluster::RackId i = 0; i < num_racks; ++i) {
      if (i == home) continue;
      if (heaviest == home || t[i] > heaviest_t) {
        heaviest = i;
        heaviest_t = t[i];
      }
    }

    bool substituted = false;
    std::vector<cluster::RackId> lighter;
    for (cluster::RackId i = 0; i < num_racks; ++i) {
      if (i != home && i != heaviest && t[i] < heaviest_t) lighter.push_back(i);
    }
    std::stable_sort(lighter.begin(), lighter.end(),
                     [&](cluster::RackId a, cluster::RackId b) {
                       return t[a] < t[b];
                     });

    for (cluster::RackId target : lighter) {
      for (std::size_t j = 0; j < censuses.size() && !substituted; ++j) {
        // Moving weight[j] partials must not push the target above the
        // (reduced) source: t_l - t_i >= 2 * weight keeps max monotone.
        if (heaviest_t < t[target] + 2 * weight[j]) continue;
        if (!chosen[j].contains(heaviest) || chosen[j].contains(target)) {
          continue;
        }
        RackSet swapped = chosen[j];
        std::replace(swapped.racks.begin(), swapped.racks.end(), heaviest,
                     target);
        std::sort(swapped.racks.begin(), swapped.racks.end());
        // Validity is a direct predicate (size d, distinct non-home racks
        // with survivors, enough chunks) — exactly the membership test in
        // enumerate_rack_sets' output, without materialising the
        // combinatorial candidate list per stripe.
        if (!is_valid_minimal_for(censuses[j].k, home, censuses[j].surviving,
                                  swapped)) {
          continue;
        }
        chosen[j] = std::move(swapped);
        t[heaviest] -= weight[j];
        t[target] += weight[j];
        substituted = true;
      }
      if (substituted) break;
    }
    if (!substituted) break;
    ++result.substitutions;
    result.lambda_trace.push_back(lambda_of(t, home));
  }

  result.solutions.reserve(censuses.size());
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    result.solutions.push_back(
        materialize_multi(placement, censuses[j], chosen[j]));
  }
  return result;
}

TrafficSummary multi_traffic(const std::vector<MultiStripeSolution>& solutions,
                             std::size_t num_racks,
                             cluster::RackId replacement_rack) {
  TrafficSummary summary;
  summary.failed_rack = replacement_rack;
  summary.per_rack_chunks.assign(num_racks, 0);
  for (const auto& solution : solutions) {
    for (cluster::RackId rack : solution.rack_set.racks) {
      summary.per_rack_chunks[rack] += solution.lost_chunks.size();
    }
  }
  return summary;
}

std::span<const std::uint8_t> RepairMemo::coeffs(
    const rs::Code& code, std::size_t lost,
    std::span<const std::size_t> survivors) {
  CAR_CHECK_LT(lost, std::size_t{64},
               "RepairMemo: lost chunk index does not fit the packed key");
  std::uint64_t mask = 0;
  std::size_t max_chunk = 0;
  for (const std::size_t chunk : survivors) {
    CAR_CHECK_LT(chunk, std::size_t{58},
                 "RepairMemo: survivor chunk index does not fit the packed "
                 "key's 58-bit set");
    mask |= std::uint64_t{1} << chunk;
    max_chunk = std::max(max_chunk, chunk);
  }
  const std::uint64_t key = (mask << 6) | static_cast<std::uint64_t>(lost);
  if (memo_.empty()) memo_.reserve(256);
  const auto [it, inserted] = memo_.try_emplace(key);
  if (inserted) {
    const auto y = code.repair_vector(lost, survivors);
    it->second.assign(max_chunk + 1, 0);
    for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
      it->second[survivors[pos]] = y[pos];
    }
  }
  return it->second;
}

std::vector<MultiRrSolution> plan_multi_rr(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses, util::Rng& rng) {
  std::vector<MultiRrSolution> out;
  out.reserve(censuses.size());
  for (const auto& census : censuses) {
    std::vector<std::size_t> survivors;
    for (std::size_t c = 0; c < placement.chunks_per_stripe(); ++c) {
      if (!std::binary_search(census.lost_chunks.begin(),
                              census.lost_chunks.end(), c)) {
        survivors.push_back(c);
      }
    }
    CAR_CHECK_GE(survivors.size(), census.k,
                 "plan_multi_rr: fewer than k survivors");
    rng.shuffle(survivors);
    survivors.resize(census.k);
    std::sort(survivors.begin(), survivors.end());
    out.push_back({census.stripe, census.lost_chunks, std::move(survivors)});
  }
  return out;
}

TrafficSummary multi_rr_traffic(const cluster::Placement& placement,
                                const std::vector<MultiRrSolution>& solutions,
                                cluster::RackId replacement_rack) {
  TrafficSummary summary;
  summary.failed_rack = replacement_rack;
  summary.per_rack_chunks.assign(placement.topology().num_racks(), 0);
  for (const auto& solution : solutions) {
    for (std::size_t chunk : solution.chunk_indices) {
      const auto host = placement.node_of(solution.stripe, chunk);
      const auto rack = placement.topology().rack_of(host);
      if (rack != replacement_rack) ++summary.per_rack_chunks[rack];
    }
  }
  return summary;
}

}  // namespace car::recovery
