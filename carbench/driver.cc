// car_bench — the CAR recovery benchmark driver.
//
// One process runs one workload for a host-time budget.  Every iteration
// replays, from the outside, the public call sequence of `carctl emulate`
// (the scale path) or of rebuild::run_rebuild_scenario, and times each call:
//
//   set-up    emul::Cluster, Placement::random, failure choice,
//             populate_sampled, erase_node
//   recovery  build_multi_censuses -> balance_multi -> build_multi_car_arena
//             -> execute_arena                           (--mode emulate)
//             RebuildCoordinator::run                    (--mode rebuild)
//   verify    the benchmark's correctness gate: recovered bytes, lost-chunk
//             coverage, traffic accounting, virtual-metric determinism
//
// Iteration 0 warms the allocator and is excluded from timing (its checks
// still count).  With --trace 1 every even iteration also records a span
// around each call; spans stay in memory and are written out at exit.
// Odd iterations stay untraced so run.py can subtract the two wall times.
// With --log-out (rebuild only) one untimed iteration after the timed ones
// writes its event log there, for run.py to compare with carctl's.
//
// Everything the run measured is written as one JSON document to --out;
// carbench/run.py turns it into the benchmark's metrics.  Exit status: 0
// when every check passed, 1 when a check failed, 2 on an error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "gf/kernels.h"
#include "gf/region.h"
#include "inject/event_log.h"
#include "inject/scenario.h"
#include "rebuild/coordinator.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "rs/code.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/rss.h"

namespace {

using namespace car;
using Clock = std::chrono::steady_clock;

/// Measured iterations a run makes even when --seconds has run out.
constexpr std::size_t kMinIterations = 3;

double secs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // seconds since the driver started
  double end_s = 0.0;
  long parent = -1;  // index into the span list; -1 for a root span
  long iteration = -1;
};

/// In-memory span recorder.  Disabled iterations record nothing.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void begin_iteration(long iteration, bool enabled) {
    iteration_ = iteration;
    enabled_ = enabled;
  }
  long open(const char* name) {
    if (!enabled_) return -1;
    const long parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, secs(origin_, Clock::now()), 0.0, parent,
                      iteration_});
    stack_.push_back(static_cast<long>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(long id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = secs(origin_, Clock::now());
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  long iteration_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<long> stack_;
};

/// RAII span: open on construction, close on scope exit.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

// ---------------------------------------------------------- correctness

/// Counts correctness checks; every failed check is a failed op.
class Gate {
 public:
  void check(bool ok, const std::string& what) { count(ok ? 1 : 0, 1, what); }
  void count(std::size_t passed, std::size_t total, const std::string& what) {
    attempted_ += total;
    if (passed < total) {
      failed_ += total - passed;
      if (messages_.size() < 16) {
        messages_.push_back(what + ": " + std::to_string(total - passed) +
                            " of " + std::to_string(total) + " failed");
      }
    }
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ------------------------------------------------------------- workload

struct Config {
  std::string mode;  // "emulate" | "rebuild"
  // emulate
  std::vector<std::size_t> racks;
  std::size_t k = 6;
  std::size_t m = 3;
  std::size_t stripes = 0;
  std::uint64_t chunk_bytes = 0;
  std::uint64_t slice_bytes = 0;  // 0 = unsliced (one slice per chunk)
  bool metadata_only = false;
  std::size_t sample = 8;
  std::size_t balance_iterations = 50;
  // rebuild
  inject::Scenario scenario;
  // both
  std::uint64_t seed = 7;
  std::size_t shards = 4;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_one = false;
};

/// The four virtual (emulated-time) metrics; exact for a given seed.
struct Virtual {
  double makespan_s = 0.0;
  std::uint64_t cross_rack_bytes = 0;
  double balance_lambda = 0.0;
  double at_risk_stripe_s = 0.0;
  friend bool operator==(const Virtual&, const Virtual&) = default;
};

struct Iteration {
  long index = 0;
  bool traced = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double recovery_s = 0.0;
  Virtual virt;
  /// Per-layer counts and layer-internal host times, in emission order.
  std::vector<std::pair<std::string, double>> layer;
  /// carctl cross-check fields (first iteration only is emitted).
  std::vector<std::pair<std::string, std::string>> crosscheck;
  /// The rebuild run's event log (--log-out); dropped by the timed loop.
  inject::EventLog log;
};

/// (stripe, chunk index) packed into one key.
std::uint64_t chunk_key(cluster::StripeId stripe, std::size_t chunk_index) {
  return (static_cast<std::uint64_t>(stripe) << 16) |
         static_cast<std::uint64_t>(chunk_index);
}

/// Max/mean of per-rack cross-rack bytes over racks holding no failed node.
double balance_lambda(const std::vector<std::uint64_t>& per_rack,
                      const std::vector<char>& rack_has_failed) {
  std::uint64_t max = 0;
  double sum = 0.0;
  std::size_t racks = 0;
  for (std::size_t r = 0; r < per_rack.size(); ++r) {
    if (r < rack_has_failed.size() && rack_has_failed[r] != 0) continue;
    max = std::max(max, per_rack[r]);
    sum += static_cast<double>(per_rack[r]);
    ++racks;
  }
  if (racks == 0 || sum == 0.0) return 0.0;
  return static_cast<double>(max) / (sum / static_cast<double>(racks));
}

/// Overwrite one recovered chunk on the replacement with a corrupted copy
/// (the gate self-test: the verify step must count it as a failed op).
void corrupt_one_chunk(emul::Cluster& cluster, cluster::NodeId replacement,
                       cluster::StripeId stripe, std::size_t chunk_index) {
  const rs::Chunk* current = cluster.find_chunk(replacement, stripe,
                                                chunk_index);
  if (current == nullptr || current->empty()) return;
  rs::Chunk bad = *current;
  bad[bad.size() / 2] ^= 0x5a;
  cluster.store_chunk(replacement, stripe, chunk_index, std::move(bad));
}

/// Every lost chunk (hosted on a failed node) must be among `recovered`.
void check_coverage(const cluster::Placement& placement,
                    const std::vector<char>& node_failed,
                    std::vector<std::uint64_t> recovered, Gate& gate) {
  std::sort(recovered.begin(), recovered.end());
  std::size_t lost = 0;
  std::size_t found = 0;
  for (cluster::StripeId s = 0; s < placement.num_stripes(); ++s) {
    const auto hosts = placement.stripe(s);
    for (std::size_t c = 0; c < hosts.size(); ++c) {
      if (node_failed[hosts[c]] == 0) continue;
      ++lost;
      found += std::binary_search(recovered.begin(), recovered.end(),
                                  chunk_key(s, c));
    }
  }
  gate.count(found, lost, "lost chunk among recovered outputs");
  gate.check(lost > 0, "failure lost no chunk");
}

Iteration run_emulate(const Config& cfg, Tracer& tracer, Gate& gate,
                      bool corrupt, long& teardown) {
  Iteration out;
  const auto t0 = Clock::now();
  const cluster::Topology topology(cfg.racks);
  const rs::Code code(cfg.k, cfg.m);
  // carctl emulate's default links: 400 MB/s nodes, 5:1 oversubscription.
  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul_cfg.oversubscription = 5.0;
  emul_cfg.clock_mode = emul::ClockMode::kVirtual;

  std::unique_ptr<emul::Cluster> cluster;
  std::optional<cluster::Placement> placement;
  recovery::MultiFailureScenario mf;
  std::vector<cluster::StripeId> materialise;
  std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>> originals;
  {
    Span setup(tracer, "setup");
    {
      Span s(tracer, "emul.cluster");
      cluster = std::make_unique<emul::Cluster>(topology, emul_cfg);
    }
    {
      Span s(tracer, "cluster.place");
      util::Rng place_rng(cfg.seed);
      placement.emplace(cluster::Placement::random(
          topology, cfg.k, cfg.m, cfg.stripes, place_rng));
    }
    {
      // carctl's failure choice: a seeded data-bearing node widened to its
      // whole rack; the first failed node is the replacement.
      Span s(tracer, "cluster.fail");
      util::Rng fail_rng(cfg.seed + 1);
      const auto first =
          cluster::inject_random_failure(*placement, fail_rng).failed_node;
      std::vector<cluster::NodeId> failed{first};
      for (const auto node : topology.nodes_in_rack(topology.rack_of(first))) {
        if (node != first) failed.push_back(node);
      }
      mf = recovery::make_multi_failure(*placement, failed);
      if (cfg.metadata_only) {
        // carctl samples the first `sample` output stripes; outputs follow
        // the census, which is in stripe order (checked after balancing).
        std::vector<char> dead(topology.num_nodes(), 0);
        for (const auto node : mf.failed_nodes) dead[node] = 1;
        for (cluster::StripeId st = 0;
             st < cfg.stripes && materialise.size() < cfg.sample; ++st) {
          const auto hosts = placement->stripe(st);
          if (std::any_of(hosts.begin(), hosts.end(),
                          [&](cluster::NodeId n) { return dead[n] != 0; })) {
            materialise.push_back(st);
          }
        }
      } else {
        materialise.resize(cfg.stripes);
        for (cluster::StripeId st = 0; st < cfg.stripes; ++st) {
          materialise[st] = st;
        }
      }
    }
    {
      Span s(tracer, "emul.populate");
      originals = cluster->populate_sampled(*placement, code, cfg.chunk_bytes,
                                            cfg.seed, materialise);
    }
    {
      Span s(tracer, "emul.erase");
      for (const auto node : mf.failed_nodes) cluster->erase_node(node);
    }
  }
  const auto t_setup = Clock::now();
  out.setup_s = secs(t0, t_setup);

  const std::uint64_t slice =
      cfg.slice_bytes > 0 ? cfg.slice_bytes : cfg.chunk_bytes;
  emul::ArenaExecOptions options;
  options.shards = cfg.shards;
  options.replay_shards = 1;
  options.metadata_only = cfg.metadata_only;
  if (cfg.metadata_only) options.sampled_stripes = materialise;

  recovery::PlanTemplateCache cache;
  std::vector<recovery::MultiStripeCensus> censuses;
  std::vector<recovery::MultiStripeSolution> solutions;
  recovery::PlanArena arena;
  emul::ExecutionReport report;
  Clock::time_point t_executed;
  {
    Span recovery_span(tracer, "recovery");
    {
      Span s(tracer, "recovery.scan");
      censuses = recovery::build_multi_censuses(*placement, mf, cfg.shards);
    }
    {
      Span s(tracer, "recovery.balance");
      solutions =
          recovery::balance_multi(*placement, censuses, cfg.balance_iterations)
              .solutions;
    }
    {
      Span s(tracer, "recovery.lower");
      arena = recovery::build_multi_car_arena(*placement, code, solutions,
                                              cfg.chunk_bytes, slice,
                                              mf.replacement, cache);
    }
    {
      Span s(tracer, "emul.execute");
      report = cluster->execute_arena(arena, options);
    }
    t_executed = Clock::now();
  }
  out.recovery_s = secs(t_setup, t_executed);

  const auto outputs = arena.outputs();
  if (corrupt) {
    for (const auto& o : outputs) {
      if (originals.contains(o.stripe)) {
        corrupt_one_chunk(*cluster, mf.replacement, o.stripe, o.chunk_index);
        break;
      }
    }
  }

  std::size_t outputs_checked = 0;
  {
    Span v(tracer, "verify");
    std::size_t exact = 0;
    for (const auto& o : outputs) {
      const auto it = originals.find(o.stripe);
      if (it == originals.end()) continue;
      ++outputs_checked;
      const rs::Chunk* got =
          cluster->find_chunk(mf.replacement, o.stripe, o.chunk_index);
      exact += got != nullptr && *got == it->second[o.chunk_index];
    }
    gate.count(exact, outputs_checked, "recovered chunk bit-exact");
    gate.check(outputs_checked > 0, "no materialised output to verify");

    std::vector<char> node_failed(topology.num_nodes(), 0);
    for (const auto node : mf.failed_nodes) node_failed[node] = 1;
    std::vector<std::uint64_t> recovered;
    recovered.reserve(outputs.size());
    for (const auto& o : outputs) {
      recovered.push_back(chunk_key(o.stripe, o.chunk_index));
    }
    check_coverage(*placement, node_failed, std::move(recovered), gate);

    std::uint64_t per_rack_sum = 0;
    for (const auto b : report.per_rack_cross_bytes) per_rack_sum += b;
    gate.check(report.cross_rack_bytes == arena.cross_rack_bytes() &&
                   report.cross_rack_bytes == per_rack_sum,
               "report cross-rack bytes == arena == sum per rack");

    if (cfg.metadata_only) {
      bool same = materialise.size() == std::min(cfg.sample, solutions.size());
      for (std::size_t i = 0; same && i < materialise.size(); ++i) {
        same = solutions[i].stripe == materialise[i];
      }
      gate.check(same, "sampled stripes are the first output stripes");
    }
  }
  out.wall_s = secs(t0, Clock::now());

  std::vector<char> rack_failed(topology.num_racks(), 0);
  for (const auto node : mf.failed_nodes) {
    rack_failed[topology.rack_of(node)] = 1;
  }
  out.virt.makespan_s = report.wall_s;
  out.virt.cross_rack_bytes = report.cross_rack_bytes;
  out.virt.balance_lambda =
      balance_lambda(report.per_rack_cross_bytes, rack_failed);

  const auto& stats = cache.stats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  const double populated = static_cast<double>(materialise.size()) *
                           static_cast<double>(cfg.k + cfg.m) *
                           static_cast<double>(cfg.chunk_bytes);
  const double payload = static_cast<double>(arena.compute_bytes()) +
                         static_cast<double>(report.cross_rack_bytes) +
                         static_cast<double>(report.intra_rack_bytes);
  out.layer = {
      {"recovery.affected_stripes", static_cast<double>(censuses.size())},
      {"recovery.plan_steps", static_cast<double>(arena.num_base_steps())},
      {"recovery.template_misses", static_cast<double>(stats.misses)},
      {"recovery.template_hit_ratio",
       lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0},
      {"emul.sliced_steps", static_cast<double>(arena.num_sliced_steps())},
      {"emul.payload_bytes", payload},
      {"emul.populated_bytes", populated},
      {"verify.outputs_checked", static_cast<double>(outputs_checked)},
  };
  char makespan[64];
  std::snprintf(makespan, sizeof makespan, "%.17g", report.wall_s);
  out.crosscheck = {
      {"affected_stripes", std::to_string(censuses.size())},
      {"plan_steps", std::to_string(arena.num_base_steps())},
      {"outputs", std::to_string(outputs.size())},
      {"makespan_s", makespan},
      {"cross_rack_bytes", std::to_string(report.cross_rack_bytes)},
  };
  teardown = tracer.open("teardown");
  return out;
}

Iteration run_rebuild(const Config& cfg, Tracer& tracer, Gate& gate,
                      bool corrupt, long& teardown) {
  const inject::Scenario& sc = cfg.scenario;
  Iteration out;
  const auto t0 = Clock::now();
  const cluster::Topology topology(sc.racks);
  const rs::Code code(sc.k, sc.m);
  const bool metadata = sc.data_mode.has_value() && *sc.data_mode == "metadata";

  std::unique_ptr<emul::Cluster> cluster;
  std::optional<cluster::Placement> placement;
  std::vector<rebuild::FailureEvent> events;
  std::set<cluster::StripeId> affected;
  std::vector<cluster::StripeId> materialise;
  std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>> originals;
  {
    Span setup(tracer, "setup");
    {
      Span s(tracer, "emul.cluster");
      emul::EmulConfig config;
      config.node_bps = sc.node_bps;
      config.oversubscription = sc.oversubscription;
      config.page_bytes = sc.page_bytes;
      config.clock_mode = emul::ClockMode::kVirtual;
      cluster = std::make_unique<emul::Cluster>(topology, config);
    }
    {
      Span s(tracer, "cluster.place");
      util::Rng rng(sc.seed);
      placement.emplace(cluster::Placement::random(topology, sc.k, sc.m,
                                                   sc.stripes, rng));
    }
    {
      Span s(tracer, "cluster.fail");
      for (const inject::NodeCrash& crash : sc.faults.node_crashes) {
        if (!crash.at_time_s.has_value()) {
          throw std::invalid_argument("rebuild spec: crash without at=");
        }
        events.push_back({crash.node, *crash.at_time_s});
        for (const auto& ref : placement->chunks_on_node(crash.node)) {
          affected.insert(ref.stripe);
        }
      }
      if (metadata) {
        for (const auto stripe : affected) {
          if (materialise.size() == sc.sample_stripes) break;
          materialise.push_back(stripe);
        }
      } else {
        for (cluster::StripeId st = 0; st < sc.stripes; ++st) {
          materialise.push_back(st);
        }
      }
    }
    {
      // run_rebuild_scenario's sharded populate: disjoint stripe subsets,
      // one thread each, byte-identical to a serial populate.
      Span s(tracer, "emul.populate");
      const std::size_t shards = std::max<std::size_t>(cfg.shards, 1);
      std::vector<std::vector<cluster::StripeId>> subsets(shards);
      for (std::size_t i = 0; i < materialise.size(); ++i) {
        subsets[i % shards].push_back(materialise[i]);
      }
      std::vector<std::unordered_map<cluster::StripeId,
                                     std::vector<rs::Chunk>>>
          partials(shards);
      std::vector<std::thread> workers;
      workers.reserve(shards);
      for (std::size_t shard = 0; shard < shards; ++shard) {
        workers.emplace_back([&, shard] {
          partials[shard] = cluster->populate_sampled(
              *placement, code, sc.chunk_bytes, sc.seed, subsets[shard]);
        });
      }
      for (std::thread& worker : workers) worker.join();
      for (auto& partial : partials) originals.merge(partial);
    }
  }
  const auto t_setup = Clock::now();
  out.setup_s = secs(t0, t_setup);

  rebuild::RebuildOptions options;
  options.strategy = sc.strategy == "rr" ? rebuild::Strategy::kRr
                                         : rebuild::Strategy::kCar;
  options.chunk_bytes = sc.chunk_bytes;
  options.slice_bytes = sc.slice_bytes;
  options.batch_stripes = sc.rebuild_batch_stripes;
  options.max_inflight = sc.rebuild_concurrency;
  options.seed = sc.seed;
  options.scan_shards = cfg.shards;
  options.retry = sc.retry;
  options.faults = sc.faults;
  options.faults.node_crashes.clear();
  if (metadata) {
    options.data.metadata_only = true;
    options.data.sampled_stripes = materialise;
  }

  rebuild::RebuildResult result;
  {
    Span recovery_span(tracer, "recovery");
    Span s(tracer, "rebuild.run");
    rebuild::RebuildCoordinator coordinator(*cluster, *placement, code,
                                            options);
    result = coordinator.run(events);
  }
  const auto t_executed = Clock::now();
  out.recovery_s = secs(t_setup, t_executed);

  const std::unordered_set<cluster::StripeId> real(materialise.begin(),
                                                   materialise.end());
  if (corrupt) {
    for (const auto& chunk : result.recovered) {
      if (real.contains(chunk.stripe)) {
        corrupt_one_chunk(*cluster, result.replacement, chunk.stripe,
                          chunk.chunk_index);
        break;
      }
    }
  }

  std::size_t outputs_checked = 0;
  {
    Span v(tracer, "verify");
    std::size_t exact = 0;
    for (const auto& chunk : result.recovered) {
      if (!real.contains(chunk.stripe)) continue;
      ++outputs_checked;
      const rs::Chunk* got = cluster->find_chunk(
          result.replacement, chunk.stripe, chunk.chunk_index);
      const auto it = originals.find(chunk.stripe);
      exact += got != nullptr && it != originals.end() &&
               chunk.chunk_index < it->second.size() &&
               *got == it->second[chunk.chunk_index];
    }
    gate.count(exact, outputs_checked, "recovered chunk bit-exact");
    gate.check(outputs_checked > 0, "no materialised output to verify");

    std::vector<char> node_failed(topology.num_nodes(), 0);
    for (const auto& event : events) node_failed[event.node] = 1;
    std::vector<std::uint64_t> recovered;
    recovered.reserve(result.recovered.size());
    for (const auto& chunk : result.recovered) {
      recovered.push_back(chunk_key(chunk.stripe, chunk.chunk_index));
    }
    check_coverage(*placement, node_failed, std::move(recovered), gate);

    // The coordinator's per-batch arenas are internal, so the arena side of
    // the accounting identity is checked per batch inside the library; the
    // report's total must still equal its per-rack breakdown.
    std::uint64_t per_rack_sum = 0;
    for (const auto b : result.report.per_rack_cross_bytes) per_rack_sum += b;
    gate.check(result.report.cross_rack_bytes == per_rack_sum,
               "report cross-rack bytes == sum per rack");
  }
  out.wall_s = secs(t0, Clock::now());

  std::vector<char> rack_failed(topology.num_racks(), 0);
  for (const auto& event : events) {
    rack_failed[topology.rack_of(event.node)] = 1;
  }
  const auto& metrics = result.metrics;
  out.virt.makespan_s = metrics.makespan_s;
  out.virt.cross_rack_bytes = result.report.cross_rack_bytes;
  out.virt.balance_lambda =
      balance_lambda(result.report.per_rack_cross_bytes, rack_failed);
  out.virt.at_risk_stripe_s = metrics.total_at_risk_s;

  const auto& stats = result.stats;
  const double lookups = static_cast<double>(metrics.template_cache_hits +
                                             metrics.template_cache_misses);
  const std::size_t failed_attempts =
      stats.timeouts + stats.drops + stats.corruptions;
  const double populated = static_cast<double>(materialise.size()) *
                           static_cast<double>(sc.k + sc.m) *
                           static_cast<double>(sc.chunk_bytes);
  out.layer = {
      {"recovery.affected_stripes", static_cast<double>(affected.size())},
      {"recovery.template_misses",
       static_cast<double>(metrics.template_cache_misses)},
      {"recovery.template_hit_ratio",
       lookups > 0 ? static_cast<double>(metrics.template_cache_hits) / lookups
                   : 0.0},
      {"emul.populated_bytes", populated},
      {"rebuild.scan_s", metrics.scan_host_s},
      {"rebuild.plan_s", metrics.plan_host_s},
      {"rebuild.batches", static_cast<double>(metrics.batches_dispatched)},
      {"rebuild.batches_cancelled",
       static_cast<double>(metrics.batches_cancelled)},
      {"rebuild.stripes_requeued",
       static_cast<double>(metrics.stripes_requeued)},
      {"inject.attempts", static_cast<double>(stats.attempts)},
      {"inject.retries", static_cast<double>(stats.retries)},
      {"inject.useful_attempt_ratio",
       stats.attempts > 0
           ? static_cast<double>(stats.attempts - failed_attempts) /
                 static_cast<double>(stats.attempts)
           : 0.0},
      {"inject.wasted_wire_bytes",
       static_cast<double>(stats.wasted_wire_bytes)},
      {"verify.outputs_checked", static_cast<double>(outputs_checked)},
  };
  // The counters `carctl rebuild-run` prints, and the makespan (at the
  // event log's nanosecond grain) and cross-rack bytes that run.py sums
  // from carctl's event log, so the two runs compare exactly.
  char makespan[64];
  std::snprintf(makespan, sizeof makespan, "%.9f", metrics.makespan_s);
  out.crosscheck = {
      {"makespan_s", makespan},
      {"cross_rack_bytes", std::to_string(result.report.cross_rack_bytes)},
      {"attempts", std::to_string(stats.attempts)},
      {"retries", std::to_string(stats.retries)},
      {"scans", std::to_string(metrics.scans)},
      {"batches", std::to_string(metrics.batches_dispatched)},
      {"cancelled", std::to_string(metrics.batches_cancelled)},
      {"requeued", std::to_string(metrics.stripes_requeued)},
      {"rebuilt", std::to_string(result.recovered.size())},
      {"events", result.log.summary()},
  };
  out.log = std::move(result.log);
  teardown = tracer.open("teardown");
  return out;
}

/// One iteration inside an "iteration" span.  The body opens a "teardown"
/// span just before it returns, so freeing its cluster, placement and plan
/// is timed apart from set-up, recovery and verification.
Iteration run_iteration(const Config& cfg, Tracer& tracer, Gate& gate,
                        bool corrupt) {
  Span iteration_span(tracer, "iteration");
  long teardown = -1;
  Iteration out = cfg.mode == "emulate"
                      ? run_emulate(cfg, tracer, gate, corrupt, teardown)
                      : run_rebuild(cfg, tracer, gate, corrupt, teardown);
  tracer.close(teardown);
  return out;
}

// ------------------------------------------------------------ GF roofline

/// Last-level cache size from sysfs (the highest cache index of cpu0).
std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char unit = text.back();
    if (unit == 'K') value *= util::kKiB;
    if (unit == 'M') value *= util::kMiB;
    best = std::max(best, value);
  }
  return best > 0 ? best : 32 * util::kMiB;
}

/// mul_region_acc throughput at `slice`-byte calls over source and
/// destination buffers of twice the LLC each, so every pass streams from
/// DRAM: the ceiling the payload pass and populate are read against.
double gf_roofline_gib_per_s(std::uint64_t slice, std::uint64_t llc) {
  const std::uint64_t slices = (2 * llc + slice - 1) / slice;
  const std::uint64_t bytes = slices * slice;
  std::vector<std::uint8_t> src(bytes);
  std::vector<std::uint8_t> dst(bytes);
  util::Rng rng(0xca7);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::vector<double> passes;
  for (int pass = 0; pass < 6; ++pass) {
    const auto t = Clock::now();
    for (std::uint64_t off = 0; off < bytes; off += slice) {
      gf::mul_region_acc(0x53, std::span(src).subspan(off, slice),
                         std::span(dst).subspan(off, slice));
    }
    if (pass > 0) passes.push_back(secs(t, Clock::now()));
  }
  std::sort(passes.begin(), passes.end());
  const double median = passes[passes.size() / 2];
  return static_cast<double>(bytes) / median / static_cast<double>(util::kGiB);
}

// ------------------------------------------------------------------ JSON

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

Config parse_config(const util::Flags& flags) {
  Config cfg;
  cfg.mode = flags.get("mode", "");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  cfg.shards = static_cast<std::size_t>(flags.get_int("shards", 4));
  cfg.seconds = flags.get_double("seconds", 10.0);
  cfg.trace = flags.get_int("trace", 0) != 0;
  cfg.corrupt_one = flags.get_bool("corrupt-one", false);
  if (cfg.shards == 0) throw std::invalid_argument("--shards must be >= 1");
  if (cfg.mode == "emulate") {
    const auto num_racks = flags.get_int("num-racks", 0);
    const auto rack_size = flags.get_int("rack-size", 0);
    if (num_racks <= 0 || rack_size <= 0) {
      throw std::invalid_argument("--num-racks and --rack-size must be > 0");
    }
    cfg.racks.assign(static_cast<std::size_t>(num_racks),
                     static_cast<std::size_t>(rack_size));
    cfg.k = static_cast<std::size_t>(flags.get_int("k", 6));
    cfg.m = static_cast<std::size_t>(flags.get_int("m", 3));
    cfg.stripes = static_cast<std::size_t>(flags.get_int("stripes", 0));
    cfg.chunk_bytes =
        static_cast<std::uint64_t>(flags.get_int("chunk-kib", 0)) * util::kKiB;
    cfg.slice_bytes =
        static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) * util::kKiB;
    cfg.metadata_only = flags.get_bool("metadata-only", false);
    cfg.sample = static_cast<std::size_t>(flags.get_int("sample", 8));
    cfg.balance_iterations =
        static_cast<std::size_t>(flags.get_int("iterations", 50));
    if (cfg.stripes == 0 || cfg.chunk_bytes == 0) {
      throw std::invalid_argument("--stripes and --chunk-kib must be > 0");
    }
  } else if (cfg.mode == "rebuild") {
    std::ifstream in(flags.get("spec", ""));
    if (!in) throw std::invalid_argument("--spec: cannot open the spec file");
    std::stringstream text;
    text << in.rdbuf();
    cfg.scenario = inject::parse_scenario(text.str());
    if (cfg.scenario.faults.node_crashes.empty()) {
      throw std::invalid_argument("rebuild spec: no `crash` line");
    }
  } else {
    throw std::invalid_argument("--mode must be emulate or rebuild");
  }
  return cfg;
}

int run(const util::Flags& flags) {
  const auto origin = Clock::now();
  const Config cfg = parse_config(flags);
  const std::string out_path = flags.get("out", "");
  const std::string log_path = flags.get("log-out", "");
  if (out_path.empty()) throw std::invalid_argument("--out is required");

  Tracer tracer(origin);
  Gate gate;
  const std::uint64_t llc = llc_bytes();
  const std::uint64_t slice =
      cfg.mode == "rebuild"
          ? (cfg.scenario.slice_bytes > 0 ? cfg.scenario.slice_bytes
                                          : cfg.scenario.chunk_bytes)
          : (cfg.slice_bytes > 0 ? cfg.slice_bytes : cfg.chunk_bytes);
  const double roofline = cfg.trace ? gf_roofline_gib_per_s(slice, llc) : 0.0;

  std::vector<Iteration> iterations;
  const auto start = Clock::now();
  for (long index = 0;; ++index) {
    const std::size_t measured = iterations.empty() ? 0 : iterations.size() - 1;
    if (index > 0 && measured >= kMinIterations &&
        secs(start, Clock::now()) >= cfg.seconds) {
      break;
    }
    const bool traced = cfg.trace && index > 0 && index % 2 == 0;
    tracer.begin_iteration(index, traced);
    Iteration it = run_iteration(cfg, tracer, gate, false);
    it.index = index;
    it.traced = traced;
    it.log = inject::EventLog{};
    if (!iterations.empty()) {
      gate.check(it.virt == iterations.front().virt,
                 "virtual metrics identical across iterations");
    }
    iterations.push_back(std::move(it));
  }
  // The gate self-test: one more iteration that corrupts a recovered chunk
  // after execute, which its verify step must count as a failed op.
  if (cfg.corrupt_one) {
    tracer.begin_iteration(static_cast<long>(iterations.size()), false);
    Iteration it = run_iteration(cfg, tracer, gate, true);
    it.index = static_cast<long>(iterations.size());
    iterations.push_back(std::move(it));
  }

  const double peak_rss_mib = static_cast<double>(util::peak_rss_bytes()) /
                              static_cast<double>(util::kMiB);
  // One more iteration, after the peak RSS is read, whose event log run.py
  // compares byte for byte with `carctl rebuild-run --log-out`: the log holds
  // every event's virtual time and byte count, and serialising tens of MiB
  // of it must not count toward the workload's footprint.
  if (!log_path.empty()) {
    tracer.begin_iteration(static_cast<long>(iterations.size()), false);
    const Iteration it = run_iteration(cfg, tracer, gate, false);
    gate.check(it.virt == iterations.front().virt,
               "virtual metrics identical across iterations");
    write_file(log_path, it.log.to_json());
  }

  const char* kernel_env = std::getenv("CAR_GF_KERNEL");
  std::ostringstream json;
  json << "{\n\"context\": {"
       << "\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": " << quote(CARBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << quote(CARBENCH_CXX_FLAGS)
       << ", \"compiler\": " << quote(__VERSION__)
       << ", \"gf_kernel\": " << quote(gf::active_kernels().name)
       << ", \"car_gf_kernel_env\": "
       << (kernel_env != nullptr ? quote(kernel_env) : "null")
       << ", \"seed\": " << cfg.seed << ", \"shards\": " << cfg.shards
       << ", \"replay_shards\": 1, \"llc_bytes\": " << llc
       << ", \"slice_bytes\": " << slice << "},\n";
  json << "\"checks\": {\"attempted\": " << gate.attempted()
       << ", \"failed\": " << gate.failed() << ", \"messages\": [";
  for (std::size_t i = 0; i < gate.messages().size(); ++i) {
    json << (i ? ", " : "") << quote(gate.messages()[i]);
  }
  json << "]},\n\"peak_rss_mib\": " << num(peak_rss_mib)
       << ",\n\"gf_roofline_gib_per_s\": " << num(roofline)
       << ",\n\"crosscheck\": {";
  const auto& first = iterations.front();
  for (std::size_t i = 0; i < first.crosscheck.size(); ++i) {
    json << (i ? ", " : "") << quote(first.crosscheck[i].first) << ": "
         << quote(first.crosscheck[i].second);
  }
  json << "},\n\"iterations\": [\n";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const Iteration& it = iterations[i];
    json << "  {\"index\": " << it.index
         << ", \"traced\": " << (it.traced ? "true" : "false")
         << ", \"wall_s\": " << num(it.wall_s)
         << ", \"setup_s\": " << num(it.setup_s)
         << ", \"recovery_s\": " << num(it.recovery_s)
         << ", \"virtual\": {\"makespan_s\": " << num(it.virt.makespan_s)
         << ", \"cross_rack_bytes\": " << it.virt.cross_rack_bytes
         << ", \"balance_lambda\": " << num(it.virt.balance_lambda)
         << ", \"at_risk_stripe_s\": " << num(it.virt.at_risk_stripe_s)
         << "}, \"layer\": {";
    for (std::size_t j = 0; j < it.layer.size(); ++j) {
      json << (j ? ", " : "") << quote(it.layer[j].first) << ": "
           << num(it.layer[j].second);
    }
    json << "}}" << (i + 1 < iterations.size() ? ",\n" : "\n");
  }
  json << "],\n\"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    json << "  {\"name\": " << quote(s.name) << ", \"start_s\": "
         << num(s.start_s) << ", \"end_s\": " << num(s.end_s)
         << ", \"parent\": " << s.parent << ", \"iteration\": " << s.iteration
         << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  json << "]\n}\n";

  write_file(out_path, json.str());
  std::fprintf(stderr, "car_bench: %zu iterations, %zu checks, %zu failed\n",
               iterations.size(), gate.attempted(), gate.failed());
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags::parse(argc - 1, argv + 1));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "car_bench: %s\n", error.what());
    return 2;
  }
}
