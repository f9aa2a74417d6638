#include "inject/runtime.h"

#include <algorithm>
#include <optional>
#include <ranges>
#include <string>
#include <utility>

#include "rebuild/driver.h"
#include "recovery/multi.h"
#include "recovery/plan_template.h"
#include "util/check.h"
#include "util/rng.h"

namespace car::inject {

namespace {

using recovery::RecoveryPlan;

std::string describe_nodes(const std::vector<cluster::NodeId>& nodes) {
  std::string out = "{";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(nodes[i]);
  }
  return out + "}";
}

/// Releases the cluster's replacement guard no matter how execute() exits.
/// Guards are counted per node (emul::Cluster::add_replacement_guard), so
/// this composes with guards held by outer runtimes or other generations.
class GuardScope {
 public:
  GuardScope(emul::Cluster& cluster, cluster::NodeId replacement)
      : cluster_(cluster), replacement_(replacement) {
    cluster_.add_replacement_guard(replacement_);
  }
  ~GuardScope() { cluster_.remove_replacement_guard(replacement_); }
  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;

 private:
  emul::Cluster& cluster_;
  cluster::NodeId replacement_;
};

/// The node crashes of a FaultPlan, mapped onto the driver's stops.  A
/// fraction crash fires once the current plan's completed-step ratio
/// reaches its fraction (checked at plan start and after every completed
/// step); a time crash fires before the first event at or after its time.
/// When several are due at once, the first declared fires.
class CrashTriggers {
 public:
  CrashTriggers(const std::vector<NodeCrash>& crashes, double t0)
      : crashes_(crashes), fired_(crashes.size(), false), t0_(t0) {}

  /// The earliest completed-step count of a `total`-step plan at which an
  /// unfired fraction crash fires, and that crash.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>>
  next_fraction(std::size_t total) const {
    std::optional<std::pair<std::size_t, std::size_t>> next;
    for (std::size_t i = 0; i < crashes_.size(); ++i) {
      if (fired_[i] || !crashes_[i].at_fraction) continue;
      const double fraction = *crashes_[i].at_fraction;
      const auto steps = *std::ranges::partition_point(
          std::views::iota(std::size_t{0}, total + 1), [&](std::size_t c) {
            return static_cast<double>(c) / static_cast<double>(total) <
                   fraction;
          });
      if (!next || steps < next->first) next = {{steps, i}};
    }
    return next;
  }

  /// The earliest absolute time of an unfired time crash.
  [[nodiscard]] std::optional<double> deadline() const {
    std::optional<double> earliest;
    for (std::size_t i = 0; i < crashes_.size(); ++i) {
      if (fired_[i] || !crashes_[i].at_time_s) continue;
      const double at = t0_ + *crashes_[i].at_time_s;
      if (!earliest || at < *earliest) earliest = at;
    }
    return earliest;
  }

  /// The first declared unfired time crash due by an event at `t` (one is,
  /// whenever t is at or past deadline()).
  [[nodiscard]] std::size_t due_at(double t) const {
    std::size_t i = 0;
    while (fired_[i] || !crashes_[i].at_time_s ||
           t0_ + *crashes_[i].at_time_s > t) {
      ++i;
    }
    return i;
  }

  const NodeCrash& fire(std::size_t i) {
    fired_[i] = true;
    return crashes_[i];
  }

 private:
  const std::vector<NodeCrash>& crashes_;
  std::vector<bool> fired_;
  double t0_;
};

}  // namespace

ResilientRuntime::ResilientRuntime(emul::Cluster& cluster, FaultPlan faults,
                                   RetryPolicy policy, std::uint64_t seed)
    : cluster_(cluster),
      faults_(std::move(faults)),
      policy_(std::move(policy)),
      seed_(seed) {}

RunResult ResilientRuntime::execute(const recovery::RecoveryPlan& plan,
                                    const ReplanContext& context) {
  // Degenerate lowering: one slice per step is the chunk-granular run.
  return execute_sliced(plan, std::max<std::uint64_t>(plan.chunk_size, 1),
                        context);
}

RunResult ResilientRuntime::execute_sliced(const recovery::RecoveryPlan& plan,
                                           std::uint64_t slice_bytes,
                                           const ReplanContext& context) {
  return execute_sliced(plan, slice_bytes, context, DataPolicy{});
}

RunResult ResilientRuntime::execute_sliced(const recovery::RecoveryPlan& plan,
                                           std::uint64_t slice_bytes,
                                           const ReplanContext& context,
                                           const DataPolicy& data) {
  cluster_.clock().require_virtual("inject::ResilientRuntime");
  CAR_CHECK(slice_bytes > 0, "inject: slice_bytes must be positive");
  faults_.validate(cluster_.topology());
  for (const auto& crash : faults_.node_crashes) {
    CAR_CHECK(crash.node != plan.replacement,
              "inject: a NodeCrash targets the replacement node — that is "
              "not a recoverable scenario");
  }
  if (!faults_.node_crashes.empty()) {
    CAR_CHECK(context.placement != nullptr && context.code != nullptr,
              "inject: FaultPlan contains node crashes; ReplanContext needs "
              "placement and code");
  }

  GuardScope guard(cluster_, plan.replacement);
  RunResult result;
  FaultPlan transport = faults_;
  transport.node_crashes.clear();
  rebuild::BatchDriver driver(cluster_, transport, policy_, seed_,
                              slice_bytes, data, result.log, "inject");
  const double t0 = driver.now();
  CrashTriggers crashes(faults_.node_crashes, t0);

  const recovery::SlicePlan& lowered = driver.admit(0, plan, {});
  std::size_t total = lowered.steps.size();
  result.log.record(t0, EventKind::kRunStart, -1, -1, plan.replacement, 0,
                    rebuild::run_start_detail(
                        plan, lowered, ", seed " + std::to_string(seed_)));
  driver.log_link_faults();

  RecoveryPlan current = plan;
  std::vector<cluster::NodeId> failed = context.failed_nodes;
  util::Rng replan_rng(seed_ ^ 0x5bd1e9955bd1e995ULL);
  std::size_t replans = 0;
  for (;;) {
    const auto fraction = crashes.next_fraction(total);
    const rebuild::RunOutcome outcome = driver.run_until(
        crashes.deadline(),
        fraction ? std::optional(fraction->first) : std::nullopt);
    std::size_t due = 0;
    if (outcome.stop == rebuild::StopReason::kStepCount) {
      due = fraction->second;
    } else if (outcome.stop == rebuild::StopReason::kDeadline) {
      due = crashes.due_at(outcome.next_event_t);
      driver.advance_to(t0 + *faults_.node_crashes[due].at_time_s);
    } else {
      break;  // the plan completed and its outputs are published
    }

    // Crash escalation: publish what fully delivered, cancel the rest,
    // drop the node, re-plan the (now multi-)failure, validate, and resume
    // on the same timeline.
    const NodeCrash& crash = crashes.fire(due);
    result.log.record(
        driver.now(), EventKind::kNodeCrash, -1, -1,
        static_cast<std::int64_t>(crash.node), 0,
        crash.at_fraction
            ? "at completion fraction " + format_time(*crash.at_fraction)
            : "at scheduled time " + format_time(*crash.at_time_s));
    driver.cancel_all();
    cluster_.drop_node(crash.node);
    failed.push_back(crash.node);

    recovery::MultiFailureScenario scenario;
    scenario.failed_nodes = failed;
    scenario.replacement = plan.replacement;
    scenario.replacement_rack = cluster_.topology().rack_of(plan.replacement);
    const bool car = context.strategy == ReplanStrategy::kCar;
    result.log.record(driver.now(), EventKind::kReplanStart, -1, -1,
                      static_cast<std::int64_t>(crash.node), 0,
                      std::string("multi-failure re-plan (") +
                          (car ? "car" : "rr") + "), failed nodes " +
                          describe_nodes(failed));

    const auto censuses =
        recovery::build_multi_censuses(*context.placement, scenario);
    recovery::ValidateOptions options;
    options.placement = context.placement;
    recovery::PlanTemplateCache templates;
    if (car) {
      const auto balanced =
          recovery::balance_multi(*context.placement, censuses);
      current = recovery::build_multi_car_arena(
                    *context.placement, *context.code, balanced.solutions,
                    plan.chunk_size, plan.chunk_size, plan.replacement,
                    templates)
                    .to_plan();
      options.expected_cross_rack_chunks = recovery::claimed_cross_rack_chunks(
          balanced.solutions, scenario.replacement_rack);
    } else {
      const auto solutions =
          recovery::plan_multi_rr(*context.placement, censuses, replan_rng);
      current = recovery::build_multi_rr_arena(
                    *context.placement, *context.code, solutions,
                    plan.chunk_size, plan.chunk_size, plan.replacement,
                    templates)
                    .to_plan();
    }
    result.replan_validation =
        recovery::validate_plan(current, cluster_.topology(), options);
    CAR_CHECK_STATE(result.replan_validation.ok(),
                    "inject: re-plan failed validation:\n" +
                        result.replan_validation.to_string());
    result.log.record(driver.now(), EventKind::kReplanValidated, -1, -1, -1,
                      0,
                      std::to_string(current.steps.size()) + " steps, " +
                          std::to_string(current.outputs.size()) +
                          " outputs, 0 errors");
    result.log.record(driver.now(), EventKind::kResume, -1, -1,
                      plan.replacement, 0,
                      "resuming recovery on the re-planned DAG");
    // Crash escalations re-plan at chunk granularity; the driver re-lowers
    // the fresh plan onto the same slice grid.
    total = driver.admit(++replans, current, {}).steps.size();
  }

  result.replanned = replans > 0;
  result.report = driver.report();
  result.report.wall_s = driver.now() - t0;
  result.stats = driver.stats();
  result.stats.replans = replans;
  result.log.record(driver.now(), EventKind::kRunComplete, -1, -1, -1, 0,
                    "wall " + format_time(result.report.wall_s) + "s, " +
                        std::to_string(result.stats.attempts) +
                        " transfer attempts, " + std::to_string(replans) +
                        " re-plans");
  result.final_plan = std::move(current);
  return result;
}

}  // namespace car::inject
