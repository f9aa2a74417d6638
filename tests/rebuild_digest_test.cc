// Committed event-log digests for the rebuild control plane and the
// fault-injection runtime.
//
// Each case runs a scenario end to end and hashes the canonical event log
// (inject::EventLog::to_json) with FNV-1a-64 against a committed constant,
// and checks the run's ExecutionReport::replay_digest (the event loop's
// fold over every committed step) against a second one, so a change to
// dispatch order, batch membership, timing or the log's text fails here —
// not only a difference between two runs of the same binary.  A deliberate
// change to the log must re-record these constants and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "inject/scenario.h"
#include "rebuild/scenario.h"
#include "util/bytes.h"

namespace car::rebuild {
namespace {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Wider than the canned cases: five racks, three rolling failures and
// small batches, so the queue holds many failure signatures at once and
// batches skip over each other's entries.
constexpr const char* kWideSpec = R"(name rolling-wide
racks 6,6,6,6,6
k 6
m 3
stripes 300
chunk-kib 16
slice-kib 8
seed 5
data-mode metadata
sample 4
node-mbps 100
oversub 4
page-kib 8
timeout 0.5
max-attempts 5
crash node=1 at=0
crash node=8 at=0.01
crash node=20 at=0.03
batch-stripes 3
concurrency 3
)";

inject::Scenario load(const std::string& name) {
  if (name == "rolling-wide") return inject::parse_scenario(kWideSpec);
  return canned_rebuild_scenario(name);
}

// Every case's scenario, for both suites: a case names its scenario by
// index so that the parameter holds no pointer.
enum Run : std::uint32_t {
  kRollingTwoRack,
  kRollingTriple,
  kRollingWide,
  kLinkFlap,
  kSlowStragglerRack,
  kDegradedCore,
  kMidRecoveryCrash,
  kLinkFlapSliced,
  kMidRecoveryCrashMetadata,
  kCrashAtFraction0,
  kCrashAtFraction1,
  kCrashAtTime0,
  kCrashTimesOutOfOrder,
};
constexpr const char* kRunNames[] = {
    "rolling-two-rack",
    "rolling-triple",
    "rolling-wide",
    "link-flap",
    "slow-straggler-rack",
    "degraded-core",
    "mid-recovery-crash",
    "link-flap-sliced",
    "mid-recovery-crash-metadata",
    "crash-at-fraction-0",
    "crash-at-fraction-1",
    "crash-at-time-0",
    "crash-times-out-of-order",
};
static_assert(std::size(kRunNames) == kCrashTimesOutOfOrder + 1);

enum class Strategy : std::uint32_t { kCar, kRr };

// gtest prints the parameter's bytes in every listed test name, so the
// case holds only values (a pointer's bytes change from build to build)
// and stays three words, keeping the names' "24-byte object".
struct DigestCase {
  Run run;
  Strategy strategy;
  std::uint64_t digest;  // FNV-1a-64 of the event log's JSON
  std::uint64_t replay;  // ExecutionReport::replay_digest
};
static_assert(sizeof(DigestCase) == 24);

/// The case's scenario (as `load` names it) with its strategy applied.
inject::Scenario load_case(const DigestCase& param,
                           inject::Scenario (*load)(const std::string&)) {
  inject::Scenario scenario = load(kRunNames[param.run]);
  scenario.strategy = param.strategy == Strategy::kCar ? "car" : "rr";
  return scenario;
}

std::string case_name(const testing::TestParamInfo<DigestCase>& info) {
  std::string name = kRunNames[info.param.run];
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + (info.param.strategy == Strategy::kCar ? "_car" : "_rr");
}

class RebuildDigest : public testing::TestWithParam<DigestCase> {};

TEST_P(RebuildDigest, EventLogMatchesCommittedDigest) {
  const DigestCase& param = GetParam();
  const RebuildScenarioOutcome outcome =
      run_rebuild_scenario(load_case(param, load));
  ASSERT_TRUE(outcome.bit_exact);
  const std::uint64_t digest = fnv1a64(outcome.result.log.to_json());
  EXPECT_EQ(digest, param.digest) << std::hex << "actual digest 0x" << digest;
  const std::uint64_t replay = outcome.result.report.replay_digest;
  EXPECT_EQ(replay, param.replay) << std::hex << "actual replay 0x" << replay;
}

INSTANTIATE_TEST_SUITE_P(
    Canned, RebuildDigest,
    testing::Values(
        DigestCase{kRollingTwoRack, Strategy::kCar, 0xfd480fbf2f5fa37cULL,
                   0xc037811d2e81bb4cULL},
        DigestCase{kRollingTwoRack, Strategy::kRr, 0xbf252731a48fdfc9ULL,
                   0x87bebc4984a9cbfcULL},
        DigestCase{kRollingTriple, Strategy::kCar, 0x4e06e75a3b28ffb7ULL,
                   0xe4c50b3a83079057ULL},
        DigestCase{kRollingTriple, Strategy::kRr, 0xed7a2273c8af3ee0ULL,
                   0x9a37693805cdd20fULL},
        DigestCase{kRollingWide, Strategy::kCar, 0x94790adbd6fad793ULL,
                   0x5ba99ea580c53f26ULL},
        DigestCase{kRollingWide, Strategy::kRr, 0x1d827b3a31f0fefeULL,
                   0x173eb92ae30f5178ULL}),
    case_name);

// Crash-trigger edges on the mid-recovery-crash fixture: a fraction crash
// that fires before the first step, one that fires after the last step and
// before publish, a time crash at the run's first instant, and two time
// crashes declared out of time order (RS(4,3), so the cumulative failure
// stays within tolerance).
constexpr const char* kCrashFixture = R"(racks 4,4,4
k 4
stripes 12
chunk-kib 64
page-kib 16
seed 7
strategy car
fail-node 2
node-mbps 100
oversub 5
timeout 0.5
max-attempts 6
backoff-base 0.02
backoff-factor 2
backoff-cap 0.25
backoff-jitter 0.2
)";

inject::Scenario load_inject(const std::string& name) {
  if (name == "link-flap-sliced") {
    inject::Scenario scenario = inject::canned_scenario("link-flap");
    scenario.slice_bytes = 16 * util::kKiB;
    return scenario;
  }
  if (name == "mid-recovery-crash-metadata") {
    inject::Scenario scenario = inject::canned_scenario("mid-recovery-crash");
    scenario.data_mode = "metadata";
    return scenario;
  }
  std::string m_line = "m 2\n";
  std::string crashes;
  if (name == "crash-at-fraction-0") {
    crashes = "fault crash node=5 at-fraction=0\n";
  } else if (name == "crash-at-fraction-1") {
    crashes = "fault crash node=5 at-fraction=1.0\n";
  } else if (name == "crash-at-time-0") {
    crashes = "fault crash node=5 at-time=0\n";
  } else if (name == "crash-times-out-of-order") {
    m_line = "m 3\n";
    crashes =
        "fault crash node=9 at-time=0.004\n"
        "fault crash node=5 at-time=0.002\n";
  } else {
    return inject::canned_scenario(name);
  }
  return inject::parse_scenario("name " + name + "\n" + kCrashFixture + m_line +
                                crashes);
}

class InjectDigest : public testing::TestWithParam<DigestCase> {};

TEST_P(InjectDigest, EventLogMatchesCommittedDigest) {
  const DigestCase& param = GetParam();
  const inject::ScenarioOutcome outcome =
      inject::run_scenario(load_case(param, load_inject));
  ASSERT_TRUE(outcome.bit_exact);
  const std::uint64_t digest = fnv1a64(outcome.run.log.to_json());
  EXPECT_EQ(digest, param.digest) << std::hex << "actual digest 0x" << digest;
  const std::uint64_t replay = outcome.run.report.replay_digest;
  EXPECT_EQ(replay, param.replay) << std::hex << "actual replay 0x" << replay;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, InjectDigest,
    testing::Values(
        DigestCase{kLinkFlap, Strategy::kCar, 0x3566b9829d09bbf9ULL,
                   0x24e179ec3494241eULL},
        DigestCase{kSlowStragglerRack, Strategy::kCar, 0x4d939e4f7d38cf04ULL,
                   0x15c12939a148c7f9ULL},
        DigestCase{kDegradedCore, Strategy::kCar, 0xf326ada957b98e64ULL,
                   0x3c3ae4be91cf5087ULL},
        DigestCase{kMidRecoveryCrash, Strategy::kCar, 0x1315dca5424c01d8ULL,
                   0x6b2481fd3fb19c44ULL},
        DigestCase{kMidRecoveryCrash, Strategy::kRr, 0xe3701125320769bcULL,
                   0x767d09c5de837b69ULL},
        DigestCase{kLinkFlapSliced, Strategy::kCar, 0x11b4ed1489921274ULL,
                   0x2008ec500e87e26dULL},
        DigestCase{kMidRecoveryCrashMetadata, Strategy::kCar,
                   0x1315dca5424c01d8ULL, 0x6b2481fd3fb19c44ULL},
        DigestCase{kCrashAtFraction0, Strategy::kCar, 0x5dd50b29e54e9c93ULL,
                   0x8c70f4f2e1bcd9c3ULL},
        DigestCase{kCrashAtFraction1, Strategy::kCar, 0xc3dfb53101dd907dULL,
                   0xc1c06bf1acd45f5ULL},
        DigestCase{kCrashAtTime0, Strategy::kCar, 0xb763cd7904ed5dc1ULL,
                   0x8c70f4f2e1bcd9c3ULL},
        DigestCase{kCrashTimesOutOfOrder, Strategy::kCar, 0x9e2d56c7949a6741ULL,
                   0x6f1b7aa7357a3f58ULL}),
    case_name);

}  // namespace
}  // namespace car::rebuild
