// Committed replay digests for the rebuild control plane.
//
// Each case runs a rolling-failure scenario end to end and hashes the
// canonical event log (inject::EventLog::to_json) with FNV-1a-64 against a
// committed constant, so a change to dispatch order, batch membership,
// timing or the log's text fails here — not only a difference between two
// runs of the same binary.  A deliberate change to the log must re-record
// these constants and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "inject/scenario.h"
#include "rebuild/scenario.h"

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

struct DigestCase {
  const char* scenario;
  const char* strategy;
  std::uint64_t digest;
};

class RebuildDigest : public testing::TestWithParam<DigestCase> {};

TEST_P(RebuildDigest, EventLogMatchesCommittedDigest) {
  const DigestCase& param = GetParam();
  inject::Scenario scenario = load(param.scenario);
  scenario.strategy = param.strategy;
  const RebuildScenarioOutcome outcome = run_rebuild_scenario(scenario);
  ASSERT_TRUE(outcome.bit_exact);
  const std::uint64_t digest = fnv1a64(outcome.result.log.to_json());
  EXPECT_EQ(digest, param.digest) << std::hex << "actual digest 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Canned, RebuildDigest,
    testing::Values(
        DigestCase{"rolling-two-rack", "car", 0xfd480fbf2f5fa37cULL},
        DigestCase{"rolling-two-rack", "rr", 0xbf252731a48fdfc9ULL},
        DigestCase{"rolling-triple", "car", 0x4e06e75a3b28ffb7ULL},
        DigestCase{"rolling-triple", "rr", 0xed7a2273c8af3ee0ULL},
        DigestCase{"rolling-wide", "car", 0x339874cdf99183a6ULL},
        DigestCase{"rolling-wide", "rr", 0x1d827b3a31f0fefeULL}),
    [](const testing::TestParamInfo<DigestCase>& info) {
      std::string name = std::string(info.param.scenario) + "_" +
                         info.param.strategy;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace car::rebuild
