// The min-queue of the virtual-clock event loops.
//
// Both loops that order events on a virtual timeline drain one binary heap
// of (time, key) entries: the arena timing replay in emul/cluster.cc (key =
// sliced step id) and the fault-aware loop in rebuild/driver.cc (key =
// packed batch slot, step and attempt).  Entries pop in lexicographic
// (time, key) order, and every key is pushed at most once, so the pop
// sequence is a pure function of the pushed set — the replay digest pins
// it.  Not thread-safe: each loop owns its queue outright.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace car::emul {

struct Event {
  double time = 0.0;
  std::uint64_t key = 0;

  friend auto operator<=>(const Event&, const Event&) = default;
};

using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<>>;

}  // namespace car::emul
