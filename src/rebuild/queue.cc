#include "rebuild/queue.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "cluster/types.h"
#include "util/check.h"

namespace car::rebuild {

namespace {

bool higher_priority(const recovery::StripeExposure& a,
                     const recovery::StripeExposure& b) {
  return std::tuple(a.tolerance_left, a.cross_rack_cost(), a.stripe) <
         std::tuple(b.tolerance_left, b.cross_rack_cost(), b.stripe);
}

}  // namespace

void RebuildQueue::reset(std::vector<recovery::StripeExposure> census) {
  std::sort(census.begin(), census.end(), higher_priority);
  std::map<std::vector<cluster::NodeId>, std::size_t> ids;
  std::vector<std::vector<std::size_t>> by_signature;
  std::vector<std::size_t> signature_of(census.size());
  for (std::size_t i = 0; i < census.size(); ++i) {
    const auto [it, fresh] =
        ids.try_emplace(census[i].plan_hosts, by_signature.size());
    if (fresh) by_signature.emplace_back();
    by_signature[it->second].push_back(i);
    signature_of[i] = it->second;
  }
  util::MutexLock lock(mu_);
  entries_ = std::move(census);
  signature_of_ = std::move(signature_of);
  by_signature_ = std::move(by_signature);
  next_.assign(by_signature_.size(), 0);
  taken_.assign(entries_.size(), 0);
  head_ = 0;
  remaining_ = entries_.size();
}

std::vector<recovery::StripeExposure> RebuildQueue::pop_batch(
    std::size_t max_stripes) {
  CAR_CHECK_GT(max_stripes, std::size_t{0},
               "RebuildQueue::pop_batch: max_stripes must be >= 1");
  util::MutexLock lock(mu_);
  std::vector<recovery::StripeExposure> batch;
  while (head_ < entries_.size() && taken_[head_] != 0) ++head_;
  if (head_ == entries_.size()) return batch;
  // Each signature's entries leave in list order, so the head (the first
  // untaken entry overall) is also the first untaken entry of its list.
  const std::size_t group = signature_of_[head_];
  const std::vector<std::size_t>& members = by_signature_[group];
  std::size_t& next = next_[group];
  CAR_DCHECK_EQ(members[next], head_,
                "RebuildQueue::pop_batch: signature cursor lost the head");
  const std::size_t end = std::min(members.size(), next + max_stripes);
  batch.reserve(end - next);
  for (; next < end; ++next) {
    taken_[members[next]] = 1;
    batch.push_back(std::move(entries_[members[next]]));
  }
  remaining_ -= batch.size();
  return batch;
}

bool RebuildQueue::empty() const {
  util::MutexLock lock(mu_);
  return remaining_ == 0;
}

std::size_t RebuildQueue::size() const {
  util::MutexLock lock(mu_);
  return remaining_;
}

}  // namespace car::rebuild
