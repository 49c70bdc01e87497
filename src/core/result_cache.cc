#include "core/result_cache.h"

#include <utility>

#include "util/logging.h"

namespace prsim {
namespace {

/// Budget accounting for one cached vector: the control block + vector
/// header + the full entry capacity actually held (moved-from vectors keep
/// their capacity, so charge what the allocator charged us).
size_t EntryCost(const ScoreList& scores) {
  return sizeof(ScoreList) + scores.capacity() * sizeof(ScoreEntry) + 64;
}

}  // namespace

ResultCache::ResultCache(size_t byte_budget)
    : budget_(byte_budget), lru_(byte_budget) {}

ResultCache::Ticket ResultCache::Lookup(NodeId source, uint32_t k,
                                        WallTimer timer) {
  Ticket ticket;
  std::lock_guard<std::mutex> lock(mu_);
  if (std::shared_ptr<const ScoreList>* cached = lru_.Get(source)) {
    ++hits_;
    ticket.role = Role::kHit;
    ticket.hit_scores = *cached;
    return ticket;
  }
  for (auto& flight : flights_) {
    if (flight->source == source) {
      ++coalesced_;
      ticket.role = Role::kWaiter;
      Waiter waiter;
      waiter.k = k;
      waiter.timer = timer;
      ticket.waiter_future = waiter.promise.get_future();
      flight->waiters.push_back(std::move(waiter));
      return ticket;
    }
  }
  ++misses_;
  auto flight = std::make_unique<Flight>();
  flight->source = source;
  flights_.push_back(std::move(flight));
  ticket.role = Role::kLeader;
  return ticket;
}

ResultCache::PublishResult ResultCache::Publish(
    NodeId source, const Status& status,
    const std::shared_ptr<const ScoreList>& scores) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < flights_.size(); ++i) {
      if (flights_[i]->source == source) {
        waiters = std::move(flights_[i]->waiters);
        flights_[i] = std::move(flights_.back());
        flights_.pop_back();
        break;
      }
    }
    if (status.ok()) {
      PRSIM_CHECK(scores != nullptr)
          << "ResultCache::Publish: OK status requires scores";
      lru_.Put(source, scores, EntryCost(*scores));
    }
  }
  // Fulfill promises outside the lock: set_value runs waiter-side
  // continuations on this thread in principle, and must never do so while
  // holding mu_.
  PublishResult published;
  for (Waiter& waiter : waiters) {
    if (status.ok()) {
      const double latency = waiter.timer.Seconds();
      waiter.promise.set_value(
          CachedResult(scores, waiter.k, source, latency));
      ++published.ok_waiters;
      published.waiter_latencies.push_back(latency);
    } else {
      waiter.promise.set_value({status, {}, waiter.timer.Seconds(), {}});
      ++published.failed_waiters;
    }
  }
  return published;
}

QueryResult ResultCache::CachedResult(
    const std::shared_ptr<const ScoreList>& scores, uint32_t k, NodeId source,
    double latency_seconds) {
  QueryResult result;
  result.scores = k > 0 ? TopK(*scores, k, source) : *scores;
  result.latency_seconds = latency_seconds;
  return result;
}

ResultCacheStats ResultCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.coalesced = coalesced_;
  stats.evictions = lru_.evictions();
  stats.bytes = lru_.bytes();
  stats.entries = lru_.size();
  return stats;
}

}  // namespace prsim
