#include "proxy/gd_cache.hpp"

#include "util/contracts.hpp"

namespace cbde::proxy {

GreedyDualCache::GreedyDualCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
  CBDE_EXPECT(capacity_bytes > 0);
}

double GreedyDualCache::priority_of(const Entry& entry) const {
  // H = L + freq * cost / size with cost = size (byte-hit optimization
  // collapses to L + freq); using cost = 1 optimizes object hit rate but
  // starves large objects entirely. We optimize byte hit rate weighted by
  // frequency per byte: H = L + freq * 1.0 / size scaled to keep small
  // popular objects ahead.
  return clock_ + static_cast<double>(entry.freq) * 1e4 /
                      static_cast<double>(entry.body.size() + 1);
}

void GreedyDualCache::reindex(const std::string& key, Entry& entry) {
  by_priority_.erase({entry.priority, entry.seq});
  entry.priority = priority_of(entry);
  entry.seq = next_seq_++;
  by_priority_.emplace(std::make_pair(entry.priority, entry.seq), key);
}

std::optional<util::BytesView> GreedyDualCache::get(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (instr_.misses != nullptr) instr_.misses->inc();
    return std::nullopt;
  }
  ++it->second.freq;
  reindex(key, it->second);
  ++stats_.hits;
  stats_.bytes_served += it->second.body.size();
  if (instr_.hits != nullptr) {
    instr_.hits->inc();
    instr_.bytes_served->add(it->second.body.size());
  }
  return util::as_view(it->second.body);
}

void GreedyDualCache::put(const std::string& key, util::Bytes body) {
  stats_.bytes_fetched += body.size();
  ++stats_.insertions;
  if (instr_.insertions != nullptr) {
    instr_.insertions->inc();
    instr_.bytes_fetched->add(body.size());
  }
  erase(key);
  if (body.size() > capacity_) return;
  evict_until_fits(body.size());
  size_bytes_ += body.size();
  Entry entry;
  entry.body = std::move(body);
  entry.freq = 1;
  entry.priority = 0;  // placeholder; reindex computes the real value
  entry.seq = next_seq_++;
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  CBDE_ASSERT(inserted);
  // Register in the index (erase of the placeholder pair is a no-op).
  it->second.priority = priority_of(it->second);
  by_priority_.emplace(std::make_pair(it->second.priority, it->second.seq), key);
  sync_size_gauge();
}

void GreedyDualCache::erase(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  size_bytes_ -= it->second.body.size();
  by_priority_.erase({it->second.priority, it->second.seq});
  entries_.erase(it);
  sync_size_gauge();
}

void GreedyDualCache::evict_until_fits(std::size_t incoming) {
  while (size_bytes_ + incoming > capacity_ && !by_priority_.empty()) {
    const auto victim = by_priority_.begin();
    // Greedy-Dual aging: the clock rises to the evicted priority, so
    // long-resident objects decay relative to fresh arrivals.
    clock_ = victim->first.first;
    const auto it = entries_.find(victim->second);
    CBDE_ASSERT(it != entries_.end());
    size_bytes_ -= it->second.body.size();
    entries_.erase(it);
    by_priority_.erase(victim);
    ++stats_.evictions;
    if (instr_.evictions != nullptr) instr_.evictions->inc();
  }
  sync_size_gauge();
}

}  // namespace cbde::proxy
