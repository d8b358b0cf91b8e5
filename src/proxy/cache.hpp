// Byte-capacity LRU proxy cache.
//
// In the paper's architecture (Fig. 2) proxy-caches are unmodified: dynamic
// responses remain uncachable, but anonymized base-files are marked cachable
// and proxies serve them "as usual, resulting in the known benefits of
// proxy-caching" (§VI-B/C). The pipeline simulation uses this cache for
// base-file distribution so Table-II-style accounting credits proxy hits.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/bytes.hpp"

namespace cbde::proxy {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_served = 0;   ///< body bytes answered from cache
  std::uint64_t bytes_fetched = 0;  ///< body bytes inserted (origin fetches)

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Registry handles an LruCache mirrors its CacheStats into, as the
/// cbde_proxy_* family — attach() is the single registration site.
/// Attaching two live caches to one Obs aggregates them. All-null
/// (default) = no-op.
struct CacheInstruments {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* insertions = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Counter* bytes_served = nullptr;
  obs::Counter* bytes_fetched = nullptr;
  obs::Gauge* size = nullptr;

  /// Register (or fetch) the cbde_proxy_* family in `obs`.
  static CacheInstruments attach(obs::Obs& obs);
};

class LruCache {
 public:
  /// `capacity_bytes` bounds the sum of stored body sizes.
  explicit LruCache(std::size_t capacity_bytes);

  /// Look up a cachable object; refreshes recency and updates stats.
  std::optional<util::BytesView> get(const std::string& key);

  /// Insert (or replace) an object. Objects larger than the whole cache are
  /// counted as fetched but not stored.
  void put(const std::string& key, util::Bytes body);

  void erase(const std::string& key);
  bool contains(const std::string& key) const { return index_.contains(key); }

  std::size_t size_bytes() const { return size_bytes_; }
  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t entries() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

  void set_instruments(const CacheInstruments& instr) { instr_ = instr; }

 private:
  struct Entry {
    std::string key;
    util::Bytes body;
  };

  void evict_until_fits(std::size_t incoming);
  void sync_size_gauge() {
    if (instr_.size != nullptr) instr_.size->set(static_cast<std::int64_t>(size_bytes_));
  }

  std::size_t capacity_;
  std::size_t size_bytes_ = 0;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  CacheStats stats_;
  CacheInstruments instr_;
};

}  // namespace cbde::proxy
