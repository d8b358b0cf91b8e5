// End-to-end pipeline simulation: the full Fig. 2 architecture.
//
//   clients (ClientAgent) -- proxy-cache (LruCache, caches base-files)
//        -- delta-server (DeltaServer) -- web-server (OriginServer)
//
// Every request flows through the real machinery: the origin generates the
// current snapshot, the delta-server groups/encodes, the client fetches the
// base-file (through the proxy) when needed and reconstructs the snapshot
// from base + delta. Reconstruction is verified byte-for-byte against the
// origin's document, so the simulation doubles as an integration check.
// Byte and latency accounting feeds Tables II-style results and the §VI-A
// latency claims.
#pragma once

#include <cstdint>
#include <map>

#include "client/agent.hpp"
#include "core/delta_server.hpp"
#include "proxy/cache.hpp"
#include "server/origin.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace cbde::core {

struct PipelineConfig {
  DeltaServerConfig server;
  /// Record each response's transfer latency over a 56 kb/s modem link,
  /// with and without the scheme (§VI-A).
  bool measure_latency = true;
};

struct PipelineReport {
  PipelineMetrics server;           ///< delta-server accounting
  proxy::CacheStats proxy;          ///< base-file cache behaviour
  std::uint64_t requests = 0;
  std::uint64_t not_found = 0;      ///< URLs the origin could not resolve
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;

  /// Base-file bytes served by the origin vs. by the proxy.
  std::uint64_t origin_base_bytes = 0;
  std::uint64_t proxy_base_bytes = 0;

  util::Samples latency_direct_us;  ///< per-request latency without the scheme
  util::Samples latency_actual_us;  ///< with class-based delta-encoding

  std::size_t storage_bytes = 0;  ///< delta-server footprint
  std::size_t num_classes = 0;

  /// Outbound-traffic savings charged to the origin server (Table II):
  /// base-file bytes served by proxies do not count against the origin.
  double origin_savings() const {
    if (server.direct_bytes == 0) return 0.0;
    const double sent = static_cast<double>(server.wire_bytes + origin_base_bytes);
    return 1.0 - sent / static_cast<double>(server.direct_bytes);
  }

  double mean_latency_ratio() const {
    const double actual = latency_actual_us.mean();
    return actual == 0.0 ? 0.0 : latency_direct_us.mean() / actual;
  }
};

class Pipeline {
 public:
  /// `origin` must outlive the pipeline.
  Pipeline(const server::OriginServer& origin, PipelineConfig config, http::RuleBook rules);

  /// Process one request through the whole stack.
  void process(std::uint64_t user_id, const http::Url& url, util::SimTime now);

  void process_all(const std::vector<trace::Request>& requests);

  /// Snapshot of all accounting so far.
  PipelineReport report() const;

  const DeltaServer& delta_server() const { return delta_server_; }

  /// The stack's shared telemetry domain (scrape via obs().registry()).
  obs::Obs& obs() const { return delta_server_.obs(); }

 private:
  /// Pipeline-level registry handles (set once in the constructor).
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* not_found = nullptr;
    obs::Counter* verified = nullptr;
    obs::Counter* verify_failures = nullptr;
  };

  const server::OriginServer& origin_;
  PipelineConfig config_;
  DeltaServer delta_server_;
  proxy::LruCache base_cache_;
  std::map<std::uint64_t, client::ClientAgent> clients_;
  PipelineReport partial_;  // incrementally filled; report() adds the counts
  Instruments instr_;
};

}  // namespace cbde::core
