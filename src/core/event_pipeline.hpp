// Event-driven end-to-end experiment: queueing at the server's access link.
//
// §VI-C closes with the observation that "in practice it is very common
// that the bottleneck resource at a web-server is the access link out of
// the web-site and not the CPU". This pipeline models exactly that contested
// resource: every response serializes through a shared 10 Mb/s server
// uplink (BitPipe, FIFO), then through the requesting client's private
// broadband last-mile link; the server CPU (generation + delta work) is a
// FIFO resource too. The delta-server runs DeltaServerConfig's defaults.
// Running the same request stream in direct mode vs CBDE mode shows the
// uplink saturating ~20-30x earlier without delta-encoding.
#pragma once

#include "core/delta_server.hpp"
#include "server/origin.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace cbde::core {

struct EventPipelineConfig {
  bool use_cbde = true;  ///< false replays the same stream as direct service
};

struct EventPipelineResult {
  std::uint64_t completed = 0;
  util::Samples latency_us;        ///< request issued -> last byte at client
  double uplink_utilization = 0;   ///< busy fraction over the run horizon
  double cpu_utilization = 0;
  std::uint64_t uplink_bytes = 0;  ///< bytes pushed through the uplink
  util::SimTime horizon = 0;       ///< completion time of the last response
  double goodput_rps = 0;          ///< completed / horizon
};

class EventPipeline {
 public:
  /// `origin` must outlive the pipeline.
  EventPipeline(const server::OriginServer& origin, EventPipelineConfig config,
                http::RuleBook rules);

  /// Replay `requests` (sorted by time) through the queueing network.
  EventPipelineResult run(const std::vector<trace::Request>& requests);

  /// Telemetry domain (shared with the embedded delta-server).
  obs::Obs& obs() const { return delta_server_.obs(); }

 private:
  /// Queueing-network registry handles (set once in the constructor).
  struct Instruments {
    obs::Counter* completed = nullptr;
    obs::Counter* uplink_bytes = nullptr;
    obs::Histogram* latency = nullptr;
  };

  const server::OriginServer& origin_;
  EventPipelineConfig config_;
  DeltaServer delta_server_;
  Instruments instr_;
};

}  // namespace cbde::core
