// Closed-loop capacity harness (paper §VI-C).
//
// Reproduces the deployment experiment: a plain web-server (Apache-like,
// one connection slot held for the whole request including the client
// transfer, hard slot limit 255) versus the delta-server + web-server
// system (the delta-server front-end holds the client connection cheaply,
// the web-server slot is held only while the CPU works; delta generation
// adds CPU cost). A discrete-event simulation on netsim::EventQueue with a
// single FIFO CPU measures sustained requests/second, peak concurrency and
// refusal rates over a 60 s run.
#pragma once

#include <cstdint>

#include "netsim/tcp_model.hpp"
#include "util/clock.hpp"

namespace cbde::server {

enum class PipelineMode {
  kPlain,  ///< clients connect straight to the web-server
  kDelta,  ///< clients connect to the delta-server front-end
};

struct LoadConfig {
  PipelineMode mode = PipelineMode::kPlain;
  std::size_t num_clients = 300;  ///< closed-loop client population
  /// Total server CPU per request. For kDelta this should include the delta
  /// generation cost (the paper measures 6-8 ms for a 50-60 KB base-file).
  double cpu_us_per_request = 5600;
  std::size_t response_bytes = 30 * 1024;  ///< bytes sent to the client
  netsim::LinkProfile client_link = netsim::LinkProfile::broadband();
};

struct LoadResult {
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;
  double requests_per_sec = 0;
  double mean_latency_us = 0;       ///< request issue -> response fully received
  std::size_t peak_connections = 0; ///< max simultaneously held client-facing slots
};

LoadResult run_closed_loop(const LoadConfig& config);

}  // namespace cbde::server
