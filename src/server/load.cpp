#include "server/load.hpp"

#include <algorithm>
#include <functional>

#include "netsim/event.hpp"
#include "util/contracts.hpp"

namespace cbde::server {
namespace {

constexpr util::SimTime kDuration = 60 * util::kSecond;
constexpr std::size_t kWebServerSlots = 255;   // Apache MaxClients-style limit
constexpr std::size_t kFrontEndSlots = 2000;   // delta-server connection capacity
constexpr util::SimTime kRetryBackoff = 500 * util::kMillisecond;  // after refusal

}  // namespace

LoadResult run_closed_loop(const LoadConfig& config) {
  CBDE_EXPECT(config.num_clients >= 1);
  CBDE_EXPECT(config.cpu_us_per_request > 0);

  const std::size_t slot_limit =
      config.mode == PipelineMode::kPlain ? kWebServerSlots : kFrontEndSlots;
  // Per-response client transfer time (connection setup + download). The
  // client-facing slot is held for this long on top of the CPU time.
  const util::SimTime transfer =
      netsim::transfer_latency(config.response_bytes, config.client_link).total();
  const auto cpu_us = static_cast<util::SimTime>(config.cpu_us_per_request);

  netsim::EventQueue events;
  netsim::FifoResource cpu;
  LoadResult result;
  std::size_t slots_in_use = 0;
  double latency_sum = 0;

  std::function<void(std::size_t)> attempt = [&](std::size_t client) {
    const util::SimTime issued = events.now();
    if (slots_in_use >= slot_limit) {
      ++result.refused;
      events.schedule_in(kRetryBackoff, [&attempt, client] { attempt(client); });
      return;
    }
    ++slots_in_use;
    result.peak_connections = std::max(result.peak_connections, slots_in_use);
    events.schedule(cpu.submit(issued, cpu_us) + transfer, [&, client, issued] {
      CBDE_ASSERT(slots_in_use > 0);
      --slots_in_use;
      ++result.completed;
      latency_sum += static_cast<double>(events.now() - issued);
      // Closed loop: the next request is a new event at this instant, so it
      // queues behind every event already due now.
      events.schedule_in(0, [&attempt, client] { attempt(client); });
    });
  };
  for (std::size_t c = 0; c < config.num_clients; ++c) {
    // Stagger initial arrivals to avoid a synchronized stampede.
    events.schedule(static_cast<util::SimTime>(c) * util::kMillisecond,
                    [&attempt, c] { attempt(c); });
  }
  // Times are whole microseconds: events at or after the horizon never fire.
  events.run_until(kDuration - 1);

  const double seconds = static_cast<double>(kDuration) / 1e6;
  result.requests_per_sec = static_cast<double>(result.completed) / seconds;
  result.mean_latency_us =
      result.completed == 0 ? 0.0 : latency_sum / static_cast<double>(result.completed);
  return result;
}

}  // namespace cbde::server
