#include "core/event_pipeline.hpp"

#include <map>
#include <set>

#include "netsim/event.hpp"
#include "netsim/tcp_model.hpp"
#include "util/contracts.hpp"

namespace cbde::core {
namespace {

// The origin's CPU to generate one dynamic page: request parsing, routing
// and dispatch, plus template rendering per KB of output.
constexpr double kOriginFixedUs = 2000;
constexpr double kOriginUsPerKb = 60;

// The web-site's shared access link.
constexpr double kUplinkBps = 10e6;
constexpr util::SimTime kUplinkPropagation = 10 * util::kMillisecond;

// The delta-server's CPU per request (§VI-C), calibrated so a 50-60 KB
// base-file costs 6-8 ms, as the paper measured on a PIII-866.
constexpr double kFixedUs = 500;          // request handling, class lookup
constexpr double kEncodeUsPerKb = 110;    // delta generation per KB of base+target
constexpr double kCompressUsPerKb = 40;   // gzip-like pass per KB of delta

double delta_server_cpu_us(const ServedResponse& served) {
  if (served.delta_size == 0) return kFixedUs;  // served without encoding
  return kFixedUs +
         kEncodeUsPerKb * static_cast<double>(served.base_size + served.doc_size) / 1024.0 +
         kCompressUsPerKb * static_cast<double>(served.delta_size) / 1024.0;
}

}  // namespace

EventPipeline::EventPipeline(const server::OriginServer& origin,
                             EventPipelineConfig config, http::RuleBook rules)
    : origin_(origin), config_(config), delta_server_(DeltaServerConfig{}, std::move(rules)) {
  auto& reg = delta_server_.obs().registry();
  instr_.completed = &reg.counter("cbde_netsim_completed_total",
                                  "Requests fully delivered to their client");
  instr_.uplink_bytes = &reg.counter("cbde_netsim_uplink_bytes_total",
                                     "Bytes pushed through the shared site uplink");
  instr_.latency =
      &reg.histogram("cbde_netsim_latency_microseconds",
                     "Simulated request-issued to last-byte-at-client latency");
}

EventPipelineResult EventPipeline::run(const std::vector<trace::Request>& requests) {
  EventPipelineResult result;

  netsim::EventQueue events;
  netsim::FifoResource cpu;
  netsim::BitPipe uplink(kUplinkBps, kUplinkPropagation);
  // Each client has a private last-mile link. Clients are on broadband, so
  // the shared uplink is the contested resource under study (per-client
  // modem queues would mask it).
  const netsim::LinkProfile client_link = netsim::LinkProfile::broadband();
  std::map<std::uint64_t, netsim::BitPipe> client_links;
  const util::SimTime client_propagation = client_link.rtt / 2;
  // Base-file distribution is proxy-cachable (§VI-B): only the first fetch
  // of each (class, version) crosses the site uplink; repeats are served by
  // proxies and traverse only the client's own link.
  std::set<std::pair<ClassId, std::uint32_t>> bases_through_uplink;

  for (const trace::Request& request : requests) {
    events.schedule(request.time, [&, request] {
      const util::SimTime issued = events.now();
      const auto doc = origin_.document(request.url, request.user_id, issued);
      if (!doc) return;

      // CPU stage: dynamic generation, plus the delta-server's work.
      double cpu_us =
          kOriginFixedUs + kOriginUsPerKb * static_cast<double>(doc->size()) / 1024.0;
      std::size_t response_bytes;
      std::size_t base_bytes = 0;
      bool base_from_proxy = false;
      if (config_.use_cbde) {
        ServedResponse served =
            delta_server_.serve(request.user_id, request.url, util::as_view(*doc), issued);
        cpu_us += delta_server_cpu_us(served);
        response_bytes = served.wire_body.size();
        if (served.base_needed) {
          base_bytes = served.base_size;
          base_from_proxy =
              !bases_through_uplink.emplace(served.class_id, served.base_version).second;
        }
      } else {
        response_bytes = doc->size();
      }

      // Request upstream: one client-link propagation (requests are tiny).
      const util::SimTime at_server = issued + client_propagation;
      const util::SimTime cpu_done =
          cpu.submit(at_server, static_cast<util::SimTime>(cpu_us));

      // Response (and base-file, when needed) serialize through the shared
      // uplink, then the client's own link.
      util::SimTime uplink_done = uplink.transmit(cpu_done, response_bytes);
      if (base_bytes > 0 && !base_from_proxy) {
        uplink_done = uplink.transmit(uplink_done, base_bytes);
      }
      auto [it, inserted] = client_links.try_emplace(
          request.user_id, client_link.bandwidth_bps, client_propagation);
      util::SimTime done = it->second.transmit(uplink_done, response_bytes);
      if (base_bytes > 0) done = it->second.transmit(done, base_bytes);

      ++result.completed;
      instr_.completed->inc();
      instr_.latency->observe(static_cast<std::uint64_t>(done - issued));
      result.latency_us.add(static_cast<double>(done - issued));
      result.horizon = std::max(result.horizon, done);
    });
  }
  events.run();

  result.uplink_bytes = uplink.bytes_carried();
  instr_.uplink_bytes->add(result.uplink_bytes);
  result.uplink_utilization = uplink.utilization(result.horizon);
  result.cpu_utilization = result.horizon <= 0 ? 0.0
                                               : static_cast<double>(cpu.busy_time()) /
                                                     static_cast<double>(result.horizon);
  result.goodput_rps = result.horizon <= 0
                           ? 0.0
                           : static_cast<double>(result.completed) /
                                 (static_cast<double>(result.horizon) / 1e6);
  return result;
}

}  // namespace cbde::core
