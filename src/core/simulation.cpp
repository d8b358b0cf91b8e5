#include "core/simulation.hpp"

#include "netsim/tcp_model.hpp"
#include "util/contracts.hpp"

namespace cbde::core {
namespace {

/// Base-files are distributed through a proxy-cache of this size.
constexpr std::size_t kProxyCapacityBytes = 64 * 1024 * 1024;

}  // namespace

Pipeline::Pipeline(const server::OriginServer& origin, PipelineConfig config,
                   http::RuleBook rules)
    : origin_(origin),
      config_(config),
      delta_server_(config.server, std::move(rules)),
      base_cache_(kProxyCapacityBytes) {
  // One telemetry domain for the whole stack: the proxy cache and the
  // pipeline-level counters register into the delta-server's Obs.
  base_cache_.set_instruments(proxy::CacheInstruments::attach(delta_server_.obs()));
  auto& reg = delta_server_.obs().registry();
  instr_.requests =
      &reg.counter("cbde_pipeline_requests_total", "Requests entering the pipeline");
  instr_.not_found = &reg.counter("cbde_pipeline_not_found_total",
                                  "URLs the origin could not resolve");
  instr_.verified = &reg.counter("cbde_pipeline_verified_total",
                                 "Client reconstructions verified byte-exact");
  instr_.verify_failures =
      &reg.counter("cbde_pipeline_verify_failures_total",
                   "Client reconstructions that mismatched the origin document");
}

void Pipeline::process(std::uint64_t user_id, const http::Url& url, util::SimTime now) {
  instr_.requests->inc();
  const auto doc = origin_.document(url, user_id, now);
  if (!doc) {
    instr_.not_found->inc();
    return;
  }

  ServedResponse resp = delta_server_.serve(user_id, url, util::as_view(*doc), now);
  client::ClientAgent& agent = clients_[user_id];

  std::size_t base_transfer = 0;
  if (resp.mode == ServedResponse::Mode::kDelta && resp.base_needed) {
    // The client fetches the published base-file; it is cachable, so the
    // proxy-cache absorbs repeat fetches (paper §VI-B/C).
    const auto published = delta_server_.fetch_base(resp.class_id, resp.base_version);
    CBDE_ASSERT(published.has_value());
    const std::string cache_key = url.host + "#class" + std::to_string(resp.class_id) +
                                  "#v" + std::to_string(resp.base_version);
    const bool from_proxy = base_cache_.get(cache_key).has_value();
    if (!from_proxy) base_cache_.put(cache_key, *published);
    (from_proxy ? partial_.proxy_base_bytes : partial_.origin_base_bytes) +=
        published->size();
    base_transfer = published->size();
    agent.store_base(client::BaseRef{resp.class_id, resp.base_version}, *published);
  }

  if (resp.mode == ServedResponse::Mode::kDelta) {
    const util::Bytes rebuilt =
        agent.reconstruct(client::BaseRef{resp.class_id, resp.base_version},
                          util::as_view(resp.wire_body), resp.wire_compressed);
    if (rebuilt == *doc) {
      instr_.verified->inc();
    } else {
      instr_.verify_failures->inc();
      delta_server_.obs().emit(
          obs::EventKind::kDecodeFailure, now, resp.class_id,
          {{"user", std::to_string(user_id)},
           {"url", url.to_string()},
           {"base_version", std::to_string(resp.base_version)},
           {"delta_size", std::to_string(resp.delta_size)}});
    }
  }

  if (config_.measure_latency) {
    const netsim::LinkProfile modem = netsim::LinkProfile::modem();
    partial_.latency_direct_us.add(static_cast<double>(
        netsim::transfer_latency(doc->size(), modem).total()));
    double actual = static_cast<double>(
        netsim::transfer_latency(resp.wire_body.size(), modem).total());
    if (base_transfer > 0) {
      actual += static_cast<double>(
          netsim::transfer_latency(base_transfer, modem).total());
    }
    partial_.latency_actual_us.add(actual);
  }
}

void Pipeline::process_all(const std::vector<trace::Request>& requests) {
  for (const trace::Request& req : requests) {
    process(req.user_id, req.url, req.time);
  }
}

PipelineReport Pipeline::report() const {
  PipelineReport out = partial_;
  out.requests = instr_.requests->value();
  out.not_found = instr_.not_found->value();
  out.verified = instr_.verified->value();
  out.verify_failures = instr_.verify_failures->value();
  out.server = delta_server_.metrics();
  out.proxy = base_cache_.stats();
  out.storage_bytes = delta_server_.storage_bytes();
  out.num_classes = delta_server_.num_classes();
  return out;
}

}  // namespace cbde::core
