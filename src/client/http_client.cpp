#include "client/http_client.hpp"

#include <charconv>

namespace cbde::client {
namespace {

/// Parse a decimal header that fits T. A value out of T's range is a
/// protocol violation, not something to wrap into a different valid value.
template <typename T>
T require_uint_header(const http::HttpResponse& resp, std::string_view name) {
  const auto value = resp.headers.get(name);
  if (!value) throw http::HttpError("cbde client: missing header " + std::string(name));
  T v = 0;
  const auto [p, ec] = std::from_chars(value->data(), value->data() + value->size(), v);
  if (ec != std::errc{} || p != value->data() + value->size()) {
    throw http::HttpError("cbde client: bad header " + std::string(name));
  }
  return v;
}

}  // namespace

http::HttpRequest HttpClientAgent::make_request(const http::Url& url) const {
  http::HttpRequest req;
  req.method = "GET";
  req.target = url.request_target();
  req.headers.set("Host", url.host);
  req.headers.set("X-CBDE-Accept", "1");
  req.headers.set("X-CBDE-User", std::to_string(user_id_));
  return req;
}

util::Bytes HttpClientAgent::get(const http::Url& url, const Transport& transport) {
  ++stats_.page_requests;
  const http::HttpResponse resp = transport(make_request(url));
  stats_.bytes_over_wire += resp.body.size();
  if (resp.status != 200) {
    throw http::HttpError("cbde client: status " + std::to_string(resp.status));
  }

  const auto content_type = resp.headers.get("Content-Type");
  if (!content_type || *content_type != "application/vnd.cbde-delta") {
    ++stats_.direct_responses;
    return resp.body;  // ordinary response
  }
  ++stats_.delta_responses;

  const auto class_id = require_uint_header<std::uint64_t>(resp, "X-CBDE-Class");
  const auto version = require_uint_header<std::uint32_t>(resp, "X-CBDE-Base-Version");
  const auto encoding = resp.headers.get("X-CBDE-Encoding");
  const bool compressed = encoding && *encoding == "cbz";

  // Ensure we hold the advertised base-file version; fetch it if not. The
  // fetch is a plain cachable GET — any proxy on the path may answer it.
  if (store_.base_version(class_id) != version) {
    const auto location = resp.headers.get("X-CBDE-Base-Location");
    if (!location) throw http::HttpError("cbde client: missing base location");
    http::HttpRequest base_req;
    base_req.method = "GET";
    base_req.target = std::string(*location);
    base_req.headers.set("Host", url.host);
    const http::HttpResponse base_resp = transport(base_req);
    stats_.bytes_over_wire += base_resp.body.size();
    ++stats_.base_fetches;
    if (base_resp.status != 200) {
      throw http::HttpError("cbde client: base fetch failed with status " +
                            std::to_string(base_resp.status));
    }
    store_.store_base(BaseRef{class_id, version}, base_resp.body);
  }
  return store_.reconstruct(BaseRef{class_id, version}, util::as_view(resp.body),
                            compressed);
}

}  // namespace cbde::client
