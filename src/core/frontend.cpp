#include "core/frontend.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace cbde::core {
namespace {

constexpr std::string_view kBasePath = "/.cbde/base";

/// Parse a decimal that fits T; out-of-range values fail rather than wrap.
template <typename T>
std::optional<T> parse_uint(std::string_view s) {
  T v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

/// Extract "class" and "v" from the base endpoint query. A version above
/// UINT32_MAX is rejected: truncated, it would name a real version and put
/// that version's cachable bytes under a URL the server never advertised.
std::optional<std::pair<ClassId, std::uint32_t>> parse_base_query(std::string_view query) {
  std::optional<std::uint64_t> cls;
  std::optional<std::uint32_t> version;
  for (const auto item : http::query_items(query)) {
    if (item.starts_with("class=")) cls = parse_uint<std::uint64_t>(item.substr(6));
    if (item.starts_with("v=")) version = parse_uint<std::uint32_t>(item.substr(2));
  }
  if (!cls || !version) return std::nullopt;
  return std::make_pair(*cls, *version);
}

}  // namespace

std::uint64_t parse_user_header(const http::HttpRequest& request) {
  const auto header = request.headers.get("X-CBDE-User");
  if (!header) return 0;
  return parse_uint<std::uint64_t>(*header).value_or(0);
}

DeltaFrontend::DeltaFrontend(const server::OriginServer& origin, DeltaServerConfig config,
                             http::RuleBook rules)
    : origin_(origin), delta_server_(config, std::move(rules)) {}

util::Bytes DeltaFrontend::handle_raw(util::BytesView request_bytes, util::SimTime now) {
  try {
    const http::HttpRequest request = http::HttpRequest::parse(request_bytes);
    return handle(request, now).serialize();
  } catch (const http::HttpError& e) {
    return error_response(400, e.what()).serialize();
  }
}

http::HttpResponse DeltaFrontend::handle(const http::HttpRequest& request,
                                         util::SimTime now) {
  if (request.method != "GET") return error_response(400, "only GET is supported");
  const auto host = request.headers.get("Host");
  if (!host) return error_response(400, "missing Host header");

  http::Url url;
  try {
    url = http::parse_url(std::string(*host) + request.target);
  } catch (const http::UrlError& e) {
    return error_response(400, e.what());
  }

  // The base-file distribution endpoint.
  if (url.path == kBasePath) return serve_base(url);

  // Everything else: consult the origin, then the delta machinery.
  const auto doc = origin_.document(url, parse_user_header(request), now);
  if (!doc) return error_response(404, "unknown document");

  const bool delta_capable = request.headers.get("X-CBDE-Accept").has_value();
  if (!delta_capable) {
    // Legacy client: plain dynamic response, uncachable as always.
    http::HttpResponse resp;
    resp.status = 200;
    resp.reason = std::string(http::reason_phrase(200));
    resp.headers.set("Content-Type", "text/html");
    resp.headers.set("Cache-Control", "no-cache");
    resp.body = *doc;
    return resp;
  }

  ServedResponse served =
      delta_server_.serve(parse_user_header(request), url, util::as_view(*doc), now);

  http::HttpResponse resp;
  resp.status = 200;
  resp.reason = std::string(http::reason_phrase(200));
  resp.headers.set("Cache-Control", "no-cache");
  if (served.mode == ServedResponse::Mode::kDelta) {
    resp.headers.set("Content-Type", "application/vnd.cbde-delta");
    resp.headers.set("X-CBDE-Class", std::to_string(served.class_id));
    resp.headers.set("X-CBDE-Base-Version", std::to_string(served.base_version));
    resp.headers.set("X-CBDE-Encoding", served.wire_compressed ? "cbz" : "identity");
    resp.headers.set("X-CBDE-Base-Location",
                     std::string(kBasePath) + "?class=" + std::to_string(served.class_id) +
                         "&v=" + std::to_string(served.base_version));
  } else {
    resp.headers.set("Content-Type", "text/html");
  }
  resp.body = std::move(served.wire_body);
  return resp;
}

http::HttpResponse DeltaFrontend::serve_base(const http::Url& url) const {
  const auto query = parse_base_query(url.query);
  if (!query) return error_response(400, "bad base query");
  const auto base = delta_server_.fetch_base(query->first, query->second);
  if (!base) {
    return error_response(404, "no such base-file version");
  }
  http::HttpResponse resp;
  resp.status = 200;
  resp.reason = std::string(http::reason_phrase(200));
  resp.headers.set("Content-Type", "application/vnd.cbde-base");
  // Anonymized base-files are deliberately cachable (§VI-B/C).
  resp.headers.set("Cache-Control", "public, max-age=86400");
  resp.body = std::move(*base);
  return resp;
}

http::HttpResponse DeltaFrontend::error_response(int status,
                                                 std::string_view detail) const {
  http::HttpResponse resp;
  resp.status = status;
  resp.reason = std::string(http::reason_phrase(status));
  resp.headers.set("Content-Type", "text/plain");
  resp.body = util::to_bytes(std::string(detail) + "\n");
  return resp;
}

}  // namespace cbde::core
