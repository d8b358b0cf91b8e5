#include "http/message.hpp"

#include <charconv>

#include "util/contracts.hpp"
#include "util/strings.hpp"

namespace cbde::http {
namespace {

constexpr std::string_view kCrlf = "\r\n";

struct Cursor {
  util::BytesView data;
  std::size_t pos = 0;

  bool done() const { return pos >= data.size(); }

  /// Read up to the next CRLF; throws if none found.
  std::string_view read_line() {
    const std::string_view s = util::as_string_view(data);
    const std::size_t eol = s.find(kCrlf, pos);
    if (eol == std::string_view::npos) throw HttpError("http: missing CRLF");
    const std::string_view line = s.substr(pos, eol - pos);
    pos = eol + 2;
    return line;
  }
};

std::size_t parse_size(std::string_view s, int base, const char* what) {
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value, base);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw HttpError(std::string("http: bad ") + what + " '" + std::string(s) + "'");
  }
  return value;
}

void parse_headers(Cursor& cur, HeaderMap& headers) {
  while (true) {
    const std::string_view line = cur.read_line();
    if (line.empty()) return;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) throw HttpError("http: header without colon");
    headers.add(std::string(util::trim(line.substr(0, colon))),
                std::string(util::trim(line.substr(colon + 1))));
  }
}

util::Bytes parse_body(Cursor& cur, const HeaderMap& headers) {
  if (const auto te = headers.get("Transfer-Encoding");
      te && util::iequals(*te, "chunked")) {
    util::Bytes body;
    while (true) {
      std::string_view size_line = cur.read_line();
      // Ignore chunk extensions after ';'.
      if (const auto semi = size_line.find(';'); semi != std::string_view::npos) {
        size_line = size_line.substr(0, semi);
      }
      const std::size_t chunk = parse_size(util::trim(size_line), 16, "chunk size");
      if (chunk == 0) {
        cur.read_line();  // trailing CRLF after last chunk (no trailers supported)
        return body;
      }
      // Subtraction-form bound: `pos + chunk + 2` wraps for attacker-sized
      // chunk values and would sail past the check.
      if (cur.data.size() - cur.pos < 2 || chunk > cur.data.size() - cur.pos - 2) {
        throw HttpError("http: truncated chunk");
      }
      util::append(body, cur.data.subspan(cur.pos, chunk));
      cur.pos += chunk;
      if (util::as_string_view(cur.data.subspan(cur.pos, 2)) != kCrlf) {
        throw HttpError("http: chunk not CRLF-terminated");
      }
      cur.pos += 2;
    }
  }
  if (const auto cl = headers.get("Content-Length")) {
    const std::size_t n = parse_size(*cl, 10, "Content-Length");
    if (n > cur.data.size() - cur.pos) throw HttpError("http: truncated body");
    util::Bytes body(cur.data.begin() + static_cast<std::ptrdiff_t>(cur.pos),
                     cur.data.begin() + static_cast<std::ptrdiff_t>(cur.pos + n));
    cur.pos += n;
    return body;
  }
  // No framing header: everything remaining is the body (connection-close
  // delimited responses).
  util::Bytes body(cur.data.begin() + static_cast<std::ptrdiff_t>(cur.pos), cur.data.end());
  cur.pos = cur.data.size();
  return body;
}

void serialize_headers(util::Bytes& out, const HeaderMap& headers, std::size_t body_size,
                       bool add_content_length) {
  bool has_length = false;
  for (const auto& [name, value] : headers.entries()) {
    util::append(out, name);
    util::append(out, std::string_view(": "));
    util::append(out, value);
    util::append(out, kCrlf);
    if (util::iequals(name, "Content-Length") || util::iequals(name, "Transfer-Encoding")) {
      has_length = true;
    }
  }
  if (add_content_length && !has_length) {
    util::append(out, std::string_view("Content-Length: "));
    util::append(out, std::to_string(body_size));
    util::append(out, kCrlf);
  }
  util::append(out, kCrlf);
}

}  // namespace

void HeaderMap::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void HeaderMap::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

void HeaderMap::remove(std::string_view name) {
  std::erase_if(entries_, [&](const auto& e) { return util::iequals(e.first, name); });
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (util::iequals(n, name)) return std::string_view(v);
  }
  return std::nullopt;
}

util::Bytes HttpRequest::serialize() const {
  CBDE_EXPECT(!method.empty() && !target.empty() && version.starts_with("HTTP/"));
  util::Bytes out;
  util::append(out, method);
  out.push_back(' ');
  util::append(out, target);
  out.push_back(' ');
  util::append(out, version);
  util::append(out, kCrlf);
  serialize_headers(out, headers, body.size(), !body.empty());
  util::append(out, util::as_view(body));
  return out;
}

HttpRequest HttpRequest::parse(util::BytesView raw) {
  Cursor cur{raw};
  const std::string_view line = cur.read_line();
  const auto parts = util::split(line, ' ');
  if (parts.size() != 3) throw HttpError("http: bad request line");
  HttpRequest req;
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.version = std::string(parts[2]);
  if (req.method.empty() || req.target.empty() || !req.version.starts_with("HTTP/")) {
    throw HttpError("http: bad request line");
  }
  parse_headers(cur, req.headers);
  if (req.headers.contains("Content-Length") || req.headers.contains("Transfer-Encoding")) {
    req.body = parse_body(cur, req.headers);
  }
  CBDE_ENSURE(!req.method.empty() && req.version.starts_with("HTTP/"));
  return req;
}

util::Bytes HttpResponse::serialize() const {
  CBDE_EXPECT(status >= 100 && status <= 999);
  CBDE_EXPECT(version.starts_with("HTTP/"));
  util::Bytes out;
  util::append(out, version);
  out.push_back(' ');
  util::append(out, std::to_string(status));
  out.push_back(' ');
  util::append(out, reason);
  util::append(out, kCrlf);
  serialize_headers(out, headers, body.size(), true);
  util::append(out, util::as_view(body));
  return out;
}

HttpResponse HttpResponse::parse(util::BytesView raw) {
  Cursor cur{raw};
  const std::string_view line = cur.read_line();
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) throw HttpError("http: bad status line");
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  HttpResponse resp;
  resp.version = std::string(line.substr(0, sp1));
  if (!resp.version.starts_with("HTTP/")) throw HttpError("http: bad status line");
  const std::string_view code =
      line.substr(sp1 + 1, (sp2 == std::string_view::npos ? line.size() : sp2) - sp1 - 1);
  const std::size_t status = parse_size(code, 10, "status code");
  if (status < 100 || status > 999) {
    throw HttpError("http: status code out of range '" + std::string(code) + "'");
  }
  resp.status = static_cast<int>(status);
  if (sp2 != std::string_view::npos) resp.reason = std::string(line.substr(sp2 + 1));
  parse_headers(cur, resp.headers);
  resp.body = parse_body(cur, resp.headers);
  CBDE_ENSURE(resp.version.starts_with("HTTP/"));
  return resp;
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 203: return "Non-Authoritative Information";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

}  // namespace cbde::http
