#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "http/message.hpp"
#include "http/partition.hpp"
#include "http/url.hpp"
#include "util/contracts.hpp"

namespace cbde::http {
namespace {

using util::as_view;
using util::to_bytes;

// ---------------------------------------------------------------- URL

TEST(Url, ParsesAbsoluteUrl) {
  const Url u = parse_url("http://www.foo.com/laptops?id=100");
  EXPECT_EQ(u.scheme, "http");
  EXPECT_EQ(u.host, "www.foo.com");
  EXPECT_EQ(u.path, "/laptops");
  EXPECT_EQ(u.query, "id=100");
  EXPECT_EQ(u.to_string(), "http://www.foo.com/laptops?id=100");
  EXPECT_EQ(u.request_target(), "/laptops?id=100");
}

TEST(Url, ParsesSchemelessUrl) {
  const Url u = parse_url("www.foo.com/laptops/100");
  EXPECT_EQ(u.scheme, "http");
  EXPECT_EQ(u.host, "www.foo.com");
  EXPECT_EQ(u.path, "/laptops/100");
  EXPECT_TRUE(u.query.empty());
}

TEST(Url, HostOnlyGetsRootPath) {
  const Url u = parse_url("www.foo.com");
  EXPECT_EQ(u.path, "/");
  EXPECT_EQ(u.request_target(), "/");
}

TEST(Url, QueryOnRootPath) {
  const Url u = parse_url("www.foo.com/?dept=laptops&id=100");
  EXPECT_EQ(u.path, "/");
  EXPECT_EQ(u.query, "dept=laptops&id=100");
}

TEST(Url, EmptyHostThrows) {
  EXPECT_THROW(parse_url(""), UrlError);
  EXPECT_THROW(parse_url("http:///path"), UrlError);
}

TEST(Url, PathSegments) {
  const auto segs = path_segments("/a/b//c/");
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], "a");
  EXPECT_EQ(segs[1], "b");
  EXPECT_EQ(segs[2], "c");
  EXPECT_TRUE(path_segments("/").empty());
  EXPECT_TRUE(path_segments("").empty());
}

TEST(Url, EmptyQueryAfterQuestionMark) {
  // "?" with nothing after it: the query is empty, and serialization drops
  // the dangling '?' rather than echoing it back.
  const Url u = parse_url("www.foo.com/laptops?");
  EXPECT_EQ(u.path, "/laptops");
  EXPECT_TRUE(u.query.empty());
  EXPECT_EQ(u.request_target(), "/laptops");
  EXPECT_EQ(u.to_string(), "http://www.foo.com/laptops");
}

TEST(Url, PercentDecodeBasics) {
  EXPECT_EQ(percent_decode("laptops"), "laptops");
  EXPECT_EQ(percent_decode("%6Captops"), "laptops");
  EXPECT_EQ(percent_decode("%6captops"), "laptops");  // lowercase hex
  EXPECT_EQ(percent_decode("a%20b"), "a b");
  EXPECT_EQ(percent_decode(""), "");
  // '+' is form encoding, not percent encoding; it passes through.
  EXPECT_EQ(percent_decode("a+b"), "a+b");
}

TEST(Url, PercentDecodeTruncatedEscapePassesThrough) {
  // A '%' with fewer than two bytes left (or non-hex continuation) is
  // copied verbatim — the decoder must never read past end-of-string.
  EXPECT_EQ(percent_decode("abc%"), "abc%");
  EXPECT_EQ(percent_decode("abc%4"), "abc%4");
  EXPECT_EQ(percent_decode("abc%zz"), "abc%zz");
  EXPECT_EQ(percent_decode("%"), "%");
  EXPECT_EQ(percent_decode("%%41"), "%A");  // first '%' literal, second decodes
}

TEST(Url, OverLongPathSegmentsParse) {
  // Pathological but well-formed: one segment far past any realistic URL
  // length still round-trips without truncation.
  const std::string seg(100 * 1024, 'a');
  const Url u = parse_url("www.foo.com/" + seg + "/tail?x=1");
  const auto segs = path_segments(u.path);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].size(), seg.size());
  EXPECT_EQ(segs[1], "tail");
  EXPECT_EQ(u.query, "x=1");
}

TEST(Url, QueryItems) {
  const auto items = query_items("a=1&b=2&&c");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "a=1");
  EXPECT_EQ(items[1], "b=2");
  EXPECT_EQ(items[2], "c");
  EXPECT_TRUE(query_items("").empty());
}

// ---------------------------------------------------------------- partition (Table I)

TEST(Partition, TableIRowOne) {
  // www.foo.com/laptops?id=100 -> hint "laptops", rest "id=100"
  const UrlParts parts = default_partition(parse_url("www.foo.com/laptops?id=100"));
  EXPECT_EQ(parts.server_part, "www.foo.com");
  EXPECT_EQ(parts.hint_part, "laptops");
  EXPECT_EQ(parts.rest, "id=100");
}

TEST(Partition, TableIRowTwo) {
  // www.foo.com/?dept=laptops&id=100 -> hint "dept=laptops", rest "id=100"
  const UrlParts parts = default_partition(parse_url("www.foo.com/?dept=laptops&id=100"));
  EXPECT_EQ(parts.hint_part, "dept=laptops");
  EXPECT_EQ(parts.rest, "id=100");
}

TEST(Partition, TableIRowThree) {
  // www.foo.com/laptops/100 -> hint "laptops", rest "100"
  const UrlParts parts = default_partition(parse_url("www.foo.com/laptops/100"));
  EXPECT_EQ(parts.hint_part, "laptops");
  EXPECT_EQ(parts.rest, "100");
}

TEST(Partition, PercentEncodedHintGroupsWithPlainForm) {
  // "/%6Captops" and "/laptops" name the same resource; the default
  // partitioner decodes the hint so both URLs land in the same class.
  const UrlParts plain = default_partition(parse_url("www.foo.com/laptops?id=100"));
  const UrlParts encoded =
      default_partition(parse_url("www.foo.com/%6Captops?id=100"));
  EXPECT_EQ(encoded.hint_part, plain.hint_part);
  EXPECT_EQ(encoded.hint_part, "laptops");
}

TEST(Partition, EmptyPatternRejectedAtConstruction) {
  EXPECT_THROW(PartitionRule(""), std::invalid_argument);
}

TEST(Partition, BareRootHasEmptyHint) {
  const UrlParts parts = default_partition(parse_url("www.foo.com"));
  EXPECT_EQ(parts.server_part, "www.foo.com");
  EXPECT_TRUE(parts.hint_part.empty());
  EXPECT_TRUE(parts.rest.empty());
}

TEST(Partition, RegexRuleExtractsGroups) {
  const PartitionRule rule(R"(^/shop/([a-z]+)/item/(\d+)$)");
  const auto parts = rule.apply(parse_url("www.shop.com/shop/laptops/item/42"));
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->server_part, "www.shop.com");
  EXPECT_EQ(parts->hint_part, "laptops");
  EXPECT_EQ(parts->rest, "42");
}

TEST(Partition, RegexRuleNonMatchingReturnsNullopt) {
  const PartitionRule rule(R"(^/shop/([a-z]+)$)");
  EXPECT_FALSE(rule.apply(parse_url("www.shop.com/other/laptops")).has_value());
}

TEST(Partition, RuleBookPrefersHostRuleAndFallsBack) {
  RuleBook book;
  book.add_rule("www.shop.com", PartitionRule(R"(^/x/([a-z]+)/(.*)$)"));
  EXPECT_TRUE(book.has_rule("www.shop.com"));
  EXPECT_FALSE(book.has_rule("www.other.com"));

  const UrlParts ruled = book.partition(parse_url("www.shop.com/x/tv/99"));
  EXPECT_EQ(ruled.hint_part, "tv");
  EXPECT_EQ(ruled.rest, "99");

  // Non-matching target falls back to the heuristic.
  const UrlParts fallback = book.partition(parse_url("www.shop.com/y/tv"));
  EXPECT_EQ(fallback.hint_part, "y");

  // Unknown host uses the heuristic directly.
  const UrlParts other = book.partition(parse_url("www.other.com/cat/7"));
  EXPECT_EQ(other.hint_part, "cat");
}

// ---------------------------------------------------------------- messages

TEST(HeaderMap, CaseInsensitiveGetSetRemove) {
  HeaderMap h;
  h.add("Content-Type", "text/html");
  h.add("X-Test", "1");
  h.add("X-Test", "2");
  EXPECT_EQ(h.get("content-type"), "text/html");
  EXPECT_EQ(h.get("X-TEST"), "1");  // first occurrence
  h.set("x-test", "3");
  EXPECT_EQ(h.get("X-Test"), "3");
  EXPECT_EQ(h.size(), 2u);
  h.remove("CONTENT-TYPE");
  EXPECT_FALSE(h.contains("Content-Type"));
}

TEST(HttpRequest, SerializeParseRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/laptops?id=100";
  req.headers.add("Host", "www.foo.com");
  req.headers.add("X-CBDE-Base-Version", "3");
  const auto wire = req.serialize();
  const HttpRequest parsed = HttpRequest::parse(as_view(wire));
  EXPECT_EQ(parsed.method, "GET");
  EXPECT_EQ(parsed.target, "/laptops?id=100");
  EXPECT_EQ(parsed.headers.get("host"), "www.foo.com");
  EXPECT_EQ(parsed.headers.get("x-cbde-base-version"), "3");
  EXPECT_TRUE(parsed.body.empty());
}

TEST(HttpRequest, BodyWithContentLength) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/submit";
  req.body = to_bytes("key=value");
  const auto wire = req.serialize();
  const HttpRequest parsed = HttpRequest::parse(as_view(wire));
  EXPECT_EQ(util::as_string_view(as_view(parsed.body)), "key=value");
}

TEST(HttpResponse, SerializeParseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add("Content-Type", "application/cbde-delta");
  resp.body = to_bytes("DELTA-PAYLOAD");
  const auto wire = resp.serialize();
  const HttpResponse parsed = HttpResponse::parse(as_view(wire));
  EXPECT_EQ(parsed.status, 200);
  EXPECT_EQ(parsed.reason, "OK");
  EXPECT_EQ(util::as_string_view(as_view(parsed.body)), "DELTA-PAYLOAD");
}

TEST(HttpResponse, ParsesChunkedTransferEncoding) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "5\r\nhello\r\n"
      "7;ext=1\r\n world!\r\n"
      "0\r\n\r\n";
  const HttpResponse parsed = HttpResponse::parse(as_view(to_bytes(wire)));
  EXPECT_EQ(util::as_string_view(as_view(parsed.body)), "hello world!");
}

TEST(HttpResponse, ConnectionCloseDelimitedBody) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "X-No-Framing: yes\r\n"
      "\r\n"
      "everything until EOF";
  const HttpResponse parsed = HttpResponse::parse(as_view(to_bytes(wire)));
  EXPECT_EQ(util::as_string_view(as_view(parsed.body)), "everything until EOF");
}

TEST(HttpMessage, MalformedInputsThrow) {
  EXPECT_THROW(HttpRequest::parse(as_view(to_bytes("GARBAGE"))), HttpError);
  EXPECT_THROW(HttpRequest::parse(as_view(to_bytes("GET /\r\n\r\n"))), HttpError);
  EXPECT_THROW(HttpResponse::parse(as_view(to_bytes("HTTP/1.1\r\n\r\n"))), HttpError);
  EXPECT_THROW(
      HttpResponse::parse(as_view(to_bytes("HTTP/1.1 200 OK\r\nBad Header\r\n\r\n"))),
      HttpError);
  EXPECT_THROW(HttpResponse::parse(as_view(
                   to_bytes("HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort"))),
               HttpError);
  EXPECT_THROW(HttpResponse::parse(as_view(to_bytes(
                   "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n"))),
               HttpError);
  // Status codes outside 100-999: one that wraps to 200 in an int, and one
  // that serialize() would refuse.
  EXPECT_THROW(HttpResponse::parse(as_view(to_bytes("HTTP/1.1 4294967496 OK\r\n\r\n"))),
               HttpError);
  EXPECT_THROW(HttpResponse::parse(as_view(to_bytes("HTTP/1.1 7 OK\r\n\r\n"))), HttpError);
}

TEST(HttpMessage, ReasonPhrases) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(404), "Not Found");
  EXPECT_EQ(reason_phrase(999), "Unknown");
}

}  // namespace
}  // namespace cbde::http
