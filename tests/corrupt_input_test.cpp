// Corrupt-input regression tests for the decoders that parse untrusted
// bytes: CBD1 deltas, CLF access-log lines, and HTTP
// message framing. Each case is a hand-crafted malformation pinned to the
// decoder's typed error, so a future refactor that weakens a bound (or
// starts crashing instead of throwing) fails loudly here rather than in
// the fuzz suite's statistics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "delta/delta.hpp"
#include "http/message.hpp"
#include "trace/access_log.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

void put_u32le(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// ------------------------------------------------------------ CBD1 deltas

/// Header for a CBD1 delta against `base` claiming `target_size` and
/// `target_crc`; instructions are appended by the caller.
Bytes cbd1_header(util::BytesView base, std::uint64_t target_size,
                  std::uint32_t target_crc) {
  Bytes d = to_bytes(std::string("CBD1"));
  util::put_uvarint(d, base.size());
  util::put_uvarint(d, target_size);
  put_u32le(d, util::crc32(base));
  put_u32le(d, target_crc);
  return d;
}

TEST(CorruptDelta, TruncatedHeader) {
  const Bytes base = to_bytes("the base document for truncation tests");
  const auto full = delta::encode(as_view(base), as_view(base)).delta;
  for (std::size_t cut : {0u, 3u, 4u, 6u, 9u, 12u}) {
    ASSERT_LT(cut, full.size());
    const util::BytesView prefix = as_view(full).subspan(0, cut);
    EXPECT_THROW((void)delta::apply(as_view(base), prefix), delta::CorruptDelta)
        << "cut=" << cut;
    EXPECT_THROW((void)delta::inspect(prefix), delta::CorruptDelta) << "cut=" << cut;
  }
}

// The DeltaIr name dates from when the delta IR's lifter also parsed CBD1;
// the check now runs on apply(), the only CBD1 decoder.
TEST(DeltaIr, LiftRejectsCorruptCbd1) {
  // Body cuts: every strict prefix of an encoder delta carrying both
  // instruction kinds ends inside the header, a tag, a COPY address or an
  // ADD payload, or on an instruction boundary short of the target size.
  // apply() must refuse each one.
  const Bytes base = to_bytes("the base document for truncation tests");
  const std::string text(util::as_string_view(as_view(base)));
  const Bytes target = to_bytes("fresh head, " + text + ", fresh tail");
  const auto mixed = delta::encode(as_view(base), as_view(target));
  ASSERT_GT(mixed.copy_bytes, 0u);
  ASSERT_GT(mixed.add_bytes, 0u);
  ASSERT_EQ(delta::apply(as_view(base), as_view(mixed.delta)), target);
  for (std::size_t cut = 0; cut < mixed.delta.size(); ++cut) {
    EXPECT_THROW(
        (void)delta::apply(as_view(base), as_view(mixed.delta).subspan(0, cut)),
        delta::CorruptDelta)
        << "cut=" << cut;
  }
}

TEST(CorruptDelta, CopyPastSourceEnd) {
  const Bytes base = to_bytes("0123456789abcdef0123456789abcdef");
  Bytes d = cbd1_header(as_view(base), 40, 0);
  util::put_uvarint(d, (40u << 1) | 1);      // COPY len=40 ...
  util::put_uvarint(d, base.size() - 8);     // ... starting 8 bytes from the end
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
}

TEST(CorruptDelta, SelfCopyPastOutputFrontier) {
  const Bytes base = to_bytes("0123456789abcdef0123456789abcdef");
  Bytes d = cbd1_header(as_view(base), 8, 0);
  util::put_uvarint(d, (8u << 1) | 1);   // COPY len=8 past the base, where a
  util::put_uvarint(d, base.size() + 4); // self-copy would find nothing decoded
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
}

TEST(CorruptDelta, VarintOverflowInSizes) {
  Bytes d = to_bytes(std::string("CBD1"));
  for (int i = 0; i < 11; ++i) d.push_back(0xFF);  // > 64-bit varint
  const Bytes base = to_bytes("irrelevant");
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
}

TEST(CorruptDelta, ClaimedTargetAboveDecodeCap) {
  // A ~20-byte delta must not be able to demand a 16 GB output buffer.
  const Bytes base = to_bytes("small base");
  Bytes d = cbd1_header(as_view(base), std::uint64_t{16} << 30, 0);
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
  EXPECT_THROW((void)delta::inspect(as_view(d)), delta::CorruptDelta);
}

TEST(CorruptDelta, ZeroLengthWindowRoundTripsButExtraBytesAreRejected) {
  const Bytes base = to_bytes("base content");
  // Legitimate empty-target delta: decodes to zero bytes.
  const auto empty = delta::encode(as_view(base), {});
  EXPECT_TRUE(delta::apply(as_view(base), as_view(empty.delta)).empty());
  // Same header with a trailing ADD must fail the zero-size window.
  Bytes d(empty.delta);
  util::put_uvarint(d, 1u << 1);  // ADD len=1
  d.push_back('x');
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
}

TEST(CorruptDelta, AddRunsPastDeltaEnd) {
  const Bytes base = to_bytes("base content");
  Bytes d = cbd1_header(as_view(base), 100, 0);
  util::put_uvarint(d, 100u << 1);  // ADD len=100, but no payload follows
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
}

TEST(CorruptDelta, TargetChecksumMismatch) {
  const Bytes base = to_bytes("shared base document");
  Bytes d = cbd1_header(as_view(base), 3, 0xDEADBEEF);
  util::put_uvarint(d, 3u << 1);
  util::append(d, std::string_view("abc"));
  EXPECT_THROW((void)delta::apply(as_view(base), as_view(d)), delta::CorruptDelta);
}

// ------------------------------------------------------- access-log lines

TEST(CorruptAccessLog, MalformedLinesReturnNulloptNotThrow) {
  const char* cases[] = {
      "",
      "onefield",
      "10.0.0.1 - u42",                                      // no timestamp
      "10.0.0.1 - u42 02/Jan/2026:00:10:09",                 // bracket missing
      "10.0.0.1 - u42 [02/Jxx/2026:00:10:09 +0000] \"GET / HTTP/1.1\" 200 5",  // bad month
      "10.0.0.1 - u42 [99/Jan/2026:00:10:09 +0000] \"GET / HTTP/1.1\" 200 5",  // bad day
      "10.0.0.1 - u42 [02/Jan/2026:00:10] \"GET / HTTP/1.1\" 200 5",  // short time
      "10.0.0.1 - uNaN [02/Jan/2026:00:10:09 +0000] \"GET / HTTP/1.1\" 200 5",
      "10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] \"GET /\" 200 5",  // 2-part request
      "10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] \"GET / HTTP/1.1\" abc 5",
      "10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] \"GET / HTTP/1.1\" 200 xyz",
      "10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] \"GET / HTTP/1.1\" 200",  // no bytes
  };
  for (const char* line : cases) {
    EXPECT_FALSE(trace::parse_clf(line).has_value()) << "line: " << line;
  }
}

TEST(CorruptAccessLog, OutOfRangeClockFieldsRejected) {
  // Three numeric fields that fit the ##:##:## shape but name no real time
  // of day. Before the range check these silently produced a nonsense
  // timestamp that skewed inter-arrival statistics downstream.
  const char* cases[] = {
      "10.0.0.1 - u42 [02/Jan/2026:24:10:09 +0000] \"GET / HTTP/1.1\" 200 5",
      "10.0.0.1 - u42 [02/Jan/2026:00:60:09 +0000] \"GET / HTTP/1.1\" 200 5",
      "10.0.0.1 - u42 [02/Jan/2026:00:10:60 +0000] \"GET / HTTP/1.1\" 200 5",
  };
  for (const char* line : cases) {
    EXPECT_FALSE(trace::parse_clf(line).has_value()) << "line: " << line;
  }
  // Boundary values are legitimate wall-clock times and must keep parsing.
  EXPECT_TRUE(
      trace::parse_clf("10.0.0.1 - u42 [02/Jan/2026:23:59:59 +0000] "
                       "\"GET / HTTP/1.1\" 200 5")
          .has_value());
}

TEST(CorruptAccessLog, StatusOutsideHttpRangeRejected) {
  // An HTTP status is three digits; 99 and 1000 parse as integers but are
  // not statuses any server emits, so the line is malformed.
  EXPECT_FALSE(trace::parse_clf("10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] "
                                "\"GET / HTTP/1.1\" 99 5")
                   .has_value());
  EXPECT_FALSE(trace::parse_clf("10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] "
                                "\"GET / HTTP/1.1\" 1000 5")
                   .has_value());
  EXPECT_TRUE(trace::parse_clf("10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] "
                               "\"GET / HTTP/1.1\" 100 5")
                  .has_value());
  EXPECT_TRUE(trace::parse_clf("10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] "
                               "\"GET / HTTP/1.1\" 999 5")
                  .has_value());
}

TEST(CorruptAccessLog, OverlongLineSkippedNotBuffered) {
  // A line past the 64 KiB cap is dropped (and counted) before any field
  // parsing, so a log with an embedded runaway line cannot force the
  // reader to hold or scan an unbounded buffer.
  const std::string good =
      "10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] \"GET / HTTP/1.1\" 200 5";
  std::string overlong = good;
  overlong += " \"";
  overlong.append(64 * 1024, 'x');
  overlong += '"';
  std::istringstream in(good + "\n" + overlong + "\n" + good + "\n");
  std::size_t skipped = 0;
  const auto records = trace::read_access_log(in, &skipped);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(skipped, 1u);
}

TEST(CorruptAccessLog, ValidLineStillParses) {
  const auto rec =
      trace::parse_clf("10.0.0.1 - u42 [02/Jan/2026:00:10:09 +0000] "
                       "\"GET /portal?x=1 HTTP/1.1\" 200 31245 \"www.example.com\"");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->user_id, 42u);
  EXPECT_EQ(rec->status, 200);
  EXPECT_EQ(rec->bytes, 31245u);
  EXPECT_EQ(rec->host, "www.example.com");
  EXPECT_EQ(rec->target, "/portal?x=1");
}

// ----------------------------------------------------------- HTTP framing

TEST(CorruptHttp, OverflowingContentLengthIsRejected) {
  // SIZE_MAX-sized claim: a wrapping `pos + n` bound would pass and
  // over-read; the parser must reject it as a truncated body instead.
  const std::string raw =
      "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nshort";
  EXPECT_THROW((void)http::HttpResponse::parse(as_view(to_bytes(raw))), http::HttpError);
}

TEST(CorruptHttp, OverflowingChunkSizeIsRejected) {
  const std::string raw =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffffffffffff\r\nhello\r\n0\r\n\r\n";
  EXPECT_THROW((void)http::HttpResponse::parse(as_view(to_bytes(raw))), http::HttpError);
}

TEST(CorruptHttp, TruncatedChunkIsRejected) {
  const std::string raw =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "b\r\nhello";
  EXPECT_THROW((void)http::HttpResponse::parse(as_view(to_bytes(raw))), http::HttpError);
}

}  // namespace
}  // namespace cbde
