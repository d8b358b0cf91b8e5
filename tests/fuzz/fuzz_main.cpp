// Decoder robustness fuzzing: CBD1 deltas, CBZ1 compressed
// blocks, Apache CLF access-log lines and streams (trace::parse_clf +
// trace::read_access_log, checked differentially), HTTP/1.1 messages, and
// cbde.conf files (each accepted one must also build a server that serves).
//
// Every byte stream a delta-server deployment decodes crosses a trust
// boundary, so each decoder must satisfy one contract on arbitrary input:
// succeed, or throw its own typed cbde:: error (parse_clf, which reports
// failure via std::optional, must simply never throw). See run_target in
// fuzz_common.hpp for the harness semantics and failure reproducers.
//
// Usage: cbde_fuzz [target] [iterations] [seed] [--expect ACCEPTED/REJECTED]
//   target      one of cbd1|compress|access_log|http|config|all
//               (default all)
//   iterations  mutations per target (default 10000)
//   seed        RNG seed (default 0xCBDE)
//   --expect    fail (exit 1) unless the one named target accepts and
//               rejects exactly these many inputs: pins a decoder's verdicts
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "core/config_loader.hpp"
#include "delta/delta.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "fuzz_common.hpp"
#include "trace/access_log.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cbde::fuzz {
namespace {

using util::Bytes;
using util::BytesView;
using util::as_view;
using util::to_bytes;

// ------------------------------------------------------------------ corpora

/// A template-heavy page in the spirit of the paper's workload: shared
/// markup with personalized islands, so encoders emit real COPY/ADD mixes.
std::string page(std::uint64_t user, std::size_t extra_paragraphs) {
  std::string doc = "<html><head><title>portal</title></head><body>\n";
  doc += "<div class=banner>Welcome back, user" + std::to_string(user) + "</div>\n";
  for (std::size_t i = 0; i < extra_paragraphs; ++i) {
    doc += "<p>Section " + std::to_string(i) + ": the quick brown fox jumps over ";
    doc += (i % 3 == 0) ? "the lazy dog" : "a sleeping cat";
    doc += ", repeated boilerplate markup shared across the class.</p>\n";
  }
  doc += "<div class=cart>items=" + std::to_string(user % 7) + "</div></body></html>\n";
  return doc;
}

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// Base document plus deltas encoded against it.
struct DeltaCorpus {
  Bytes base;
  std::vector<Bytes> deltas;
};

DeltaCorpus make_cbd1_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  DeltaCorpus c;
  c.base = to_bytes(page(1, 24));
  const Bytes close_target = to_bytes(page(2, 24));
  const Bytes far_target = to_bytes(page(3, 2) + std::string(512, 'x'));
  const Bytes noise_target = random_bytes(rng, 2048);
  const Bytes empty_target;
  const Bytes run_doc = to_bytes(std::string(4096, 'r') + "tail");
  for (const Bytes* t : {&close_target, &far_target, &noise_target, &empty_target, &run_doc}) {
    c.deltas.push_back(delta::encode(as_view(c.base), as_view(*t)).delta);
  }
  return c;
}

std::vector<Bytes> make_compress_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Bytes> corpus;
  // Huffman-coded, stored (incompressible), run-heavy, and empty streams:
  // every CBZ1 block flavor the compressor can emit.
  corpus.push_back(compress::compress(as_view(to_bytes(page(1, 24)))));
  corpus.push_back(compress::compress(as_view(random_bytes(rng, 2048))));
  corpus.push_back(compress::compress(as_view(to_bytes(std::string(4096, 'r') + "tail"))));
  corpus.push_back(compress::compress(util::BytesView{}));
  return corpus;
}

std::vector<Bytes> make_access_log_corpus() {
  std::vector<Bytes> corpus;
  trace::AccessLogRecord rec;
  rec.time = 86'400 * util::kSecond + 3723 * util::kSecond;
  rec.user_id = 42;
  rec.host = "www.example.com";
  rec.target = "/portal/news?user=42&lang=en";
  rec.status = 200;
  rec.bytes = 13'577;
  corpus.push_back(to_bytes(trace::format_clf(rec)));
  rec.user_id = 9'999'999;
  rec.target = "/";
  rec.status = 304;
  rec.bytes = 0;
  corpus.push_back(to_bytes(trace::format_clf(rec)));
  corpus.push_back(to_bytes(std::string(
      "10.0.0.1 - u7 [02/Jan/2026:00:10:09 +0000] \"GET /a HTTP/1.1\" 200 77 \"h.example\"")));
  return corpus;
}

std::vector<Bytes> make_http_corpus() {
  std::vector<Bytes> corpus;
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/portal/news?user=42";
  req.headers.add("Host", "www.example.com");
  req.headers.add("X-CBDE-Base", "b123");
  corpus.push_back(req.serialize());

  http::HttpRequest post = req;
  post.method = "POST";
  post.body = to_bytes(std::string("field=value&other=thing"));
  corpus.push_back(post.serialize());

  http::HttpResponse resp;
  resp.status = 200;
  resp.headers.add("Content-Type", "text/html");
  resp.body = to_bytes(page(5, 3));
  corpus.push_back(resp.serialize());

  // Chunked framing, built by hand (serialize() always emits Content-Length).
  std::string chunked =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "b\r\nhello chunk\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n";
  corpus.push_back(to_bytes(chunked));
  return corpus;
}

std::vector<Bytes> make_config_corpus() {
  std::vector<Bytes> corpus;
  corpus.push_back(to_bytes(core::example_config()));
  corpus.push_back(to_bytes(std::string("[delta-server]\nanonymize = false\n"
                                        "[site shop.example]\n"
                                        "partition = ^/([a-z]+)/(.*)$\n"
                                        "manual-class = specials\n")));
  return corpus;
}

// ------------------------------------------------------------------ targets

std::optional<TargetStats> fuzz_cbd1(std::uint64_t seed, std::size_t iters) {
  const DeltaCorpus c = make_cbd1_corpus(seed);
  const Bytes wrong_base = to_bytes(page(99, 9));
  std::size_t calls = 0;
  return run_target("cbd1", seed, iters, c.deltas, [&](BytesView input) {
    const BytesView base =
        (++calls % 13 == 0) ? as_view(wrong_base) : as_view(c.base);
    try {
      (void)delta::inspect(input);
      const Bytes out = delta::apply(base, input);
      // If apply accepted the mutation, both checksums matched; the output
      // must honor the header's size claim.
      if (out.size() != delta::inspect(input).target_size) {
        throw std::logic_error("cbd1: decoded size contradicts header");
      }
      return true;
    } catch (const delta::CorruptDelta&) {
      return false;
    }
  });
}

std::optional<TargetStats> fuzz_compress(std::uint64_t seed, std::size_t iters) {
  return run_target("compress", seed, iters, make_compress_corpus(seed),
                    [](BytesView input) {
                      try {
                        (void)compress::decompress(input);
                        return true;
                      } catch (const compress::CorruptInput&) {
                        return false;
                      }
                    });
}

std::optional<TargetStats> fuzz_access_log(std::uint64_t seed, std::size_t iters) {
  return run_target(
      "access_log", seed, iters, make_access_log_corpus(), [&](BytesView input) {
        // parse_clf reports malformed lines via nullopt and must never
        // throw; any exception fails the harness.
        const std::string text(util::as_string_view(input));
        const bool parsed = trace::parse_clf(text).has_value();
        // trace::read_access_log consumes whole untrusted streams and must
        // agree with per-line parse_clf: every non-empty line becomes a
        // record or counts as skipped — never an exception, never silently
        // dropped. (Overlong-line rejection can't diverge here: mutated
        // inputs stay far below the reader's line cap.)
        std::size_t expect_ok = 0;
        std::size_t expect_skipped = 0;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
          if (line.empty()) continue;
          if (trace::parse_clf(line)) {
            ++expect_ok;
          } else {
            ++expect_skipped;
          }
        }
        std::istringstream stream(text);
        std::size_t skipped = 0;
        const auto records = trace::read_access_log(stream, &skipped);
        if (records.size() != expect_ok || skipped != expect_skipped) {
          throw std::logic_error(
              "read_access_log disagrees with parse_clf: got " +
              std::to_string(records.size()) + " records + " +
              std::to_string(skipped) + " skipped, expected " +
              std::to_string(expect_ok) + " + " + std::to_string(expect_skipped));
        }
        return parsed;
      });
}

std::optional<TargetStats> fuzz_http(std::uint64_t seed, std::size_t iters) {
  return run_target("http", seed, iters, make_http_corpus(), [&](BytesView input) {
    bool decoded = false;
    try {
      (void)http::HttpRequest::parse(input);
      decoded = true;
    } catch (const http::HttpError&) {
    }
    try {
      (void)http::HttpResponse::parse(input);
      decoded = true;
    } catch (const http::HttpError&) {
    }
    return decoded;
  });
}

std::optional<TargetStats> fuzz_config(std::uint64_t seed, std::size_t iters) {
  const Bytes doc = to_bytes(page(1, 2));
  const http::Url url = http::parse_url("http://www.foo.com/laptops?id=1");
  return run_target("config", seed, iters, make_config_corpus(), [&](BytesView input) {
    std::istringstream in(std::string(util::as_string_view(input)));
    core::LoadedConfig config;
    try {
      config = core::load_config(in);
    } catch (const core::ConfigError&) {
      return false;
    }
    // A config that loads must also build a server that serves: any throw
    // from here on fails the target. The event log is the one setting that
    // reaches the filesystem, so the fuzzer writes none.
    config.server.obs.event_log_path.clear();
    core::DeltaServer server(std::move(config.server), std::move(config.rules));
    for (std::uint64_t user = 1; user <= 2; ++user) {
      (void)server.serve(user, url, as_view(doc), static_cast<util::SimTime>(user));
    }
    return true;
  });
}

}  // namespace
}  // namespace cbde::fuzz

int main(int argc, char** argv) {
  std::vector<std::string> args;
  const char* expect = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--expect") == 0 && i + 1 < argc) {
      expect = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  const std::string target = args.size() > 0 ? args[0] : "all";
  const std::size_t iters = args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 0) : 10'000;
  const std::uint64_t seed = args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 0) : 0xCBDE;
  std::size_t want_accepted = 0;
  std::size_t want_rejected = 0;
  if (expect != nullptr &&
      (target == "all" || std::sscanf(expect, "%zu/%zu", &want_accepted, &want_rejected) != 2)) {
    std::fprintf(stderr, "--expect takes ACCEPTED/REJECTED and one named target\n");
    return 2;
  }

  bool ok = true;
  bool matched = false;
  auto run = [&](const char* name,
                 std::optional<cbde::fuzz::TargetStats> (*fn)(std::uint64_t, std::size_t)) {
    if (target != "all" && target != name) return;
    matched = true;
    const auto stats = fn(seed, iters);
    if (!stats) {
      ok = false;
    } else if (expect != nullptr &&
               (stats->accepted != want_accepted || stats->rejected != want_rejected)) {
      std::fprintf(stderr, "FUZZ VERDICTS target=%s: expected %zu accepted, %zu rejected\n",
                   name, want_accepted, want_rejected);
      ok = false;
    }
  };
  run("cbd1", cbde::fuzz::fuzz_cbd1);
  run("compress", cbde::fuzz::fuzz_compress);
  run("access_log", cbde::fuzz::fuzz_access_log);
  run("http", cbde::fuzz::fuzz_http);
  run("config", cbde::fuzz::fuzz_config);
  if (!matched) {
    std::fprintf(stderr, "unknown fuzz target '%s'\n", target.c_str());
    return 2;
  }
  return ok ? 0 : 1;
}
