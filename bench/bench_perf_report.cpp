// Performance report harness (docs/PERFORMANCE.md).
//
// Unlike the experiment benches (which reproduce paper tables), this binary
// times the implementation's layers one at a time and writes a
// machine-readable BENCH_delta.json so perf changes are visible across
// commits:
//   * micro: one-shot vs cached-index delta encode, the footprint-table
//     build, encode and estimate cycling through 512 indexes (the served
//     case, where the index is seldom in cache), size-only estimate, the
//     grouping probe that joins and the one that does not, apply(), CBZ1
//     compress/decompress of the cross delta, crc32 —
//     throughput MB/s, ns/op, delta-size ratios;
//   * index sizes: the estimator's and the encoder's index bytes, and bytes
//     per base byte, over a page under 64 KiB (perfbench's many_classes
//     size), one over it and one over 512 KiB, so each index shows both its
//     entry widths;
//   * obs: what serve()'s instrumentation adds to one cached encode.
// The serve path end to end, through the worker pool, is measured by
// bench_capacity --workers.
//
// Flags:
//   --smoke              tiny corpus / few iterations (CI sanity run, < 1 s)
//   --out PATH           where to write the JSON (default: BENCH_delta.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "delta/rolling.hpp"
#include "obs/obs.hpp"
#include "trace/document.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace cbde {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

double mbps(std::size_t bytes, double ns) {
  return ns <= 0 ? 0.0 : static_cast<double>(bytes) / (ns / 1e9) / (1024.0 * 1024.0);
}

/// Time `fn` (which must consume/produce `bytes_per_op`) for `iters`
/// iterations after `warmup` untimed ones; returns ns per iteration.
template <typename Fn>
double time_op(int warmup, int iters, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return elapsed_ns(t0, Clock::now()) / iters;
}

trace::TemplateConfig sized_template(std::size_t page_bytes) {
  trace::TemplateConfig config;
  config.skeleton_bytes = page_bytes * 86 / 100;
  config.doc_unique_bytes = page_bytes * 6 / 100;
  config.volatile_bytes = page_bytes * 25 / 1000;
  config.personal_bytes = page_bytes / 100;
  return config;
}

using bench::JsonWriter;

/// Encoders and estimators the rotating rows cycle through (8 under
/// --smoke): as flat 256 KB footprint tables, 512 came to 128 MB, more than
/// a server CPU's last-level cache.
constexpr std::size_t kRotatingIndexes = 512;

}  // namespace
}  // namespace cbde

int main(int argc, char** argv) {
  using namespace cbde;

  bool smoke = false;
  std::string out_path = "BENCH_delta.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const trace::TemplateConfig doc_template = sized_template(smoke ? (8 << 10) : (55 << 10));
  const int iters = smoke ? 20 : 200;

  // Micro corpus: one template, three documents — the base, a later snapshot
  // of the same document (temporal delta) and another user's different
  // document (cross delta), mirroring the paper's two delta populations.
  const trace::DocumentTemplate tmpl(7, doc_template);
  const util::Bytes base = tmpl.generate(0, 1, 0);
  const util::Bytes temporal = tmpl.generate(0, 1, 120 * util::kSecond);
  const util::Bytes cross = tmpl.generate(3, 9, 120 * util::kSecond);
  const delta::Encoder cached(base);  // footprint table built once

  JsonWriter json;
  json.open("config");
  json.field("page_bytes", base.size());  // the base every micro row reads
  json.field("smoke", static_cast<std::size_t>(smoke ? 1 : 0));
  // Absolute timings scale with the host; this says which one ran them.
  json.field("hardware_concurrency",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.close();

  const auto bench_encode = [&](const char* key, const util::Bytes& target,
                                bool use_cached) {
    std::size_t delta_bytes = 0;
    const double ns = time_op(3, iters, [&] {
      delta_bytes = use_cached
                        ? cached.encode(util::as_view(target)).delta.size()
                        : delta::encode(util::as_view(base), util::as_view(target))
                              .delta.size();
    });
    json.open(key);
    json.field("ns_per_op", ns);
    json.field("mbps", mbps(target.size(), ns));
    json.field("delta_bytes", delta_bytes);
    json.field("delta_ratio",
               static_cast<double>(delta_bytes) / static_cast<double>(target.size()));
    json.close();
    std::printf("%-28s %12.0f ns   %8.2f MB/s   delta %zu B\n", key, ns,
                mbps(target.size(), ns), delta_bytes);
  };

  json.open("micro");
  bench_encode("encode_oneshot_temporal", temporal, false);
  bench_encode("encode_oneshot_cross", cross, false);
  bench_encode("encode_cached_temporal", temporal, true);
  bench_encode("encode_cached_cross", cross, true);

  {
    // The table every publication, anonymization and one-shot encode builds.
    std::size_t bytes = 0;
    const double ns = time_op(3, iters, [&] {
      bytes = delta::rolling::FootprintTable(util::as_view(base)).bytes();
    });
    json.open("footprint_build");
    json.field("ns_per_op", ns);
    json.field("mbps", mbps(base.size(), ns));
    json.close();
    std::printf("%-28s %12.0f ns   %8.2f MB/s   (table %zu B)\n", "footprint_build", ns,
                mbps(base.size(), ns), bytes);
  }
  {
    // The served case: a server keeps an encoder and several estimators per
    // class, and consecutive requests rarely reach the same class, so the
    // index a request reads is seldom in cache. The rows above reuse one.
    // These build kRotatingIndexes of each over distinct pages of one
    // template sized as perfbench's many_classes sizes its pages, and cycle
    // through them, each against one cross document.
    const std::size_t indexes = smoke ? 8 : kRotatingIndexes;
    const trace::DocumentTemplate small(11, sized_template(11 << 10));
    const util::Bytes target = small.generate(2 * indexes, 7, 120 * util::kSecond);
    std::vector<delta::Encoder> encoders;
    std::vector<delta::Estimator> estimators;
    encoders.reserve(indexes);
    estimators.reserve(indexes);
    for (std::size_t i = 0; i < indexes; ++i) {
      auto page = std::make_shared<const util::Bytes>(small.generate(i, i + 1, 0));
      estimators.emplace_back(page);
      encoders.emplace_back(std::move(page));
    }
    const int rounds = smoke ? 2 : 4;
    const auto bench_rotating = [&](const char* key, const auto& op) {
      std::size_t bytes = 0;  // summed over one round, so no call is dead
      const double ns = time_op(1, rounds, [&] {
                          bytes = 0;
                          for (std::size_t i = 0; i < indexes; ++i) bytes += op(i);
                        }) /
                        static_cast<double>(indexes);
      json.open(key);
      json.field("ns_per_op", ns);
      json.field("mbps", mbps(target.size(), ns));
      json.field("indexes", indexes);
      json.field("delta_bytes_per_round", bytes);
      json.close();
      std::printf("%-28s %12.0f ns   %8.2f MB/s   (%zu indexes)\n", key, ns,
                  mbps(target.size(), ns), indexes);
    };
    bench_rotating("encode_rotating_cross", [&](std::size_t i) {
      return encoders[i].encode(util::as_view(target)).delta.size();
    });
    bench_rotating("estimate_rotating_cross", [&](std::size_t i) {
      return estimators[i].estimate(util::as_view(target));
    });
  }
  {
    std::size_t size = 0;
    const double ns = time_op(3, iters, [&] {
      size = delta::estimate_delta_size(util::as_view(base), util::as_view(cross));
    });
    json.open("estimate_light");
    json.field("ns_per_op", ns);
    json.field("delta_bytes", size);
    json.close();
    std::printf("%-28s %12.0f ns   (size %zu B)\n", "estimate_light", ns, size);
  }
  {
    // Grouping probes (Estimator::within) against a prebuilt index, at the
    // default match threshold: the cross page against its own template's
    // base, which it joins, and against a base of another template, which
    // it does not. Each scan stops at its verdict; the full estimate() of
    // the same pair is timed beside it.
    const std::size_t limit = cross.size() / 2;
    const delta::Estimator same(base);
    const delta::Estimator other(
        trace::DocumentTemplate(8, doc_template).generate(0, 1, 0));
    for (const auto& [key, estimator] :
         {std::pair{"probe_accept", &same}, std::pair{"probe_reject", &other}}) {
      bool joins = false;
      const double ns = time_op(3, iters, [&] {
        joins = estimator->within(util::as_view(cross), limit);
      });
      std::size_t size = 0;
      const double full_ns = time_op(3, iters, [&] {
        size = estimator->estimate(util::as_view(cross));
      });
      json.open(key);
      json.field("ns_per_op", ns);
      json.field("mbps", mbps(cross.size(), ns));
      json.field("joins", static_cast<std::size_t>(joins ? 1 : 0));
      json.field("estimate_ns_per_op", full_ns);
      json.field("estimate_bytes", size);
      json.field("limit_bytes", limit);
      json.close();
      std::printf("%-28s %12.0f ns   %8.2f MB/s   (joins %d; estimate() %.0f ns, %zu of %zu B)\n",
                  key, ns, mbps(cross.size(), ns), joins ? 1 : 0, full_ns, size, limit);
    }
  }
  {
    const util::Bytes delta_bytes = cached.encode(util::as_view(cross)).delta;
    const double ns = time_op(3, iters * 4, [&] {
      (void)delta::apply(util::as_view(base), util::as_view(delta_bytes));
    });
    json.open("apply");
    json.field("ns_per_op", ns);
    json.field("mbps", mbps(cross.size(), ns));
    json.close();
    std::printf("%-28s %12.0f ns   %8.2f MB/s\n", "apply", ns, mbps(cross.size(), ns));

    // The same cross delta through the CBZ1 compressor, both ways.
    util::Bytes wire;
    const double compress_ns = time_op(3, iters, [&] {
      wire = compress::compress(util::as_view(delta_bytes));
    });
    json.open("compress_cross");
    json.field("ns_per_op", compress_ns);
    json.field("delta_bytes", delta_bytes.size());
    json.field("wire_bytes", wire.size());
    json.close();
    std::printf("%-28s %12.0f ns   delta %zu B -> wire %zu B\n", "compress_cross",
                compress_ns, delta_bytes.size(), wire.size());
    const double decompress_ns = time_op(3, iters, [&] {
      (void)compress::decompress(util::as_view(wire));
    });
    json.open("decompress_cross");
    json.field("ns_per_op", decompress_ns);
    json.field("wire_bytes", wire.size());
    json.close();
    std::printf("%-28s %12.0f ns\n", "decompress_cross", decompress_ns);
  }
  {
    std::uint32_t sink = 0;
    const double ns = time_op(3, iters * 20, [&] {
      sink ^= util::crc32(util::as_view(base));
    });
    json.open("crc32");
    json.field("ns_per_op", ns);
    json.field("mbps", mbps(base.size(), ns));
    json.close();
    std::printf("%-28s %12.0f ns   %8.2f MB/s   (sink %u)\n", "crc32", ns,
                mbps(base.size(), ns), sink);
  }
  json.close();  // micro

  // Index bytes per class base: entries are 16-bit under 64 KiB of base for
  // the encoder and under 512 KiB for the estimator, 32-bit above.
  json.open("index_sizes");
  for (const auto& [key, template_bytes] :
       {std::pair{"page_under_64k", std::size_t{11} << 10},
        std::pair{"page_over_64k", std::size_t{55} << 10},
        std::pair{"page_over_512k", std::size_t{600} << 10}}) {
    const util::Bytes page = trace::DocumentTemplate(13, sized_template(template_bytes))
                                 .generate(0, 1, 0);
    const auto per_byte = [&page](std::size_t bytes) {
      return static_cast<double>(bytes) / static_cast<double>(page.size());
    };
    const std::size_t estimator_bytes = delta::Estimator(page).index_bytes();
    const std::size_t encoder_bytes = delta::Encoder(page).index_bytes();
    json.open(key);
    json.field("base_bytes", page.size());
    json.field("estimator_index_bytes", estimator_bytes);
    json.field("estimator_index_per_base_byte", per_byte(estimator_bytes));
    json.field("encoder_index_bytes", encoder_bytes);
    json.field("encoder_index_per_base_byte", per_byte(encoder_bytes));
    json.close();
    std::printf("index %-22s %9zu B base   estimator %8zu B (%.3f/B)   encoder %8zu B (%.3f/B)\n",
                key, page.size(), estimator_bytes, per_byte(estimator_bytes), encoder_bytes,
                per_byte(encoder_bytes));
  }
  json.close();  // index_sizes

  // Observability overhead on the smoke encode loop: the same cached encode
  // bare and wrapped with everything serve() adds per request (two clock
  // reads, two histogram observes and a counter). Each pair times one bare
  // and one instrumented encode back to back, alternating which goes first,
  // and the overhead is the median of the per-pair ratios: a slow patch of
  // host time or an interrupt lands in a few pairs rather than on one side.
  // Over 10 RelWithDebInfo --smoke runs each on a 4-core KVM guest, 25
  // rounds of two 20-encode loops read -4.31 to 1.78%, and 1,000 pairs of
  // single encodes read -0.01 to 0.33%.
  {
    obs::MetricsRegistry reg;
    obs::Counter& reqs = reg.counter("cbde_bench_requests_total", "Benchmark ops");
    obs::Histogram& lat = reg.histogram("cbde_bench_encode_latency_microseconds",
                                        "Benchmark encode latency");
    obs::Histogram& sz = reg.histogram("cbde_bench_delta_size_bytes", "Benchmark delta size");
    std::size_t sink = 0;
    const auto bare = [&] { sink = cached.encode(util::as_view(cross)).delta.size(); };
    const auto instrumented = [&] {
      const std::uint64_t t0 = obs::now_us();
      sink = cached.encode(util::as_view(cross)).delta.size();
      lat.observe(obs::now_us() - t0);
      sz.observe(sink);
      reqs.inc();
    };
    constexpr int kPairs = 1000;
    util::Samples bare_ns, instr_ns, ratio;
    for (int pair = 0; pair < kPairs; ++pair) {
      double b = 0, in = 0;
      if (pair % 2 == 0) {
        b = time_op(0, 1, bare);
        in = time_op(0, 1, instrumented);
      } else {
        in = time_op(0, 1, instrumented);
        b = time_op(0, 1, bare);
      }
      bare_ns.add(b);
      instr_ns.add(in);
      ratio.add(b <= 0 ? 1.0 : in / b);
    }
    const double overhead_pct = (ratio.median() - 1.0) * 100.0;
    json.open("obs");
    json.field("encode_bare_ns", bare_ns.median());
    json.field("encode_instrumented_ns", instr_ns.median());
    json.field("overhead_pct", overhead_pct);
    json.close();
    std::printf("%-28s %12.2f%%  (bare %.0f ns, instrumented %.0f ns, sink %zu)\n",
                "obs_overhead", overhead_pct, bare_ns.median(), instr_ns.median(), sink);
  }

  if (!bench::write_file(out_path, json.finish())) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
