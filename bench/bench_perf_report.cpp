// Performance report harness (docs/PERFORMANCE.md).
//
// Unlike the experiment benches (which reproduce paper tables), this binary
// measures the implementation itself and writes a machine-readable
// BENCH_delta.json so perf changes are visible across commits:
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
//   * end-to-end: DeltaServer::serve() driven through a DeltaWorkerPool
//     with 1 and 4 workers — ns/request and the multi-thread speedup.
//
// Flags:
//   --smoke              tiny corpus / few iterations (CI sanity run, < 1 s)
//   --out PATH           where to write the JSON (default: BENCH_delta.json)
//   --metrics-out PATH   dump the end-to-end run's metrics registry in
//                        Prometheus text exposition format
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_common.hpp"
#include "compress/compressor.hpp"
#include "core/delta_server.hpp"
#include "core/delta_worker_pool.hpp"
#include "delta/delta.hpp"
#include "delta/rolling.hpp"
#include "obs/obs.hpp"
#include "obs/time_series.hpp"
#include "trace/site.hpp"
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

struct EndToEndResult {
  double ns_per_request = 0;
  double doc_mbps = 0;
  double delta_ratio = 0;  ///< wire bytes / document bytes over the run
  /// operator-new calls per request over the timed region (serve proper plus
  /// the pool's submit/future machinery).
  double allocs_per_request = 0;
  /// The run's time-series window (one tick covering the whole run) and the
  /// server registry's exports once the pool has drained.
  obs::TimeSeriesWindow window;
  std::string prometheus;
};

/// Drive a fresh DeltaServer through a DeltaWorkerPool: one warmup pass
/// creates the classes and publishes bases, then `requests` timed requests
/// fan out over `workers` threads.
EndToEndResult run_end_to_end(const trace::SiteModel& site, std::size_t workers,
                              std::size_t requests, const obs::ObsConfig& obs_config) {
  core::DeltaServerConfig config;
  config.anonymize = false;  // steady state: every request is grouped+encoded
  config.selector.sample_prob = 0.05;
  config.rebase_timeout = 1000000 * util::kSecond;
  config.basic_rebase_after = 1 << 20;
  config.obs = obs_config;

  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  core::DeltaServer server(config, std::move(rules));
  obs::TimeSeriesRecorder recorder(server.obs().registry());

  // Warmup: create one class per category and publish its base.
  const std::size_t cats = site.num_categories();
  for (std::size_t c = 0; c < cats; ++c) {
    const trace::DocRef ref{c, 0};
    const util::Bytes doc = site.generate(ref, 1, 0);
    server.serve(1, site.url_for(ref), util::as_view(doc), 0);
  }

  // Pre-generate the request stream so document generation is not timed.
  struct Req {
    std::uint64_t user;
    http::Url url;
    util::Bytes doc;
    util::SimTime now;
  };
  std::vector<Req> stream;
  stream.reserve(requests);
  std::size_t doc_bytes = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const trace::DocRef ref{i % cats, 1 + i % (site.config().docs_per_category - 1)};
    const std::uint64_t user = 2 + i % 17;
    const util::SimTime now = static_cast<util::SimTime>(i) * util::kSecond;
    Req req{user, site.url_for(ref), site.generate(ref, user, now), now};
    doc_bytes += req.doc.size();
    stream.push_back(std::move(req));
  }

  std::vector<std::future<core::ServedResponse>> futures;
  futures.reserve(requests);
  const std::uint64_t allocs_before = bench::alloc_count();
  const auto t0 = Clock::now();
  {
    core::DeltaWorkerPool pool(server, workers);
    for (Req& req : stream) {
      futures.push_back(
          pool.submit(req.user, std::move(req.url), std::move(req.doc), req.now));
    }
    pool.shutdown();
  }
  std::size_t wire_bytes = 0;
  for (auto& f : futures) wire_bytes += f.get().wire_body.size();
  const double total_ns = elapsed_ns(t0, Clock::now());
  const std::uint64_t allocs_after = bench::alloc_count();

  EndToEndResult result;
  result.ns_per_request = total_ns / static_cast<double>(requests);
  result.doc_mbps = mbps(doc_bytes, total_ns);
  result.delta_ratio = static_cast<double>(wire_bytes) / static_cast<double>(doc_bytes);
  result.allocs_per_request =
      static_cast<double>(allocs_after - allocs_before) / static_cast<double>(requests);
  result.window = recorder.tick();
  result.prometheus = server.obs().registry().prometheus();
  return result;
}

}  // namespace
}  // namespace cbde

int main(int argc, char** argv) {
  using namespace cbde;

  bool smoke = false;
  std::string out_path = "BENCH_delta.json";
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH] [--metrics-out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::size_t page = smoke ? (8 << 10) : (55 << 10);
  const int iters = smoke ? 20 : 200;
  const std::size_t e2e_requests = smoke ? 32 : 256;

  // Micro corpus: one template, three documents — the base, a later snapshot
  // of the same document (temporal delta) and another user's different
  // document (cross delta), mirroring the paper's two delta populations.
  const trace::DocumentTemplate tmpl(7, sized_template(page));
  const util::Bytes base = tmpl.generate(0, 1, 0);
  const util::Bytes temporal = tmpl.generate(0, 1, 120 * util::kSecond);
  const util::Bytes cross = tmpl.generate(3, 9, 120 * util::kSecond);
  const delta::Encoder cached(base);  // footprint table built once

  JsonWriter json;
  json.open("config");
  json.field("page_bytes", page);
  json.field("smoke", static_cast<std::size_t>(smoke ? 1 : 0));
  json.field("end_to_end_requests", e2e_requests);
  // Thread scaling is bounded by the cores actually available; on a 1-core
  // host speedup_4v1 ~ 1.0 measures pool overhead, not parallelism.
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
        trace::DocumentTemplate(8, sized_template(page)).generate(0, 1, 0));
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

  // Matcher sweep (docs/PERFORMANCE.md codec table): the same base/cross
  // pair through the transmit encoder and through the light estimator the
  // grouping search probes.
  json.open("codecs");
  {
    const delta::Encoder enc(base);
    util::Bytes wire;
    const double encode_ns = time_op(3, iters, [&] {
      wire = enc.encode(util::as_view(cross)).delta;
    });
    const double apply_ns = time_op(3, iters * 4, [&] {
      (void)delta::apply(util::as_view(base), util::as_view(wire));
    });

    json.open("encoder");
    json.field("encode_ns_per_op", encode_ns);
    json.field("encode_mbps", mbps(cross.size(), encode_ns));
    json.field("delta_bytes", wire.size());
    json.field("delta_ratio",
               static_cast<double>(wire.size()) / static_cast<double>(cross.size()));
    json.field("apply_ns_per_op", apply_ns);
    json.close();
    std::printf("codec %-22s %12.0f ns   %8.2f MB/s   delta %zu B\n", "encoder",
                encode_ns, mbps(cross.size(), encode_ns), wire.size());
  }
  {
    const delta::Estimator est(base);
    std::size_t size = 0;
    const double estimate_ns = time_op(3, iters, [&] {
      size = est.estimate(util::as_view(cross));
    });
    json.open("estimator");
    json.field("estimate_ns_per_op", estimate_ns);
    json.field("estimate_mbps", mbps(cross.size(), estimate_ns));
    json.field("delta_bytes", size);
    json.field("delta_ratio",
               static_cast<double>(size) / static_cast<double>(cross.size()));
    json.close();
    std::printf("codec %-22s %12.0f ns   %8.2f MB/s   estimate %zu B\n", "estimator",
                estimate_ns, mbps(cross.size(), estimate_ns), size);
  }
  json.close();  // codecs

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

  // End-to-end: full serve() path (grouping + encode + compress) through
  // the worker pool.
  trace::SiteConfig sconfig;
  sconfig.categories = {"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"};
  sconfig.docs_per_category = 16;
  sconfig.doc_template = sized_template(page);
  const trace::SiteModel site(sconfig);

  obs::ObsConfig e2e_obs_config;
  e2e_obs_config.sample_rate = 0.01;
  e2e_obs_config.lock_profile = true;  // lock_wait_share in the windows below

  // One time-series window per worker-count run: the `time_series` section
  // perf_gate.py bands in BENCH_delta.json. Each run's server owns its
  // registry; the --metrics-* dumps export the 4-worker run's.
  std::vector<obs::TimeSeriesWindow> e2e_windows;
  EndToEndResult dumped;

  json.open("end_to_end");
  double ns_1 = 0;
  double allocs_1 = 0, allocs_4 = 0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    EndToEndResult r = run_end_to_end(site, workers, e2e_requests, e2e_obs_config);
    r.window.tick = e2e_windows.size() + 1;
    e2e_windows.push_back(r.window);
    const std::string key = "workers_" + std::to_string(workers);
    json.open(key);
    json.field("ns_per_request", r.ns_per_request);
    json.field("doc_mbps", r.doc_mbps);
    json.field("wire_ratio", r.delta_ratio);
    json.field("allocs_per_request", r.allocs_per_request);
    json.close();
    std::printf("%-28s %12.0f ns/req %8.2f MB/s   wire ratio %.3f   %.1f allocs/req\n",
                key.c_str(), r.ns_per_request, r.doc_mbps, r.delta_ratio,
                r.allocs_per_request);
    if (workers == 1) {
      ns_1 = r.ns_per_request;
      allocs_1 = r.allocs_per_request;
    }
    if (workers == 4) {
      allocs_4 = r.allocs_per_request;
      if (ns_1 > 0) {
        json.field("speedup_4v1", ns_1 / r.ns_per_request);
        std::printf("%-28s %12.2fx\n", "speedup_4v1", ns_1 / r.ns_per_request);
      }
      dumped = std::move(r);
    }
  }
  json.close();  // end_to_end
  json.field_raw("time_series", bench::time_series_summary_json(e2e_windows));

  // Measured allocations per request through the worker pool;
  // tools/obs/perf_gate.py bands them with allocs_per_request_max in
  // tools/obs/perf_baseline.json.
  json.open("allocs");
  json.field("hook_active",
             static_cast<std::size_t>(bench::alloc_hook_active() ? 1 : 0));
  json.field("per_request_workers_1", allocs_1);
  json.field("per_request_workers_4", allocs_4);
  json.close();

  if (!metrics_out.empty()) {
    if (!bench::write_file(metrics_out, dumped.prometheus)) return 1;
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  if (!bench::write_file(out_path, json.finish())) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
