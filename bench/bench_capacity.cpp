// §VI-C deployment — server capacity and concurrency with the delta-server
// integrated next to the web-server.
//
// Paper measurements (PIII-866, Apache 1.3.17):
//   * plain web-server:        175-180 req/s, max 255 concurrent connections;
//   * delta- + web-server:     ~130 req/s (delta generation is CPU-heavy),
//                              but sustains 500+ concurrent connections
//                              thanks to the front-end offloading effect;
//   * delta generation:        6-8 ms for a 50-60 KB base-file,
//                              ~8 KB raw / ~3 KB compressed deltas.
// The closed-loop capacity harness runs with the paper's CPU magnitudes to
// reproduce the throughput and concurrency rows; its output is
// deterministic. This host's delta-generation cost is bench_perf_report's
// `micro` section (EXPERIMENTS.md §VI-C quotes it).
//
// --workers replay mode (the DeltaWorkerPool scaling curve): replay one
// identical pre-generated request stream through a real DeltaServer behind
// a worker pool of each size, kReplays times per size, assert the Table II
// byte totals are bit-exact on every replay, and write the median req/s of
// each size to BENCH_capacity.json.
//
// Flags:
//   --workers LIST       comma-separated worker counts (e.g. 1,2,4) — enables
//                        replay mode; without this flag the closed-loop
//                        harness above runs unchanged
//   --out PATH           where to write the JSON (default: BENCH_capacity.json)
//   --metrics-out PATH   dump the metrics registry of the last worker count's
//                        median replay in Prometheus text exposition format
//   --smoke              tiny corpus (CI sanity run)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/delta_server.hpp"
#include "core/delta_worker_pool.hpp"
#include "obs/span_profile.hpp"
#include "obs/time_series.hpp"
#include "server/load.hpp"
#include "trace/site.hpp"

namespace {

using namespace cbde;

void capacity_row(const char* label, const server::LoadConfig& config,
                  const char* paper_note) {
  const auto result = server::run_closed_loop(config);
  std::printf("  %-28s %8.0f req/s %10zu peak conns %9llu refused   %s\n", label,
              result.requests_per_sec, result.peak_connections,
              static_cast<unsigned long long>(result.refused), paper_note);
}

// ---------------------------------------------------------------------------
// --workers replay mode: the SVI-C capacity question asked of our own server.
// ---------------------------------------------------------------------------

/// Replays per worker count. A single replay of a few hundred requests
/// lasts under a second, and on a shared host one replay's req/s can be a
/// third off the next one's, so each size is replayed this many times and
/// the median replay is reported.
constexpr std::size_t kReplays = 5;

/// Requests per replay, and under --smoke.
constexpr std::size_t kRequests = 512;
constexpr std::size_t kSmokeRequests = 96;

struct ReplayResult {
  std::size_t workers = 0;
  double total_ns = 0;
  double requests_per_sec = 0;
  core::PipelineMetrics metrics;
  std::size_t storage_bytes = 0;
  std::size_t index_bytes = 0;  ///< match indexes over those bases
  std::size_t num_classes = 0;
  /// One time-series window per replay chunk (serve quantiles, lock-wait
  /// share) — the telemetry the CI perf-regression gate bands.
  std::vector<obs::TimeSeriesWindow> windows;
  /// Flame profile folded from the sampled request traces of this run:
  /// where serve time goes at this worker count.
  obs::SpanProfile profile;
  /// The server registry's Prometheus text once the pool has drained.
  std::string prometheus;
};

/// Replay `requests` identical requests against a fresh DeltaServer behind
/// a pool of `workers` workers. The request stream is regenerated
/// deterministically per call (same seeds, same order), so every worker
/// count sees the same bytes; document generation happens before the clock
/// starts.
ReplayResult run_replay(const trace::SiteModel& site, std::size_t workers,
                        std::size_t requests) {
  core::DeltaServerConfig config;
  config.anonymize = false;  // steady state: every request is grouped+encoded
  config.selector.sample_prob = 0.05;
  config.rebase_timeout = 1000000 * util::kSecond;
  config.basic_rebase_after = 1 << 20;
  // Telemetry for the scaling curve: trace every 16th request into the
  // flame profile and time mutex acquisition, so the windows below carry a
  // real lock_wait_share. Identical settings at every worker count keep the
  // req/s numbers comparable across the curve (the byte ledger is
  // obs-independent, so parity is unaffected either way).
  config.obs.sample_rate = 1.0 / 16.0;
  config.obs.lock_profile = true;

  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  core::DeltaServer server(config, std::move(rules));

  // Warmup: create one class per category and publish its base.
  const std::size_t cats = site.num_categories();
  for (std::size_t c = 0; c < cats; ++c) {
    const trace::DocRef ref{c, 0};
    const util::Bytes doc = site.generate(ref, 1, 0);
    server.serve(1, site.url_for(ref), util::as_view(doc), 0);
  }

  struct Req {
    std::uint64_t user;
    http::Url url;
    util::Bytes doc;
    util::SimTime now;
  };
  std::vector<Req> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const trace::DocRef ref{i % cats, 1 + i % (site.config().docs_per_category - 1)};
    const std::uint64_t user = 2 + i % 17;
    const util::SimTime now = static_cast<util::SimTime>(i) * util::kSecond;
    stream.push_back(Req{user, site.url_for(ref), site.generate(ref, user, now), now});
  }

  // Replay in kWindows chunks: submit a chunk, drain it, close a
  // time-series window. Window boundaries are request-count based, not
  // wall-clock based, so every window holds real serve counts — the >= 8
  // populated windows the telemetry gate asserts hold even on a fast smoke
  // run.
  //
  // Request i belongs to category i % cats, so it is submitted only after
  // request i - cats has completed: one future slot per category. Requests
  // of one class then reach the server lock in stream order at every worker
  // count, and the class's selector samples the same documents; requests of
  // different classes still run in parallel.
  constexpr std::size_t kWindows = 10;
  ReplayResult result;
  result.workers = workers;
  result.windows.reserve(kWindows);
  std::vector<std::future<core::ServedResponse>> in_flight(cats);
  const auto complete = [&result](std::future<core::ServedResponse>& slot) {
    if (!slot.valid()) return;
    const core::ServedResponse resp = slot.get();
    if (resp.trace != nullptr) result.profile.add(*resp.trace);
  };
  const auto t0 = std::chrono::steady_clock::now();
  {
    core::DeltaWorkerPool pool(server, workers);
    obs::TimeSeriesRecorder recorder(server.obs().registry());
    std::size_t next = 0;
    for (std::size_t w = 1; w <= kWindows; ++w) {
      const std::size_t chunk_end = requests * w / kWindows;
      for (; next < chunk_end; ++next) {
        Req& req = stream[next];
        std::future<core::ServedResponse>& slot = in_flight[next % cats];
        complete(slot);
        slot = pool.submit(req.user, std::move(req.url), std::move(req.doc), req.now);
      }
      for (auto& slot : in_flight) complete(slot);
      result.windows.push_back(recorder.tick());
    }
    pool.shutdown();
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.total_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  result.requests_per_sec = static_cast<double>(requests) / (result.total_ns / 1e9);
  result.metrics = server.metrics();
  result.storage_bytes = server.storage_bytes();
  result.index_bytes = server.index_bytes();
  result.num_classes = server.num_classes();
  result.prometheus = server.obs().registry().prometheus();
  return result;
}

/// Bit-exact Table II parity against the reference run; any divergence is a
/// determinism bug in the concurrent serve path, so the bench itself fails.
bool check_byte_parity(const ReplayResult& reference, const ReplayResult& run) {
  const auto& a = reference.metrics;
  const auto& b = run.metrics;
  bool ok = true;
  const auto expect_eq = [&](const char* name, std::uint64_t lhs, std::uint64_t rhs) {
    if (lhs != rhs) {
      std::fprintf(stderr,
                   "byte-parity violation: %s differs (workers=%zu: %llu, workers=%zu: "
                   "%llu)\n",
                   name, reference.workers, static_cast<unsigned long long>(lhs),
                   run.workers, static_cast<unsigned long long>(rhs));
      ok = false;
    }
  };
  expect_eq("requests", a.requests, b.requests);
  expect_eq("direct_responses", a.direct_responses, b.direct_responses);
  expect_eq("delta_responses", a.delta_responses, b.delta_responses);
  expect_eq("direct_bytes", a.direct_bytes, b.direct_bytes);
  expect_eq("wire_bytes", a.wire_bytes, b.wire_bytes);
  expect_eq("base_wire_bytes", a.base_wire_bytes, b.base_wire_bytes);
  expect_eq("group_rebases", a.group_rebases, b.group_rebases);
  expect_eq("basic_rebases", a.basic_rebases, b.basic_rebases);
  expect_eq("storage_bytes", reference.storage_bytes, run.storage_bytes);
  expect_eq("index_bytes", reference.index_bytes, run.index_bytes);
  expect_eq("num_classes", reference.num_classes, run.num_classes);
  return ok;
}

int run_workers_mode(const std::vector<std::size_t>& worker_counts, bool smoke,
                     const std::string& out_path, const std::string& metrics_out) {
  using cbde::bench::print_title;
  using cbde::bench::print_rule;

  print_title(
      "SVI-C capacity -- DeltaWorkerPool scaling curve\n"
      "(identical replay per worker count; Table II bytes must be bit-exact)");

  trace::SiteConfig sconfig;
  sconfig.categories = {"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"};
  sconfig.docs_per_category = 16;
  sconfig.doc_template.skeleton_bytes = smoke ? 7000 : 48000;
  sconfig.doc_template.doc_unique_bytes = smoke ? 600 : 4000;
  const trace::SiteModel site(sconfig);

  const std::size_t requests = smoke ? kSmokeRequests : kRequests;
  const std::size_t cores = std::thread::hardware_concurrency();
  std::printf("requests/run: %zu   hardware_concurrency: %zu\n", requests, cores);
  if (cores <= 1) {
    std::printf("NOTICE: 1-core host -- this curve measures pool OVERHEAD, "
                "not parallel speedup (byte parity is still asserted)\n");
  }

  bench::JsonWriter json;
  json.open("config");
  json.field("requests", requests);
  json.field("smoke", static_cast<std::size_t>(smoke ? 1 : 0));
  json.field("hardware_concurrency", cores);
  json.field("replays", kReplays);
  json.close();

  // The median replay of each worker count, and the slowest and fastest
  // replay's req/s beside it. Every replay is checked against the first one.
  std::vector<ReplayResult> runs;
  std::vector<std::pair<double, double>> spread;
  bool parity = true;
  for (const std::size_t workers : worker_counts) {
    std::vector<ReplayResult> replays;
    replays.reserve(kReplays);
    for (std::size_t k = 0; k < kReplays; ++k) {
      replays.push_back(run_replay(site, workers, requests));
      const ReplayResult& reference = runs.empty() ? replays.front() : runs.front();
      parity = check_byte_parity(reference, replays.back()) && parity;
    }
    std::sort(replays.begin(), replays.end(),
              [](const ReplayResult& a, const ReplayResult& b) {
                return a.requests_per_sec < b.requests_per_sec;
              });
    spread.emplace_back(replays.front().requests_per_sec, replays.back().requests_per_sec);
    runs.push_back(std::move(replays[kReplays / 2]));
    const ReplayResult& r = runs.back();
    std::printf("  workers=%-2zu  %10.0f req/s (%.0f-%.0f over %zu replays)   wire %llu B"
                "   deltas %llu/%llu\n",
                r.workers, r.requests_per_sec, spread.back().first, spread.back().second,
                kReplays, static_cast<unsigned long long>(r.metrics.wire_bytes),
                static_cast<unsigned long long>(r.metrics.delta_responses),
                static_cast<unsigned long long>(r.metrics.requests));
  }

  const ReplayResult* baseline = nullptr;
  for (const ReplayResult& r : runs)
    if (r.workers == 1) baseline = &r;

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ReplayResult& r = runs[i];
    json.open("workers_" + std::to_string(r.workers));
    json.field("workers", r.workers);
    json.field("requests_per_sec", r.requests_per_sec);
    json.field("requests_per_sec_min", spread[i].first);
    json.field("requests_per_sec_max", spread[i].second);
    json.field("ns_per_request", r.total_ns / static_cast<double>(requests));
    json.field("wire_bytes", static_cast<std::size_t>(r.metrics.wire_bytes));
    json.field("base_wire_bytes", static_cast<std::size_t>(r.metrics.base_wire_bytes));
    json.field("direct_bytes", static_cast<std::size_t>(r.metrics.direct_bytes));
    json.field("delta_responses", static_cast<std::size_t>(r.metrics.delta_responses));
    json.field("direct_responses", static_cast<std::size_t>(r.metrics.direct_responses));
    json.field("storage_bytes", r.storage_bytes);
    json.field("index_bytes", r.index_bytes);
    json.field("num_classes", r.num_classes);
    if (baseline != nullptr && baseline != &r && baseline->requests_per_sec > 0) {
      json.field("speedup_vs_workers_1", r.requests_per_sec / baseline->requests_per_sec);
    }
    json.field_raw("time_series", bench::time_series_summary_json(r.windows));
    json.close();
  }
  json.field("byte_parity", static_cast<std::size_t>(parity ? 1 : 0));

  if (!bench::write_file(out_path, json.finish())) return 1;
  std::printf("wrote %s\n", out_path.c_str());

  // Telemetry sidecars next to the JSON: the full per-window records as
  // JSONL (one line per window, every run concatenated) and one speedscope
  // document holding a flame profile per worker count.
  std::string stem = out_path;
  if (stem.size() > 5 && stem.compare(stem.size() - 5, 5, ".json") == 0) {
    stem.resize(stem.size() - 5);
  }
  const std::string ts_path = stem + "_timeseries.jsonl";
  const std::string profile_path = stem + "_profile.json";
  std::string windows;
  for (const ReplayResult& r : runs) {
    for (const obs::TimeSeriesWindow& w : r.windows) {
      windows += obs::TimeSeriesRecorder::to_jsonl(w);
    }
  }
  std::vector<std::pair<std::string, const obs::SpanProfile*>> profiles;
  profiles.reserve(runs.size());
  for (const ReplayResult& r : runs) {
    profiles.emplace_back("workers_" + std::to_string(r.workers), &r.profile);
  }
  if (!bench::write_file(ts_path, windows) ||
      !bench::write_file(profile_path, obs::SpanProfile::speedscope_document(profiles) + "\n")) {
    return 1;
  }
  std::printf("wrote %s and %s\n", ts_path.c_str(), profile_path.c_str());
  if (!metrics_out.empty()) {
    if (!bench::write_file(metrics_out, runs.back().prometheus)) return 1;
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  // Where serve time goes per worker count (self time folded from the
  // sampled traces; open https://speedscope.app on the profile for the
  // interactive view).
  for (const ReplayResult& r : runs) {
    std::printf("  serve-time profile, workers=%zu (%zu sampled traces, %llu us):\n",
                r.workers, r.profile.traces(),
                static_cast<unsigned long long>(r.profile.total_us()));
    const std::string collapsed = r.profile.collapsed();
    std::size_t begin = 0;
    while (begin < collapsed.size()) {
      std::size_t end = collapsed.find('\n', begin);
      if (end == std::string::npos) end = collapsed.size();
      std::printf("    %s\n", collapsed.substr(begin, end - begin).c_str());
      begin = end + 1;
    }
  }

  print_rule();
  if (!parity) {
    std::fprintf(stderr, "FAIL: Table II byte accounting diverged across worker "
                         "counts (see violations above)\n");
    return 1;
  }
  std::printf("byte parity: OK -- Table II accounting is bit-exact across "
              "worker counts {");
  for (std::size_t i = 0; i < worker_counts.size(); ++i)
    std::printf("%s%zu", i ? "," : "", worker_counts[i]);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using cbde::bench::print_title;
  using cbde::bench::print_rule;
  // A --workers entry starts that many threads; refuse absurd counts.
  constexpr unsigned long kMaxWorkers = 64;

  bool smoke = false;
  bool workers_mode = false;
  std::vector<std::size_t> worker_counts;
  std::string out_path = "BENCH_capacity.json";
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers_mode = true;
      const std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string item =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        char* end = nullptr;
        const unsigned long parsed = std::strtoul(item.c_str(), &end, 10);
        if (end == item.c_str() || *end != '\0' || parsed == 0 || parsed > kMaxWorkers) {
          std::fprintf(stderr, "bad --workers entry: '%s'\n", item.c_str());
          return 2;
        }
        worker_counts.push_back(parsed);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--workers LIST] [--out PATH] [--metrics-out PATH] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  if (workers_mode) {
    if (worker_counts.empty()) worker_counts = {1, 2, 4};
    return run_workers_mode(worker_counts, smoke, out_path, metrics_out);
  }
  if (!metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-out needs --workers: only a replay has a registry\n");
    return 2;
  }

  print_title(
      "SVI-C capacity -- plain web-server vs delta-server + web-server\n"
      "(paper: 175-180 req/s @255 conns vs ~130 req/s @500+ conns)");

  // CPU costs on the paper's reference host: a plain dynamic request costs
  // ~5.6 ms (=> 178 req/s); the delta pipeline adds ~2 ms of amortized delta
  // generation (=> ~130 req/s).
  constexpr double kPlainCpuUs = 5600;
  constexpr double kDeltaCpuUs = 7700;

  std::printf("\nfast (LAN) clients -- throughput is CPU-bound:\n");
  {
    server::LoadConfig plain;
    plain.mode = server::PipelineMode::kPlain;
    plain.num_clients = 100;
    plain.cpu_us_per_request = kPlainCpuUs;
    plain.response_bytes = 30 * 1024;
    plain.client_link = netsim::LinkProfile::broadband();
    capacity_row("plain web-server", plain, "(paper: 175-180 req/s)");

    server::LoadConfig delta = plain;
    delta.mode = server::PipelineMode::kDelta;
    delta.cpu_us_per_request = kDeltaCpuUs;
    delta.response_bytes = 3 * 1024;  // compressed delta
    capacity_row("delta + web-server", delta, "(paper: ~130 req/s)");
  }

  std::printf("\nslow (modem) clients, 600 concurrent -- connection slots bind:\n");
  {
    server::LoadConfig plain;
    plain.mode = server::PipelineMode::kPlain;
    plain.num_clients = 600;
    plain.cpu_us_per_request = kPlainCpuUs;
    plain.response_bytes = 30 * 1024;
    plain.client_link = netsim::LinkProfile::modem();
    capacity_row("plain web-server", plain, "(paper: capped at 255 conns)");

    server::LoadConfig delta = plain;
    delta.mode = server::PipelineMode::kDelta;
    delta.cpu_us_per_request = kDeltaCpuUs;
    delta.response_bytes = 3 * 1024;
    capacity_row("delta + web-server", delta, "(paper: sustains 500+ conns)");
  }

  print_rule();
  std::printf(
      "Shape check: with fast clients the delta system trades ~27%% throughput for\n"
      "CPU (178 -> 130 req/s); with slow clients the plain server saturates its 255\n"
      "slots and refuses connections while the delta front-end holds 500+ and\n"
      "delivers higher goodput (small responses drain modem links 10x faster).\n");
  return 0;
}
