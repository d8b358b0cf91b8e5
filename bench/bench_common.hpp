// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper and prints
// it side by side with the published numbers. Formatting is fixed-width
// plain text so `for b in build/bench/*; do $b; done` produces a readable
// report.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/time_series.hpp"

namespace cbde::bench {

inline void print_rule(std::size_t width = 78) {
  std::string line(width, '-');
  std::printf("%s\n", line.c_str());
}

inline void print_title(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

inline double to_kb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

/// Minimal nested-object JSON emitter for the BENCH_*.json artifacts
/// (machine-readable perf numbers tracked across commits).
struct JsonWriter {
  std::string out = "{\n";
  int depth = 1;
  bool first_in_scope = true;

  void indent() { out.append(static_cast<std::size_t>(depth) * 2, ' '); }
  void comma() {
    if (!first_in_scope) out += ",\n";
    first_in_scope = false;
  }
  void open(const std::string& key) {
    comma();
    indent();
    out += "\"" + key + "\": {\n";
    ++depth;
    first_in_scope = true;
  }
  void close() {
    out += "\n";
    --depth;
    indent();
    out += "}";
    first_in_scope = false;
  }
  void field(const std::string& key, double value) {
    comma();
    indent();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    out += "\"" + key + "\": " + buf;
  }
  void field(const std::string& key, std::size_t value) {
    comma();
    indent();
    out += "\"" + key + "\": " + std::to_string(value);
  }
  /// Pre-serialized JSON value (an array or object built elsewhere, e.g. the
  /// time-series window summaries). The caller guarantees `json_value` is
  /// valid JSON; it is spliced in verbatim.
  void field_raw(const std::string& key, const std::string& json_value) {
    comma();
    indent();
    out += "\"" + key + "\": " + json_value;
  }
  std::string finish() {
    out += "\n}\n";
    return out;
  }
};

/// Compact JSON array of per-window summaries for the BENCH_*.json
/// `time_series` sections (tools/obs/perf_gate.py reads these). The full
/// windows — every counter delta and histogram — go to the JSONL sink; this
/// is the derived-statistics view the regression gate bands.
inline std::string time_series_summary_json(
    const std::vector<obs::TimeSeriesWindow>& windows) {
  std::string out = "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const obs::TimeSeriesWindow& w = windows[i];
    if (i > 0) out += ",";
    out += "{\"tick\":" + std::to_string(w.tick);
    out += ",\"span_seconds\":" + obs::format_double(w.span_seconds);
    out += ",\"serve_requests\":" + std::to_string(w.serve_requests);
    out += ",\"serve_p50_us\":" + obs::format_double(w.serve_p50_us);
    out += ",\"serve_p95_us\":" + obs::format_double(w.serve_p95_us);
    out += ",\"serve_p99_us\":" + obs::format_double(w.serve_p99_us);
    out += ",\"lock_wait_share\":" + obs::format_double(w.lock_wait_share);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace cbde::bench
