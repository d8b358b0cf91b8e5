#include "core/config_loader.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <regex>

#include "util/strings.hpp"

namespace cbde::core {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ConfigError("config line " + std::to_string(line) + ": " + what);
}

double parse_double(std::string_view value, std::size_t line) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(std::string(value), &consumed);
    if (consumed != value.size()) fail(line, "trailing junk in number '" + std::string(value) + "'");
    // stod reads "nan" and "inf"; every comparison against a NaN is false,
    // so a range check downstream would pass it.
    if (!std::isfinite(v)) fail(line, "number must be finite, got '" + std::string(value) + "'");
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "bad number '" + std::string(value) + "'");
  }
}

std::uint64_t parse_u64(std::string_view value, std::size_t line) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc{} || p != value.data() + value.size()) {
    fail(line, "bad integer '" + std::string(value) + "'");
  }
  return v;
}

/// parse_u64 for a field narrower than 64 unsigned bits: a value above `max`
/// fails instead of wrapping when it is stored.
std::uint64_t parse_u64_at_most(std::string_view value, std::size_t line,
                                std::uint64_t max, const std::string& key) {
  const std::uint64_t v = parse_u64(value, line);
  if (v > max) fail(line, key + " must be <= " + std::to_string(max));
  return v;
}

/// parse_u64 for a count the server needs at least one of.
std::uint64_t parse_positive(std::string_view value, std::size_t line, const std::string& key) {
  const std::uint64_t v = parse_u64(value, line);
  if (v == 0) fail(line, key + " must be >= 1");
  return v;
}

/// parse_double for a probability or share: outside [0, 1] fails.
double parse_fraction(std::string_view value, std::size_t line, const std::string& key) {
  const double v = parse_double(value, line);
  if (v < 0.0 || v > 1.0) fail(line, key + " must be in [0, 1]");
  return v;
}

bool parse_bool(std::string_view value, std::size_t line) {
  if (util::iequals(value, "true") || value == "1" || util::iequals(value, "yes")) {
    return true;
  }
  if (util::iequals(value, "false") || value == "0" || util::iequals(value, "no")) {
    return false;
  }
  fail(line, "bad boolean '" + std::string(value) + "'");
}

}  // namespace

LoadedConfig load_config(std::istream& in) {
  LoadedConfig out;
  std::string section;     // "delta-server" or "site"
  std::string site_host;   // valid when section == "site"
  std::string raw_line;
  std::size_t line_no = 0;

  while (std::getline(in, raw_line)) {
    ++line_no;
    std::string_view line = util::trim(raw_line);
    if (line.empty() || line.starts_with('#')) continue;

    if (line.starts_with('[')) {
      if (!line.ends_with(']')) fail(line_no, "unterminated section header");
      const std::string_view inner = util::trim(line.substr(1, line.size() - 2));
      if (inner == "delta-server") {
        section = "delta-server";
      } else if (inner.starts_with("site ")) {
        section = "site";
        site_host = std::string(util::trim(inner.substr(5)));
        if (site_host.empty()) fail(line_no, "site section without host");
      } else {
        fail(line_no, "unknown section '" + std::string(inner) + "'");
      }
      continue;
    }

    // Strip trailing inline comments (a '#' preceded by whitespace, so a
    // '#' inside a partition regex is left alone).
    for (std::size_t i = 1; i < line.size(); ++i) {
      if (line[i] == '#' && (line[i - 1] == ' ' || line[i - 1] == '\t')) {
        line = util::trim(line.substr(0, i));
        break;
      }
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) fail(line_no, "expected key = value");
    const std::string key = std::string(util::trim(line.substr(0, eq)));
    const std::string value = std::string(util::trim(line.substr(eq + 1)));
    if (key.empty()) fail(line_no, "empty key");

    if (section == "delta-server") {
      auto& server = out.server;
      if (key == "anonymize") {
        server.anonymize = parse_bool(value, line_no);
      } else if (key == "compress") {
        server.compress_deltas = parse_bool(value, line_no);
      } else if (key == "sample-prob") {
        server.selector.sample_prob = parse_fraction(value, line_no, key);
      } else if (key == "max-samples") {
        server.selector.max_samples = parse_positive(value, line_no, key);
      } else if (key == "max-tries") {
        server.grouping.max_tries = parse_positive(value, line_no, key);
      } else if (key == "popular-fraction") {
        server.grouping.popular_fraction = parse_fraction(value, line_no, key);
      } else if (key == "match-threshold") {
        server.grouping.match_threshold = parse_double(value, line_no);
        if (server.grouping.match_threshold <= 0.0) fail(line_no, key + " must be > 0");
      } else if (key == "rebase-timeout-s") {
        constexpr auto kMaxSeconds =
            std::numeric_limits<util::SimTime>::max() / util::kSecond;
        server.rebase_timeout =
            static_cast<util::SimTime>(parse_u64_at_most(value, line_no, kMaxSeconds, key)) *
            util::kSecond;
      } else if (key == "anonymizer-m") {
        server.anonymizer.min_common = parse_u64(value, line_no);
      } else if (key == "anonymizer-n") {
        server.anonymizer.required_docs = parse_positive(value, line_no, key);
      } else if (key == "basic-rebase-ratio") {
        server.basic_rebase_ratio = parse_double(value, line_no);
        if (server.basic_rebase_ratio <= 0.0) fail(line_no, key + " must be > 0");
      } else if (key == "basic-rebase-after") {
        server.basic_rebase_after = static_cast<int>(
            parse_u64_at_most(value, line_no, std::numeric_limits<int>::max(), key));
        if (server.basic_rebase_after < 1) fail(line_no, key + " must be >= 1");
      } else if (key == "seed") {
        server.seed = parse_u64(value, line_no);
      } else if (key == "obs-sample-rate") {
        server.obs.sample_rate = parse_fraction(value, line_no, key);
      } else if (key == "obs-event-log") {
        server.obs.event_log_path = value;
      } else if (key == "obs-lock-profile") {
        server.obs.lock_profile = parse_bool(value, line_no);
      } else {
        fail(line_no, "unknown delta-server key '" + key + "'");
      }
    } else if (section == "site") {
      if (key == "partition") {
        // Reject here with a typed config error; an empty pattern would
        // otherwise trip PartitionRule's precondition mid-construction.
        if (value.empty()) fail(line_no, "partition rule pattern must not be empty");
        try {
          out.rules.add_rule(site_host, http::PartitionRule(value));
        } catch (const std::regex_error& e) {
          fail(line_no, std::string("bad partition regex: ") + e.what());
        }
      } else if (key == "manual-class") {
        out.server.manual_classes.emplace_back(site_host, value);
      } else {
        fail(line_no, "unknown site key '" + key + "'");
      }
    } else {
      fail(line_no, "key outside any section");
    }
  }

  // Cross-field sanity (same checks the components enforce, but with a
  // config-level error message).
  if (out.server.anonymizer.min_common > out.server.anonymizer.required_docs) {
    throw ConfigError("config: anonymizer-m must be <= anonymizer-n");
  }
  return out;
}

LoadedConfig load_config_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("config: cannot open " + path.string());
  return load_config(in);
}

std::string example_config() {
  return R"(# Class-based delta-encoding deployment configuration.
[delta-server]
anonymize        = true    # SV: scrub base-files before publication
compress         = true    # gzip deltas on the wire
sample-prob      = 0.2     # p: request sampling probability (SIV)
max-samples      = 8       # K: stored base-file candidates (SIV)
max-tries        = 8       # N: classes probed per request (SIII)
popular-fraction = 0.5     # a: share of tries on popular classes (SIII)
match-threshold  = 0.5     # light-delta/document ratio counting as a match
rebase-timeout-s = 120     # minimum seconds between group-rebases
anonymizer-m     = 2       # M: chunk kept if common with >= M documents
anonymizer-n     = 5       # N: documents observed before publication

# Observability (docs/OBSERVABILITY.md): per-request trace sampling rate
# and an optional JSONL sink for the structured event log.
obs-sample-rate       = 0.01
# obs-event-log       = /var/log/cbde/events.jsonl
# obs-lock-profile    = true   # timed mutex acquisition -> cbde_lock_wait_seconds_*

[site www.foo.com]
# Table I row 1 organization: /laptops?id=100
partition = ^/([^/?]+)\?(.*)$

[site www.adhoc.example]
# This site is organized ad hoc; pin a hint to a manual class (SIII).
manual-class = specials
)";
}

}  // namespace cbde::core
