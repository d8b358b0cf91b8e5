// Administrator configuration for a delta-server deployment.
//
// §III: "Depending on the web-site, the administrator describes to the
// grouping mechanism how to partition URLs into parts using regular
// expressions" — and may "manually group URLs into classes" for ad-hoc
// sites. This loader turns a plain-text config file into a ready
// DeltaServerConfig + RuleBook, so a deployment is data, not code:
//
//   # cbde.conf
//   [delta-server]
//   anonymize        = true
//   compress         = true
//   sample-prob      = 0.2      # p  (SIV)
//   max-samples      = 8        # K  (SIV)
//   max-tries        = 8        # N  (SIII)
//   popular-fraction = 0.5      # a  (SIII)
//   match-threshold  = 0.5
//   rebase-timeout-s = 120
//   anonymizer-m     = 2        # M  (SV)
//   anonymizer-n     = 5        # N  (SV)
//   server-shards    = 1        # at most 64
//
//   [site www.foo.com]
//   partition    = ^/([^/?]+)\?(.*)$
//   manual-class = specials        # pin this hint to a manual class
//
// Unknown keys are errors (typos must not silently fall back to defaults).
#pragma once

#include <filesystem>
#include <istream>
#include <stdexcept>
#include <string>

#include "core/delta_server.hpp"
#include "http/partition.hpp"

namespace cbde::core {

class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct LoadedConfig {
  DeltaServerConfig server;
  http::RuleBook rules;
};

/// Parse a config stream. Throws ConfigError with a line number on any
/// syntax error, unknown key, bad value or invalid regex.
LoadedConfig load_config(std::istream& in);

/// Convenience: load from a file path.
LoadedConfig load_config_file(const std::filesystem::path& path);

/// A fully commented sample config (used by docs and tests).
std::string example_config();

}  // namespace cbde::core
