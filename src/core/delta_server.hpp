// The delta-server (paper §II, §VI-C): the engine placed next to the
// web-server that implements class-based delta-encoding.
//
// Per request it: partitions the URL, groups the request into a class
// (ClassManager), feeds the base-file selector and the anonymization
// process, and decides how to respond — full document (direct) or a
// compressed delta against the class's *published* (anonymized) base-file.
// It tracks which base-file version each client holds, charges base-file
// distribution bytes when a client must first obtain the base, and runs the
// two rebase mechanisms of §IV:
//   group-rebase — the selector proposes a better base-file and the
//                  rebase-timeout has expired;
//   basic-rebase — consecutive relatively-large deltas indicate a stale
//                  base; the current document becomes the new working base
//                  and all stored samples are flushed.
// A freshly (re)based base-file is only published once anonymization
// completes; until then the previous published base keeps serving (§V).
//
// Concurrency: one mutex guards the class table, the client-version map and
// the byte ledger. serve() holds it only for bookkeeping and grouping
// (phase 1) and for the commit (phase 3); the delta encode and compression
// between them run unlocked against a snapshot of the class's published
// encoder, so concurrent requests overlap in their expensive part. Every
// class of a server-part lives in one ClassManager, so §III's fallback — a
// hint with no class yet is grouped against every class of its server-part
// — sees all of them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/anonymizer.hpp"
#include "core/basefile_selector.hpp"
#include "core/class_manager.hpp"
#include "core/metrics.hpp"
#include "compress/compressor.hpp"
#include "http/partition.hpp"
#include "obs/obs.hpp"
#include "util/clock.hpp"
#include "util/thread_annotations.hpp"

namespace cbde::core {

struct DeltaServerConfig {
  GroupingConfig grouping;
  SelectorConfig selector;
  AnonymizerConfig anonymizer;
  /// If false, base-files are published raw immediately (no privacy; the
  /// classless-vs-class ablations use this).
  bool anonymize = true;
  bool compress_deltas = true;
  /// Uncompressed delta larger than this fraction of the document counts as
  /// "relatively large" for basic-rebase purposes. Must be > 0: at 0 or
  /// below every delta counts as large.
  double basic_rebase_ratio = 0.7;
  /// Consecutive large deltas (per class) before a basic-rebase fires.
  /// Must be >= 1: at 0 every request of a published class rebases.
  int basic_rebase_after = 3;
  /// Minimum simulated time between group-rebases of one class.
  util::SimTime rebase_timeout = 120 * util::kSecond;
  std::uint64_t seed = 7;
  /// (server-part, hint-part) pairs the administrator pins to manual
  /// classes (§III, the `manual-class` config key).
  std::vector<std::pair<std::string, std::string>> manual_classes;
  /// Settings of the Obs the server owns (sampling rate, histogram
  /// resolution, event-log sink).
  obs::ObsConfig obs;
};

struct ServedResponse {
  enum class Mode { kDirect, kDelta };
  Mode mode = Mode::kDirect;

  ClassId class_id = 0;
  bool class_created = false;
  std::size_t grouping_tries = 0;

  /// For kDelta: the base version the delta was computed against.
  std::uint32_t base_version = 0;
  /// True if this client did not hold the current base and must fetch it.
  bool base_needed = false;
  /// Size of the published base the server encoded against; 0 when it did
  /// not encode. Set for fallbacks too, which encoded and then sent the
  /// document.
  std::size_t base_size = 0;

  std::size_t doc_size = 0;    ///< full document size (the direct baseline)
  std::size_t delta_size = 0;  ///< uncompressed delta size (kDelta only)
  util::Bytes wire_body;       ///< bytes sent: compressed delta, or the document
  bool wire_compressed = false;

  bool group_rebase = false;
  bool basic_rebase = false;

  /// Trace of this request when it was sampled (Obs::maybe_trace), null
  /// otherwise. Spans are closed by the time serve() returns.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Published (client-visible) base-file of a class, if any. `bytes` views
/// storage owned by `keepalive`, so the view stays valid after the server
/// rebases the class (or is destroyed) — callers need no lock discipline.
struct PublishedBase {
  std::uint32_t version = 0;
  util::BytesView bytes;
  std::shared_ptr<const delta::Encoder> keepalive;
};

/// Operational snapshot of one class.
struct ClassSummary {
  ClassId id = 0;
  std::uint64_t members = 0;
  std::uint32_t published_version = 0;
  std::size_t published_size = 0;
  std::size_t working_size = 0;
  std::size_t selector_samples = 0;
  bool anonymizing = false;
};

/// The delta-server. serve() is thread-safe; see the top of this file for
/// its locking.
class DeltaServer {
 public:
  DeltaServer(DeltaServerConfig config, http::RuleBook rules);
  /// The registry's collector points back into the server.
  DeltaServer(const DeltaServer&) = delete;
  DeltaServer& operator=(const DeltaServer&) = delete;

  /// Process one request: `doc` is the current snapshot obtained from the
  /// web-server. Advances all class machinery and returns the response.
  ///
  /// Thread-safe: concurrent calls are allowed (DeltaWorkerPool drives this
  /// from several threads). The URL is partitioned lock-free (RuleBook is
  /// immutable); then three phases run — locked bookkeeping and grouping,
  /// unlocked encode+compress against an encoder snapshot, locked commit.
  /// `trace` carries an already-sampled trace context (the worker pool
  /// passes the one it opened at submit time, so queue wait and serve stages
  /// land in the same trace); null lets serve() make its own sampling
  /// decision via Obs::maybe_trace().
  ServedResponse serve(std::uint64_t user_id, const http::Url& url, util::BytesView doc,
                       util::SimTime now,
                       std::shared_ptr<obs::TraceContext> trace = nullptr) EXCLUDES(mu_);

  /// Published (client-visible) base-file of a class, if any.
  std::optional<PublishedBase> published_base(ClassId id) const EXCLUDES(mu_);

  /// A specific retained version (the current one or one of the two before
  /// it); nullopt if the class is unknown, the version was never published
  /// or it has aged out.
  std::optional<util::Bytes> fetch_base(ClassId id, std::uint32_t version) const
      EXCLUDES(mu_);

  /// Snapshot of the pipeline counters, internally consistent: every request
  /// commits all of its counters in one critical section. A registry scrape
  /// reads the same ledger, so the two reports cannot drift.
  PipelineMetrics metrics() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return ledger_;
  }

  /// The telemetry domain this server owns and records into; the worker
  /// pool and proxy cache of its serving stack register here too.
  obs::Obs& obs() const { return *obs_; }
  /// Grouping statistics (§III instrumentation).
  GroupingStats grouping_stats() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classes_.stats();
  }
  const http::RuleBook& rules() const { return rules_; }

  /// Server-side storage the scheme requires: working + published bases and
  /// selector samples across all classes (the paper's scalability metric).
  /// cbde_server_storage_bytes reports the same sum.
  std::size_t storage_bytes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return storage_bytes_locked();
  }

  /// Bytes of the match indexes built over those bases: working and
  /// selector estimators, transmit encoders and the encoders of
  /// anonymizations in progress. storage_bytes() counts the bases; this
  /// counts only the tables. cbde_server_index_bytes reports the same sum.
  std::size_t index_bytes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return index_bytes_locked();
  }

  /// Operational snapshot of every class, ordered by class id.
  std::vector<ClassSummary> class_summaries() const EXCLUDES(mu_);

  std::size_t num_classes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classes_.num_classes();
  }

 private:
  /// Published versions each class retains, so clients holding (or
  /// currently fetching) an older version are not stranded by a rebase.
  static constexpr std::uint32_t kPublishedHistory = 3;

  /// Handles into the obs registry for the instruments the serve path
  /// writes, registered once in the constructor; the instruments are
  /// atomic. Metrics counted in server state have no handle: the registry's
  /// collector reads them at scrape time (collect()).
  struct Instruments {
    obs::Counter* delta_fallbacks = nullptr;
    obs::Histogram* encode_latency = nullptr;
    obs::Histogram* delta_size = nullptr;
    obs::Histogram* doc_size = nullptr;
    obs::Histogram* serve_latency = nullptr;
    /// Handed to every per-class anonymizer, so the counts aggregate.
    AnonymizerInstruments anonymizer;
  };

  struct ClassState {
    /// Working base (raw) + its prebuilt light index: the grouping and
    /// rebase-comparison reference. Rebuilt on create and on either rebase.
    std::shared_ptr<const delta::Estimator> working_estimator;
    std::uint64_t working_owner = 0;
    /// Published (anonymized) base + its prebuilt footprint table: what
    /// per-request deltas are computed against. Held shared so serve() can
    /// encode outside the lock against a snapshot that a concurrent rebase
    /// cannot invalidate.
    std::shared_ptr<const delta::Encoder> transmit_encoder;
    std::uint32_t published_version = 0;
    /// The last kPublishedHistory published bases: version v sits in slot
    /// (v - 1) % kPublishedHistory, sharing its buffer with the encoder that
    /// published it. Empty until that many versions have been published.
    std::array<std::shared_ptr<const util::Bytes>, kPublishedHistory> published;
    BaseFileSelector selector;
    Anonymizer anonymizer;
    util::SimTime last_group_rebase = 0;
    int consecutive_large_deltas = 0;

    ClassState(const DeltaServerConfig& config, std::uint64_t seed)
        : selector(config.selector, seed), anonymizer(config.anonymizer) {}
  };

  ClassState& state_of(ClassId id) REQUIRES(mu_);
  std::size_t storage_bytes_locked() const REQUIRES(mu_);
  std::size_t index_bytes_locked() const REQUIRES(mu_);
  /// Adds every metric the registry's collector declared to `values`
  /// (indexed by slot), all read in one critical section.
  void collect(std::span<std::uint64_t> values) const EXCLUDES(mu_);
  std::shared_ptr<const delta::Estimator> make_working_estimator(util::BytesView doc) const;
  void start_publication(ClassId id, ClassState& cls, util::SimTime now) REQUIRES(mu_);
  void maybe_complete_publication(ClassId id, ClassState& cls, util::SimTime now)
      REQUIRES(mu_);
  void record_publication(ClassId id, ClassState& cls, util::SimTime now) REQUIRES(mu_);

  DeltaServerConfig config_;  // immutable after construction
  http::RuleBook rules_;      // immutable after construction
  /// Owned, so no registry outlives the ledger its collector reads.
  std::unique_ptr<obs::Obs> obs_;  // immutable after construction
  Instruments instr_;              // immutable after construction
  ClassManager classes_ GUARDED_BY(mu_);
  /// ClassState objects are owned by unique_ptr map values and never
  /// erased, so a ClassState* stays valid across an unlock — but its
  /// fields follow the map's discipline: touch them only while holding mu_.
  std::map<ClassId, std::unique_ptr<ClassState>> states_ GUARDED_BY(mu_);
  /// Base version each (client, class) currently holds.
  std::map<std::pair<std::uint64_t, ClassId>, std::uint32_t> client_versions_
      GUARDED_BY(mu_);
  /// The only count of the PipelineMetrics facts: metrics() and registry
  /// scrapes read it under mu_.
  PipelineMetrics ledger_ GUARDED_BY(mu_);
  mutable Mutex mu_;
};

}  // namespace cbde::core
