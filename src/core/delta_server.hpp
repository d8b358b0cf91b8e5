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
// Scaling (the paper's whole pitch): the server is SHARDED. Classes are
// partitioned over `DeltaServerConfig::shards` independent DeltaServerShard
// instances by a stable crc32 of the request's (server-part, hint-part);
// each shard owns its own mutex, ClassManager, class states (each holding
// its last kPublishedHistory published bases) and byte ledger, so requests
// to different shards never contend. There is no global lock anywhere in
// the serve path — DeltaServer itself is a stateless router plus a merger
// for the read-side accessors.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
  /// "relatively large" for basic-rebase purposes.
  double basic_rebase_ratio = 0.7;
  /// Consecutive large deltas (per class) before a basic-rebase fires.
  int basic_rebase_after = 3;
  /// Minimum simulated time between group-rebases of one class.
  util::SimTime rebase_timeout = 120 * util::kSecond;
  std::uint64_t seed = 7;
  /// Independent server shards. Requests route by
  /// crc32("server-part\0hint-part") % shards (DeltaServer::route), so all
  /// requests of one partition pair — and therefore every class, since
  /// classes never span pairs — live on exactly one shard. 1 = the
  /// unsharded behavior, byte-for-byte identical to the historical server.
  std::size_t shards = 1;
  /// (server-part, hint-part) pairs the administrator pins to manual
  /// classes (§III, the `manual-class` config key). Each pair is pinned on
  /// the shard route() sends it to.
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

  /// Shard that served the request (0 when unsharded). Lets callers (the
  /// worker pool's queue-wait attribution, capacity tooling) index per-shard
  /// instruments without re-deriving the route.
  std::size_t shard = 0;

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

/// Handles into the obs registry for the instruments the serve path writes,
/// registered once by the DeltaServer (the registry is name-keyed and
/// label-free) and shared by every shard; the instruments are atomic.
/// Metrics counted in shard state have no handle: the server's collector
/// reads them at scrape time (DeltaServerShard::collect).
struct ServerInstruments {
  obs::Counter* delta_fallbacks = nullptr;
  obs::Histogram* encode_latency = nullptr;
  obs::Histogram* delta_size = nullptr;
  obs::Histogram* doc_size = nullptr;
  /// cbde_shard_<k>_serve_microseconds (index == shard index), named via
  /// obs::shard_metric_name and sized to the shard count at construction so
  /// the serve path indexes without a lookup or allocation.
  std::vector<obs::Histogram*> shard_serve;
  /// Lock-wait profiling cell shared by every shard mutex (one "site");
  /// null unless ObsConfig::lock_profile is set. Feeds
  /// cbde_lock_wait_seconds_server_shard.
  util::LockWaitCell* shard_lock = nullptr;
  /// Handed to every per-class anonymizer, so the counts aggregate.
  AnonymizerInstruments anonymizer;
};

/// One shard: the complete class-based delta-encoding machinery for the
/// subset of (server-part, hint-part) pairs that hash to it. Everything
/// mutable is guarded by the shard's own mu_; shards share nothing mutable
/// except the internally-synchronized obs instruments.
class DeltaServerShard {
 public:
  /// `config` and `instr` are owned by the DeltaServer and must outlive the
  /// shard. `id_stride` is the server's shard count, so class ids satisfy
  /// (id - 1) % id_stride == index and route back here without a lookup.
  /// Pins the config's manual classes that route here.
  DeltaServerShard(const DeltaServerConfig& config, std::size_t index,
                   ClassId id_stride, obs::Obs& obs, const ServerInstruments& instr);

  /// One request, already partitioned and routed here. Same three-phase
  /// shape the unsharded server had — locked bookkeeping/grouping, unlocked
  /// encode+compress against an encoder snapshot, locked commit — except mu_
  /// now serializes only this shard's classes.
  ServedResponse serve(std::uint64_t user_id, const http::UrlParts& parts,
                       util::BytesView doc, util::SimTime now,
                       std::shared_ptr<obs::TraceContext> trace) EXCLUDES(mu_);

  std::optional<PublishedBase> published_base(ClassId id) const EXCLUDES(mu_);
  std::optional<util::Bytes> fetch_base(ClassId id, std::uint32_t version) const
      EXCLUDES(mu_);

  /// Snapshot of this shard's byte ledger — internally consistent because
  /// every request commits all of its counters under mu_.
  PipelineMetrics ledger() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return ledger_;
  }
  GroupingStats grouping_stats() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classes_.stats();
  }
  void append_class_summaries(std::vector<ClassSummary>& out) const EXCLUDES(mu_);
  std::size_t storage_bytes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return storage_bytes_locked();
  }
  std::size_t index_bytes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return index_bytes_locked();
  }
  /// Adds this shard's share of every metric the server's obs::Collector
  /// declared to `values` (indexed by slot), all read in one critical
  /// section.
  void collect(std::span<std::uint64_t> values) const EXCLUDES(mu_);
  std::size_t num_classes() const EXCLUDES(mu_) {
    LockGuard lock(mu_);
    return classes_.num_classes();
  }

 private:
  /// Published versions each class retains, so clients holding (or
  /// currently fetching) an older version are not stranded by a rebase.
  static constexpr std::uint32_t kPublishedHistory = 3;

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
  std::shared_ptr<const delta::Estimator> make_working_estimator(util::BytesView doc) const;
  void start_publication(ClassId id, ClassState& cls, util::SimTime now) REQUIRES(mu_);
  void maybe_complete_publication(ClassId id, ClassState& cls, util::SimTime now)
      REQUIRES(mu_);
  void record_publication(ClassId id, ClassState& cls, util::SimTime now) REQUIRES(mu_);

  const DeltaServerConfig& config_;  // owned by the server, immutable
  const std::size_t index_;          ///< this shard's position in the server
  obs::Obs& obs_;                    // internally synchronized
  const ServerInstruments& instr_;   // owned by the server, atomic handles
  ClassManager classes_ GUARDED_BY(mu_);
  /// ClassState objects are owned by unique_ptr map values and never
  /// erased, so a ClassState* stays valid across an unlock — but its
  /// fields follow the map's discipline: touch them only while holding mu_.
  std::map<ClassId, std::unique_ptr<ClassState>> states_ GUARDED_BY(mu_);
  /// Base version each (client, class) currently holds.
  std::map<std::pair<std::uint64_t, ClassId>, std::uint32_t> client_versions_
      GUARDED_BY(mu_);
  /// This shard's share of PipelineMetrics, the only count of these facts:
  /// metrics() and registry scrapes read it under mu_.
  PipelineMetrics ledger_ GUARDED_BY(mu_);
  mutable Mutex mu_;
};

/// The sharded server: routes each request to the owning shard and merges
/// the shards for every read-side accessor. Holds no mutable state of its
/// own — and therefore no lock.
class DeltaServer {
 public:
  DeltaServer(DeltaServerConfig config, http::RuleBook rules);
  /// The shards and the registry's collector point back into the server.
  DeltaServer(const DeltaServer&) = delete;
  DeltaServer& operator=(const DeltaServer&) = delete;

  /// Process one request: `doc` is the current snapshot obtained from the
  /// web-server. Advances all class machinery and returns the response.
  ///
  /// Thread-safe: concurrent calls are allowed (DeltaWorkerPool drives this
  /// from several threads). The URL is partitioned lock-free (RuleBook is
  /// immutable), the request routes to its shard, and only that shard's
  /// mutex is ever taken — requests on different shards proceed fully in
  /// parallel. See DeltaServerShard::serve for the three-phase shape.
  /// `trace` carries an already-sampled trace context (the worker pool
  /// passes the one it opened at submit time, so queue wait and serve stages
  /// land in the same trace); null lets serve() make its own sampling
  /// decision via Obs::maybe_trace().
  ServedResponse serve(std::uint64_t user_id, const http::Url& url, util::BytesView doc,
                       util::SimTime now,
                       std::shared_ptr<obs::TraceContext> trace = nullptr);

  /// Published (client-visible) base-file of a class, if any; served by the
  /// owning shard.
  std::optional<PublishedBase> published_base(ClassId id) const;

  /// A specific retained version (the current one or one of the two before
  /// it) from the owning shard; nullopt if the class is unknown, the version
  /// was never published or it has aged out.
  std::optional<util::Bytes> fetch_base(ClassId id, std::uint32_t version) const;

  /// Merged snapshot of the pipeline counters: the sum of the per-shard
  /// ledgers, visited in ascending shard order, each read under its own
  /// shard mutex. Every increment commits under a shard mutex, so each
  /// addend — and therefore the merge — satisfies the conservation
  /// identities; see PipelineMetrics::merge for the exact convention. A
  /// registry scrape reads the same ledgers the same way, so the two
  /// reports cannot drift.
  PipelineMetrics metrics() const;
  /// One shard's ledger (consistent under that shard's mutex).
  PipelineMetrics shard_metrics(std::size_t shard) const;

  /// The telemetry domain this server owns and records into; the worker
  /// pool and proxy cache of its serving stack register here too.
  obs::Obs& obs() const { return *obs_; }
  /// Merged grouping statistics (§III instrumentation); same ascending
  /// shard-order snapshot convention as metrics().
  GroupingStats grouping_stats() const;
  const http::RuleBook& rules() const { return rules_; }

  /// Server-side storage the scheme requires: working + published bases and
  /// selector samples across all classes of all shards (the paper's
  /// scalability metric). cbde_server_storage_bytes reports the same sum.
  std::size_t storage_bytes() const;

  /// Bytes of the match indexes built over those bases, across all shards:
  /// working and selector estimators, transmit encoders and the encoders of
  /// anonymizations in progress. storage_bytes() counts the bases; this
  /// counts only the tables. cbde_server_index_bytes reports the same sum.
  std::size_t index_bytes() const;

  /// Merged operational snapshot of every class, ordered by class id.
  std::vector<ClassSummary> class_summaries() const;

  std::size_t num_classes() const;
  std::size_t num_shards() const { return shards_.size(); }

  /// Shard index for a partition pair: crc32 over server-part, one NUL
  /// separator, hint-part — the in-tree, zlib-compatible crc32,
  /// so the assignment is identical across runs, platforms and standard
  /// libraries (std::hash<std::string> guarantees none of that). Exposed
  /// static for tests and capacity tooling.
  static std::size_t route(std::string_view server_part, std::string_view hint_part,
                           std::size_t num_shards);
  /// Owning shard of a class id (ids are striped id_first + k * shards).
  std::size_t shard_of_class(ClassId id) const;

 private:
  DeltaServerConfig config_;  // immutable after construction
  http::RuleBook rules_;      // immutable after construction
  /// Owned, so no registry outlives the shard ledgers its collector reads.
  std::unique_ptr<obs::Obs> obs_;  // immutable after construction
  ServerInstruments instr_;        // immutable after construction
  /// Construction order matters: shards_ must outlive nothing above (they
  /// hold references to config_ and instr_), so it is declared last and
  /// destroyed first.
  std::vector<std::unique_ptr<DeltaServerShard>> shards_;
};

}  // namespace cbde::core
