#include "core/delta_server.hpp"

#include "util/contracts.hpp"

namespace cbde::core {
namespace {

/// Slots of the metrics the server's collector fills from server state.
enum CollectedSlot : std::size_t {
  kRequests, kDirectResponses, kDeltaResponses, kDirectBytes, kWireBytes,
  kBaseWireBytes, kGroupRebases, kBasicRebases, kAnonymizations, kClassesCreated,
  kClasses, kSelectorObserved, kSelectorSampled, kSelectorEvictions, kStorageBytes,
  kIndexBytes
};

}  // namespace

DeltaServer::DeltaServer(DeltaServerConfig config, http::RuleBook rules)
    : config_(std::move(config)),
      rules_(std::move(rules)),
      obs_(std::make_unique<obs::Obs>(config_.obs)),
      classes_(config_.grouping, config_.seed ^ 0x9E3779B97F4A7C15ull) {
  CBDE_EXPECT(config_.basic_rebase_ratio > 0.0);
  CBDE_EXPECT(config_.basic_rebase_after >= 1);

  // Instruments the serve path writes, registered once here. Names follow
  // cbde_<layer>_<name>[_unit] — tools/lint/cbde_lint.py enforces the shape,
  // docs/OBSERVABILITY.md holds the catalog.
  auto& reg = obs_->registry();
  instr_.delta_fallbacks = &reg.counter(
      "cbde_server_delta_fallbacks_total",
      "Deltas discarded for being no smaller than the document itself");
  instr_.encode_latency =
      &obs_->histogram("cbde_server_encode_latency_microseconds",
                       "Wall time of one delta encode against the published base");
  instr_.delta_size = &obs_->histogram("cbde_server_delta_size_bytes",
                                       "Uncompressed delta size per delta response");
  instr_.doc_size = &obs_->histogram("cbde_server_doc_size_bytes",
                                     "Full document size per request");
  instr_.serve_latency = &obs_->histogram("cbde_server_serve_microseconds",
                                          "Wall time of one serve()");
  instr_.anonymizer.begins = &reg.counter("cbde_anonymizer_begins_total",
                                          "Anonymization processes started (§V)");
  instr_.anonymizer.docs_observed =
      &reg.counter("cbde_anonymizer_docs_observed_total",
                   "Documents counted toward an anonymization's N");

  // Metrics with a count in server state: the collector reads them under
  // mu_ on every scrape (collect()), so each has one source.
  obs::Collector collected;
  collected.counter("cbde_server_requests_total", "Requests served", kRequests);
  collected.counter("cbde_server_direct_responses_total",
                    "Responses sent as the full document", kDirectResponses);
  collected.counter("cbde_server_delta_responses_total",
                    "Responses sent as a compressed delta", kDeltaResponses);
  collected.counter("cbde_server_direct_bytes_total",
                    "Bytes a full-transfer server would have sent (Direct KB)", kDirectBytes);
  collected.counter("cbde_server_wire_bytes_total",
                    "Response bytes actually sent (Delta KB)", kWireBytes);
  collected.counter("cbde_server_base_wire_bytes_total",
                    "Base-file distribution bytes charged to the server", kBaseWireBytes);
  collected.counter("cbde_server_group_rebases_total", "Group-rebases (§IV)", kGroupRebases);
  collected.counter("cbde_server_basic_rebases_total", "Basic-rebases (§IV)", kBasicRebases);
  collected.counter("cbde_server_anonymizations_total",
                    "Anonymization processes completed (§V)", kAnonymizations);
  collected.counter("cbde_server_classes_created_total", "Classes created", kClassesCreated);
  collected.gauge("cbde_server_classes", "Live classes", kClasses);
  collected.gauge("cbde_server_storage_bytes",
                  "Working and published bases plus selector samples", kStorageBytes);
  collected.gauge("cbde_server_index_bytes", "Match-index bytes over those bases",
                  kIndexBytes);
  collected.counter("cbde_selector_observed_total",
                    "Documents shown to the base-file selectors (§IV)", kSelectorObserved);
  collected.counter("cbde_selector_sampled_total", "Documents admitted as base candidates",
                    kSelectorSampled);
  collected.counter("cbde_selector_evictions_total", "Candidate evictions",
                    kSelectorEvictions);

  reg.set_collector(std::move(collected),
                    [this](std::span<std::uint64_t> values) { collect(values); });

  for (const auto& [server_part, hint_part] : config_.manual_classes) {
    classes_.add_manual_class(server_part, hint_part);
  }
  // Opt-in lock-wait profiling, wired before any request can contend mu_.
  // The site keeps its historical name: dashboards and the perfbench lock
  // share read it.
  if (obs_->config().lock_profile) {
    mu_.attach_wait_profile(&obs_->lock_wait_profile(
        "cbde_lock_wait_seconds_server_shard", "Wait to acquire the delta-server mutex"));
  }
}

DeltaServer::ClassState& DeltaServer::state_of(ClassId id) {
  auto it = states_.find(id);
  if (it == states_.end()) {
    // The seed comes from the class's identity (ClassManager::class_seed),
    // not from a server-wide RNG stream, so a class's selector draws do not
    // depend on how other classes' requests interleave with its own.
    auto created = std::make_unique<ClassState>(config_, classes_.class_seed(id));
    it = states_.emplace(id, std::move(created)).first;
    it->second->anonymizer.set_instruments(instr_.anonymizer);
  }
  return *it->second;
}

std::shared_ptr<const delta::Estimator> DeltaServer::make_working_estimator(
    util::BytesView doc) const {
  return std::make_shared<const delta::Estimator>(util::Bytes(doc.begin(), doc.end()));
}

void DeltaServer::start_publication(ClassId id, ClassState& cls,
                                         util::SimTime now) {
  if (!config_.anonymize) {
    // No privacy requirement: publish the working base immediately. The
    // transmit encoder aliases the working estimator's base (shared_base is
    // a refcount bump) — only the footprint table is built, the document is
    // not copied.
    cls.transmit_encoder = std::make_shared<const delta::Encoder>(
        cls.working_estimator->shared_base());
    ++cls.published_version;
    record_publication(id, cls, now);
    cls.last_group_rebase = now;
    return;
  }
  cls.anonymizer.begin(cls.working_estimator->shared_base(), cls.working_owner);
}

void DeltaServer::maybe_complete_publication(ClassId id, ClassState& cls,
                                                  util::SimTime now) {
  if (!cls.anonymizer.ready()) return;
  cls.transmit_encoder = std::make_shared<const delta::Encoder>(cls.anonymizer.finalize());
  ++cls.published_version;
  record_publication(id, cls, now);
  cls.last_group_rebase = now;
  ++ledger_.anonymizations_completed;
  obs_->emit(obs::EventKind::kAnonymizationComplete, now, id,
            {{"version", std::to_string(cls.published_version)}});
}

void DeltaServer::record_publication(ClassId id, ClassState& cls,
                                          util::SimTime now) {
  // Versions are published 1, 2, 3, ..., so version v takes the slot of
  // v - kPublishedHistory. The slot shares the encoder's buffer: no copy.
  cls.published[(cls.published_version - 1) % kPublishedHistory] =
      cls.transmit_encoder->shared_base();
  obs_->emit(obs::EventKind::kBasePublished, now, id,
            {{"version", std::to_string(cls.published_version)},
             {"size", std::to_string(cls.transmit_encoder->base().size())}});
}

ServedResponse DeltaServer::serve(std::uint64_t user_id, const http::Url& url,
                                  util::BytesView doc, util::SimTime now,
                                  std::shared_ptr<obs::TraceContext> trace) {
  CBDE_EXPECT(!url.host.empty());
  CBDE_EXPECT(now >= 0);
  // Partitioning is pure (the RuleBook is immutable), so it runs before the
  // lock.
  const http::UrlParts parts = rules_.partition(url);
  ServedResponse out;
  out.doc_size = doc.size();
  const std::uint64_t serve_start = obs::now_us();
  if (trace == nullptr) trace = obs_->maybe_trace();
  obs::TraceContext* tc = trace.get();
  obs::Span serve_span(tc, "serve");
  instr_.doc_size->observe(doc.size());

  // Phase 1 — locked: bookkeeping, grouping, selector/anonymizer feeding,
  // publication progress; ends by snapshotting the class's published-base
  // encoder so the expensive encode can run outside the lock.
  ClassState* cls_ptr = nullptr;
  std::shared_ptr<const delta::Encoder> transmit;
  std::uint32_t snap_version = 0;
  {
    obs::Span group_span(tc, "group");
    const LockGuard lock(mu_);
    // 1. Group the request into a class (the URL was already partitioned
    // above). Probes run against the cached per-class
    // light estimators — no index is built here. The probe callback runs
    // synchronously inside group() with mu_ held and ClassManager never
    // stores it, but the analysis cannot see into the lambda, so it reaches
    // the class table through a local alias established under the lock.
    const auto& states = states_;
    const auto decision =
        classes_.group(parts, doc, [&states](ClassId id) -> const delta::Estimator* {
          const auto it = states.find(id);
          return it == states.end() ? nullptr : it->second->working_estimator.get();
        });
    out.class_id = decision.id;
    out.class_created = decision.created;
    out.grouping_tries = decision.tries;
    group_span.tag("class", std::to_string(decision.id));
    group_span.tag("created", decision.created ? "true" : "false");
    group_span.tag("tries", std::to_string(decision.tries));
    if (decision.created) {
      obs_->emit(obs::EventKind::kClassCreated, now, decision.id,
                {{"user", std::to_string(user_id)},
                 {"tries", std::to_string(decision.tries)}});
    }

    ClassState& cls = state_of(decision.id);
    // ClassState nodes are never erased, so cls_ptr outlives the lock; phase
    // 2 reads only the `transmit` snapshot and phase 3 retakes mu_ before
    // touching the class.
    cls_ptr = &cls;
    const bool creating = decision.created || cls.working_estimator == nullptr;
    if (creating) {
      cls.working_estimator = make_working_estimator(doc);
      cls.working_owner = user_id;
      cls.selector.admit(doc);
      start_publication(decision.id, cls, now);
    } else {
      // 2. Feed the selector and any in-progress anonymization.
      cls.selector.observe(doc);
      cls.anonymizer.observe(user_id, doc);
      maybe_complete_publication(decision.id, cls, now);
    }

    // 3. Decide the response. The request that creates a class is always
    // served directly: its document just became the (un-anonymized) base.
    if (cls.published_version > 0 && !creating) {
      transmit = cls.transmit_encoder;
      snap_version = cls.published_version;
    }
  }

  // Phase 2 — unlocked: delta encode + compression against the snapshot.
  // A concurrent rebase may replace the class's encoder meanwhile; the
  // shared_ptr keeps this one alive and the response reports snap_version.
  bool serve_delta = transmit != nullptr;
  util::Bytes delta_wire;
  bool large_delta = false;
  if (serve_delta) {
    obs::Span encode_span(tc, "encode");
    const std::uint64_t encode_start = obs::now_us();
    auto encoded = transmit->encode(doc);
    instr_.encode_latency->observe(obs::now_us() - encode_start);
    out.base_size = transmit->base().size();
    out.delta_size = encoded.delta.size();
    instr_.delta_size->observe(encoded.delta.size());
    large_delta = static_cast<double>(out.delta_size) >
                  config_.basic_rebase_ratio * static_cast<double>(doc.size());
    encode_span.tag("delta_bytes", std::to_string(encoded.delta.size()));
    encode_span.end();
    obs::Span compress_span(tc, "compress");
    delta_wire = config_.compress_deltas ? compress::compress(util::as_view(encoded.delta))
                                         : std::move(encoded.delta);
    compress_span.tag("wire_bytes", std::to_string(delta_wire.size()));
    // A delta larger than the document itself is useless; fall back.
    if (delta_wire.size() >= doc.size()) {
      serve_delta = false;
      instr_.delta_fallbacks->inc();
    }
  }

  // Materialize the response body before retaking the lock: the direct path
  // copies the full document, and that memcpy used to run inside the phase-3
  // critical section.
  if (serve_delta) {
    out.mode = ServedResponse::Mode::kDelta;
    out.wire_body = std::move(delta_wire);
    out.wire_compressed = config_.compress_deltas;
  } else {
    out.mode = ServedResponse::Mode::kDirect;
    out.wire_body.assign(doc.begin(), doc.end());
  }

  // Phase 3 — locked: commit the response, then the rebase decisions. Every
  // ledger counter of this request is committed here, in one critical
  // section, so a ledger() snapshot never sees a request half-counted.
  {
    obs::Span commit_span(tc, "commit");
    const LockGuard lock(mu_);
    ClassState& cls = *cls_ptr;
    ++ledger_.requests;
    ledger_.direct_bytes += doc.size();
    if (serve_delta) {
      out.base_version = snap_version;
      const auto key = std::make_pair(user_id, out.class_id);
      const auto it = client_versions_.find(key);
      if (it == client_versions_.end() || it->second != snap_version) {
        out.base_needed = true;
        client_versions_[key] = snap_version;
      }
      ++ledger_.delta_responses;
    } else {
      ++ledger_.direct_responses;
    }
    // A delta response is only worth sending if it beats the document.
    CBDE_ASSERT_INVARIANT(out.mode == ServedResponse::Mode::kDirect ||
                          out.wire_body.size() < out.doc_size);
    ledger_.wire_bytes += out.wire_body.size();
    if (out.base_needed) ledger_.base_wire_bytes += out.base_size;

    // 4. Basic-rebase: consecutive relatively-large deltas flush the class.
    if (cls.published_version > 0) {
      cls.consecutive_large_deltas = large_delta ? cls.consecutive_large_deltas + 1 : 0;
      if (cls.consecutive_large_deltas >= config_.basic_rebase_after) {
        cls.consecutive_large_deltas = 0;
        cls.working_estimator = make_working_estimator(doc);
        cls.working_owner = user_id;
        cls.selector.flush();  // "all K stored documents are flushed"
        cls.selector.admit(doc);
        start_publication(out.class_id, cls, now);
        out.basic_rebase = true;
        ++ledger_.basic_rebases;
        obs_->emit(obs::EventKind::kBasicRebase, now, out.class_id,
                  {{"delta_size", std::to_string(out.delta_size)},
                   {"doc_size", std::to_string(out.doc_size)}});
      }
    }

    // 5. Group-rebase: a better candidate exists and the timeout has expired.
    if (!out.basic_rebase && !cls.anonymizer.in_progress() &&
        now - cls.last_group_rebase >= config_.rebase_timeout) {
      if (const util::Bytes* best = cls.selector.best();
          best != nullptr && *best != cls.working_estimator->base()) {
        cls.working_estimator = make_working_estimator(util::as_view(*best));
        cls.working_owner = user_id;  // conservatively exclude the requester
        start_publication(out.class_id, cls, now);
        out.group_rebase = true;
        ++ledger_.group_rebases;
        obs_->emit(obs::EventKind::kGroupRebase, now, out.class_id,
                  {{"base_size", std::to_string(best->size())}});
        // Avoid immediate re-trigger while the new base awaits anonymization.
        cls.last_group_rebase = now;
      }
    }
    commit_span.tag("mode",
                    out.mode == ServedResponse::Mode::kDelta ? "delta" : "direct");
    if (out.group_rebase) commit_span.tag("group_rebase", "true");
    if (out.basic_rebase) commit_span.tag("basic_rebase", "true");
  }
  serve_span.tag("class", std::to_string(out.class_id));
  serve_span.tag("bytes_in", std::to_string(out.doc_size));
  serve_span.tag("bytes_out", std::to_string(out.wire_body.size()));
  if (out.base_needed) serve_span.tag("base_bytes", std::to_string(out.base_size));
  serve_span.end();
  instr_.serve_latency->observe(obs::now_us() - serve_start);
  out.trace = std::move(trace);
  return out;
}

std::optional<PublishedBase> DeltaServer::published_base(ClassId id) const {
  const LockGuard lock(mu_);
  const auto it = states_.find(id);
  if (it == states_.end() || it->second->published_version == 0) return std::nullopt;
  // Hand out a shared_ptr snapshot alongside the view: the encoder (and the
  // base bytes the view points into) stay alive even if a rebase swaps
  // transmit_encoder right after the lock drops.
  std::shared_ptr<const delta::Encoder> keep = it->second->transmit_encoder;
  return PublishedBase{it->second->published_version, util::as_view(keep->base()),
                       std::move(keep)};
}

std::optional<util::Bytes> DeltaServer::fetch_base(ClassId id,
                                                        std::uint32_t version) const {
  // Snapshot the shared base handle under the lock (a refcount bump); the
  // caller's owning copy is materialized after mu_ drops.
  std::shared_ptr<const util::Bytes> base;
  {
    const LockGuard lock(mu_);
    const auto it = states_.find(id);
    if (it == states_.end()) return std::nullopt;
    const std::uint32_t newest = it->second->published_version;
    // Only the window (newest - kPublishedHistory, newest] is held; any
    // other version would alias a slot that holds a different one.
    if (version == 0 || version > newest || newest - version >= kPublishedHistory) {
      return std::nullopt;
    }
    base = it->second->published[(version - 1) % kPublishedHistory];
  }
  CBDE_ASSERT_INVARIANT(base != nullptr);
  return *base;
}

std::vector<ClassSummary> DeltaServer::class_summaries() const {
  std::vector<ClassSummary> out;
  const LockGuard lock(mu_);
  out.reserve(states_.size());
  for (const auto& [id, cls] : states_) {
    ClassSummary summary;
    summary.id = id;
    summary.members = classes_.members_of(id);
    summary.published_version = cls->published_version;
    summary.published_size =
        cls->transmit_encoder ? cls->transmit_encoder->base().size() : 0;
    summary.working_size =
        cls->working_estimator ? cls->working_estimator->base().size() : 0;
    summary.selector_samples = cls->selector.stored();
    summary.anonymizing = cls->anonymizer.in_progress();
    out.push_back(summary);
  }
  return out;
}

void DeltaServer::collect(std::span<std::uint64_t> values) const {
  const LockGuard lock(mu_);
  values[kRequests] = ledger_.requests;
  values[kDirectResponses] = ledger_.direct_responses;
  values[kDeltaResponses] = ledger_.delta_responses;
  values[kDirectBytes] = ledger_.direct_bytes;
  values[kWireBytes] = ledger_.wire_bytes;
  values[kBaseWireBytes] = ledger_.base_wire_bytes;
  values[kGroupRebases] = ledger_.group_rebases;
  values[kBasicRebases] = ledger_.basic_rebases;
  values[kAnonymizations] = ledger_.anonymizations_completed;
  values[kClassesCreated] = classes_.stats().classes_created;
  values[kClasses] = classes_.num_classes();
  for (const auto& [id, cls] : states_) {
    values[kSelectorObserved] += cls->selector.stats().observed;
    values[kSelectorSampled] += cls->selector.stats().sampled;
    values[kSelectorEvictions] += cls->selector.stats().evictions;
  }
  values[kStorageBytes] = storage_bytes_locked();
  values[kIndexBytes] = index_bytes_locked();
}

std::size_t DeltaServer::storage_bytes_locked() const {
  std::size_t total = 0;
  for (const auto& [id, cls] : states_) {
    // Each retained published version counts once; the transmit encoder
    // shares the newest one's buffer.
    for (const auto& base : cls->published) total += base ? base->size() : 0;
    // An anonymization in progress aliases the working base: every site that
    // replaces the working estimator calls start_publication(), which hands
    // the anonymizer shared_base(). So its pending base is no extra buffer.
    CBDE_ASSERT_INVARIANT(!cls->anonymizer.in_progress() ||
                          &cls->anonymizer.pending_base() == &cls->working_estimator->base());
    total += cls->working_estimator ? cls->working_estimator->base().size() : 0;
    // Selector samples are part of the server-side footprint too.
    total += cls->selector.stored_bytes();
  }
  return total;
}

std::size_t DeltaServer::index_bytes_locked() const {
  std::size_t total = 0;
  for (const auto& [id, cls] : states_) {
    total += cls->working_estimator ? cls->working_estimator->index_bytes() : 0;
    total += cls->selector.index_bytes();
    total += cls->transmit_encoder ? cls->transmit_encoder->index_bytes() : 0;
    total += cls->anonymizer.index_bytes();
  }
  return total;
}

}  // namespace cbde::core
