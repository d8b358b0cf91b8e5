// Per-request trace spans: stage wall-times, queue wait, bytes in/out and
// the decision taken, carried through the serve path
// (DeltaWorkerPool::submit -> DeltaServer::serve -> encode -> compress ->
// commit). A TraceContext is created per *sampled* request (Obs::maybe_trace
// decides at the configured rate); unsampled requests carry a null pointer
// and every recording call below is a no-op on null.
//
// Concurrency: a TraceContext belongs to one request and is touched by one
// thread at a time. A handoff between threads (submitter -> pool worker)
// must establish happens-before; the worker pool's queue mutex does. It is
// NOT safe to record into one context from two threads concurrently.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbde::obs {

/// Wall-clock microseconds on the monotonic clock.
inline std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// 1-based index into TraceContext::spans(); 0 = invalid/none.
using SpanId = std::uint32_t;

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  ///< enclosing span; 0 for the root
  std::string name;
  std::uint64_t start_us = 0;  ///< relative to the trace epoch
  std::uint64_t end_us = 0;    ///< 0 while the span is still open
  std::vector<std::pair<std::string, std::string>> tags;
};

class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id = 0);

  std::uint64_t trace_id() const { return trace_id_; }

  /// Open a span as a child of the innermost open span.
  SpanId begin(std::string_view name);
  /// Close `id` (and, defensively, anything opened after it that was left
  /// open — spans strictly nest).
  void end(SpanId id);
  void tag(SpanId id, std::string_view key, std::string value);

  /// Completed + open spans in creation order. Read only after the request
  /// finished (the pool's future handoff orders this).
  const std::vector<SpanRecord>& spans() const { return spans_; }

  std::string to_json() const;

 private:
  std::uint64_t trace_id_;
  std::uint64_t epoch_us_;
  std::vector<SpanRecord> spans_;
  std::vector<SpanId> open_;  ///< stack of open spans, innermost last
};

/// RAII span; null-safe so instrumentation sites need no sampling branches.
class Span {
 public:
  Span() = default;
  Span(TraceContext* ctx, std::string_view name) : ctx_(ctx) {
    if (ctx_ != nullptr) id_ = ctx_->begin(name);
  }
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end() {
    if (ctx_ != nullptr && !ended_) {
      ctx_->end(id_);
      ended_ = true;
    }
  }
  void tag(std::string_view key, std::string value) {
    if (ctx_ != nullptr) ctx_->tag(id_, key, std::move(value));
  }

 private:
  TraceContext* ctx_ = nullptr;
  SpanId id_ = 0;
  bool ended_ = false;
};

}  // namespace cbde::obs
