#include "obs/trace_span.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace cbde::obs {

TraceContext::TraceContext(std::uint64_t trace_id)
    : trace_id_(trace_id), epoch_us_(now_us()) {}

SpanId TraceContext::begin(std::string_view name) {
  SpanRecord record;
  record.id = static_cast<SpanId>(spans_.size() + 1);
  record.parent = open_.empty() ? 0 : open_.back();
  record.name = std::string(name);
  record.start_us = now_us() - epoch_us_;
  spans_.push_back(std::move(record));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void TraceContext::end(SpanId id) {
  if (id == 0 || id > spans_.size()) return;
  const std::uint64_t t = now_us() - epoch_us_;
  // Spans strictly nest: closing an outer span closes any child left open.
  while (!open_.empty()) {
    const SpanId top = open_.back();
    open_.pop_back();
    SpanRecord& record = spans_[top - 1];
    if (record.end_us == 0) record.end_us = t;
    if (top == id) return;
  }
  // `id` was not on the stack (already closed); just make sure it has an end.
  SpanRecord& record = spans_[id - 1];
  if (record.end_us == 0) record.end_us = t;
}

void TraceContext::tag(SpanId id, std::string_view key, std::string value) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].tags.emplace_back(std::string(key), std::move(value));
}

std::string TraceContext::to_json() const {
  std::string out = "{\"trace_id\": " + std::to_string(trace_id_) + ", \"spans\": [";
  bool first = true;
  for (const SpanRecord& s : spans_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"name\": ";
    append_json_string(out, s.name);
    out += ", \"start_us\": " + std::to_string(s.start_us) +
           ", \"end_us\": " + std::to_string(s.end_us);
    if (!s.tags.empty()) {
      out += ", \"tags\": {";
      bool first_tag = true;
      for (const auto& [key, value] : s.tags) {
        if (!first_tag) out += ", ";
        first_tag = false;
        append_json_string(out, key);
        out += ": ";
        append_json_string(out, value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace cbde::obs
