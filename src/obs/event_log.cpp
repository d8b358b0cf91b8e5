#include "obs/event_log.hpp"

#include "obs/json.hpp"

namespace cbde::obs {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kClassCreated: return "class_created";
    case EventKind::kBasePublished: return "base_published";
    case EventKind::kGroupRebase: return "group_rebase";
    case EventKind::kBasicRebase: return "basic_rebase";
    case EventKind::kAnonymizationComplete: return "anonymization_complete";
    case EventKind::kPoolSaturated: return "pool_saturated";
    case EventKind::kDecodeFailure: return "decode_failure";
  }
  return "unknown";
}

bool EventLog::open(const std::filesystem::path& path) {
  const LockGuard lock(mu_);
  sink_.open(path, std::ios::out | std::ios::app);
  return sink_.is_open();
}

void EventLog::emit(Event event) {
  const LockGuard lock(mu_);
  if (sink_.is_open()) sink_ << to_jsonl(event) << '\n';
  ring_.push_back(std::move(event));
  if (ring_.size() > kRingCapacity) ring_.pop_front();
}

std::vector<Event> EventLog::recent() const {
  const LockGuard lock(mu_);
  return std::vector<Event>(ring_.begin(), ring_.end());
}

void EventLog::flush() {
  const LockGuard lock(mu_);
  if (sink_.is_open()) sink_.flush();
}

std::string EventLog::to_jsonl(const Event& event) {
  std::string out = "{\"event\": ";
  append_json_string(out, event_kind_name(event.kind));
  out += ", \"sim_time_us\": " + std::to_string(event.sim_time_us);
  out += ", \"class_id\": " + std::to_string(event.class_id);
  if (!event.fields.empty()) {
    out += ", \"fields\": {";
    bool first = true;
    for (const auto& [key, value] : event.fields) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, key);
      out += ": ";
      append_json_string(out, value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace cbde::obs
