#include "obs/span_profile.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace cbde::obs {

void SpanProfile::add(const std::vector<SpanRecord>& spans) {
  ++traces_;
  if (spans.empty()) return;

  // Closed duration per span (0 for open spans), and how much of it the
  // closed children claim. Span ids are 1-based indices into `spans`.
  std::vector<std::uint64_t> duration(spans.size(), 0);
  std::vector<std::uint64_t> child_us(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_us > 0 && s.end_us >= s.start_us) duration[i] = s.end_us - s.start_us;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent != 0 && s.parent <= spans.size()) {
      child_us[s.parent - 1] += duration[i];
    }
  }

  // Root-to-span paths, memoized along the parent chain (spans are recorded
  // in creation order, so a parent always precedes its children).
  std::vector<std::string> path(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent != 0 && s.parent <= i) {
      path[i] = path[s.parent - 1];
      path[i] += ';';
      path[i] += s.name;
    } else {
      path[i] = s.name;
    }
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_us == 0) continue;  // still open: no self time yet
    const std::uint64_t self_us =
        duration[i] > child_us[i] ? duration[i] - child_us[i] : 0;
    stacks_[path[i]] += self_us;
    total_us_ += self_us;
  }
}

std::string SpanProfile::collapsed() const {
  std::string out;
  for (const auto& [stack, self_us] : stacks_) {
    out += stack;
    out += ' ';
    out += std::to_string(self_us);
    out += '\n';
  }
  return out;
}

std::string SpanProfile::speedscope_document(
    const std::vector<std::pair<std::string, const SpanProfile*>>& profiles) {
  // Shared frame table: every distinct path component across every profile,
  // first-seen order (deterministic: profiles in caller order, stacks
  // name-sorted within each).
  std::vector<std::string> frames;
  std::map<std::string, std::size_t> frame_index;
  const auto intern = [&](std::string_view name) {
    auto it = frame_index.find(std::string(name));
    if (it != frame_index.end()) return it->second;
    const std::size_t idx = frames.size();
    frames.emplace_back(name);
    frame_index.emplace(std::string(name), idx);
    return idx;
  };
  const auto split_stack = [&](const std::string& stack) {
    std::vector<std::size_t> indices;
    std::size_t begin = 0;
    while (begin <= stack.size()) {
      const std::size_t sep = stack.find(';', begin);
      const std::size_t end = sep == std::string::npos ? stack.size() : sep;
      indices.push_back(intern(std::string_view(stack).substr(begin, end - begin)));
      if (sep == std::string::npos) break;
      begin = sep + 1;
    }
    return indices;
  };

  std::string body;
  bool first_profile = true;
  for (const auto& [name, profile] : profiles) {
    if (!first_profile) body += ',';
    first_profile = false;
    body += "{\"type\":\"sampled\",\"name\":";
    append_json_string(body, name);
    body += ",\"unit\":\"microseconds\",\"startValue\":0,\"endValue\":";
    body += std::to_string(profile != nullptr ? profile->total_us() : 0);
    body += ",\"samples\":[";
    std::vector<std::uint64_t> weights;
    bool first_stack = true;
    if (profile != nullptr) {
      weights.reserve(profile->stacks_.size());
      for (const auto& [stack, self_us] : profile->stacks_) {
        if (!first_stack) body += ',';
        first_stack = false;
        body += '[';
        const std::vector<std::size_t> indices = split_stack(stack);
        for (std::size_t i = 0; i < indices.size(); ++i) {
          if (i > 0) body += ',';
          body += std::to_string(indices[i]);
        }
        body += ']';
        weights.push_back(self_us);
      }
    }
    body += "],\"weights\":[";
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (i > 0) body += ',';
      body += std::to_string(weights[i]);
    }
    body += "]}";
  }

  std::string out =
      "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
      "\"shared\":{\"frames\":[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, frames[i]);
    out += '}';
  }
  out += "]},\"profiles\":[";
  out += body;
  out += "],\"activeProfileIndex\":0,\"exporter\":\"cbde\"}";
  return out;
}

}  // namespace cbde::obs
