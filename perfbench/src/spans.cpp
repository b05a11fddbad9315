// spans.cpp -- see spans.hpp.
#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::add(const char* name, std::int64_t parent,
                          std::int64_t call, std::int64_t t0, std::int64_t t1,
                          bool synthetic) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({id, parent, call, name, t0, t1, synthetic});
  return id;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[s.parent].push_back({s.t0, s.t1});
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    auto& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, end = s.t0;
    for (auto [a, b] : iv) {
      a = std::max(a, end);
      b = std::min(b, s.t1);
      if (b > a) {
        covered += b - a;
        end = b;
      }
    }
    out[s.name] += (s.t1 - s.t0 - covered) * 1e-9;
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_)
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"call\":" << s.call << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.t0 << ",\"end_ns\":" << s.t1
       << ",\"synthetic\":" << (s.synthetic ? "true" : "false") << "}\n";
  os << "{\"self_seconds\":{";
  bool first = true;
  for (const auto& [name, sec] : self_seconds()) {
    os << (first ? "" : ",") << '"' << name << "\":" << sec;
    first = false;
  }
  os << "}}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
