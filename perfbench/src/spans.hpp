// spans.hpp -- in-memory spans of the traced run, written out at the end.
//
// Spans are recorded by the benchmark around its calls into the library:
// workload -> call (one item) -> api (one entry-point call) -> the report's
// phases (convert_in, compute with its leaf share, convert_out).  Every span
// of one item carries the item's call id.  Phase spans are placed from the
// report's phase durations inside the api span ("synthetic": the library
// reports how long a phase took, not when it started).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int64_t id = 0, parent = -1, call = -1;
  const char* name = "";
  std::int64_t t0 = 0, t1 = 0;  // steady-clock nanoseconds
  bool synthetic = false;
};

class SpanLog {
 public:
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t call,
                   std::int64_t t0, std::int64_t t1, bool synthetic = false);
  void set_end(std::int64_t id, std::int64_t t1) { spans_[id].t1 = t1; }
  // Seconds of self time per span name: a span's duration minus the union
  // of its children's intervals, summed over spans of that name.
  std::map<std::string, double> self_seconds() const;
  // One JSON object per line, then a summary line with the self times.
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
