#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "stats.hpp"

namespace perfbench {

std::vector<SelfTimeRow> self_time_table(
    const std::vector<const SpanRecorder*>& recorders) {
  std::map<std::string, SelfTimeRow> rows;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back({s.start_us, s.end_us});
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SelfTimeRow& row = rows[spans[i].name];
      row.name = spans[i].name;
      ++row.count;
      row.total_us += spans[i].end_us - spans[i].start_us;
      row.self_us += self_time({spans[i].start_us, spans[i].end_us}, children[i]);
    }
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const SelfTimeRow& a, const SelfTimeRow& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                    "\"parent\": %lld, \"step\": %lld, \"derived\": %s}}",
                    first ? "" : ",\n", s.name, rec->tid(), s.start_us,
                    s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                    static_cast<long long>(s.step), s.derived ? "true" : "false");
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
