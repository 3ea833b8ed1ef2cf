#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

namespace servebench {

std::vector<SelfTime> SpanLog::self_times() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

  std::vector<SelfTime> rows;
  std::map<std::string, std::size_t> row_of;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t begin = std::max(spans_[c].start_ns, span.start_ns);
      const std::int64_t end = std::min(spans_[c].end_ns, span.end_ns);
      if (end > begin) cover.emplace_back(begin, end);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : cover) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto [it, inserted] = row_of.try_emplace(span.name, rows.size());
    if (inserted) rows.push_back(SelfTime{span.name, 0, 0.0, 0.0});
    SelfTime& row = rows[it->second];
    ++row.count;
    row.total_us += static_cast<double>(duration) / 1e3;
    row.self_us += static_cast<double>(duration - covered) / 1e3;
  }
  return rows;
}

bool SpanLog::write_chrome(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "w"),
                                                             &std::fclose);
  if (!file) return false;
  std::FILE* out = file.get();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  std::fputs(R"({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"requests"}})",
             out);
  std::fputs(
      ",\n"
      R"({"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"layer replay"}})",
      out);
  for (const Span& span : spans_) {
    const double ts = static_cast<double>(span.start_ns) / 1e3;
    const double end = static_cast<double>(span.end_ns) / 1e3;
    if (span.async) {
      // Nestable async events: the spans of one request share an id.
      std::fprintf(out,
                   ",\n{\"ph\":\"b\",\"pid\":1,\"tid\":1,\"cat\":\"%s\",\"name\":\"%s\","
                   "\"id\":\"0x%llx\",\"ts\":%.3f}",
                   span.category, span.name, static_cast<unsigned long long>(span.trace_id), ts);
      std::fprintf(out,
                   ",\n{\"ph\":\"e\",\"pid\":1,\"tid\":1,\"cat\":\"%s\",\"name\":\"%s\","
                   "\"id\":\"0x%llx\",\"ts\":%.3f}",
                   span.category, span.name, static_cast<unsigned long long>(span.trace_id), end);
    } else {
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"cat\":\"%s\",\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                   span.category, span.name, ts, end - ts,
                   static_cast<unsigned long long>(span.trace_id));
    }
  }
  std::fputs("\n]}\n", out);
  return std::ferror(out) == 0;
}

}  // namespace servebench
