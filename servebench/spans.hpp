// In-memory spans of the benchmark's traced run, their Chrome-trace export
// and the per-layer self-time table.
//
// Spans are recorded by the benchmark around its own calls into the library
// (and from public result fields); nothing inside the library is traced.
// A span's self time is its duration minus the part of its interval that
// its children cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";  // static string
  const char* category = "";
  std::uint64_t trace_id = 0;   // shared by the spans of one request
  std::int64_t parent = -1;     // index into the log, -1 for a root
  std::int64_t start_ns = 0;    // from the log's epoch
  std::int64_t end_ns = 0;
  bool async = false;  // request spans overlap each other; replay spans do not
};

struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class SpanLog {
 public:
  /// Append a span and return its index (the parent handle of children).
  std::int64_t add(const Span& span) {
    spans_.push_back(span);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name, in first-seen order.
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace servebench
