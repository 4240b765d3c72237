// In-memory span log for the traced run. Spans are recorded only around
// the benchmark's own calls into the engine's layers; the program itself
// is not instrumented. The log is written out once, when the run ends.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace qbench {

class span_log {
 public:
  static constexpr std::uint32_t kNoParent = 0;
  static constexpr std::uint64_t kNoRequest = ~0ull;

  struct span {
    std::uint32_t id = 0;  ///< 1-based
    std::uint32_t parent = kNoParent;
    const char* name = "";
    std::uint64_t request = kNoRequest;  ///< batch id shared by its spans
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent,
                     std::uint64_t request = kNoRequest) {
    spans_.push_back({static_cast<std::uint32_t>(spans_.size() + 1), parent,
                      name, request, quecc::common::now_nanos(), 0});
    return spans_.back().id;
  }
  void close(std::uint32_t id) {
    spans_[id - 1].end_ns = quecc::common::now_nanos();
  }
  /// A span whose start and end the caller already measured.
  void add(const char* name, std::uint32_t parent, std::uint64_t request,
           std::uint64_t start_ns, std::uint64_t end_ns) {
    spans_.push_back({static_cast<std::uint32_t>(spans_.size() + 1), parent,
                      name, request, start_ns, end_ns});
  }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns - base) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
      if (s.request != kNoRequest) os << ",\"batch\":" << s.request;
      os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::vector<span> spans_;
};

/// Scoped span on an optional log (nullptr = untraced: records nothing).
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name,
              std::uint32_t parent = span_log::kNoParent)
      : log_(log), id_(log ? log->open(name, parent) : 0) {}
  ~scoped_span() {
    if (log_) log_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::uint32_t id() const noexcept { return id_; }

 private:
  span_log* log_;
  std::uint32_t id_;
};

}  // namespace qbench
