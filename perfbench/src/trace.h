#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into the program's
// public functions. Spans live in memory and are written once, at the end
// of a traced run. A disabled Tracer records nothing, so untraced runs pay
// one branch per call site.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
inline int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// Single-threaded span recorder: Begin/End nest on a stack; Add records a
/// span measured elsewhere (e.g. a request timed by another thread).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  int64_t Begin(const char* name, int64_t op = -1) {
    if (!on_) return -1;
    const int64_t parent = stack_.empty() ? -1 : stack_.back();
    if (op < 0 && parent >= 0) op = spans_[static_cast<size_t>(parent)].op;
    spans_.push_back({name, NowNs(), 0, parent, op});
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int64_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t op) {
    if (!on_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"spans":[{"name","start_ns","end_ns","parent","op"},...]}.
  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"op\": " << s.op << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return out.good();
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t op = -1)
      : tracer_(tracer), id_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
