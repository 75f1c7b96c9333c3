// In-memory request spans recorded by the benchmark around its calls into
// the xpuf libraries. A span has a name, start, end, the span that caused it
// (possibly on another thread) and the id of the request it belongs to. The
// recorder keeps everything in memory and writes it out once, at exit; with
// tracing off, every call is a cheap no-op.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t request = 0;
  std::int64_t parent = -1;  ///< index into the recorder's spans, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are merged, children are
/// clipped to the parent's interval). Indexed like `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Sum of self times per span name, in seconds.
std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off (e.g. an untraced phase before a traced one).
  /// Call only while no other thread records.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh request id (spans of one request share it).
  std::uint64_t new_request();

  /// Opens a span; returns its id, or -1 when tracing is off.
  std::int64_t begin(const char* name, std::uint64_t request, std::int64_t parent = -1);
  void end(std::int64_t id);
  /// Records a span whose interval was measured by the caller.
  std::int64_t add(const char* name, std::uint64_t request, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns);

  std::vector<Span> spans() const;
  /// One JSON object per line: name, request, parent, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_request_ = 1;  // guarded by mu_
};

/// Scoped span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t request,
             std::int64_t parent = -1)
      : recorder_(recorder), id_(recorder.begin(name, request, parent)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t id_;
};

}  // namespace perfbench
