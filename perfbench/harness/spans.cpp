#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;  // end of the covered prefix so far
    for (const auto& [a, b] : kids) {
      const std::int64_t from = std::max(a, cursor);
      const std::int64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[i] = std::max<std::int64_t>(hi - lo - covered, 0);
  }
  return out;
}

std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

std::uint64_t SpanRecorder::new_request() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t request,
                                 std::int64_t parent) {
  if (!enabled()) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, parent, t, t});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t SpanRecorder::add(const char* name, std::uint64_t request, std::int64_t parent,
                               std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : all)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  std::fclose(f);
}

}  // namespace perfbench
