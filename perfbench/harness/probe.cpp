#include "probe.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Value of a "<key>:  <n> kB" line, if `line` is that key.
std::optional<std::uint64_t> kb_field(std::string_view line, std::string_view key) {
  if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
      line[key.size()] != ':')
    return std::nullopt;
  std::size_t i = key.size() + 1;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  std::uint64_t value = 0;
  std::size_t digits = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i, ++digits)
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
  if (digits == 0) return std::nullopt;
  return value;
}

}  // namespace

ProcStatus parse_proc_status(std::string_view text) {
  ProcStatus out;
  bool anon = false;
  bool file = false;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    if (const auto v = kb_field(line, "RssAnon")) {
      out.rss_anon_kb = *v;
      anon = true;
    } else if (const auto w = kb_field(line, "RssFile")) {
      out.rss_file_kb = *w;
      file = true;
    }
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  out.ok = anon && file;
  return out;
}

ProcStatus read_proc_status() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_proc_status(buffer.str());
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::max<std::size_t>(rank, 1);
}

Percentile percentile(std::vector<double> samples, double q, std::size_t min_beyond) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty() || samples_beyond(samples.size(), q) < min_beyond) return out;
  const auto rank = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size()))), 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  return out;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string describe(const char* label, const Percentile& p, const char* unit, double q) {
  char buf[160];
  if (p.value)
    std::snprintf(buf, sizeof buf, "%s=%.4f %s (n=%zu)", label, *p.value, unit, p.samples);
  else
    std::snprintf(buf, sizeof buf, "%s=n/a (n=%zu, %zu beyond the rank, needs 10)", label,
                  p.samples, samples_beyond(p.samples, q));
  return buf;
}

std::size_t online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
