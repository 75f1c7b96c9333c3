// Measurement helpers of the repository benchmark: the memory probe, the
// percentile rule, and the run record every result carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Resident memory split as the kernel reports it in /proc/self/status.
/// RssAnon is heap and stack; RssFile is file-backed pages, which includes
/// touched pages of the store's mmap'd shards. ru_maxrss mixes the two, so
/// memory-per-device figures read RssAnon only.
struct ProcStatus {
  std::uint64_t rss_anon_kb = 0;
  std::uint64_t rss_file_kb = 0;
  bool ok = false;  ///< both fields were found
};

/// Parses the text of a /proc/<pid>/status file ("RssAnon:\t  1234 kB").
ProcStatus parse_proc_status(std::string_view text);

/// Reads /proc/self/status after returning freed heap to the kernel, so
/// two readings differ by live allocations rather than allocator caching.
ProcStatus read_proc_status();

/// Nearest-rank percentile with the reporting rule: the q-quantile of n
/// samples is reported only when at least `min_beyond` samples lie above its
/// rank; otherwise it is unknown.
struct Percentile {
  std::optional<double> value;
  std::size_t samples = 0;
};

std::size_t samples_beyond(std::size_t n, double q);
Percentile percentile(std::vector<double> samples, double q, std::size_t min_beyond = 10);

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> samples);

/// "p50=1.234 ms (n=4000)" or "p99=n/a (n=40, needs >= 10 beyond)".
std::string describe(const char* label, const Percentile& p, const char* unit, double q);

/// What a result was measured on. Results compare only like for like: same
/// threads, nproc, CPU model, build type, flush policy and transport.
struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t client_threads = 0;   ///< closed-loop lanes driving load
  std::size_t library_lanes = 0;    ///< xpuf global thread-pool lanes
  std::size_t nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string flush_policy;
  std::string transport;
};

std::size_t online_cpus();
std::string cpu_model();

}  // namespace perfbench
