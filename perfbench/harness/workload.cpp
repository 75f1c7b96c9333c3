#include "workload.hpp"

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "common/rng.hpp"
#include "sim/device.hpp"
#include "sim/environment.hpp"

namespace perfbench {

using namespace xpuf;

puf::EnrollmentConfig paper_enrollment() {
  puf::EnrollmentConfig config;
  config.training_challenges = 5000;
  config.trials = 10'000;
  return config;
}

puf::BetaFactors paper_betas() { return {0.9, 1.1}; }

std::vector<sim::XorPufChip> fabricate(std::uint64_t seed, std::size_t first_id,
                                       std::size_t n) {
  Rng rng(seed ^ 0xfab0000000000000ull ^ first_id);
  const sim::DeviceParameters device;
  const sim::EnvironmentModel environment;
  std::vector<sim::XorPufChip> chips;
  chips.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    chips.emplace_back(first_id + i, kPufs, device, environment, rng);
  return chips;
}

puf::ServerModel enroll_chip(const puf::Enroller& enroller, const sim::XorPufChip& chip,
                             std::uint64_t seed) {
  Rng rng = StreamFamily(seed ^ 0xe0e0e0e0e0e0e0e0ull).stream(chip.id());
  puf::ServerModel model = enroller.enroll(chip, rng);
  model.set_betas(paper_betas());
  return model;
}

puf::DatabaseConfig database_config(std::uint64_t seed, std::size_t pool_target) {
  puf::DatabaseConfig config;
  config.n_pufs = kPufs;
  config.policy.challenge_count = kChallenges;
  config.policy.max_hamming_distance = kMaxHammingDistance;
  config.pool.target = pool_target;
  config.pool.seed = seed * 0x9e3779b97f4a7c15ull + 0x706f6f6cull;
  return config;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot s;
  s.snap_ = MetricsRegistry::global().snapshot();
  return s;
}

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
  const auto it = snap_.counters.find(name);
  return it == snap_.counters.end() ? 0 : it->second;
}

double RegistrySnapshot::span_seconds(const std::string& name) const {
  const auto it = snap_.spans.find(name);
  return it == snap_.spans.end() ? 0.0 : it->second.seconds;
}

std::uint64_t delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                    const std::string& counter) {
  return after.counter(counter) - before.counter(counter);
}

double span_delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                  const std::string& span) {
  return after.span_seconds(span) - before.span_seconds(span);
}

void note_latency(Result& result, const std::string& label, const std::vector<double>& ms) {
  std::string line = "  " + label + ":";
  for (const auto& [name, q] : {std::pair{"p50", 0.5}, std::pair{"p90", 0.9},
                                std::pair{"p99", 0.99}})
    line += ' ' + describe(name, percentile(ms, q), "ms", q) + ';';
  result.note(line);
}

std::map<std::string, double> finish_trace(const Options& options, const SpanRecorder& spans,
                                           Result& result) {
  const std::string path = options.work_dir + "/spans_" + options.workload + ".jsonl";
  spans.write_jsonl(path);
  const std::vector<Span> all = spans.spans();
  result.note("  spans: " + std::to_string(all.size()) + " written to " + path);
  return self_seconds_by_name(all);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void pin_to_cpu(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % online_cpus()), &set);
  sched_setaffinity(0, sizeof set, &set);
}

void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = 0; c < online_cpus(); ++c) CPU_SET(static_cast<int>(c), &set);
  sched_setaffinity(0, sizeof set, &set);
}

CpuRotation::CpuRotation(std::int64_t start_ns, std::size_t offset)
    : start_ns_(start_ns), offset_(offset), cpus_(online_cpus()), current_(cpus_) {}

void CpuRotation::tick() {
  const auto second = static_cast<std::size_t>(std::max<std::int64_t>(now_ns() - start_ns_, 0) /
                                               1'000'000'000);
  const std::size_t cpu = (second + offset_) % cpus_;
  if (cpu == current_) return;
  pin_to_cpu(cpu);
  current_ = cpu;
}

}  // namespace perfbench
