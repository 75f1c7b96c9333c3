// Pieces the workloads share: the paper's chip and enrollment geometry,
// seeded chip fabrication, the database configuration, registry deltas,
// report helpers and CPU rotation; and the three workload entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "probe.hpp"
#include "puf/database.hpp"
#include "puf/enrollment.hpp"
#include "report.hpp"
#include "sim/chip.hpp"
#include "spans.hpp"

namespace perfbench {

namespace puf = xpuf::puf;
namespace sim = xpuf::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for stores and span files
};

/// XOR width of every chip and of the database (the paper's n = 10).
inline constexpr std::size_t kPufs = 10;
/// Challenges per authentication (the library default).
inline constexpr std::size_t kChallenges = 64;
/// Wrong response bits an authentication may carry and still pass. The
/// paper's criterion is 0. With betas 0.9/1.1 a genuine chip gets ~6e-6 of
/// its predicted-stable bits wrong, mostly at the 1.0 V corners, so HD = 0
/// would deny ~0.04 % of genuine auths at random and no run would be free
/// of failed operations. Wrong bits come one per auth: one auth in ~430 000
/// had two, none had three (300 chips x 9 corners). The workloads allow 2,
/// count every wrong bit (puf.screening.bit_errors_per_auth) and report
/// the auths HD = 0 would have denied.
inline constexpr std::size_t kMaxHammingDistance = 2;
/// Deployment pool size: four authentications' worth per device.
inline constexpr std::size_t kPoolTarget = 4 * kChallenges;

/// Paper-size enrollment: 5000 training CRPs x 10 000 counter evaluations.
puf::EnrollmentConfig paper_enrollment();
/// Threshold tightening used for every enrolled model.
puf::BetaFactors paper_betas();

/// `n` chips with ids first_id.. from the library-default device model
/// (32 stages), fabricated from a stream keyed by `seed`.
std::vector<sim::XorPufChip> fabricate(std::uint64_t seed, std::size_t first_id,
                                       std::size_t n);

/// Fits a chip at paper size with its own seeded stream; betas applied.
puf::ServerModel enroll_chip(const puf::Enroller& enroller, const sim::XorPufChip& chip,
                             std::uint64_t seed);

/// Database config: n = 10, 64 challenges at kMaxHammingDistance, pools of `pool_target`
/// with a seed derived from the workload seed.
puf::DatabaseConfig database_config(std::uint64_t seed, std::size_t pool_target);

/// Total bytes of the regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

/// Point-in-time copy of the global registry's counters and span totals.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();
  std::uint64_t counter(const std::string& name) const;
  double span_seconds(const std::string& name) const;

 private:
  xpuf::MetricsSnapshot snap_;
};

/// `after - before` for a counter.
std::uint64_t delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                    const std::string& counter);
double span_delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                  const std::string& span);

/// Adds a "<label>: p50 p90 p99" line to the report under the percentile
/// rule (a percentile without 10 samples beyond it reads n/a).
void note_latency(Result& result, const std::string& label, const std::vector<double>& ms);

/// Writes the recorder's spans to <work_dir>/spans_<workload>.jsonl and
/// notes where; returns self seconds by span name.
std::map<std::string, double> finish_trace(const Options& options, const SpanRecorder& spans,
                                           Result& result);

double mean(const std::vector<double>& v);

/// Rotates the calling thread over the host's CPUs: from `start_ns` on,
/// second k of the window runs pinned to CPU (k + offset) mod nproc. The
/// CPUs of a shared VM differ in speed (by up to ~45 % on a 4-vCPU Xeon
/// VM) and the scheduler keeps a busy thread on one CPU for long stretches,
/// so an unpinned run measures whichever CPU it landed on; a rotated run
/// samples every CPU equally.
class CpuRotation {
 public:
  CpuRotation(std::int64_t start_ns, std::size_t offset);
  /// Re-pins when the second changed; call before each operation.
  void tick();

 private:
  std::int64_t start_ns_;
  std::size_t offset_;
  std::size_t cpus_;
  std::size_t current_;
};

/// Pins the calling thread to one CPU (modulo the CPU count).
void pin_to_cpu(std::size_t cpu);
/// Lets the calling thread run on every CPU again.
void unpin();

/// The three workloads.
Result run_enroll(const Options& options, RunRecord& record);
Result run_auth_socket(const Options& options, RunRecord& record);
Result run_auth_fleet(const Options& options, RunRecord& record);

}  // namespace perfbench
