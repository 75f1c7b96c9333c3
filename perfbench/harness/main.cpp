// Repository benchmark binary.
//
//   xpuf_perfbench --workload enroll|auth_socket|auth_fleet --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload against the xpuf libraries' public APIs, checks its
// outputs, and prints a human-readable report followed by one JSON line
// (run record, correctness, counts, violations, metrics). Exits 1 when an
// output check failed and 2 on an error before a result exists.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workload.hpp"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric; each workload measures all of them.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_mean_ms", "ms"},     {"bytes_per_op", "B"},
    {"anon_kb_per_device", "KiB"}, {"ok_share", "share"},
};

/// Every per-layer metric. A layer that does no work on a workload reads 0
/// there (e.g. net.* on enroll and auth_fleet).
constexpr MetricName kPerLayer[] = {
    {"sim.scan_share", "share"},
    {"sim.measurements_per_device", "count"},
    {"sim.respond_share", "share"},
    {"puf.enroll_share", "share"},
    {"puf.enroll_fit_self_share", "share"},
    {"puf.screening.candidates_per_device", "count"},
    {"puf.screening.candidates_per_auth", "count"},
    {"puf.screening.accept_ratio", "ratio"},
    {"puf.screening.bit_errors_per_auth", "count"},
    {"puf.screening.candidates_per_s", "1/s"},
    {"puf.database.register_share", "share"},
    {"puf.database.register_wait_share", "share"},
    {"puf.database.issue_drain_share", "share"},
    {"puf.database.issue_refill_share", "share"},
    {"puf.database.verify_share", "share"},
    {"puf.database.revoke_share", "share"},
    {"puf.database.refill_issue_ratio", "ratio"},
    {"puf.database.pool_refills_per_auth", "count"},
    {"puf.database.pool_misses_per_auth", "count"},
    {"puf.database.replay_rejected", "count"},
    {"puf.database.ledger_bytes_per_issued", "B"},
    {"puf.store.append_bytes_per_device", "B"},
    {"puf.store.append_bytes_per_auth", "B"},
    {"puf.store.cold_resolves_per_auth", "count"},
    {"puf.store.cache_hit_ratio", "ratio"},
    {"puf.store.compact_mb_per_s", "MB/s"},
    {"puf.store.open_mb_per_s", "MB/s"},
    {"net.frames_per_auth", "count"},
    {"net.retries_per_auth", "count"},
    {"net.busy_nacks", "count"},
    {"net.sessions_expired", "count"},
    {"net.async.timers_per_auth", "count"},
    {"net.async.db_share", "share"},
    {"trace.coverage_share", "share"},
    {"trace.overhead_share", "share"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: xpuf_perfbench --workload enroll|auth_socket|auth_fleet "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds must be in (0, 600]");

  RunRecord record;
  record.workload = opt.workload;
  record.seed = opt.seed;
  record.seconds = opt.seconds;
  record.trace = opt.trace;
  record.nproc = online_cpus();
  record.cpu_model = cpu_model();
#ifdef NDEBUG
  record.build_type = "Release (NDEBUG)";
#else
  record.build_type = "assertions on";
#endif
  record.flush_policy = "store: fflush per append, no fsync";
  record.transport = "none";

  try {
    std::filesystem::create_directories(opt.work_dir);
    Result result;
    if (opt.workload == "enroll") {
      result = run_enroll(opt, record);
    } else if (opt.workload == "auth_socket") {
      record.transport = "loopback TCP (127.0.0.1)";
      record.flush_policy = "in-memory database shards (no store)";
      result = run_auth_socket(opt, record);
    } else if (opt.workload == "auth_fleet") {
      result = run_auth_fleet(opt, record);
    } else {
      usage("unknown workload");
    }
    for (const MetricName& m : kEndToEnd)
      if (!result.has(m.name)) throw std::logic_error(std::string("unset metric ") + m.name);
    for (const MetricName& m : kPerLayer)
      if (!result.has(m.name)) result.set(m.name, 0.0, m.unit);
    result.print(record);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
