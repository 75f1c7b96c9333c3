// Workload `auth_socket`: steady-state serving over loopback TCP.
//
// One AsyncServiceEngine serves 4 devices, one connection each, every device
// at a different paper V/T corner and running kSessions sequential auth
// sessions (closed loop: one session in flight per connection). Devices are
// registered at provision (enroll_first = false) with pools sized to cover
// every session, so issuance inside run() is a pure drain. A repetition is
// one fresh engine (provision = its set-up, run() = its measured part).
// Pre-screening the pools costs far more than serving them, so repetitions
// continue until --seconds of wall time (set-up included) have passed; the
// rates use the time inside run() only.
//
// The engine exposes only a tick-quantized latency histogram, so per-session
// latency cannot be timed from outside; op_mean_ms is the closed-loop mean
// (connections x run wall / sessions), and no percentile is reported.
#include <algorithm>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "workload.hpp"
#include "net/async/service_engine.hpp"
#include "sim/environment.hpp"

namespace perfbench {

using namespace xpuf;

namespace {

/// Devices (= connections) of the engine.
constexpr std::size_t kDevices = 4;
/// Sequential sessions per device per repetition. Fixed: per-session cost
/// grows with the depth of the per-device replay ledger.
constexpr std::uint32_t kSessions = 125;

}  // namespace

Result run_auth_socket(const Options& opt, RunRecord& record) {
  Result res;
  // One closed-loop client thread; library loops run inline on it.
  ThreadPool::set_global_threads(1);
  record.client_threads = 1;
  record.library_lanes = 1;

  // Paper-size enrollment of the four chips, each placed at its own corner.
  const std::vector<sim::XorPufChip> chips = fabricate(opt.seed, 1, kDevices);
  const puf::Enroller enroller(paper_enrollment());
  std::vector<puf::ServerModel> models;
  for (const sim::XorPufChip& chip : chips) models.push_back(enroll_chip(enroller, chip, opt.seed));
  std::vector<sim::Environment> corners = sim::paper_corner_grid();
  Rng corner_rng(opt.seed ^ 0xc0c0c0c0ull);
  for (std::size_t i = corners.size(); i > 1; --i)
    std::swap(corners[i - 1], corners[corner_rng.uniform_below(i)]);

  SpanRecorder spans(false);
  const std::size_t pool_target = (kSessions + 2) * kChallenges + puf::PoolPolicy{}.low_water;

  struct Totals {
    double run_s = 0.0;
    std::uint64_t sessions = 0, approved = 0, denied = 0, rejected = 0, failed = 0;
    std::uint64_t retries = 0, busy_nacks = 0, expired = 0, frames = 0, bytes = 0;
    std::uint64_t timers = 0, refills = 0, misses = 0, tried = 0, replays = 0, reps = 0;
    std::uint64_t bit_errors = 0, strict_denied = 0;
    double issue_s = 0.0;
  };
  std::vector<double> setup_s;
  std::vector<double> rep_rate;
  double anon_kb_per_device = 0.0;

  // Repetitions run in rounds, one per CPU, each pinned to its CPU, so a
  // run samples every CPU of the host equally (see CpuRotation).
  const std::size_t cpus = online_cpus();
  const auto run_reps = [&](double seconds, Totals& t) {
    const Timer phase;
    while (t.reps % cpus != 0 || t.reps == 0 || phase.seconds() < seconds) {
      pin_to_cpu(t.reps);
      const std::uint64_t rep_seed = opt.seed * 1000003ull + setup_s.size();
      const ProcStatus mem0 = setup_s.empty() ? read_proc_status() : ProcStatus{};
      Timer setup;
      net::async::AsyncServiceConfig config;
      config.seed = rep_seed;
      config.database = database_config(rep_seed, pool_target);
      config.shards = static_cast<std::uint32_t>(kDevices);
      config.max_connections = 64;
      net::async::AsyncServiceEngine engine(config);
      for (std::size_t d = 0; d < kDevices; ++d)
        engine.provision(chips[d], models[d], corners[d], kSessions, /*enroll_first=*/false);
      setup_s.push_back(setup.seconds());

      const RegistrySnapshot before = RegistrySnapshot::take();
      const std::int64_t t0 = now_ns();
      const net::async::AsyncServiceReport report = engine.run();
      const std::int64_t t1 = now_ns();
      const RegistrySnapshot after = RegistrySnapshot::take();
      spans.add("net.run", spans.new_request(), -1, t0, t1);
      const double wall = static_cast<double>(t1 - t0) * 1e-9;
      if (setup_s.size() == 1) {
        const ProcStatus mem1 = read_proc_status();
        res.check(mem0.ok && mem1.ok, "/proc/self/status lacks RssAnon/RssFile");
        anon_kb_per_device = (static_cast<double>(mem1.rss_anon_kb) -
                              static_cast<double>(mem0.rss_anon_kb)) /
                             static_cast<double>(kDevices);
      }

      // --- output checks (every repetition) --------------------------------
      const std::string rep = "rep " + std::to_string(t.reps) + ": ";
      res.check(report.reconciled(), rep + "engine report not reconciled" +
                                         (report.violations.empty()
                                              ? std::string()
                                              : " (" + report.violations.front() + ")"));
      res.check(report.bytes_read == report.bytes_written,
                rep + "byte conservation broken: read " + std::to_string(report.bytes_read) +
                    " written " + std::to_string(report.bytes_written));
      const std::uint64_t refills = delta(before, after, "auth.pool_refills");
      res.check(refills == 0, rep + std::to_string(refills) + " pool refills inside run()");
      res.check(report.sessions_total == kDevices * kSessions,
                rep + "sessions " + std::to_string(report.sessions_total) + " != " +
                    std::to_string(kDevices * kSessions));
      res.check(report.approved + report.denied + report.rejected + report.failed ==
                    report.sessions_total,
                rep + "session terminals do not partition the sessions");
      res.check(report.batches_issued == delta(before, after, "db.issue_requests"),
                rep + "batches issued drifted from db.issue_requests");
      // Wrong response bits, as each device's client saw them in its result.
      std::uint64_t bit_errors = 0;
      for (const std::uint64_t id : engine.device_ids())
        for (const net::SessionRecord& r : engine.device_records(id)) {
          bit_errors += r.mismatches;
          if (r.mismatches > 0) ++t.strict_denied;
        }
      res.check(bit_errors == delta(before, after, "auth.mismatches"),
                rep + "session records' mismatches drifted from auth.mismatches");
      t.bit_errors += bit_errors;

      t.run_s += wall;
      t.sessions += report.sessions_total;
      t.approved += report.approved;
      t.denied += report.denied;
      t.rejected += report.rejected;
      t.failed += report.failed;
      t.retries += report.retries;
      t.busy_nacks += report.busy_nacks;
      t.expired += report.sessions_expired;
      t.frames += report.frames_sent;
      t.bytes += report.bytes_written;
      t.timers += delta(before, after, "net.async.timers_fired");
      t.refills += refills;
      t.misses += delta(before, after, "auth.pool_misses");
      t.replays += delta(before, after, "auth.replay_rejected");
      t.tried += delta(before, after, "selection.candidates_tried");
      t.issue_s += span_delta(before, after, "db.issue_batch");
      ++t.reps;
      rep_rate.push_back(static_cast<double>(report.sessions_total) / wall);
    }
  };

  double untraced_rate = 0.0;
  if (opt.trace) {
    Totals ref;
    run_reps(opt.seconds / 2.0, ref);
    untraced_rate = static_cast<double>(ref.sessions) / ref.run_s;
    rep_rate.clear();
    spans.set_enabled(true);
  }
  Totals t;
  run_reps(opt.trace ? opt.seconds / 2.0 : opt.seconds, t);
  unpin();

  const double sessions = static_cast<double>(t.sessions);
  res.attempted = t.sessions;
  res.failed = t.denied + t.rejected + t.failed;

  // --- end-to-end ----------------------------------------------------------
  res.set("setup_s", median(setup_s), "s");
  const double rate = sessions / t.run_s;
  res.set("ops_per_s", rate, "1/s");
  res.set("op_mean_ms", static_cast<double>(kDevices) / rate * 1e3, "ms");
  res.set("bytes_per_op", static_cast<double>(t.bytes) / sessions, "B");
  res.set("anon_kb_per_device", anon_kb_per_device, "KiB");
  res.set("ok_share", 1.0 - share(static_cast<double>(res.failed), sessions), "share");

  res.note("workload auth_socket: " + std::to_string(kDevices) + " devices x " +
           std::to_string(kSessions) + " sessions per repetition, " + std::to_string(t.reps) +
           " repetitions, " + std::to_string(t.run_s) + " s in run()");
  std::string rates;
  for (const double r : rep_rate) {
    rates += ' ';
    rates += std::to_string(static_cast<long long>(r));
  }
  res.note("  auths_per_s=" + std::to_string(rate) + " 1/s (repetitions, CPU by CPU:" + rates +
           ")");
  res.note("  bytes_per_auth=" + std::to_string(res.get("bytes_per_op")) +
           " B (net.async.bytes_written / sessions)");
  res.note("  latency: no percentile; the engine's histogram is tick-quantized (1 ms) and "
           "sessions cannot be timed from outside. Closed-loop mean " +
           std::to_string(res.get("op_mean_ms")) + " ms");
  res.note("  terminals: approved=" + std::to_string(t.approved) + " denied=" +
           std::to_string(t.denied) + " rejected=" + std::to_string(t.rejected) +
           " failed=" + std::to_string(t.failed) + " (failed_share=" +
           std::to_string(share(static_cast<double>(res.failed), sessions)) + ")");
  res.note("  wrong response bits: " + std::to_string(t.bit_errors) + "; " +
           std::to_string(t.strict_denied) + " sessions carried one or more and would be "
           "denied at HD = 0 (this run allows " + std::to_string(kMaxHammingDistance) + ")");

  // --- per layer -------------------------------------------------------------
  res.set("net.frames_per_auth", share(static_cast<double>(t.frames), sessions), "count");
  res.set("net.retries_per_auth", share(static_cast<double>(t.retries), sessions), "count");
  res.set("net.busy_nacks", static_cast<double>(t.busy_nacks), "count");
  res.set("net.sessions_expired", static_cast<double>(t.expired), "count");
  res.set("net.async.timers_per_auth", share(static_cast<double>(t.timers), sessions), "count");
  res.set("net.async.db_share", share(t.issue_s, t.run_s), "share");
  res.set("puf.database.pool_refills_per_auth", share(static_cast<double>(t.refills), sessions),
          "count");
  res.set("puf.database.pool_misses_per_auth", share(static_cast<double>(t.misses), sessions),
          "count");
  res.set("puf.database.replay_rejected", static_cast<double>(t.replays), "count");
  res.set("puf.screening.candidates_per_auth", share(static_cast<double>(t.tried), sessions),
          "count");
  res.set("puf.screening.bit_errors_per_auth", share(static_cast<double>(t.bit_errors), sessions),
          "count");
  if (opt.trace) {
    const auto self = finish_trace(opt, spans, res);
    const double covered = self.count("net.run") ? self.at("net.run") : 0.0;
    res.set("trace.coverage_share", share(covered, t.run_s), "share");
    res.set("trace.overhead_share", share(untraced_rate, sessions / t.run_s) - 1.0, "share");
  }
  res.note("  replay rejections (duplicate challenges inside a pool, dropped by the replay "
           "guard): " + std::to_string(t.replays));
  res.note("  setup (engine + provision with pool pre-screening): median " +
           std::to_string(median(setup_s)) + " s over " + std::to_string(setup_s.size()));
  return res;
}

}  // namespace perfbench
