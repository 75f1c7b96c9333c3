// Workload `enroll`: the provisioning line.
//
// Two fitter threads take fabricated chips one at a time, measure and fit each
// through Enroller::enroll (paper size), then hand the model to the single
// writer, which calls register_device on a store-backed ServerDatabase with
// per-device pools on (pool pre-screening + REGISTER/POOL appends). Each
// fitter waits for its registration to return before taking the next chip,
// so the loop is closed: at most one device per fitter is in flight. After
// the window, save() compacts the store.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace xpuf;

namespace {

/// Chips fabricated per second of measurement; far above what the line
/// reaches, and checked (running out is a violation, not a shorter window).
constexpr std::size_t kChipsPerSecond = 200;
/// Unmeasured provisioning before the window.
constexpr double kWarmupSeconds = 1.0;

struct Job {
  puf::ServerModel model;
  std::uint64_t request = 0;
  std::int64_t root = -1;
  std::int64_t submit_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool done = false;
  bool ok = false;
};

struct PhaseStats {
  std::size_t devices = 0;
  std::size_t failed = 0;
  double wall = 0.0;
  bool exhausted = false;
  std::vector<double> latency_ms;   ///< measurement start -> register returns
  std::vector<double> enroll_ms;    ///< Enroller::enroll
  std::vector<double> wait_ms;      ///< fitted model waiting for the writer
  std::vector<double> register_ms;  ///< register_device
};

double ms(std::int64_t from, std::int64_t to) { return static_cast<double>(to - from) * 1e-6; }

class ProvisioningLine {
 public:
  ProvisioningLine(puf::ServerDatabase& db, const std::vector<sim::XorPufChip>& chips,
                   std::uint64_t seed, std::size_t fitters, SpanRecorder& spans)
      : db_(db), chips_(chips), seed_(seed), fitters_(fitters), spans_(spans),
        enroller_(paper_enrollment()) {}

  PhaseStats run(double seconds) {
    PhaseStats stats;
    std::vector<PhaseStats> lane(fitters_);
    stop_writer_ = false;
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::thread writer([this, t0] { write_loop(CpuRotation(t0, 0)); });
    std::vector<std::thread> fitters;
    for (std::size_t i = 0; i < fitters_; ++i)
      fitters.emplace_back([this, &lane, i, t0, deadline] {
        fit_loop(lane[i], deadline, CpuRotation(t0, i + 1));
      });
    for (std::thread& t : fitters) t.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_writer_ = true;
    }
    writer_cv_.notify_all();
    writer.join();
    stats.wall = static_cast<double>(now_ns() - t0) * 1e-9;
    for (const PhaseStats& l : lane) {
      stats.devices += l.devices;
      stats.failed += l.failed;
      stats.exhausted = stats.exhausted || l.exhausted;
      for (auto [dst, src] : {std::pair{&stats.latency_ms, &l.latency_ms},
                              std::pair{&stats.enroll_ms, &l.enroll_ms},
                              std::pair{&stats.wait_ms, &l.wait_ms},
                              std::pair{&stats.register_ms, &l.register_ms}})
        dst->insert(dst->end(), src->begin(), src->end());
    }
    return stats;
  }

 private:
  void fit_loop(PhaseStats& out, std::int64_t deadline, CpuRotation cpu) {
    Job job;
    while (now_ns() < deadline) {
      cpu.tick();
      const std::size_t idx = next_chip_.fetch_add(1);
      if (idx >= chips_.size()) {
        out.exhausted = true;
        break;
      }
      job.request = spans_.new_request();
      job.root = spans_.begin("enroll.device", job.request);
      const std::int64_t t0 = now_ns();
      std::int64_t t_fit = 0;
      try {
        const ScopedSpan fit(spans_, "puf.enroll", job.request, job.root);
        job.model = enroll_chip(enroller_, chips_[idx], seed_);
        t_fit = now_ns();
      } catch (const std::exception&) {
        spans_.end(job.root);
        ++out.failed;
        continue;
      }
      job.done = false;
      job.submit_ns = now_ns();
      {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(&job);
        writer_cv_.notify_one();
        done_cv_.wait(lock, [&job] { return job.done; });
      }
      const std::int64_t t1 = now_ns();
      spans_.end(job.root);
      if (!job.ok) {
        ++out.failed;
        continue;
      }
      ++out.devices;
      out.latency_ms.push_back(ms(t0, t1));
      out.enroll_ms.push_back(ms(t0, t_fit));
      out.wait_ms.push_back(ms(job.submit_ns, job.start_ns));
      out.register_ms.push_back(ms(job.start_ns, job.end_ns));
    }
  }

  void write_loop(CpuRotation cpu) {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        writer_cv_.wait(lock, [this] { return stop_writer_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = queue_.front();
        queue_.pop_front();
      }
      cpu.tick();
      job->start_ns = now_ns();
      bool ok = true;
      try {
        db_.register_device(std::move(job->model));
      } catch (const std::exception&) {
        ok = false;
      }
      job->end_ns = now_ns();
      spans_.add("register.wait", job->request, job->root, job->submit_ns, job->start_ns);
      spans_.add("db.register", job->request, job->root, job->start_ns, job->end_ns);
      {
        std::lock_guard<std::mutex> lock(mu_);
        job->ok = ok;
        job->done = true;
      }
      done_cv_.notify_all();
    }
  }

  puf::ServerDatabase& db_;
  const std::vector<sim::XorPufChip>& chips_;
  std::uint64_t seed_;
  std::size_t fitters_;
  SpanRecorder& spans_;
  puf::Enroller enroller_;
  std::atomic<std::size_t> next_chip_{0};

  std::mutex mu_;
  std::condition_variable writer_cv_;
  std::condition_variable done_cv_;
  std::deque<Job*> queue_;    // guarded by mu_
  bool stop_writer_ = false;  // guarded by mu_
};

}  // namespace

Result run_enroll(const Options& opt, RunRecord& record) {
  Result res;
  // Two fitters and the writer keep one CPU of a 4-CPU host free for the
  // kernel and neighbours, so the writer is rarely preempted; fit and
  // register both sit on each fitter's critical path.
  const std::size_t fitters = online_cpus() >= 4 ? 2 : 1;
  // The line's own threads are the parallelism; library loops run inline.
  ThreadPool::set_global_threads(1);
  record.client_threads = fitters + 1;
  record.library_lanes = 1;

  const std::string dir = opt.work_dir + "/enroll_store";
  const puf::DatabaseConfig cfg = database_config(opt.seed, kPoolTarget);
  const std::size_t n_chips =
      kChipsPerSecond * static_cast<std::size_t>(opt.seconds + kWarmupSeconds + 1.0);

  // The model cache holds the whole lot, so memory per device is the full
  // resident cost of a registered device (not a share of a full LRU).
  puf::store::StoreOptions store_opts;
  store_opts.cache_capacity = n_chips;

  // Set-up (fabricate the lot, open a fresh store), twice on each CPU in
  // turn, so the median does not depend on the CPU it landed on (see
  // CpuRotation); the last one is kept.
  std::vector<double> setup_s;
  std::vector<sim::XorPufChip> chips;
  std::optional<puf::ServerDatabase> db;
  for (std::size_t rep = 0; rep < 2 * online_cpus(); ++rep) {
    pin_to_cpu(rep);
    db.reset();
    chips.clear();
    std::filesystem::remove_all(dir);
    Timer t;
    chips = fabricate(opt.seed, 0, n_chips);
    db.emplace(puf::ServerDatabase::open(dir, cfg, store_opts));
    setup_s.push_back(t.seconds());
  }
  unpin();

  SpanRecorder spans(false);
  ProvisioningLine line(*db, chips, opt.seed, fitters, spans);
  // Warm-up: threads, allocator arenas and the model cache settle before
  // anything is measured.
  const PhaseStats warm = line.run(kWarmupSeconds);
  const std::uint64_t bytes0 = dir_bytes(dir);
  const ProcStatus mem0 = read_proc_status();

  // With tracing, an untraced first half gives the overhead reference.
  double untraced_rate = 0.0;
  std::size_t acknowledged = warm.devices;
  std::size_t failed = warm.failed;
  bool exhausted = warm.exhausted;
  const double window_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  if (opt.trace) {
    const PhaseStats ref = line.run(window_s);
    untraced_rate = static_cast<double>(ref.devices) / ref.wall;
    acknowledged += ref.devices;
    failed += ref.failed;
    exhausted = exhausted || ref.exhausted;
    spans.set_enabled(true);
  }
  const RegistrySnapshot before = RegistrySnapshot::take();
  const PhaseStats st = line.run(window_s);
  acknowledged += st.devices;
  failed += st.failed;
  exhausted = exhausted || st.exhausted;
  const RegistrySnapshot after = RegistrySnapshot::take();
  const ProcStatus mem1 = read_proc_status();
  const std::uint64_t bytes1 = dir_bytes(dir);

  Timer compact_timer;
  db->save(dir);
  const double compact_s = compact_timer.seconds();
  const std::uint64_t store_bytes = dir_bytes(dir);

  // --- output checks ---------------------------------------------------
  const std::size_t registered = db->device_count();
  res.check(!exhausted, "chip lot exhausted before the window ended");
  res.check(st.devices > 0, "no device was enrolled");
  res.check(failed == 0, std::to_string(failed) + " enrollments/registrations failed");
  res.check(registered == acknowledged, "device_count " + std::to_string(registered) +
                                            " != registrations acknowledged " +
                                            std::to_string(acknowledged));
  std::size_t short_pools = 0;
  for (std::size_t id = 0; id < chips.size(); ++id)
    if (db->knows(id) && db->pool_remaining(id) != kPoolTarget) ++short_pools;
  res.check(short_pools == 0, std::to_string(short_pools) + " devices with an unfilled pool");
  res.check(mem0.ok && mem1.ok, "/proc/self/status lacks RssAnon/RssFile");

  res.attempted = acknowledged + failed;
  res.failed = failed;

  // --- end-to-end ------------------------------------------------------
  const double devices = static_cast<double>(st.devices);
  res.set("setup_s", median(setup_s), "s");
  res.set("ops_per_s", devices / st.wall, "1/s");
  res.set("op_mean_ms", mean(st.latency_ms), "ms");
  res.set("bytes_per_op", static_cast<double>(store_bytes) / static_cast<double>(registered),
          "B");
  const double anon_growth_kb =
      static_cast<double>(mem1.rss_anon_kb) - static_cast<double>(mem0.rss_anon_kb);
  res.set("anon_kb_per_device",
          anon_growth_kb / static_cast<double>(registered - warm.devices), "KiB");
  res.set("ok_share",
          1.0 - share(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
          "share");

  res.note("workload enroll: " + std::to_string(fitters) + " fitter threads + 1 writer, " +
           std::to_string(st.devices) + " devices in " + std::to_string(st.wall) +
           " s (closed loop, one device in flight per fitter)");
  res.note("  enroll_devices_per_s=" + std::to_string(devices / st.wall) + " 1/s");
  note_latency(res, "enroll latency (fit start -> register returns)", st.latency_ms);
  res.note("  store_bytes_per_device=" + std::to_string(res.get("bytes_per_op")) +
           " B after compaction (" + std::to_string(registered) + " devices, " +
           std::to_string(store_bytes) + " B)");
  res.note("  failed_share=" + std::to_string(1.0 - res.get("ok_share")));

  // --- per layer ---------------------------------------------------------
  const double lane_s = static_cast<double>(fitters) * st.wall;
  const double scan_s = span_delta(before, after, "tester.scan_stream_chunk");
  const double tried = static_cast<double>(delta(before, after, "selection.candidates_tried"));
  const double accepted = static_cast<double>(delta(before, after, "selection.accepted"));
  double enroll_s = 0.0, wait_s = 0.0, register_s = 0.0, coverage_s = 0.0;
  if (opt.trace) {
    const auto self = finish_trace(opt, spans, res);
    for (const auto& [name, s] : self) coverage_s += s;
    enroll_s = self.count("puf.enroll") ? self.at("puf.enroll") : 0.0;
    wait_s = self.count("register.wait") ? self.at("register.wait") : 0.0;
    register_s = self.count("db.register") ? self.at("db.register") : 0.0;
  }
  res.set("sim.scan_share", share(scan_s, lane_s), "share");
  res.set("sim.measurements_per_device",
          share(static_cast<double>(delta(before, after, "tester.measurements")), devices),
          "count");
  res.set("puf.enroll_share", share(enroll_s, lane_s), "share");
  res.set("puf.enroll_fit_self_share", share(enroll_s - scan_s, lane_s), "share");
  res.set("puf.screening.candidates_per_device", share(tried, devices), "count");
  res.set("puf.screening.accept_ratio", share(accepted, tried), "ratio");
  res.set("puf.screening.candidates_per_s",
          share(tried, mean(st.register_ms) * 1e-3 * devices), "1/s");
  res.set("puf.database.register_share", share(register_s, lane_s), "share");
  res.set("puf.database.register_wait_share", share(wait_s, lane_s), "share");
  res.set("puf.store.append_bytes_per_device",
          share(static_cast<double>(bytes1 - bytes0), devices), "B");
  res.set("puf.store.compact_mb_per_s", share(static_cast<double>(bytes1) * 1e-6, compact_s),
          "MB/s");
  res.set("trace.coverage_share", share(coverage_s, lane_s), "share");
  if (opt.trace) {
    const double traced_rate = devices / st.wall;
    res.set("trace.overhead_share", share(untraced_rate, traced_rate) - 1.0, "share");
    res.check(res.get("trace.coverage_share") > 0.9 && res.get("trace.coverage_share") < 1.1,
              "traced self times cover " + std::to_string(res.get("trace.coverage_share")) +
                  " of lane time (must be within 10%)");
  }
  note_latency(res, "register (writer)", st.register_ms);
  note_latency(res, "register wait", st.wait_ms);
  note_latency(res, "Enroller::enroll", st.enroll_ms);
  std::filesystem::remove_all(dir);
  return res;
}

}  // namespace perfbench
