// Workload `auth_fleet`: cold, scattered serving at fleet scale.
//
// Set-up enrolls a fleet of kFleet chips (plus kSpares spare chips) at
// paper size, registers the fleet into a store-backed ServerDatabase whose
// LRU holds kCacheCapacity models (fleet = 100 x capacity) with deployment
// pools (4 x 64), compacts it and reopens it, so model resolutions go to the
// mmap'd snapshot. One closed-loop client then picks devices uniformly at
// random: 95 % of operations authenticate (issue -> the simulated chip
// answers at a random corner of the paper's 0.8-1.0 V x 0-60 C grid ->
// verify), 5 % replace the device (revoke_device, then register_device of a
// spare chip under a fresh id; the revoked chip joins the spare queue as
// refurbished hardware, re-registered later with its original fit).
#include <algorithm>
#include <deque>
#include <filesystem>
#include <optional>
#include <set>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "workload.hpp"
#include "puf/store/record.hpp"
#include "sim/environment.hpp"

namespace perfbench {

using namespace xpuf;

namespace {

constexpr std::size_t kCacheCapacity = 2;
constexpr std::size_t kFleet = 100 * kCacheCapacity;
constexpr std::size_t kSpares = 16;
constexpr double kReplaceShare = 0.05;
constexpr int kSetupReps = 3;

struct Slot {
  std::size_t device_id = 0;
  std::size_t chip = 0;  ///< index into the fabricated chips
};

struct Window {
  double wall = 0.0;
  std::size_t auths = 0, replaces = 0, denied = 0, replace_failed = 0;
  std::uint64_t issue_candidates = 0;
  std::uint64_t replay_rejected = 0;  ///< summed ChallengeBatch::replay_rejected
  std::uint64_t reissued = 0;         ///< batches not made of 64 never-issued challenges
  std::uint64_t refill_issues = 0;
  std::uint64_t bit_errors = 0;       ///< wrong response bits over all auths
  std::uint64_t strict_denied = 0;    ///< auths with a wrong bit (denied at HD = 0)
  double refill_issue_s = 0.0, register_s = 0.0;
  std::vector<double> auth_ms, replace_ms, drain_ms, refill_ms, revoke_ms, register_ms;
  std::vector<double> op_ms;         ///< server time of every op (auth or replace)
  double respond_s = 0.0;
};

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) * 1e-6; }

/// The replay property itself: the batch holds 64 distinct challenges and
/// the device's ledger grew by exactly that many, so none had been issued.
bool fresh_batch(const puf::ChallengeBatch& batch, std::size_t ledger_growth) {
  std::set<std::string> keys;
  for (const auto& c : batch.challenges) keys.insert(puf::store::pack_challenge(c));
  return batch.challenges.size() == kChallenges && keys.size() == kChallenges &&
         ledger_growth == kChallenges;
}

puf::ServerModel relabel(const puf::ServerModel& fitted, std::size_t device_id) {
  std::vector<puf::PufEnrollment> pufs;
  for (std::size_t p = 0; p < fitted.puf_count(); ++p) pufs.push_back(fitted.puf(p));
  puf::ServerModel model(device_id, std::move(pufs));
  model.set_betas(fitted.betas());
  return model;
}

}  // namespace

Result run_auth_fleet(const Options& opt, RunRecord& record) {
  Result res;
  // One closed-loop client thread; library loops run inline on it.
  record.client_threads = 1;
  record.library_lanes = 1;

  // --- set-up ---------------------------------------------------------------
  // The fleet's paper-size fits run once, in parallel (library lanes up to 4).
  ThreadPool::set_global_threads(std::min<std::size_t>(4, online_cpus()));
  Timer fit_timer;
  const std::vector<sim::XorPufChip> chips = fabricate(opt.seed, 0, kFleet + kSpares);
  std::vector<puf::ServerModel> fitted(chips.size());
  const puf::Enroller enroller(paper_enrollment());
  parallel_for(chips.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) fitted[i] = enroll_chip(enroller, chips[i], opt.seed);
  });
  const double fit_s = fit_timer.seconds();
  ThreadPool::set_global_threads(1);

  const std::string dir = opt.work_dir + "/fleet_store";
  const puf::DatabaseConfig cfg = database_config(opt.seed, kPoolTarget);
  puf::store::StoreOptions store_opts;
  store_opts.cache_capacity = kCacheCapacity;
  std::vector<double> setup_s;
  double compact_s = 0.0;
  std::uint64_t compact_bytes = 0;
  std::optional<puf::ServerDatabase> db;
  ProcStatus mem_open;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    std::filesystem::remove_all(dir);
    Timer setup;
    {
      puf::ServerDatabase fresh = puf::ServerDatabase::open(dir, cfg, store_opts);
      for (std::size_t i = 0; i < kFleet; ++i) fresh.register_device(fitted[i]);
      compact_bytes = dir_bytes(dir);
      Timer compact;
      fresh.save(dir);
      compact_s = compact.seconds();
    }
    if (rep + 1 == kSetupReps) mem_open = read_proc_status();
    db.emplace(puf::ServerDatabase::open(dir, cfg, store_opts));
    setup_s.push_back(setup.seconds());
  }

  std::vector<Slot> slots(kFleet);
  for (std::size_t i = 0; i < kFleet; ++i) slots[i] = Slot{i, i};
  std::deque<std::size_t> spares;
  for (std::size_t i = kFleet; i < chips.size(); ++i) spares.push_back(i);
  std::size_t next_id = chips.size();
  const std::vector<sim::Environment> corners = sim::paper_corner_grid();
  Rng pick(opt.seed ^ 0xf1ee7000ull);
  Rng issue_rng(opt.seed ^ 0x155e0000ull);
  const StreamFamily respond_family(opt.seed ^ 0x7e5b0000ull);
  std::uint64_t op_index = 0;
  SpanRecorder spans(false);

  // Warm-up: device i authenticates i mod 4 times (never enough to reach
  // the low-water mark), so pools enter the window at evenly spread drain
  // phases and the refill rate is steady from the first second.
  std::size_t warm_auths = 0;
  std::size_t warm_denied = 0;
  std::uint64_t warm_bit_errors = 0;
  for (std::size_t i = 0; i < kFleet; ++i) {
    const Slot& slot = slots[i];
    for (std::size_t k = i % (kPoolTarget / kChallenges); k > 0; --k) {
      ++warm_auths;
      const puf::ChallengeBatch batch = db->issue(slot.device_id, issue_rng);
      Rng device_rng = respond_family.stream(op_index++);
      std::vector<bool> responses(batch.challenges.size());
      for (std::size_t c = 0; c < batch.challenges.size(); ++c)
        responses[c] = chips[slot.chip].xor_response(batch.challenges[c],
                                                     sim::Environment::nominal(), device_rng);
      const puf::AuthenticationOutcome out = db->verify(slot.device_id, batch, responses);
      if (!out.approved) ++warm_denied;
      warm_bit_errors += out.mismatches;
    }
  }
  const ProcStatus mem_ready = read_proc_status();

  const auto run_window = [&](double seconds) {
    Window w;
    const std::int64_t t_start = now_ns();
    const std::int64_t deadline = t_start + static_cast<std::int64_t>(seconds * 1e9);
    CpuRotation cpu(t_start, 0);
    while (now_ns() < deadline) {
      cpu.tick();
      Slot& slot = slots[pick.uniform_below(kFleet)];
      const bool replace = pick.uniform() < kReplaceShare;
      const std::uint64_t req = spans.new_request();
      if (!replace) {
        const sim::Environment& env = corners[pick.uniform_below(corners.size())];
        const ScopedSpan root(spans, "auth.request", req);
        const std::size_t ledger0 = db->store().ledger(slot.device_id).size();
        const std::int64_t t0 = now_ns();
        const puf::ChallengeBatch batch = db->issue(slot.device_id, issue_rng);
        const std::int64_t t1 = now_ns();
        if (!fresh_batch(batch, db->store().ledger(slot.device_id).size() - ledger0)) ++w.reissued;
        w.replay_rejected += batch.replay_rejected;
        Rng device_rng = respond_family.stream(op_index);
        std::vector<bool> responses(batch.challenges.size());
        for (std::size_t c = 0; c < batch.challenges.size(); ++c)
          responses[c] = chips[slot.chip].xor_response(batch.challenges[c], env, device_rng);
        const std::int64_t t2 = now_ns();
        const puf::AuthenticationOutcome out = db->verify(slot.device_id, batch, responses);
        const std::int64_t t3 = now_ns();
        const bool refilled = batch.candidates_tried > 0;
        spans.add(refilled ? "db.issue_refill" : "db.issue", req, root.id(), t0, t1);
        spans.add("sim.respond", req, root.id(), t1, t2);
        spans.add("db.verify", req, root.id(), t2, t3);
        ++w.auths;
        if (!out.approved) ++w.denied;
        w.bit_errors += out.mismatches;
        if (out.mismatches > 0) ++w.strict_denied;
        w.issue_candidates += batch.candidates_tried;
        w.auth_ms.push_back(ms_between(t0, t1) + ms_between(t2, t3));
        w.op_ms.push_back(w.auth_ms.back());
        (refilled ? w.refill_ms : w.drain_ms).push_back(ms_between(t0, t1));
        if (refilled) {
          ++w.refill_issues;
          w.refill_issue_s += static_cast<double>(t1 - t0) * 1e-9;
        }
        w.respond_s += static_cast<double>(t2 - t1) * 1e-9;
      } else {
        const ScopedSpan root(spans, "replace.request", req);
        const std::size_t spare = spares.front();
        spares.pop_front();
        const std::size_t new_id = next_id++;
        const std::int64_t t0 = now_ns();
        bool ok = true;
        std::int64_t t1 = t0;
        try {
          db->revoke_device(slot.device_id);
          t1 = now_ns();
          db->register_device(relabel(fitted[spare], new_id));
        } catch (const std::exception&) {
          ok = false;
        }
        const std::int64_t t2 = now_ns();
        spans.add("db.revoke", req, root.id(), t0, t1);
        spans.add("db.register", req, root.id(), t1, t2);
        ++w.replaces;
        if (!ok) {
          ++w.replace_failed;
          spares.push_front(spare);
          continue;
        }
        spares.push_back(slot.chip);
        slot = Slot{new_id, spare};
        w.replace_ms.push_back(ms_between(t0, t2));
        w.op_ms.push_back(w.replace_ms.back());
        w.revoke_ms.push_back(ms_between(t0, t1));
        w.register_ms.push_back(ms_between(t1, t2));
        w.register_s += static_cast<double>(t2 - t1) * 1e-9;
      }
      ++op_index;
    }
    w.wall = static_cast<double>(now_ns() - t_start) * 1e-9;
    unpin();
    return w;
  };

  double untraced_rate = 0.0;
  if (opt.trace) {
    const Window ref = run_window(opt.seconds / 2.0);
    untraced_rate = static_cast<double>(ref.auths + ref.replaces) / ref.wall;
    spans.set_enabled(true);
  }
  const std::uint64_t bytes0 = dir_bytes(dir);
  const ProcStatus mem0 = read_proc_status();
  const RegistrySnapshot before = RegistrySnapshot::take();
  const Window w = run_window(opt.trace ? opt.seconds / 2.0 : opt.seconds);
  const RegistrySnapshot after = RegistrySnapshot::take();
  const ProcStatus mem1 = read_proc_status();
  const std::uint64_t bytes1 = dir_bytes(dir);
  const std::uint64_t issued_total = db->store().issued_total();

  // Reopen the dirty store (log replay over the window's appends).
  db.reset();
  Timer open_timer;
  db.emplace(puf::ServerDatabase::open(dir, cfg, store_opts));
  const double open_s = open_timer.seconds();

  // --- output checks ------------------------------------------------------------
  const auto d = [&](const char* counter) { return delta(before, after, counter); };
  const std::uint64_t auths = w.auths;
  res.check(auths > 0, "no authentication ran");
  res.check(d("db.issue_requests") == auths,
            "db.issue_requests " + std::to_string(d("db.issue_requests")) + " != auths " +
                std::to_string(auths));
  res.check(d("auth.pool_hits") + d("auth.pool_misses") == auths,
            "pool hits + misses != issues");
  res.check(d("db.challenges_issued") == kChallenges * auths,
            "db.challenges_issued " + std::to_string(d("db.challenges_issued")) + " != 64 x " +
                std::to_string(auths));
  // Replay protection is checked as the property itself (no challenge is
  // ever issued twice to a device). auth.replay_rejected is reported, not
  // required to be 0: a pool refill can admit the same challenge twice (32-
  // bit challenges, ~1 % predicted stable), and the drain's replay guard
  // then drops and counts the second copy in a crash-free run.
  res.check(w.reissued == 0,
            std::to_string(w.reissued) + " batches re-issued a challenge or were short");
  res.check(d("auth.replay_rejected") == w.replay_rejected,
            "auth.replay_rejected drifted from the batches' replay counts");
  res.check(d("auth.mismatches") == w.bit_errors,
            "auth.mismatches drifted from the verified outcomes' mismatches");
  res.check(d("db.mmap_hits") > 0, "no model resolution took the mmap path");
  res.check(w.replace_failed == 0, std::to_string(w.replace_failed) + " replacements failed");
  res.check(db->device_count() == kFleet, "device count drifted from the fleet size");
  res.check(db->store().issued_total() == issued_total, "reopen lost issued challenges");
  res.check(mem_open.ok && mem_ready.ok && mem0.ok && mem1.ok,
            "/proc/self/status lacks RssAnon/RssFile");

  const double ops = static_cast<double>(w.auths + w.replaces);
  res.attempted = w.auths + w.replaces + warm_auths;
  res.failed = w.denied + w.replace_failed + warm_denied;

  // --- end-to-end ------------------------------------------------------------
  res.set("setup_s", median(setup_s), "s");
  res.set("ops_per_s", ops / w.wall, "1/s");
  res.set("op_mean_ms", mean(w.op_ms), "ms");
  res.set("bytes_per_op", static_cast<double>(bytes1 - bytes0) / ops, "B");
  res.set("anon_kb_per_device",
          (static_cast<double>(mem_ready.rss_anon_kb) - static_cast<double>(mem_open.rss_anon_kb)) /
              static_cast<double>(kFleet),
          "KiB");
  res.set("ok_share",
          1.0 - share(static_cast<double>(w.denied + w.replace_failed), ops), "share");

  res.note("workload auth_fleet: " + std::to_string(kFleet) + " devices, LRU " +
           std::to_string(kCacheCapacity) + ", pools " + std::to_string(kPoolTarget) + ", " +
           std::to_string(w.auths) + " auths + " + std::to_string(w.replaces) +
           " replaces in " + std::to_string(w.wall) + " s (one closed-loop client)");
  res.note("  ops_per_s=" + std::to_string(ops / w.wall) + " 1/s; auths_per_s=" +
           std::to_string(static_cast<double>(w.auths) / w.wall) +
           " 1/s (wall, including the simulated device)");
  note_latency(res, "auth (server: issue + verify)", w.auth_ms);
  note_latency(res, "replace (revoke + register)", w.replace_ms);
  res.note("  failed_share=" + std::to_string(1.0 - res.get("ok_share")) + " (" +
           std::to_string(w.denied) + " genuine-device denials; warm-up at nominal: " +
           std::to_string(warm_denied) + " of " + std::to_string(warm_auths) + ")");
  res.note("  wrong response bits: " + std::to_string(w.bit_errors) + " in " +
           std::to_string(w.auths) + " auths; " + std::to_string(w.strict_denied) +
           " auths carried one or more and would be denied at HD = 0 (this run allows " +
           std::to_string(kMaxHammingDistance) + "); warm-up at nominal: " +
           std::to_string(warm_bit_errors));
  res.note("  RssFile (file-backed pages, mmap'd shards included): " +
           std::to_string(mem_open.rss_file_kb) + " KiB before the fleet opened, " +
           std::to_string(mem1.rss_file_kb) + " KiB after the window; RssAnon " +
           std::to_string(mem_open.rss_anon_kb) + " -> " + std::to_string(mem1.rss_anon_kb) +
           " KiB");
  res.note("  replay rejections in this crash-free window: " + std::to_string(w.replay_rejected) +
           " (duplicate challenges inside a pool, dropped by the replay guard)");
  res.note("  set-up: fleet fit " + std::to_string(fit_s) + " s once; register + compact + "
           "reopen median " + std::to_string(median(setup_s)) + " s over " +
           std::to_string(setup_s.size()));

  // --- per layer ---------------------------------------------------------------
  const double auths_d = static_cast<double>(auths);
  const double tried = static_cast<double>(d("selection.candidates_tried"));
  const double accepted = static_cast<double>(d("selection.accepted"));
  const double lookups =
      static_cast<double>(d("db.cache_hits") + d("db.cache_misses") + d("db.mmap_hits"));
  res.set("sim.respond_share", share(w.respond_s, w.wall), "share");
  res.set("puf.screening.candidates_per_auth",
          share(static_cast<double>(w.issue_candidates), auths_d), "count");
  res.set("puf.screening.candidates_per_device",
          share(tried - static_cast<double>(w.issue_candidates),
                static_cast<double>(w.replace_ms.size())),
          "count");
  res.set("puf.screening.accept_ratio", share(accepted, tried), "ratio");
  res.set("puf.screening.bit_errors_per_auth", share(static_cast<double>(w.bit_errors), auths_d),
          "count");
  res.set("puf.screening.candidates_per_s", share(tried, w.refill_issue_s + w.register_s),
          "1/s");
  res.set("puf.database.refill_issue_ratio", share(static_cast<double>(w.refill_issues), auths_d),
          "ratio");
  res.set("puf.database.pool_refills_per_auth",
          share(static_cast<double>(d("auth.pool_refills")) -
                    static_cast<double>(w.replace_ms.size()),
                auths_d),
          "count");
  res.set("puf.database.replay_rejected", static_cast<double>(w.replay_rejected), "count");
  res.set("puf.database.pool_misses_per_auth",
          share(static_cast<double>(d("auth.pool_misses")), auths_d), "count");
  res.set("puf.database.ledger_bytes_per_issued",
          share((static_cast<double>(mem1.rss_anon_kb) - static_cast<double>(mem0.rss_anon_kb)) *
                    1024.0,
                static_cast<double>(d("db.challenges_issued"))),
          "B");
  res.set("puf.store.append_bytes_per_auth", share(static_cast<double>(bytes1 - bytes0), auths_d),
          "B");
  res.set("puf.store.cold_resolves_per_auth",
          share(static_cast<double>(d("db.cache_misses") + d("db.mmap_hits")), auths_d), "count");
  res.set("puf.store.cache_hit_ratio", share(static_cast<double>(d("db.cache_hits")), lookups),
          "ratio");
  res.set("puf.store.compact_mb_per_s", share(static_cast<double>(compact_bytes) * 1e-6, compact_s),
          "MB/s");
  res.set("puf.store.open_mb_per_s", share(static_cast<double>(bytes1) * 1e-6, open_s), "MB/s");
  if (opt.trace) {
    const auto self = finish_trace(opt, spans, res);
    double covered = 0.0;
    for (const auto& [name, s] : self) covered += s;
    const auto layer = [&](const char* name) { return self.count(name) ? self.at(name) : 0.0; };
    res.set("puf.database.issue_drain_share", share(layer("db.issue"), w.wall), "share");
    res.set("puf.database.issue_refill_share", share(layer("db.issue_refill"), w.wall), "share");
    res.set("puf.database.verify_share", share(layer("db.verify"), w.wall), "share");
    res.set("puf.database.register_share", share(layer("db.register"), w.wall), "share");
    res.set("puf.database.revoke_share", share(layer("db.revoke"), w.wall), "share");
    res.set("trace.coverage_share", share(covered, w.wall), "share");
    res.set("trace.overhead_share", share(untraced_rate, ops / w.wall) - 1.0, "share");
    res.check(res.get("trace.coverage_share") > 0.9 && res.get("trace.coverage_share") < 1.1,
              "traced self times cover " + std::to_string(res.get("trace.coverage_share")) +
                  " of the window (must be within 10%)");
  }
  note_latency(res, "issue, pure drain", w.drain_ms);
  note_latency(res, "issue carrying a pool refill", w.refill_ms);
  note_latency(res, "revoke", w.revoke_ms);
  note_latency(res, "register (replace)", w.register_ms);
  db.reset();
  std::filesystem::remove_all(dir);
  return res;
}

}  // namespace perfbench
