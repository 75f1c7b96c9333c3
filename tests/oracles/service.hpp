// Lockstep authentication service engine — the test oracle of the
// event-loop AsyncServiceEngine (net/async/service_engine.hpp).
//
// The ServiceEngine owns every provisioned connection and drives the whole
// fleet in deterministic lockstep rounds: each round, every shard advances
// its clients, serves its inbound frames, and ticks its transports. Work is
// sharded on a FIXED grid (ServiceConfig::shards, independent of the worker
// thread count) with devices pinned by `device_id % shards`, the same
// chunk-ownership discipline as common/parallel.hpp — so a run is
// bit-identical at 1, 2, or 8 worker threads.
//
// Determinism inventory (everything a round touches is a pure function of
// the config seed and the shard-local event order):
//   * fault schedules       — StreamFamily keyed per (connection, direction)
//   * challenge issuance    — StreamFamily keyed per (device, session)
//   * measurement noise     — StreamFamily keyed per device
//   * global counters       — sharded atomics with deterministic totals
//   * gauges                — racy by design, overwritten serially in
//                             finalize() before any snapshot is compared
//
// Graceful degradation: a hostile transport produces typed NACKs, bounded
// client retries with exponential backoff, and server-side session TTL
// expiry — never a crash and never a silent accept. finalize() re-derives
// every aggregate from per-connection ledgers and reports any drift as a
// violation string, so "zero accounting drift" is checked, not assumed.
//
// The server-side protocol decisions themselves live in
// net/server_session.hpp (ServerSessionHandler), shared verbatim with the
// event-loop engine — this engine is the deterministic ORACLE the socket
// engine reconciles its per-device ledgers against. It is not part of the
// library: tests and bench_service_load link it from xpuf_oracles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/session.hpp"
#include "oracles/pipe_transport.hpp"
#include "puf/database.hpp"
#include "sim/chip.hpp"

namespace xpuf::net {

struct ServiceConfig {
  /// Fixed shard grid — deliberately NOT the thread count (determinism).
  std::uint32_t shards = 8;
  /// Open server sessions allowed per device at once.
  std::uint32_t max_inflight_per_device = 1;
  /// Rounds before an open server session is expired (frees the in-flight
  /// slot when a client gave up on the session mid-handshake).
  std::uint32_t session_ttl_rounds = 64;
  /// Round budget; hitting it with live sessions is reported as a violation.
  std::uint32_t max_rounds = 4096;
  /// retry_after_rounds advertised in a busy NACK.
  std::uint16_t busy_retry_rounds = 2;
  std::uint64_t seed = 2017;
  puf::DatabaseConfig database;
  /// Applied to BOTH directions of every connection, stream-keyed.
  FaultProfile faults;
  ClientPolicy client_policy;
};

/// Aggregates re-derived from per-connection ledgers by finalize().
struct ServiceReport {
  std::uint32_t rounds = 0;
  bool all_finished = false;
  bool all_idle = false;

  std::uint64_t devices = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t approved = 0;
  std::uint64_t denied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;

  std::uint64_t frames_sent = 0;       ///< both directions, endpoint counts
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_corrupt = 0;
  FaultTally faults;                   ///< summed over every FaultyTransport

  std::uint64_t sessions_expired = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t enroll_activated = 0;
  std::uint64_t revocations = 0;
  /// Challenge batches issued, summed from the per-handler ledgers; must
  /// equal the global db.issue_requests counter (pooled or live issuance).
  std::uint64_t batches_issued = 0;

  /// Accounting-invariant breaches, empty on a clean run.
  std::vector<std::string> violations;
  /// Order-independent digest of every session outcome and frame tally;
  /// equal fingerprints across thread counts prove bit-identical runs.
  std::uint64_t fingerprint = 0;
  /// Digest over session OUTCOMES only (no retries, no frame tallies) — the
  /// part of a run that is transport-invariant. The event-loop engine
  /// reconciles its own outcome_fingerprint against this oracle value.
  std::uint64_t outcome_fingerprint = 0;

  bool reconciled() const { return all_finished && violations.empty(); }
};

class ServiceEngine {
 public:
  explicit ServiceEngine(ServiceConfig config);
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  const ServiceConfig& config() const { return config_; }
  std::uint64_t device_count() const { return device_index_.size(); }

  /// Registers one device: the physical chip (client side), its enrolled
  /// server model (activated on ENROLL_BEGIN), and the scripted session
  /// plan. Must be called before run(); the device lands on shard
  /// `chip.id() % shards`.
  void provision(const sim::XorPufChip& chip, puf::ServerModel model,
                 const sim::Environment& env, std::uint32_t auth_sessions,
                 bool enroll_first = true, bool revoke_at_end = false);

  /// Drives rounds until every client finished and every transport is idle
  /// (or max_rounds), then reconciles. Runs shards under the global pool.
  ServiceReport run();

  /// Per-session outcome ledger of one provisioned device.
  const std::vector<SessionRecord>& device_records(std::uint64_t device_id) const;

 private:
  struct Connection;
  struct Shard;

  Shard& shard_of(std::uint64_t device_id);
  void step_shard(std::size_t shard_index, std::uint32_t round);
  void serve(Connection& conn, std::uint32_t round);
  ServiceReport finalize(std::uint32_t rounds, bool all_finished,
                         bool all_idle);

  ServiceConfig config_;
  StreamFamily fault_family_;
  StreamFamily issue_family_;
  StreamFamily measure_family_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// device_id -> (shard, index-in-shard); also fixes the serial
  /// finalize/report iteration order.
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>> device_index_;
};

}  // namespace xpuf::net
