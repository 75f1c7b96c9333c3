// Event-loop authentication service engine over real sockets.
//
// AsyncServiceEngine serves the SAME protocol as the lockstep oracle engine
// of the tests (tests/oracles/service.hpp) — same DeviceClient state
// machine, same ServerSessionHandler decisions, same per-(device, session)
// issuance streams and per-device measurement streams — but multiplexes the
// whole fleet over nonblocking TCP (or Unix-domain) sockets on one epoll
// event loop, with a timer wheel driving client retransmit deadlines, server
// session TTLs, and idle-connection expiry.
//
// Reconciliation contract (see DESIGN.md §Async socket service): with the
// same seed and workload, per-device session OUTCOMES are a pure function of
// (seed, plan) — issuance is (device, session)-keyed, measurement noise is
// consumed per device in session order, TCP preserves per-connection order,
// and busy NACKs only add retries, never change terminals. The lockstep
// engine run with FaultProfile::none() is therefore a bit-exact oracle for
// outcome_fingerprint and per-device records, while wall-clock-dependent
// quantities (retry counts, latency histograms) are reported but excluded
// from the digest.
//
// Backpressure is typed end to end: the accept queue is bounded by
// max_connections (overflow -> busy NACK + close, counted), the request
// queue is bounded by request_queue_cap (overflow -> busy NACK on the
// connection, counted), and per-connection write buffers are capped
// (overflow -> transport failed, counted). Nothing is ever silently dropped.
//
// Single-threaded: one loop, one lane. Determinism of outcomes comes from
// per-device purity, not scheduling.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/async/acceptor.hpp"
#include "net/async/clock.hpp"
#include "net/async/event_loop.hpp"
#include "net/async/socket_transport.hpp"
#include "net/server_session.hpp"
#include "net/session.hpp"
#include "puf/database.hpp"
#include "sim/chip.hpp"

namespace xpuf::net::async {

struct AsyncServiceConfig {
  /// Unix-domain sockets instead of localhost TCP.
  bool unix_socket = false;
  std::string unix_path = "xpuf_async.sock";

  /// Server database shards (device_id % shards), same grid as lockstep.
  std::uint32_t shards = 8;

  /// Admission caps — the typed-backpressure surface.
  std::size_t max_connections = 4096;   ///< accept overflow -> busy NACK
  std::size_t request_queue_cap = 4096; ///< enqueue overflow -> busy NACK
  std::size_t serve_budget_per_poll = 1024;

  /// Clock domain: ticks of `tick_seconds` wall time (default 1 ms/tick).
  /// All TTL/timeout knobs below are in ticks, NOT lockstep rounds — see
  /// ClientPolicy (net/session.hpp) for why the domains need different sizes.
  double tick_seconds = 1e-3;
  std::uint64_t session_ttl_ticks = 2000;
  std::uint16_t busy_retry_ticks = 2;
  std::uint32_t client_timeout_ticks = 400;
  std::uint32_t client_max_retries = 6;
  /// Server connections idle longer than this are closed (typed, counted).
  /// Effectively disabled by default — benches keep connections open for the
  /// whole run so the concurrency floor is honest.
  std::uint64_t idle_conn_ttl_ticks = 1u << 30;
  /// Run budget; hitting it with live sessions is reported as a violation.
  std::uint64_t max_ticks = 120000;

  /// New client sockets initiated per loop iteration (connect-flood shaping).
  std::size_t connect_batch = 128;

  std::uint64_t seed = 2017;
  puf::DatabaseConfig database;
};

/// Aggregates re-derived from per-connection ledgers by finalize(); the
/// transport-variant fields (retries, busy NACK counts, byte totals) sit
/// outside outcome_fingerprint.
struct AsyncServiceReport {
  std::uint64_t ticks = 0;  ///< clock ticks the run consumed
  bool all_finished = false;

  std::uint64_t devices = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t approved = 0;
  std::uint64_t denied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;

  std::uint64_t frames_sent = 0;  ///< both endpoints, client + server stats
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_corrupt = 0;

  std::uint64_t connections_accepted = 0;
  std::uint64_t accept_overflow = 0;   ///< busy-NACKed at the listener
  std::uint64_t request_overflow = 0;  ///< busy-NACKed at the request queue
  std::uint64_t busy_nacks = 0;        ///< all busy NACKs (handler + queues)
  std::uint64_t nacks_sent = 0;
  std::uint64_t sessions_expired = 0;
  std::uint64_t enroll_activated = 0;
  std::uint64_t revocations = 0;
  /// Challenge batches issued, summed from the per-handler ledgers; must
  /// equal the global db.issue_requests counter (pooled or live issuance).
  std::uint64_t batches_issued = 0;
  std::uint64_t idle_conns_closed = 0;

  /// Byte-conservation audit: syscall-layer deltas over the run; equal at
  /// quiescence on a loopback transport.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  std::vector<std::string> violations;
  /// Same digest formula as the lockstep oracle's outcome_fingerprint —
  /// compare directly against the oracle's value.
  std::uint64_t outcome_fingerprint = 0;

  bool reconciled() const { return all_finished && violations.empty(); }
};

class AsyncServiceEngine {
 public:
  explicit AsyncServiceEngine(AsyncServiceConfig config);
  ~AsyncServiceEngine();

  AsyncServiceEngine(const AsyncServiceEngine&) = delete;
  AsyncServiceEngine& operator=(const AsyncServiceEngine&) = delete;

  const AsyncServiceConfig& config() const { return config_; }
  std::uint64_t device_count() const { return device_index_.size(); }

  /// Same contract as the lockstep oracle's provision — chip + enrolled model +
  /// scripted plan; must be called before run(). The chip must outlive the
  /// engine.
  void provision(const sim::XorPufChip& chip, puf::ServerModel model,
                 const sim::Environment& env, std::uint32_t auth_sessions,
                 bool enroll_first = true, bool revoke_at_end = false);

  /// Binds the listener, connects the fleet, and drives the event loop until
  /// every client finished and the wire is quiescent (or max_ticks), then
  /// reconciles ledgers.
  AsyncServiceReport run();

  /// Per-session outcome ledger of one device (valid after run()).
  const std::vector<SessionRecord>& device_records(std::uint64_t device_id) const;
  /// Provisioned ids in ascending order — the oracle-reconciliation walk.
  std::vector<std::uint64_t> device_ids() const;

 private:
  struct Shard;
  struct ClientConn;
  struct ServerConn;
  struct AcceptorHandler;
  struct QueuedRequest {
    std::uint64_t conn_id = 0;
    Frame frame;
  };

  Shard& shard_of(std::uint64_t device_id);
  ServerSessionHandler* handler_of(std::uint64_t device_id);
  bool setup_listener();
  void start_connects();
  void on_acceptor_ready();
  bool admit(Fd& fd);
  void on_client_ready(std::size_t index, bool readable, bool writable,
                       bool hangup);
  void on_server_ready(std::uint64_t conn_id, bool readable, bool writable,
                       bool hangup);
  void step_client(std::size_t index);
  void enqueue_request(ServerConn& conn, Frame frame);
  void serve_queue();
  void on_timer(std::uint64_t key, std::uint64_t now);
  void arm_client_timer(std::size_t index);
  void arm_ttl_timer(std::uint64_t device_id);
  void close_server_conn(std::uint64_t conn_id, bool idle_expiry);
  bool quiescent() const;
  void observe_latency(std::uint64_t ticks_elapsed);
  AsyncServiceReport finalize(bool all_finished);

  AsyncServiceConfig config_;
  StreamFamily issue_family_;
  StreamFamily measure_family_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::uint64_t, std::uint32_t> device_index_;  ///< id -> client slot

  WallClock clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<Acceptor> acceptor_;
  std::unique_ptr<EventHandler> acceptor_handler_;
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<ClientConn>> clients_;
  std::size_t next_connect_ = 0;   ///< first client not yet initiated
  std::size_t finished_clients_ = 0;

  std::map<std::uint64_t, std::unique_ptr<ServerConn>> server_conns_;
  std::size_t live_server_conns_ = 0;
  std::uint64_t next_conn_id_ = 0;
  std::deque<QueuedRequest> request_queue_;

  // Engine-level ledger (plain ints: one lane).
  std::uint64_t request_overflow_ = 0;
  std::uint64_t unknown_device_nacks_ = 0;
  std::uint64_t idle_conns_closed_ = 0;
  std::uint64_t stale_conn_frames_ = 0;
  std::vector<std::string> connect_failures_;
};

}  // namespace xpuf::net::async
