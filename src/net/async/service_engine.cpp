#include "net/async/service_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace xpuf::net::async {

namespace {

// Timer-key tags in the top two bits; the payload identifies the client
// slot, device, or server connection.
constexpr std::uint64_t kTagMask = 3ull << 62;
constexpr std::uint64_t kClientTag = 1ull << 62;
constexpr std::uint64_t kTtlTag = 2ull << 62;
constexpr std::uint64_t kIdleTag = 3ull << 62;
constexpr std::uint32_t kNoDeadline = 0xffffffffu;

void conns_closed_add() {
  static Counter& conns_closed =
      MetricsRegistry::global().counter("net.async.connections_closed");
  conns_closed.add();
}

Histogram& latency_histogram() {
  static Histogram& h = MetricsRegistry::global().histogram(
      "net.async.session_latency_ms",
      {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
       500.0, 1000.0, 5000.0});
  return h;
}

/// Same mixing as the lockstep finalize() — the two outcome fingerprints
/// must be comparable bit-for-bit.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

}  // namespace

struct AsyncServiceEngine::Shard {
  explicit Shard(puf::DatabaseConfig db_config) : db(db_config) {}

  puf::ServerDatabase db;
  std::map<std::uint64_t, puf::ServerModel> provisioned;
  std::map<std::uint64_t, ServerSessionHandler> handlers;
  /// Last TTL deadline armed per device (lazy-cancel: a fired timer re-arms
  /// off ttl_deadline() if the session moved).
  std::map<std::uint64_t, std::uint64_t> armed_ttl;
};

/// One device's client endpoint: socket, transport, protocol driver, and the
/// latency observer wiring.
struct AsyncServiceEngine::ClientConn final : public EventHandler,
                                             public SessionObserver {
  ClientConn(AsyncServiceEngine& engine_in, std::size_t index_in,
             const sim::XorPufChip& chip_in, const sim::Environment& env_in,
             Rng measure_rng_in, std::uint32_t auth_sessions_in,
             bool enroll_first_in, bool revoke_at_end_in)
      : engine(&engine_in),
        index(index_in),
        chip(&chip_in),
        env(env_in),
        measure_rng(measure_rng_in),
        auth_sessions(auth_sessions_in),
        enroll_first(enroll_first_in),
        revoke_at_end(revoke_at_end_in) {}

  /// Binds the (connect-initiated) socket and builds the protocol driver.
  void attach(Fd fd, const ClientPolicy& policy, bool already_connected) {
    transport = std::make_unique<SocketTransport>(std::move(fd));
    client = std::make_unique<DeviceClient>(*chip, env, measure_rng,
                                            *transport, *transport,
                                            auth_sessions, policy,
                                            enroll_first, revoke_at_end);
    client->set_observer(this);
    connected = already_connected;
  }

  void on_ready(bool readable, bool writable, bool hangup) override {
    engine->on_client_ready(index, readable, writable, hangup);
  }

  void on_session_opened(std::uint32_t, std::uint32_t round) override {
    open_tick = round;
  }
  void on_session_terminal(const SessionRecord&, std::uint32_t round) override {
    engine->observe_latency(round >= open_tick ? round - open_tick : 0);
  }

  AsyncServiceEngine* engine;
  std::size_t index;
  const sim::XorPufChip* chip;
  sim::Environment env;
  Rng measure_rng;
  std::uint32_t auth_sessions;
  bool enroll_first;
  bool revoke_at_end;

  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<DeviceClient> client;
  bool connected = false;
  bool counted_finished = false;
  std::uint32_t armed_deadline = kNoDeadline;
  std::uint32_t open_tick = 0;
};

/// One accepted server-side socket. Frames are demultiplexed to handlers by
/// the device_id they carry, so a connection is not bound to one device.
struct AsyncServiceEngine::ServerConn final : public EventHandler {
  ServerConn(AsyncServiceEngine& engine_in, std::uint64_t id_in, Fd fd)
      : engine(&engine_in), id(id_in), transport(std::move(fd)) {}

  void on_ready(bool readable, bool writable, bool hangup) override {
    engine->on_server_ready(id, readable, writable, hangup);
  }

  /// Routes ServerSessionHandler replies onto this connection, stamping the
  /// per-connection seq and endpoint stats.
  class Sink final : public ReplySink {
   public:
    Sink(ServerConn& conn, std::uint64_t device_id)
        : conn_(&conn), device_id_(device_id) {}

    void send(FrameType type, std::uint32_t session_id,
              std::vector<std::uint8_t> payload) override {
      Frame frame;
      frame.header.type = type;
      frame.header.device_id = device_id_;
      frame.header.session_id = session_id;
      frame.header.seq = conn_->seq++;
      frame.payload = std::move(payload);
      send_frame(conn_->transport, frame, conn_->stats);
    }

   private:
    ServerConn* conn_;
    std::uint64_t device_id_;
  };

  AsyncServiceEngine* engine;
  std::uint64_t id;
  SocketTransport transport;
  ChannelStats stats;
  std::uint32_t seq = 0;
  std::uint64_t last_activity = 0;
  bool closed = false;
};

struct AsyncServiceEngine::AcceptorHandler final : public EventHandler {
  explicit AcceptorHandler(AsyncServiceEngine& engine_in) : engine(&engine_in) {}
  void on_ready(bool, bool, bool) override { engine->on_acceptor_ready(); }
  AsyncServiceEngine* engine;
};

AsyncServiceEngine::AsyncServiceEngine(AsyncServiceConfig config)
    : config_(config),
      // Same family derivation as the lockstep oracle engine — this is what
      // makes issuance and measurement draws oracle-identical per device.
      issue_family_(Rng(config.seed ^ 0xfa'17'00'02).fork_base()),
      measure_family_(Rng(config.seed ^ 0xfa'17'00'03).fork_base()),
      clock_(config.tick_seconds) {
  XPUF_REQUIRE(config.shards >= 1, "the shard grid needs at least one shard");
  XPUF_REQUIRE(config.session_ttl_ticks >= 1, "session TTL must be >= 1 tick");
  XPUF_REQUIRE(config.request_queue_cap >= 1, "request queue needs capacity");
  XPUF_REQUIRE(config.serve_budget_per_poll >= 1, "serve budget must be >= 1");
  shards_.reserve(config.shards);
  for (std::uint32_t s = 0; s < config.shards; ++s)
    shards_.push_back(std::make_unique<Shard>(config.database));
}

AsyncServiceEngine::~AsyncServiceEngine() = default;

AsyncServiceEngine::Shard& AsyncServiceEngine::shard_of(
    std::uint64_t device_id) {
  return *shards_[static_cast<std::size_t>(device_id % config_.shards)];
}

ServerSessionHandler* AsyncServiceEngine::handler_of(std::uint64_t device_id) {
  auto& handlers = shard_of(device_id).handlers;
  auto it = handlers.find(device_id);
  return it == handlers.end() ? nullptr : &it->second;
}

void AsyncServiceEngine::provision(const sim::XorPufChip& chip,
                                   puf::ServerModel model,
                                   const sim::Environment& env,
                                   std::uint32_t auth_sessions,
                                   bool enroll_first, bool revoke_at_end) {
  const auto device_id = static_cast<std::uint64_t>(chip.id());
  XPUF_REQUIRE(device_index_.find(device_id) == device_index_.end(),
               "device provisioned twice");
  XPUF_REQUIRE(model.chip_id() == chip.id(),
               "enrolled model does not belong to this chip");
  Shard& shard = shard_of(device_id);
  if (enroll_first) {
    shard.provisioned.emplace(device_id, std::move(model));
  } else {
    shard.db.register_device(std::move(model));
  }
  shard.handlers.emplace(
      std::piecewise_construct, std::forward_as_tuple(device_id),
      std::forward_as_tuple(
          device_id, shard.db, shard.provisioned, issue_family_,
          ServerPolicy{config_.session_ttl_ticks, config_.busy_retry_ticks}));
  clients_.push_back(std::make_unique<ClientConn>(
      *this, clients_.size(), chip, env, measure_family_.stream(device_id),
      auth_sessions, enroll_first, revoke_at_end));
  device_index_.emplace(device_id,
                        static_cast<std::uint32_t>(clients_.size() - 1));
}

const std::vector<SessionRecord>& AsyncServiceEngine::device_records(
    std::uint64_t device_id) const {
  const auto it = device_index_.find(device_id);
  XPUF_REQUIRE(it != device_index_.end(), "unknown device id");
  const ClientConn& conn = *clients_[it->second];
  XPUF_REQUIRE(conn.client != nullptr, "device_records before run()");
  return conn.client->records();
}

std::vector<std::uint64_t> AsyncServiceEngine::device_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(device_index_.size());
  for (const auto& entry : device_index_) ids.push_back(entry.first);
  return ids;
}

bool AsyncServiceEngine::setup_listener() {
  Fd listen_fd;
  if (config_.unix_socket) {
    listen_fd = sys_listen_unix(config_.unix_path, 4096);
  } else {
    port_ = 0;  // ephemeral; sys_listen writes the kernel's pick back
    listen_fd = sys_listen_tcp_localhost(port_, 4096);
  }
  if (!listen_fd.valid()) return false;
  acceptor_ = std::make_unique<Acceptor>(std::move(listen_fd),
                                         config_.busy_retry_ticks);
  acceptor_handler_ = std::make_unique<AcceptorHandler>(*this);
  return loop_->add(acceptor_->fd(), acceptor_handler_.get());
}

void AsyncServiceEngine::start_connects() {
  std::size_t started = 0;
  while (next_connect_ < clients_.size() && started < config_.connect_batch) {
    ClientConn& conn = *clients_[next_connect_++];
    ++started;
    std::pair<Fd, IoStatus> c =
        config_.unix_socket ? sys_connect_unix(config_.unix_path)
                            : sys_connect_tcp_localhost(port_);
    if (c.second == IoStatus::kError) {
      connect_failures_.push_back("device " + std::to_string(conn.chip->id()) +
                                  ": connect failed");
      conn.counted_finished = true;  // never participates; don't stall
      ++finished_clients_;
      continue;
    }
    conn.attach(std::move(c.first),
                ClientPolicy{config_.client_timeout_ticks,
                             config_.client_max_retries},
                c.second == IoStatus::kOk);
    if (!loop_->add(conn.transport->fd(), &conn)) {
      connect_failures_.push_back("device " + std::to_string(conn.chip->id()) +
                                  ": epoll registration failed");
      conn.counted_finished = true;
      ++finished_clients_;
      continue;
    }
    // Unix connects complete synchronously; kick the first session now
    // rather than waiting for the initial writable edge.
    if (conn.connected) step_client(conn.index);
  }
}

void AsyncServiceEngine::on_acceptor_ready() {
  acceptor_->drain([this](Fd& fd) { return admit(fd); });
}

bool AsyncServiceEngine::admit(Fd& fd) {
  if (live_server_conns_ >= config_.max_connections) return false;
  const std::uint64_t id = next_conn_id_++;
  auto conn = std::make_unique<ServerConn>(*this, id, std::move(fd));
  conn->last_activity = clock_.ticks();
  if (!loop_->add(conn->transport.fd(), conn.get())) {
    // epoll rejected the fd: the connection is unusable, so it is counted
    // as accepted-then-closed (the ServerConn destructor closes the fd).
    conns_closed_add();
    return true;
  }
  if (config_.idle_conn_ttl_ticks < (1u << 30))
    loop_->arm_timer(conn->last_activity + config_.idle_conn_ttl_ticks,
                     kIdleTag | id);
  server_conns_.emplace(id, std::move(conn));
  ++live_server_conns_;
  return true;
}

void AsyncServiceEngine::on_client_ready(std::size_t index, bool readable,
                                         bool writable, bool hangup) {
  ClientConn& conn = *clients_[index];
  if (!conn.transport) return;
  if (!conn.connected && (writable || hangup)) {
    const int err = sys_socket_error(conn.transport->fd_handle());
    if (err != 0) {
      connect_failures_.push_back("device " + std::to_string(conn.chip->id()) +
                                  ": deferred connect failed");
      if (!conn.counted_finished) {
        conn.counted_finished = true;
        ++finished_clients_;
      }
      loop_->remove(conn.transport->fd());
      return;
    }
    conn.connected = true;
  }
  if (readable || hangup) conn.transport->pump_reads();
  if (writable) conn.transport->flush_writes();
  if (conn.connected) step_client(index);
}

void AsyncServiceEngine::step_client(std::size_t index) {
  ClientConn& conn = *clients_[index];
  if (!conn.client) return;
  if (conn.transport->failed()) {
    // Surfaced as a violation in finalize(); counted finished so a broken
    // transport cannot stall quiescence for the whole fleet.
    if (!conn.counted_finished) {
      conn.counted_finished = true;
      ++finished_clients_;
    }
    return;
  }
  conn.client->step(static_cast<std::uint32_t>(clock_.ticks()));
  if (conn.client->finished()) {
    if (!conn.counted_finished) {
      conn.counted_finished = true;
      ++finished_clients_;
    }
    return;
  }
  arm_client_timer(index);
}

void AsyncServiceEngine::arm_client_timer(std::size_t index) {
  ClientConn& conn = *clients_[index];
  const std::uint32_t deadline = conn.client->deadline_round();
  // Lazy cancellation: stale wheel entries fire harmlessly (step() checks
  // the authoritative deadline); only a CHANGED deadline needs a new entry.
  if (deadline == conn.armed_deadline) return;
  conn.armed_deadline = deadline;
  loop_->arm_timer(deadline, kClientTag | static_cast<std::uint64_t>(index));
}

void AsyncServiceEngine::on_server_ready(std::uint64_t conn_id, bool readable,
                                         bool writable, bool hangup) {
  auto it = server_conns_.find(conn_id);
  if (it == server_conns_.end() || it->second->closed) return;
  ServerConn& conn = *it->second;
  conn.last_activity = clock_.ticks();
  if (readable || hangup) {
    const PumpStatus pump = conn.transport.pump_reads();
    while (auto frame = recv_frame(conn.transport, conn.stats))
      enqueue_request(conn, std::move(*frame));
    if (pump == PumpStatus::kPeerClosed && conn.transport.decoder().empty()) {
      close_server_conn(conn_id, /*idle_expiry=*/false);
      return;
    }
  }
  if (writable) conn.transport.flush_writes();
}

void AsyncServiceEngine::enqueue_request(ServerConn& conn, Frame frame) {
  if (request_queue_.size() >= config_.request_queue_cap) {
    // Typed backpressure: the request is answered NOW with a retryable busy
    // NACK instead of being dropped; the client's deadline path retries.
    ++request_overflow_;
    static Counter& request_overflow =
        MetricsRegistry::global().counter("net.async.request_overflow");
    request_overflow.add();
    ServerConn::Sink sink(conn, frame.header.device_id);
    NackPayload nack;
    nack.reason = NackReason::kBusy;
    nack.retry_after_rounds = config_.busy_retry_ticks;
    sink.send(FrameType::kNack, frame.header.session_id, encode_nack(nack));
    return;
  }
  QueuedRequest req;
  req.conn_id = conn.id;
  req.frame = std::move(frame);
  request_queue_.push_back(std::move(req));
}

void AsyncServiceEngine::serve_queue() {
  const std::uint64_t now = clock_.ticks();
  std::size_t served = 0;
  while (!request_queue_.empty() && served < config_.serve_budget_per_poll) {
    QueuedRequest req = std::move(request_queue_.front());
    request_queue_.pop_front();
    ++served;
    auto it = server_conns_.find(req.conn_id);
    if (it == server_conns_.end() || it->second->closed) {
      ++stale_conn_frames_;  // connection died while the request queued
      continue;
    }
    ServerConn& conn = *it->second;
    const std::uint64_t device_id = req.frame.header.device_id;
    ServerSessionHandler* handler = handler_of(device_id);
    ServerConn::Sink sink(conn, device_id);
    if (handler == nullptr) {
      ++unknown_device_nacks_;
      NackPayload nack;
      nack.reason = NackReason::kUnknownDevice;
      nack.retry_after_rounds = 0;  // terminal
      sink.send(FrameType::kNack, req.frame.header.session_id,
                encode_nack(nack));
      continue;
    }
    handler->expire_if_due(now);
    handler->handle(req.frame, now, sink);
    arm_ttl_timer(device_id);
  }
}

void AsyncServiceEngine::arm_ttl_timer(std::uint64_t device_id) {
  ServerSessionHandler* handler = handler_of(device_id);
  if (handler == nullptr) return;
  const auto deadline = handler->ttl_deadline();
  if (!deadline) return;
  auto& armed = shard_of(device_id).armed_ttl;
  auto it = armed.find(device_id);
  if (it != armed.end() && it->second == *deadline) return;
  armed[device_id] = *deadline;
  loop_->arm_timer(*deadline, kTtlTag | device_id);
}

void AsyncServiceEngine::on_timer(std::uint64_t key, std::uint64_t now) {
  const std::uint64_t tag = key & kTagMask;
  const std::uint64_t payload = key & ~kTagMask;
  if (tag == kClientTag) {
    const auto index = static_cast<std::size_t>(payload);
    if (index < clients_.size() && clients_[index]->connected)
      step_client(index);
    return;
  }
  if (tag == kTtlTag) {
    ServerSessionHandler* handler = handler_of(payload);
    if (handler == nullptr) return;
    shard_of(payload).armed_ttl.erase(payload);
    handler->expire_if_due(now);
    arm_ttl_timer(payload);  // session may have moved on — lazy re-arm
    return;
  }
  if (tag == kIdleTag) {
    auto it = server_conns_.find(payload);
    if (it == server_conns_.end() || it->second->closed) return;
    ServerConn& conn = *it->second;
    const std::uint64_t expiry =
        conn.last_activity + config_.idle_conn_ttl_ticks;
    if (now >= expiry && conn.transport.idle())
      close_server_conn(payload, /*idle_expiry=*/true);
    else
      loop_->arm_timer(expiry, kIdleTag | payload);
  }
}

void AsyncServiceEngine::close_server_conn(std::uint64_t conn_id,
                                           bool idle_expiry) {
  auto it = server_conns_.find(conn_id);
  if (it == server_conns_.end() || it->second->closed) return;
  ServerConn& conn = *it->second;
  conn.closed = true;
  if (live_server_conns_ > 0) --live_server_conns_;
  loop_->remove(conn.transport.fd());
  if (idle_expiry) ++idle_conns_closed_;
  conns_closed_add();
  // The Fd stays owned by the transport; it closes when the map entry is
  // destroyed at engine teardown, after finalize() has read the stats.
}

bool AsyncServiceEngine::quiescent() const {
  if (finished_clients_ < clients_.size()) return false;
  if (!request_queue_.empty()) return false;
  for (const auto& conn : clients_)
    if (conn->transport && !conn->transport->failed() &&
        (!conn->transport->idle() || conn->transport->wants_write()))
      return false;
  for (const auto& entry : server_conns_) {
    const ServerConn& conn = *entry.second;
    if (!conn.closed && (!conn.transport.idle() || conn.transport.wants_write()))
      return false;
  }
  return true;
}

void AsyncServiceEngine::observe_latency(std::uint64_t ticks_elapsed) {
  latency_histogram().observe(static_cast<double>(ticks_elapsed) *
                              config_.tick_seconds * 1e3);
}

AsyncServiceReport AsyncServiceEngine::run() {
  XPUF_TRACE_SPAN("net.async_service_run");
  XPUF_REQUIRE(!device_index_.empty(),
               "run() needs at least one provisioned device");
  loop_ = std::make_unique<EventLoop>(clock_);
  XPUF_REQUIRE(loop_->valid(), "epoll_create failed");
  XPUF_REQUIRE(setup_listener(), "listener setup failed");
  sys_raise_nofile(2 * clients_.size() + 64);
  loop_->set_timer_handler(
      [this](std::uint64_t key, std::uint64_t now) { on_timer(key, now); });

  auto& registry = MetricsRegistry::global();
  const std::uint64_t base_read =
      registry.counter("net.async.bytes_read").total();
  const std::uint64_t base_written =
      registry.counter("net.async.bytes_written").total();

  bool clean = false;
  for (;;) {
    start_connects();
    const bool busy =
        !request_queue_.empty() || next_connect_ < clients_.size();
    loop_->poll(busy ? 0 : 10);
    serve_queue();
    if (quiescent()) {
      const std::uint64_t r =
          registry.counter("net.async.bytes_read").total() - base_read;
      const std::uint64_t w =
          registry.counter("net.async.bytes_written").total() - base_written;
      // Bytes still in kernel buffers arrive as later readable edges; only
      // the balanced state is true quiescence.
      if (r == w) {
        clean = true;
        break;
      }
    }
    if (clock_.ticks() >= config_.max_ticks) break;
  }

  // Teardown: every surviving descriptor leaves the loop and is counted.
  for (const auto& conn : clients_)
    if (conn->transport) {
      loop_->remove(conn->transport->fd());
      conns_closed_add();
    }
  for (const auto& entry : server_conns_)
    if (!entry.second->closed)
      close_server_conn(entry.first, /*idle_expiry=*/false);
  if (acceptor_) loop_->remove(acceptor_->fd());

  AsyncServiceReport report = finalize(clean);
  report.bytes_read =
      registry.counter("net.async.bytes_read").total() - base_read;
  report.bytes_written =
      registry.counter("net.async.bytes_written").total() - base_written;
  if (clean && report.bytes_read != report.bytes_written)
    report.violations.push_back(
        "byte conservation broken: read " + std::to_string(report.bytes_read) +
        " != written " + std::to_string(report.bytes_written));
  report.ticks = clock_.ticks();
  return report;
}

AsyncServiceReport AsyncServiceEngine::finalize(bool all_finished) {
  AsyncServiceReport report;
  report.all_finished = all_finished;
  report.devices = device_index_.size();
  report.violations = connect_failures_;
  if (!all_finished)
    report.violations.push_back("tick budget exhausted with live sessions");

  std::uint64_t outcome_h = 0xc0ffee;
  std::uint64_t client_sent = 0, client_delivered = 0, client_corrupt = 0;
  for (const auto& [device_id, slot] : device_index_) {
    const ClientConn& conn = *clients_[slot];
    if (!conn.client) continue;  // connect failed; already a violation
    for (const SessionRecord& rec : conn.client->records()) {
      report.sessions_total += 1;
      report.retries += rec.retries;
      switch (rec.terminal) {
        case SessionPhase::kApproved: report.approved += 1; break;
        case SessionPhase::kDenied: report.denied += 1; break;
        case SessionPhase::kRejected: report.rejected += 1; break;
        case SessionPhase::kFailed: report.failed += 1; break;
        default:
          report.violations.push_back(
              "device " + std::to_string(device_id) + " session " +
              std::to_string(rec.session_id) + " has no terminal state");
      }
      // Transport-invariant digest — identical formula to the lockstep
      // oracle's outcome_fingerprint (tests/oracles/service.cpp).
      mix(outcome_h, device_id);
      mix(outcome_h, rec.session_id);
      mix(outcome_h, static_cast<std::uint64_t>(rec.opened_with));
      mix(outcome_h, static_cast<std::uint64_t>(rec.terminal));
      mix(outcome_h, rec.mismatches);
      mix(outcome_h, rec.challenges_used);
    }
    if (!conn.client->finished())
      report.violations.push_back("device " + std::to_string(device_id) +
                                  " did not finish its session plan");
    if (conn.transport && conn.transport->failed())
      report.violations.push_back("device " + std::to_string(device_id) +
                                  ": client transport failed");
    const ChannelStats& stats = conn.client->channel_stats();
    client_sent += stats.sent;
    client_delivered += stats.delivered;
    client_corrupt += stats.corrupt;
  }
  report.outcome_fingerprint = outcome_h;

  std::uint64_t server_sent = 0, server_delivered = 0, server_corrupt = 0;
  for (const auto& entry : server_conns_) {
    const ServerConn& conn = *entry.second;
    server_sent += conn.stats.sent;
    server_delivered += conn.stats.delivered;
    server_corrupt += conn.stats.corrupt;
    if (conn.transport.failed())
      report.violations.push_back("server connection " +
                                  std::to_string(conn.id) +
                                  ": transport failed");
  }
  report.frames_sent = client_sent + server_sent;
  report.frames_delivered = client_delivered + server_delivered;
  report.frames_corrupt = client_corrupt + server_corrupt;
  // Frame conservation on a reliable wire: every sent frame is delivered (or
  // surfaced corrupt) exactly once the run is quiescent.
  if (all_finished) {
    if (client_sent != server_delivered + server_corrupt)
      report.violations.push_back("uplink frame conservation broken");
    if (server_sent != client_delivered + client_corrupt)
      report.violations.push_back("downlink frame conservation broken");
  }

  for (const auto& shard : shards_)
    for (const auto& entry : shard->handlers) {
      const ServerLedger& ledger = entry.second.ledger();
      report.nacks_sent += ledger.nacks_sent;
      report.busy_nacks += ledger.busy_nacks;
      report.sessions_expired += ledger.sessions_expired;
      report.enroll_activated += ledger.enroll_activated;
      report.revocations += ledger.revocations;
      report.batches_issued += ledger.batches_issued;
    }
  report.connections_accepted = acceptor_ ? acceptor_->accepted() : 0;
  report.accept_overflow = acceptor_ ? acceptor_->overflowed() : 0;
  report.request_overflow = request_overflow_;
  report.nacks_sent += unknown_device_nacks_ + request_overflow_;
  report.busy_nacks += request_overflow_ + report.accept_overflow;
  report.idle_conns_closed = idle_conns_closed_;

  MetricsRegistry::global()
      .gauge("net.async.connections")
      .set(static_cast<double>(server_conns_.size()));
  return report;
}

}  // namespace xpuf::net::async
