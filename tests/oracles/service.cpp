#include "oracles/service.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "net/server_session.hpp"

namespace xpuf::net {

namespace {

// StreamFamily key of a connection's fault stream; the two directions of one
// connection land on decorrelated streams. (Issuance keys live in
// server_session.cpp — issue_stream_key — shared with the async engine.)
std::uint64_t fault_key(std::uint64_t device_id, bool server_side) {
  return device_id * 2 + (server_side ? 1 : 0);
}

}  // namespace

struct ServiceEngine::Connection {
  Connection(const sim::XorPufChip& chip, const sim::Environment& env,
             Rng measure_rng, const ServiceConfig& config,
             const StreamFamily& fault_family,
             const StreamFamily& issue_family, puf::ServerDatabase& db,
             std::map<std::uint64_t, puf::ServerModel>& provisioned,
             std::uint32_t auth_sessions, bool enroll_first,
             bool revoke_at_end)
      : device_id(chip.id()),
        client_tx(c2s_pipe, config.faults, fault_family,
                  fault_key(chip.id(), /*server_side=*/false)),
        server_tx(s2c_pipe, config.faults, fault_family,
                  fault_key(chip.id(), /*server_side=*/true)),
        client(chip, env, measure_rng, client_tx, s2c_pipe, auth_sessions,
               config.client_policy, enroll_first, revoke_at_end),
        handler(chip.id(), db, provisioned, issue_family,
                ServerPolicy{config.session_ttl_rounds,
                             config.busy_retry_rounds}) {}

  std::uint64_t device_id;
  PipeTransport c2s_pipe;  ///< client -> server frames land here
  PipeTransport s2c_pipe;  ///< server -> client frames land here
  FaultyTransport client_tx;
  FaultyTransport server_tx;
  DeviceClient client;
  ServerSessionHandler handler;
  ChannelStats server_stats;
  std::uint32_t server_seq = 0;

  bool idle() const {
    return client_tx.idle() && server_tx.idle() && c2s_pipe.idle() &&
           s2c_pipe.idle();
  }

  /// Routes handler replies onto this connection's server->client transport,
  /// stamping the per-connection seq and endpoint stats.
  class ReplyToPipe final : public ReplySink {
   public:
    explicit ReplyToPipe(Connection& conn) : conn_(&conn) {}

    void send(FrameType type, std::uint32_t session_id,
              std::vector<std::uint8_t> payload) override {
      Frame frame;
      frame.header.type = type;
      frame.header.device_id = conn_->device_id;
      frame.header.session_id = session_id;
      frame.header.seq = conn_->server_seq++;
      frame.payload = std::move(payload);
      send_frame(conn_->server_tx, frame, conn_->server_stats);
    }

   private:
    Connection* conn_;
  };
};

struct ServiceEngine::Shard {
  explicit Shard(puf::DatabaseConfig db_config) : db(db_config) {}

  puf::ServerDatabase db;
  /// Enrolled models waiting for their ENROLL_BEGIN activation. Partitioned
  /// here at provision() time so activation is a shard-local map insert.
  std::map<std::uint64_t, puf::ServerModel> provisioned;
  std::vector<std::unique_ptr<Connection>> connections;
};

ServiceEngine::ServiceEngine(ServiceConfig config)
    : config_(config),
      fault_family_(Rng(config.seed ^ 0xfa'17'00'01).fork_base()),
      issue_family_(Rng(config.seed ^ 0xfa'17'00'02).fork_base()),
      measure_family_(Rng(config.seed ^ 0xfa'17'00'03).fork_base()) {
  XPUF_REQUIRE(config.shards >= 1, "the shard grid needs at least one shard");
  XPUF_REQUIRE(config.max_inflight_per_device >= 1,
               "a device must be allowed at least one in-flight session");
  XPUF_REQUIRE(config.session_ttl_rounds >= 1, "session TTL must be >= 1 round");
  shards_.reserve(config.shards);
  for (std::uint32_t s = 0; s < config.shards; ++s)
    shards_.push_back(std::make_unique<Shard>(config.database));
}

ServiceEngine::~ServiceEngine() = default;

ServiceEngine::Shard& ServiceEngine::shard_of(std::uint64_t device_id) {
  return *shards_[static_cast<std::size_t>(device_id % config_.shards)];
}

void ServiceEngine::provision(const sim::XorPufChip& chip,
                              puf::ServerModel model,
                              const sim::Environment& env,
                              std::uint32_t auth_sessions, bool enroll_first,
                              bool revoke_at_end) {
  const std::uint64_t device_id = static_cast<std::uint64_t>(chip.id());
  XPUF_REQUIRE(device_index_.find(device_id) == device_index_.end(),
               "device provisioned twice");
  XPUF_REQUIRE(model.chip_id() == chip.id(),
               "enrolled model does not belong to this chip");
  Shard& shard = shard_of(device_id);
  if (enroll_first) {
    shard.provisioned.emplace(device_id, std::move(model));
  } else {
    // No activation step scripted: the model goes live immediately.
    shard.db.register_device(std::move(model));
  }
  shard.connections.push_back(std::make_unique<Connection>(
      chip, env, measure_family_.stream(device_id), config_, fault_family_,
      issue_family_, shard.db, shard.provisioned, auth_sessions, enroll_first,
      revoke_at_end));
  device_index_.emplace(
      device_id,
      std::make_pair(static_cast<std::uint32_t>(device_id % config_.shards),
                     static_cast<std::uint32_t>(shard.connections.size() - 1)));
}

const std::vector<SessionRecord>& ServiceEngine::device_records(
    std::uint64_t device_id) const {
  const auto it = device_index_.find(device_id);
  XPUF_REQUIRE(it != device_index_.end(), "unknown device id");
  return shards_[it->second.first]
      ->connections[it->second.second]
      ->client.records();
}

ServiceReport ServiceEngine::run() {
  XPUF_TRACE_SPAN("net.service_run");
  XPUF_REQUIRE(!device_index_.empty(), "run() needs at least one provisioned device");
  std::uint32_t round = 0;
  bool all_finished = false;
  bool all_idle = false;
  for (; round < config_.max_rounds; ++round) {
    // Serial quiescence check between rounds: finished clients may still owe
    // the wire duplicated or held frames, so both conditions must hold.
    all_finished = true;
    all_idle = true;
    for (const auto& shard : shards_)
      for (const auto& conn : shard->connections) {
        all_finished = all_finished && conn->client.finished();
        all_idle = all_idle && conn->idle();
      }
    if (all_finished && all_idle) break;
    parallel_for(shards_.size(), 1,
                 [&](std::size_t begin, std::size_t end, std::size_t) {
                   for (std::size_t s = begin; s < end; ++s)
                     step_shard(s, round);
                 });
  }
  return finalize(round, all_finished, all_idle);
}

void ServiceEngine::step_shard(std::size_t shard_index, std::uint32_t round) {
  Shard& shard = *shards_[shard_index];
  for (auto& conn : shard.connections) {
    conn->client.step(round);
    serve(*conn, round);
    conn->client_tx.tick();
    conn->server_tx.tick();
  }
}

void ServiceEngine::serve(Connection& conn, std::uint32_t round) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  conn.handler.expire_if_due(round);
  Connection::ReplyToPipe sink(conn);
  while (auto frame = recv_frame(conn.c2s_pipe, conn.server_stats)) {
    if (frame->header.device_id != conn.device_id) {
      ignored.add(1);  // cannot happen on a per-device pipe; counted anyway
      continue;
    }
    conn.handler.handle(*frame, round, sink);
  }
}

namespace {

/// FNV-1a style mixing; order-sensitive, but finalize() feeds it in the
/// fixed device_index_ order, so the digest is schedule-independent.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

}  // namespace

ServiceReport ServiceEngine::finalize(std::uint32_t rounds, bool all_finished,
                                      bool all_idle) {
  ServiceReport report;
  report.rounds = rounds;
  report.all_finished = all_finished;
  report.all_idle = all_idle;
  report.devices = device_index_.size();
  if (!all_finished)
    report.violations.push_back("round budget exhausted with live sessions");
  if (!all_idle)
    report.violations.push_back("round budget exhausted with frames in flight");
  std::uint64_t h = 0xc0ffee;
  std::uint64_t outcome_h = 0xc0ffee;
  std::uint64_t ledger_entries = 0;
  for (const auto& [device_id, where] : device_index_) {
    const Connection& conn = *shards_[where.first]->connections[where.second];
    const Shard& shard = *shards_[where.first];
    for (const SessionRecord& rec : conn.client.records()) {
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
      mix(h, device_id);
      mix(h, rec.session_id);
      mix(h, static_cast<std::uint64_t>(rec.opened_with));
      mix(h, static_cast<std::uint64_t>(rec.terminal));
      mix(h, rec.retries);
      mix(h, rec.mismatches);
      mix(h, rec.challenges_used);
      // Transport-invariant digest: what the session DECIDED, not how many
      // times the wire made the client ask.
      mix(outcome_h, device_id);
      mix(outcome_h, rec.session_id);
      mix(outcome_h, static_cast<std::uint64_t>(rec.opened_with));
      mix(outcome_h, static_cast<std::uint64_t>(rec.terminal));
      mix(outcome_h, rec.mismatches);
      mix(outcome_h, rec.challenges_used);
    }
    if (!conn.client.finished())
      report.violations.push_back("device " + std::to_string(device_id) +
                                  " did not finish its session plan");
    // Frame conservation per direction (exact once the wire is idle):
    //   delivered + dropped == sent + duplicated
    //   corrupt == truncated + bitflipped (single fault per frame)
    const FaultTally& up = conn.client_tx.tally();
    const FaultTally& down = conn.server_tx.tally();
    const ChannelStats& client_stats = conn.client.channel_stats();
    const ChannelStats& server_stats = conn.server_stats;
    if (all_idle) {
      if (server_stats.delivered + up.dropped != up.sent + up.duplicated)
        report.violations.push_back("device " + std::to_string(device_id) +
                                    ": uplink frame conservation broken");
      if (client_stats.delivered + down.dropped != down.sent + down.duplicated)
        report.violations.push_back("device " + std::to_string(device_id) +
                                    ": downlink frame conservation broken");
      if (server_stats.corrupt != up.truncated + up.bitflipped)
        report.violations.push_back("device " + std::to_string(device_id) +
                                    ": uplink corruption accounting broken");
      if (client_stats.corrupt != down.truncated + down.bitflipped)
        report.violations.push_back("device " + std::to_string(device_id) +
                                    ": downlink corruption accounting broken");
    }
    if (client_stats.sent != up.sent || server_stats.sent != down.sent)
      report.violations.push_back("device " + std::to_string(device_id) +
                                  ": endpoint/wire sent counts disagree");
    report.frames_sent += client_stats.sent + server_stats.sent;
    report.frames_delivered += client_stats.delivered + server_stats.delivered;
    report.frames_corrupt += client_stats.corrupt + server_stats.corrupt;
    report.faults.sent += up.sent + down.sent;
    report.faults.dropped += up.dropped + down.dropped;
    report.faults.duplicated += up.duplicated + down.duplicated;
    report.faults.reordered += up.reordered + down.reordered;
    report.faults.truncated += up.truncated + down.truncated;
    report.faults.bitflipped += up.bitflipped + down.bitflipped;
    mix(h, client_stats.sent);
    mix(h, client_stats.delivered);
    mix(h, client_stats.corrupt);
    mix(h, server_stats.sent);
    mix(h, server_stats.delivered);
    mix(h, server_stats.corrupt);
    const auto chip_id = static_cast<std::size_t>(device_id);
    if (shard.db.knows(chip_id))
      ledger_entries += shard.db.issued_count(chip_id);
    report.batches_issued += conn.handler.ledger().batches_issued;
  }
  report.fingerprint = h;
  report.outcome_fingerprint = outcome_h;

  // Serial pass over counters the engine owns end-to-end: the snapshot must
  // agree with the per-connection ledgers summed above.
  auto& registry = MetricsRegistry::global();
  report.sessions_expired = registry.counter("net.sessions_expired").total();
  report.nacks_sent = registry.counter("net.nacks_sent").total();
  report.enroll_activated = registry.counter("net.enroll_activated").total();
  report.revocations = registry.counter("net.revocations").total();
  // Gauges are last-writer-wins and therefore racy during the parallel run;
  // overwrite them serially here so snapshots compare bit-identically.
  registry.gauge("db.ledger_size").set(static_cast<double>(ledger_entries));
  registry.gauge("net.devices").set(static_cast<double>(report.devices));
  registry.gauge("net.rounds").set(static_cast<double>(report.rounds));
  return report;
}

}  // namespace xpuf::net
