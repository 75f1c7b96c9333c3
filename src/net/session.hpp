// Device-side protocol driver of the authentication service.
//
// A DeviceClient executes a scripted plan of sessions — one optional
// ENROLL_BEGIN activation, N AUTH_BEGIN authentications, an optional final
// REVOKE — over an unreliable transport. Each session is a tiny state
// machine (see DESIGN.md for the diagram):
//
//   IDLE --begin--> AWAIT_CHALLENGE --batch/measure--> AWAIT_RESULT
//        --result--> APPROVED | DENIED
//        --terminal NACK--> REJECTED
//        --retry budget exhausted--> FAILED
//
// Loss recovery is retransmission with exponential backoff measured in
// engine rounds (the deterministic clock of the in-process service), bounded
// by ClientPolicy::max_retries; responses for a challenge batch are measured
// once and the encoded payload is cached, so a retransmitted RESPONSE_SUBMIT
// carries bit-identical responses. Every session ends in exactly ONE
// terminal phase — the accounting invariant the service bench reconciles.
#pragma once

#include <cstdint>
#include <vector>

#include "net/transport.hpp"
#include "sim/chip.hpp"
#include "sim/environment.hpp"

namespace xpuf::net {

enum class SessionPhase : std::uint8_t {
  kIdle = 0,
  kAwaitChallenge,
  kAwaitResult,
  // Terminal phases — exactly one per session.
  kApproved,
  kDenied,
  kRejected,  ///< server sent a terminal NACK
  kFailed,    ///< retry budget exhausted (transport-level failure)
};

bool is_terminal(SessionPhase phase);
const char* to_string(SessionPhase phase);

/// Retry policy, expressed in the caller's clock domain. The DeviceClient
/// never reads a clock: every deadline comparison uses the `round` value
/// passed into step(), so "rounds" are whatever monotonic tick the engine
/// supplies — lockstep protocol rounds (where one round is a full RTT and a
/// timeout of 4 is generous) or event-loop clock ticks (where one tick is
/// ~1 ms wall time and the same policy needs a far larger window). Engines
/// that change the clock domain MUST re-size timeout_rounds for it; the
/// async engine does this via AsyncServiceConfig::client_timeout_ticks.
struct ClientPolicy {
  std::uint32_t timeout_rounds = 4;  ///< first await window; doubles per retry
  std::uint32_t max_retries = 6;     ///< retransmissions per session
};

/// Outcome ledger entry for one completed session.
struct SessionRecord {
  std::uint32_t session_id = 0;
  FrameType opened_with = FrameType::kAuthBegin;
  SessionPhase terminal = SessionPhase::kIdle;
  std::uint32_t retries = 0;
  std::uint32_t mismatches = 0;
  std::uint32_t challenges_used = 0;
};

/// Optional hook into session lifecycle events, for engines that attach
/// timing (the event loop's latency histogram) without entangling the state
/// machine with any clock. Callbacks fire synchronously inside step().
class SessionObserver {
 public:
  virtual ~SessionObserver() = default;
  virtual void on_session_opened(std::uint32_t session_id,
                                 std::uint32_t round) = 0;
  virtual void on_session_terminal(const SessionRecord& record,
                                   std::uint32_t round) = 0;
};

class DeviceClient {
 public:
  /// `rng` is this connection's private stream (measurement noise draws);
  /// `to_server`/`from_server` are the two transport directions: one
  /// full-duplex async::SocketTransport passed twice, or the test oracle's
  /// fault-injecting in-process pipes (tests/oracles/pipe_transport.hpp).
  DeviceClient(const sim::XorPufChip& chip, sim::Environment env, Rng rng,
               Transport& to_server, Transport& from_server,
               std::uint32_t auth_sessions, ClientPolicy policy = {},
               bool enroll_first = true, bool revoke_at_end = false);

  /// One engine round: drain the inbox, advance the state machine, open the
  /// next scripted session or retransmit on timeout.
  void step(std::uint32_t round);

  /// True once every scripted session reached a terminal phase.
  bool finished() const { return plan_index_ >= plan_.size(); }

  std::uint64_t device_id() const;
  SessionPhase phase() const { return phase_; }
  const std::vector<SessionRecord>& records() const { return records_; }
  const ChannelStats& channel_stats() const { return stats_; }

  /// The round step() will act on next if no frame arrives: retransmit (or
  /// fail the session) once `round >= deadline_round()`. Event-loop engines
  /// arm their timer wheel off this instead of polling every tick.
  std::uint32_t deadline_round() const { return deadline_round_; }

  /// `observer` must outlive the client (nullptr detaches).
  void set_observer(SessionObserver* observer) { observer_ = observer; }

 private:
  void open_next_session(std::uint32_t round);
  void handle(const Frame& frame, std::uint32_t round);
  void on_deadline(std::uint32_t round);
  void transmit(std::uint32_t round);
  void finish_session(SessionPhase terminal, std::uint32_t round);
  void arm_deadline(std::uint32_t round, std::uint32_t wait);

  const sim::XorPufChip* chip_;
  sim::Environment env_;
  Rng rng_;
  Transport* tx_;
  Transport* rx_;
  ClientPolicy policy_;

  std::vector<FrameType> plan_;
  std::size_t plan_index_ = 0;
  std::vector<SessionRecord> records_;

  SessionPhase phase_ = SessionPhase::kIdle;
  SessionRecord current_;
  std::uint32_t session_counter_ = 0;
  std::uint32_t seq_ = 0;            ///< per-connection transmission counter
  std::uint32_t deadline_round_ = 0;
  std::uint32_t timeout_cur_ = 0;
  /// Encoded payload of the frame a deadline retransmits (begin frames are
  /// empty; RESPONSE_SUBMIT carries the cached measured bits).
  FrameType pending_type_ = FrameType::kAuthBegin;
  std::vector<std::uint8_t> pending_payload_;

  ChannelStats stats_;
  SessionObserver* observer_ = nullptr;
};

}  // namespace xpuf::net
