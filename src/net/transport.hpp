// Transport abstraction of the authentication service.
//
// A Transport is one direction of a connection: a FIFO of encoded frames.
// The library's implementation is async::SocketTransport (one nonblocking
// socket carrying both directions). The deterministic in-process pipe and
// the seeded fault-injecting decorator live with the test oracles
// (tests/oracles/pipe_transport.hpp), where they drive the lockstep oracle
// engine the socket engine is reconciled against.
//
// Concurrency contract: a transport belongs to exactly one connection, and
// all calls on it happen on its owning engine lane, serially. Transports
// therefore need no locks, matching the chunk-ownership rule of
// common/parallel.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/wire.hpp"

namespace xpuf::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues one encoded frame toward the peer.
  virtual void send(std::vector<std::uint8_t> frame) = 0;

  /// Pops the next deliverable frame; nullopt when none is pending.
  virtual std::optional<std::vector<std::uint8_t>> receive() = 0;

  /// True when nothing is queued or held in flight (accounting quiescence —
  /// an engine only reconciles once every transport is idle).
  virtual bool idle() const = 0;

  /// Advances one engine round (reorder hold queues age here).
  virtual void tick() = 0;
};

/// Per-endpoint frame accounting (client side or server side of one
/// connection). Owned by the shard lane, so plain integers suffice; the same
/// events also feed the global net.* counters.
struct ChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t corrupt = 0;
};

/// Encodes and sends one frame; counts net.frames_sent.
void send_frame(Transport& transport, const Frame& frame, ChannelStats& stats);

/// Pops blobs until one decodes. Counts net.frames_delivered for every pop
/// and net.frames_corrupt for undecodable ones (swallowed — the session
/// retry layer recovers); nullopt once the queue is empty.
std::optional<Frame> recv_frame(Transport& transport, ChannelStats& stats);

}  // namespace xpuf::net
