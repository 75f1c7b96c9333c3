#include "net/transport.hpp"

#include "common/metrics.hpp"

namespace xpuf::net {

namespace {

// The name string is built in here, not at the call sites: GCC 12's
// -fanalyzer reports a guarded static's temporary argument string as a leak
// (a false positive), and the CI analyzer sweep fails on any such report.
Counter& frame_counter(const char* name) {
  return MetricsRegistry::global().counter(name);
}

}  // namespace

void send_frame(Transport& transport, const Frame& frame, ChannelStats& stats) {
  static Counter& sent = frame_counter("net.frames_sent");
  sent.add(1);
  ++stats.sent;
  transport.send(encode_frame(frame));
}

std::optional<Frame> recv_frame(Transport& transport, ChannelStats& stats) {
  static Counter& delivered = frame_counter("net.frames_delivered");
  static Counter& corrupt = frame_counter("net.frames_corrupt");
  while (auto blob = transport.receive()) {
    delivered.add(1);
    ++stats.delivered;
    Frame frame;
    if (decode_frame(*blob, frame) == DecodeStatus::kOk) return frame;
    corrupt.add(1);
    ++stats.corrupt;
  }
  return std::nullopt;
}

}  // namespace xpuf::net
