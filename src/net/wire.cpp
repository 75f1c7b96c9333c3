#include "net/wire.hpp"

#include <string>

#include "common/error.hpp"

namespace xpuf::net {

bool is_known_frame_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kEnrollBegin) &&
         raw <= static_cast<std::uint8_t>(FrameType::kRevoke);
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kEnrollBegin: return "ENROLL_BEGIN";
    case FrameType::kAuthBegin: return "AUTH_BEGIN";
    case FrameType::kChallengeBatch: return "CHALLENGE_BATCH";
    case FrameType::kResponseSubmit: return "RESPONSE_SUBMIT";
    case FrameType::kAuthResult: return "AUTH_RESULT";
    case FrameType::kNack: return "NACK";
    case FrameType::kRevoke: return "REVOKE";
  }
  return "UNKNOWN";
}

const char* to_string(NackReason reason) {
  switch (reason) {
    case NackReason::kUnknownDevice: return "UNKNOWN_DEVICE";
    case NackReason::kBusy: return "BUSY";
    case NackReason::kBadState: return "BAD_STATE";
    case NackReason::kSelectionExhausted: return "SELECTION_EXHAUSTED";
    case NackReason::kRevoked: return "REVOKED";
  }
  return "UNKNOWN";
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated frame";
    case DecodeStatus::kBadMagic: return "bad magic";
    case DecodeStatus::kBadVersion: return "unsupported version";
    case DecodeStatus::kBadType: return "unknown frame type";
    case DecodeStatus::kBadLength: return "payload length out of range";
    case DecodeStatus::kBadChecksum: return "checksum mismatch";
    case DecodeStatus::kTrailingBytes: return "trailing bytes after checksum";
    case DecodeStatus::kBadPayload: return "malformed payload";
  }
  return "unknown decode status";
}

// --- byte-order codecs ------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (std::uint32_t shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (std::uint32_t shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

bool WireReader::read_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = data_[pos_++];
  return true;
}

bool WireReader::read_u16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_]) |
                                 (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return true;
}

bool WireReader::read_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (std::uint32_t b = 0; b < 4; ++b)
    v |= static_cast<std::uint32_t>(data_[pos_ + b]) << (8 * b);
  pos_ += 4;
  return true;
}

bool WireReader::read_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (std::uint32_t b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(data_[pos_ + b]) << (8 * b);
  pos_ += 8;
  return true;
}

bool WireReader::read_bytes(std::uint64_t n, std::vector<std::uint8_t>& out) {
  if (remaining() < n) return false;
  out.assign(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return true;
}

// --- frame codec ------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  XPUF_REQUIRE(frame.payload.size() <= kMaxPayloadBytes,
               "frame payload exceeds the wire limit");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + frame.payload.size() + kTrailerBytes);
  put_u16(out, kWireMagic);
  put_u8(out, frame.header.version);
  put_u8(out, static_cast<std::uint8_t>(frame.header.type));
  put_u64(out, frame.header.device_id);
  put_u32(out, frame.header.session_id);
  put_u32(out, frame.header.seq);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  put_u32(out, crc32(out));
  return out;
}

DecodeStatus decode_frame(const std::vector<std::uint8_t>& bytes, Frame& out) {
  WireReader reader(bytes);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t payload_len = 0;
  if (!reader.read_u16(magic)) return DecodeStatus::kTruncated;
  if (magic != kWireMagic) return DecodeStatus::kBadMagic;
  if (!reader.read_u8(version)) return DecodeStatus::kTruncated;
  if (version != kWireVersion) return DecodeStatus::kBadVersion;
  if (!reader.read_u8(type)) return DecodeStatus::kTruncated;
  if (!is_known_frame_type(type)) return DecodeStatus::kBadType;
  if (!reader.read_u64(out.header.device_id)) return DecodeStatus::kTruncated;
  if (!reader.read_u32(out.header.session_id)) return DecodeStatus::kTruncated;
  if (!reader.read_u32(out.header.seq)) return DecodeStatus::kTruncated;
  if (!reader.read_u32(payload_len)) return DecodeStatus::kTruncated;
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kBadLength;
  if (!reader.read_bytes(payload_len, out.payload)) return DecodeStatus::kTruncated;
  std::uint32_t stated_crc = 0;
  const std::uint64_t covered = reader.position();
  if (!reader.read_u32(stated_crc)) return DecodeStatus::kTruncated;
  if (reader.remaining() != 0) return DecodeStatus::kTrailingBytes;
  if (crc32(bytes.data(), covered) != stated_crc) return DecodeStatus::kBadChecksum;
  out.header.version = version;
  out.header.type = static_cast<FrameType>(type);
  return DecodeStatus::kOk;
}

Frame decode_frame_or_throw(const std::vector<std::uint8_t>& bytes) {
  Frame frame;
  const DecodeStatus status = decode_frame(bytes, frame);
  if (status != DecodeStatus::kOk)
    throw WireError(std::string("wire frame decode failed: ") + to_string(status));
  return frame;
}

// --- payload codecs ---------------------------------------------------------

namespace {

std::uint32_t packed_row_bytes(std::uint32_t bit_count) {
  return (bit_count + 7u) / 8u;
}

void pack_bits(std::vector<std::uint8_t>& out, const std::uint8_t* bits,
               std::uint32_t count) {
  for (std::uint32_t base = 0; base < count; base += 8) {
    std::uint8_t byte = 0;
    for (std::uint32_t b = 0; b < 8 && base + b < count; ++b)
      if (bits[base + b] != 0) byte = static_cast<std::uint8_t>(byte | (1u << b));
    out.push_back(byte);
  }
}

bool unpack_bits(WireReader& reader, std::uint32_t count,
                 std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> packed;
  if (!reader.read_bytes(packed_row_bytes(count), packed)) return false;
  out.resize(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out[i] = static_cast<std::uint8_t>((packed[i / 8] >> (i % 8)) & 1u);
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_challenge_batch(
    const std::vector<Challenge>& challenges, std::uint32_t stages) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + challenges.size() * packed_row_bytes(stages));
  put_u32(out, static_cast<std::uint32_t>(challenges.size()));
  put_u32(out, stages);
  for (const Challenge& c : challenges) {
    XPUF_REQUIRE(c.size() == stages, "challenge length differs from batch stages");
    pack_bits(out, c.data(), stages);
  }
  return out;
}

DecodeStatus decode_challenge_batch(const std::vector<std::uint8_t>& payload,
                                    std::vector<Challenge>& out) {
  WireReader reader(payload);
  std::uint32_t count = 0;
  std::uint32_t stages = 0;
  if (!reader.read_u32(count)) return DecodeStatus::kBadPayload;
  if (!reader.read_u32(stages)) return DecodeStatus::kBadPayload;
  if (stages == 0 || stages > 4096) return DecodeStatus::kBadPayload;
  if (static_cast<std::uint64_t>(count) * packed_row_bytes(stages) != reader.remaining())
    return DecodeStatus::kBadPayload;
  out.clear();
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Challenge c;
    if (!unpack_bits(reader, stages, c)) return DecodeStatus::kBadPayload;
    out.push_back(std::move(c));
  }
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_response_bits(
    const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> out;
  const std::uint32_t count = static_cast<std::uint32_t>(bits.size());
  out.reserve(4 + packed_row_bytes(count));
  put_u32(out, count);
  pack_bits(out, bits.data(), count);
  return out;
}

DecodeStatus decode_response_bits(const std::vector<std::uint8_t>& payload,
                                  std::vector<std::uint8_t>& out) {
  WireReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read_u32(count)) return DecodeStatus::kBadPayload;
  if (count > kMaxPayloadBytes) return DecodeStatus::kBadPayload;
  if (packed_row_bytes(count) != reader.remaining()) return DecodeStatus::kBadPayload;
  if (!unpack_bits(reader, count, out)) return DecodeStatus::kBadPayload;
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_auth_result(const AuthResultPayload& result) {
  std::vector<std::uint8_t> out;
  out.reserve(9);
  put_u8(out, static_cast<std::uint8_t>(result.status));
  put_u32(out, result.mismatches);
  put_u32(out, result.challenges_used);
  return out;
}

DecodeStatus decode_auth_result(const std::vector<std::uint8_t>& payload,
                                AuthResultPayload& out) {
  WireReader reader(payload);
  std::uint8_t status = 0;
  if (!reader.read_u8(status)) return DecodeStatus::kBadPayload;
  if (status < static_cast<std::uint8_t>(AuthStatus::kApproved) ||
      status > static_cast<std::uint8_t>(AuthStatus::kRevokeAck))
    return DecodeStatus::kBadPayload;
  if (!reader.read_u32(out.mismatches)) return DecodeStatus::kBadPayload;
  if (!reader.read_u32(out.challenges_used)) return DecodeStatus::kBadPayload;
  if (reader.remaining() != 0) return DecodeStatus::kBadPayload;
  out.status = static_cast<AuthStatus>(status);
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_nack(const NackPayload& nack) {
  std::vector<std::uint8_t> out;
  out.reserve(3);
  put_u8(out, static_cast<std::uint8_t>(nack.reason));
  put_u16(out, nack.retry_after_rounds);
  return out;
}

DecodeStatus decode_nack(const std::vector<std::uint8_t>& payload,
                         NackPayload& out) {
  WireReader reader(payload);
  std::uint8_t reason = 0;
  if (!reader.read_u8(reason)) return DecodeStatus::kBadPayload;
  if (reason < static_cast<std::uint8_t>(NackReason::kUnknownDevice) ||
      reason > static_cast<std::uint8_t>(NackReason::kRevoked))
    return DecodeStatus::kBadPayload;
  if (!reader.read_u16(out.retry_after_rounds)) return DecodeStatus::kBadPayload;
  if (reader.remaining() != 0) return DecodeStatus::kBadPayload;
  out.reason = static_cast<NackReason>(reason);
  return DecodeStatus::kOk;
}

}  // namespace xpuf::net
