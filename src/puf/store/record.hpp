// Fixed-width binary record codec of the enrollment store.
//
// The server must durably remember every enrolled model and every challenge
// it ever issued — the issued-challenge ledger IS the replay defense — so
// store records follow the same byte-exact discipline as the net/ wire
// frames (which this module cannot include: puf sits below net in the
// layering DAG, so the primitives are redefined here and the xpuf_lint
// `wire-pairing` pass checks both copies).
//
// Record layout (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     2  magic        0x5253 ("SR": store record)
//        2     1  version      kStoreVersion
//        3     1  op           OpType (register / revoke / issue)
//        4     8  device_id
//       12     4  payload_len  bytes that follow before the checksum
//       16     n  payload
//     16+n     4  crc32        over bytes [0, 16+n) (common/crc32.hpp)
//
// A store file is a plain concatenation of records (an op log); decoding is
// streaming — decode_record() consumes one record at an offset and reports
// kTruncated for a partial tail, so a crash mid-append loses at most the
// record being written, never the prefix. Challenges are packed one BIT per
// stage (LSB-first, like the wire challenge batches), not one char per bit.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "puf/enrollment.hpp"
#include "puf/model_view.hpp"

namespace xpuf::puf::store {

inline constexpr std::uint16_t kRecordMagic = 0x5253;  // "SR"
/// Version 2 dropped the wall-clock fit time from REGISTER payloads, so
/// same-seed enrollments write identical bytes; there is no version 1 reader.
inline constexpr std::uint8_t kStoreVersion = 2;
inline constexpr std::uint32_t kRecordHeaderBytes = 16;
inline constexpr std::uint32_t kRecordTrailerBytes = 4;
/// Upper bound on payload size; larger length prefixes are rejected as
/// kBadLength before any allocation, so a corrupt length cannot OOM.
inline constexpr std::uint32_t kMaxRecordPayloadBytes = 1u << 24;
/// Geometry bounds of a model payload — generous, but small enough that a
/// corrupt count field cannot drive a giant allocation.
inline constexpr std::uint32_t kMaxPufsPerModel = 4096;
inline constexpr std::uint32_t kMaxStagesPerModel = 4096;

/// Typed operations of the append-only log. Replay applies them in order,
/// so a revoke permanently shadows every earlier record of its device — the
/// structural fix for the PR 3 revoke-resurrection class of bug.
enum class OpType : std::uint8_t {
  kRegister = 1,  ///< full ServerModel snapshot for a device
  kRevoke = 2,    ///< device removed; payload empty
  kIssue = 3,     ///< ledger append: packed challenges issued to the device
  kPool = 4,      ///< pre-screened stable-challenge pool; latest epoch wins
  kPad = 5,       ///< alignment filler (0-7 zero bytes) so the f64 region of
                  ///< the next REGISTER payload lands 8-byte aligned for
                  ///< zero-copy mmap serving; no device semantics
};

/// Largest legal kPad payload: a pad exists only to reach the next 8-byte
/// boundary, so anything longer is corruption.
inline constexpr std::uint32_t kMaxPadBytes = 7;

bool is_known_op(std::uint8_t raw);
const char* to_string(OpType op);

enum class RecordStatus : std::uint8_t {
  kOk = 0,
  kTruncated,    ///< fewer bytes than header + payload_len + checksum
  kBadMagic,
  kBadVersion,
  kBadOp,
  kBadLength,    ///< payload_len exceeds kMaxRecordPayloadBytes
  kBadChecksum,
  kBadPayload,   ///< payload codec found malformed contents
};

const char* to_string(RecordStatus status);

// --- byte-order codecs ------------------------------------------------------
// The only sanctioned way bytes enter or leave a store record. Inline in the
// header so the whole codec TU pair (record.hpp + record.cpp) carries the
// put_/read_ vocabulary the wire-pairing lint pass verifies.

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (std::uint32_t shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (std::uint32_t shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

/// Doubles travel as their IEEE-754 bit pattern in a little-endian u64, so a
/// model round-trips bit-exactly on any host.
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  static_assert(std::numeric_limits<double>::is_iec559,
                "store codec requires IEEE-754 doubles");
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian cursor. Every read_* returns false instead
/// of walking past the end, so truncated records surface as kTruncated,
/// never UB.
class RecordReader {
 public:
  RecordReader(const std::uint8_t* data, std::uint64_t size)
      : data_(data), size_(size) {}

  bool read_u8(std::uint8_t& v);
  bool read_u16(std::uint16_t& v);
  bool read_u32(std::uint32_t& v);
  bool read_u64(std::uint64_t& v);
  bool read_f64(double& v);
  bool read_bytes(std::uint64_t n, std::string& out);
  bool skip(std::uint64_t n);

  std::uint64_t position() const { return pos_; }
  std::uint64_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

inline bool RecordReader::read_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = data_[pos_++];
  return true;
}

inline bool RecordReader::read_u16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_]) |
                                 (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return true;
}

inline bool RecordReader::read_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (std::uint32_t b = 0; b < 4; ++b)
    v |= static_cast<std::uint32_t>(data_[pos_ + b]) << (8 * b);
  pos_ += 4;
  return true;
}

inline bool RecordReader::read_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (std::uint32_t b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(data_[pos_ + b]) << (8 * b);
  pos_ += 8;
  return true;
}

inline bool RecordReader::read_f64(double& v) {
  std::uint64_t bits = 0;
  if (!read_u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

inline bool RecordReader::read_bytes(std::uint64_t n, std::string& out) {
  if (remaining() < n) return false;
  out.assign(reinterpret_cast<const char*>(data_) + pos_, static_cast<std::size_t>(n));
  pos_ += n;
  return true;
}

inline bool RecordReader::skip(std::uint64_t n) {
  if (remaining() < n) return false;
  pos_ += n;
  return true;
}

// --- record framing ---------------------------------------------------------

/// A decoded record, viewing (not copying) the payload bytes of the buffer
/// it was decoded from. `begin`/`end` are buffer offsets of the record's
/// first byte and one past its trailer — the replay cursor and the torture
/// test's truncation bookkeeping both key on `end`.
struct RecordView {
  OpType op = OpType::kRevoke;
  std::uint64_t device_id = 0;
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_len = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Appends one framed record (header + payload + crc) to `out`.
void encode_record(std::vector<std::uint8_t>& out, OpType op, std::uint64_t device_id,
                   const std::vector<std::uint8_t>& payload);

/// Decodes the record starting at `offset`; `out` views into `data` and is
/// valid only on kOk. Never throws — a truncated or corrupt tail is a state
/// the recovery path must classify, not a crash.
RecordStatus decode_record(const std::uint8_t* data, std::uint64_t size,
                           std::uint64_t offset, RecordView& out);

// --- payload codecs ---------------------------------------------------------

/// REGISTER payload: u32 puf_count, u32 stages, f64 beta0, f64 beta1, then
/// per PUF: f64 thr0, f64 thr1, f64 r_squared and (stages + 1) f64
/// weights. PufEnrollment::fit_time_ms is not stored (a wall-clock reading
/// would make the bytes differ run to run); decoded models read 0.
std::vector<std::uint8_t> encode_model(const ServerModel& model);
RecordStatus decode_model(const std::uint8_t* payload, std::uint32_t len,
                          std::uint64_t device_id, ServerModel& out);

/// Reads only the geometry prefix of a REGISTER payload — replay indexes
/// records without materializing weights, but compaction needs the stages.
RecordStatus peek_model_shape(const std::uint8_t* payload, std::uint32_t len,
                              std::uint32_t& puf_count, std::uint32_t& stages);

/// Exact byte size of a REGISTER payload with this geometry — replay checks
/// the stored length against it without decoding the weights.
std::uint64_t model_payload_bytes(std::uint32_t puf_count, std::uint32_t stages);

/// ISSUE payload: u32 count, u32 stages, then count rows of
/// ceil(stages / 8) bytes — the packed ledger keys. In memory the `count`
/// keys are packed words, sim::packed_words(stages) per key. A row with a
/// bit set at or past `stages` decodes as kBadPayload.
std::vector<std::uint8_t> encode_ledger(std::uint32_t stages, const std::uint64_t* words,
                                        std::size_t count);
RecordStatus decode_ledger(const std::uint8_t* payload, std::uint32_t len,
                           std::uint32_t& stages, std::vector<std::uint64_t>& words);

/// Decoded POOL payload: the device's pre-screened stable-challenge pool.
/// `words` holds the entries as packed challenge words, the ChallengeLedger
/// key layout (sim::packed_words(stages) per entry), `expected[i]` the
/// predicted XOR bit of entry i, `cursor` the candidate-stream index the
/// next refill resumes screening from, `epoch` the pool generation — replay
/// keeps only the record with the highest epoch per device.
struct PoolPayload {
  std::uint32_t stages = 0;
  std::uint32_t epoch = 0;
  std::uint64_t cursor = 0;
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> expected;  ///< one 0/1 byte per entry

  std::size_t size() const { return expected.size(); }
};

/// POOL payload: u32 count, u32 stages, u32 epoch, u32 reserved(0),
/// u64 cursor, ceil(count / 8) expected-bit bytes (bit i of byte i/8 =
/// expected response of entry i, LSB-first like the challenge packing),
/// then count rows of ceil(stages / 8) packed challenge bytes.
std::vector<std::uint8_t> encode_pool(const PoolPayload& pool);
RecordStatus decode_pool(const std::uint8_t* payload, std::uint32_t len,
                         PoolPayload& out);

/// Builds a zero-copy ModelView straight over a REGISTER payload — the mmap
/// serving path: the view's weight spans point into `payload` itself, no
/// parse, no copy. Returns false (leaving `out` untouched) when the payload
/// is malformed or its f64 region is not 8-byte aligned in memory; callers
/// fall back to decode_model. `owner` (typically the shard mapping) keeps
/// the bytes alive for the view's lifetime.
bool model_view_from_payload(const std::uint8_t* payload, std::uint32_t len,
                             std::uint64_t device_id,
                             std::shared_ptr<const void> owner, ModelView& out);

/// Appends one kPad record iff `base_offset + out.size()` — the file offset
/// the next record would land at — is not 8-byte aligned, sized so the next
/// record appended begins on an 8-byte boundary. A REGISTER record starting
/// at an aligned offset has its f64 region (record offset 24) aligned too,
/// which is what zero-copy serving from a page-aligned mapping requires.
/// `base_offset` is the file offset `out` will be appended at (0 for a
/// buffer that becomes a whole shard). No-op when already aligned.
void append_alignment_pad(std::vector<std::uint8_t>& out, std::uint64_t base_offset = 0);

// --- shard manifest ---------------------------------------------------------
// Tiny fixed-size file at the store root recording the shard fan-out.
//
//   offset  size  field
//        0     2  magic      0x534D ("MS": manifest of shards)
//        2     1  version    kStoreVersion
//        3     1  reserved   0
//        4     4  n_shards
//        8     4  crc32      over bytes [0, 8)

inline constexpr std::uint16_t kManifestMagic = 0x534D;  // "MS"
inline constexpr std::uint32_t kManifestBytes = 12;

std::vector<std::uint8_t> encode_manifest(std::uint32_t n_shards);
RecordStatus decode_manifest(const std::uint8_t* data, std::uint64_t size,
                             std::uint32_t& n_shards);

// --- packed challenge keys --------------------------------------------------
// A packed row is ceil(stages / 8) bytes, bit i of byte i/8 = challenge bit
// i. In memory the same bits live in sim::packed_words(stages) u64 words
// (bit i of word i/64), the screener's layout; a row is the first
// ceil(stages / 8) little-endian bytes of its words.

std::string pack_challenge(const Challenge& challenge);

/// Writes the challenge's sim::packed_words(challenge.size()) key words.
void pack_words(const Challenge& challenge, std::uint64_t* words);

/// Row <-> words for one key of `stages` stages. row_to_words overwrites
/// sim::packed_words(stages) words; words_to_row appends the row's bytes.
void row_to_words(const std::uint8_t* row, std::size_t stages, std::uint64_t* words);
void words_to_row(const std::uint64_t* words, std::size_t stages,
                  std::vector<std::uint8_t>& out);

}  // namespace xpuf::puf::store
