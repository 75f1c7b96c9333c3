// Read-only file mapping for zero-copy model serving.
//
// A MappedFile maps a fixed-length prefix of a shard log so the store's LRU
// cold path can hand out ModelViews whose weight spans point straight into
// the page cache — no pread, no record decode, no ServerModel allocation.
// The mapping is length-frozen at creation: records appended after the map
// was taken lie beyond size() and are served through the pread+decode
// fallback until the next remap (open and compaction map every shard, and
// a registration into a mapped shard remaps it).
//
// Lifetime: the store holds each shard's mapping as a shared_ptr and every
// handed-out view copies that shared_ptr as its owner, so compaction can
// replace-and-remap a shard while old views stay valid — the superseded
// mapping is unmapped when its last view dies. Failure to map (no file,
// empty prefix, exotic filesystem) is not an error; the store just keeps
// serving through the decode path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace xpuf::puf::store {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  /// Maps the first `length` bytes of `path` read-only (advised for random
  /// access). Returns null on any failure — absent file, zero length, or a
  /// refused mmap — so callers can fall back to pread serving without
  /// distinguishing why.
  static std::shared_ptr<const MappedFile> map_prefix(const std::string& path,
                                                      std::uint64_t length);

  const std::uint8_t* data() const { return data_; }
  std::uint64_t size() const { return size_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace xpuf::puf::store
