// Versioned binary serialization framework for on-disk artifacts.
//
// Every persistent artifact in the library (graph snapshots, engine indexes,
// shard manifests, bench caches) shares one magic + kind discipline so
// corruption, format drift, and stale files all fail with a clean Status
// instead of crashing or silently loading garbage. The container holds
// named, 64-byte-aligned sections behind a table in the header, built for
// mmap'd serving (cold start is a map, not a parse):
//
//   [8-byte magic "PRSIMART"] [u32 version = 2] [kind string] [u32 section count]
//   [per section: name string, u64 offset, u64 length, u64 checksum]
//   [u64 header checksum] [padding] [section 0] [padding] [section 1] ...
//
// Offsets are absolute and 64-byte aligned (a cache line / common SIMD
// width), so a section whose body is a u64 element count followed by raw
// elements keeps those elements 8-byte aligned and a reader can hand out
// zero-copy PodArray views straight into the mapping. Each section carries
// its own FNV-1a checksum, and the header carries one over the table, so a
// flipped byte anywhere is still caught. ArtifactWriter fills sections
// through ByteSinks; ArtifactReader validates the envelope and table up
// front and hands out SectionReaders that bound every read against the
// section (a hostile length prefix cannot trigger a multi-gigabyte
// allocation). A file of any other container version fails to open.
//
// Values are written in host byte order (the library targets little-endian
// x86-64/aarch64); vectors are length-prefixed with a u64 element count.

#ifndef PRSIM_UTIL_SERDE_H_
#define PRSIM_UTIL_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mmap_file.h"
#include "util/pod_array.h"
#include "util/status.h"

namespace prsim {

/// Incremental FNV-1a 64-bit hash; also the running artifact checksum.
class Fnv64 {
 public:
  void Update(const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x00000100000001b3ULL;
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One-shot FNV-1a over a byte range / string.
inline uint64_t HashBytes(const void* data, size_t len) {
  Fnv64 h;
  h.Update(data, len);
  return h.digest();
}
inline uint64_t HashString(const std::string& s) {
  return HashBytes(s.data(), s.size());
}

namespace serde_internal {

/// Types we byte-copy: trivially copyable types, plus std::pair of them
/// (std::pair's non-trivial assignment operator disqualifies it from
/// std::is_trivially_copyable even when a byte copy is exact).
template <typename T>
struct IsSerdePod : std::is_trivially_copyable<T> {};
template <typename A, typename B>
struct IsSerdePod<std::pair<A, B>>
    : std::bool_constant<std::is_trivially_copyable_v<A> &&
                         std::is_trivially_copyable_v<B>> {};

}  // namespace serde_internal

/// The container format version ArtifactWriter writes and ArtifactReader
/// opens.
inline constexpr uint32_t kSerdeFormatV2 = 2;

/// One entry of a format-v2 section table.
struct SectionInfo {
  std::string name;
  uint64_t offset = 0;    ///< absolute file offset, 64-byte aligned
  uint64_t length = 0;    ///< section bytes (padding excluded)
  uint64_t checksum = 0;  ///< FNV-1a over the section bytes
};

/// \brief In-memory section buffer. Errors are sticky and surface through
/// the owning ArtifactWriter's Finish().
class ByteSink {
 public:
  template <typename T>
  void WritePod(const T& value) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "WritePod requires a byte-copyable type");
    Append(&value, sizeof(T));
  }

  /// Length-prefixed (u32) byte string; strings over 256 bytes are a
  /// sticky error (the reader enforces the same cap).
  void WriteString(const std::string& s);

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "WriteVector requires byte-copyable elements");
    WritePod<uint64_t>(v.size());
    Append(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void WriteVector(std::span<const T> v) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "WriteVector requires byte-copyable elements");
    WritePod<uint64_t>(v.size());
    Append(v.data(), v.size() * sizeof(T));
  }

  /// Raw elements with no length prefix. Pair with an explicit
  /// WritePod<uint64_t> total so a table scattered across many buckets can
  /// stream out piecewise — producing bytes identical to one WriteVector of
  /// the concatenation — without materializing that concatenation.
  template <typename T>
  void WriteElements(const T* data, size_t count) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "WriteElements requires byte-copyable elements");
    Append(data, count * sizeof(T));
  }

  const std::string& bytes() const { return buffer_; }
  const Status& status() const { return status_; }

 private:
  void Append(const void* data, size_t len);

  std::string buffer_;
  Status status_;
};

/// \brief Streams one format-v2 artifact: named sections are filled through
/// ByteSinks, then Finish() lays them out 64-byte aligned behind the section
/// table. Finish() writes a process-unique temporary next to the target and
/// renames it into place, so a failed, abandoned or interrupted save never
/// destroys a previously valid artifact, and concurrent writers of the same
/// path leave one winner instead of a torn file. Section order is the
/// AddSection order, so identical content always produces a byte-identical
/// file.
class ArtifactWriter {
 public:
  ArtifactWriter(const std::string& path, const std::string& kind);

  /// Returns the sink for a new section. Duplicate or oversized names are a
  /// sticky error reported by Finish(); the returned sink is still safe to
  /// write to.
  ByteSink& AddSection(const std::string& name);

  /// Computes the table, writes header + aligned sections to a temporary,
  /// and renames it onto the target path.
  Status Finish();

  const Status& status() const { return status_; }

 private:
  std::string path_;
  std::string kind_;
  std::vector<std::pair<std::string, std::unique_ptr<ByteSink>>> sections_;
  Status status_;
  bool finished_ = false;
};

/// \brief Sequential reader over one section of an opened artifact. Bounds
/// every read against the section length; Finish() requires the section to
/// be fully consumed. Checksums are validated by ArtifactReader before a
/// SectionReader exists, so reads are pure cursor movement.
class SectionReader {
 public:
  template <typename T>
  Status ReadPod(T* out) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "ReadPod requires a byte-copyable type");
    return Consume(out, sizeof(T));
  }

  Status ReadString(std::string* out);

  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "ReadVector requires byte-copyable elements");
    uint64_t count = 0;
    PRSIM_RETURN_NOT_OK(ReadPod(&count));
    if (count > remaining() / sizeof(T)) {
      return Corrupt("vector of " + std::to_string(count) +
                     " elements exceeds the bytes left in the section");
    }
    out->resize(static_cast<size_t>(count));
    return Consume(out->data(), static_cast<size_t>(count) * sizeof(T));
  }

  /// Mirror of WriteElements: reads `count` raw elements into `dst`.
  template <typename T>
  Status ReadElements(T* dst, size_t count) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "ReadElements requires byte-copyable elements");
    if (count > remaining() / sizeof(T)) {
      return Corrupt(std::to_string(count) +
                     " elements exceed the bytes left in the section");
    }
    return Consume(dst, count * sizeof(T));
  }

  /// Length-prefixed array, zero-copy when possible: when the element bytes
  /// sit suitably aligned inside the backing mapping, `out` becomes a view
  /// that keeps the mapping alive; otherwise the elements are copied onto
  /// the heap. Both paths leave the cursor past the array.
  template <typename T>
  Status ReadPodArray(PodArray<T>* out) {
    static_assert(serde_internal::IsSerdePod<T>::value,
                  "ReadPodArray requires byte-copyable elements");
    uint64_t count = 0;
    PRSIM_RETURN_NOT_OK(ReadPod(&count));
    if (count > remaining() / sizeof(T)) {
      return Corrupt("array of " + std::to_string(count) +
                     " elements exceeds the bytes left in the section");
    }
    const std::byte* at = data_.data() + pos_;
    if (backing_ != nullptr &&
        reinterpret_cast<uintptr_t>(at) % alignof(T) == 0) {
      *out = PodArray<T>::View(
          {reinterpret_cast<const T*>(at), static_cast<size_t>(count)},
          backing_);
      pos_ += static_cast<size_t>(count) * sizeof(T);
      return Status::OK();
    }
    std::vector<T> owned(static_cast<size_t>(count));
    PRSIM_RETURN_NOT_OK(Consume(owned.data(), owned.size() * sizeof(T)));
    *out = PodArray<T>(std::move(owned));
    return Status::OK();
  }

  /// Section bytes left to read.
  uint64_t remaining() const { return data_.size() - pos_; }

  /// Requires the section to be fully consumed.
  Status Finish();

 private:
  friend class ArtifactReader;
  SectionReader(std::string path, std::span<const std::byte> data,
                std::shared_ptr<const MmapFile> backing)
      : path_(std::move(path)), data_(data), backing_(std::move(backing)) {}

  Status Consume(void* dst, size_t len);
  Status Corrupt(const std::string& what) const;

  std::string path_;
  std::span<const std::byte> data_;
  size_t pos_ = 0;
  std::shared_ptr<const MmapFile> backing_;  ///< null disables zero-copy
};

/// \brief Opens an artifact over an MmapFile and hands out SectionReaders.
/// Structural problems specific to the container (bad table, out-of-bounds
/// or truncated section, checksum mismatch) fail with kInvalidArgument;
/// not-an-artifact problems (missing file, wrong magic, unknown version,
/// wrong kind) fail with kIOError.
struct ArtifactReadOptions {
  bool allow_mmap = true;
  /// Verification can be disabled for trusted local caches; the default
  /// checks the header checksum and every section's checksum.
  bool verify_checksums = true;
};

class ArtifactReader {
 public:
  using Options = ArtifactReadOptions;

  static Result<ArtifactReader> Open(const std::string& path,
                                     const std::string& kind,
                                     const Options& options = {});

  /// The section table, in file order.
  const std::vector<SectionInfo>& sections() const { return sections_; }

  /// Whether the artifact bytes are mmap'd (false on the heap fallback).
  bool is_mapped() const { return file_ != nullptr && file_->is_mapped(); }

  /// Returns a reader over the named section, after validating its checksum
  /// (unless verification is disabled).
  Result<SectionReader> Section(const std::string& name) const;

 private:
  ArtifactReader() = default;

  std::shared_ptr<const MmapFile> file_;
  std::string path_;
  std::vector<SectionInfo> sections_;
  bool verify_checksums_ = true;
};

}  // namespace prsim

#endif  // PRSIM_UTIL_SERDE_H_
