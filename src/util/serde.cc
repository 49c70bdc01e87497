#include "util/serde.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/fault_injection.h"

namespace prsim {

namespace {

constexpr char kMagic[8] = {'P', 'R', 'S', 'I', 'M', 'A', 'R', 'T'};
/// Smallest well-formed artifact: magic, version, empty kind, section
/// count, header checksum.
constexpr uint64_t kMinArtifactBytes =
    sizeof(kMagic) + 3 * sizeof(uint32_t) + sizeof(uint64_t);
/// Cap enforced symmetrically by WriteString and ReadString.
constexpr uint32_t kMaxStringLength = 256;

/// Temp-file names must be unique per writer, not just per process: two
/// threads saving the same path must not truncate each other's temp.
std::string UniqueTmpPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Sections start on cache-line boundaries so element data after a u64
/// count prefix stays 8-byte aligned for zero-copy views.
constexpr uint64_t kSectionAlignment = 64;
constexpr uint32_t kMaxSections = 1024;

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

}  // namespace

void ByteSink::Append(const void* data, size_t len) {
  if (!status_.ok() || len == 0) return;
  buffer_.append(static_cast<const char*>(data), len);
}

void ByteSink::WriteString(const std::string& s) {
  if (status_.ok() && s.size() > kMaxStringLength) {
    status_ = Status::InvalidArgument(
        "string of " + std::to_string(s.size()) +
        " bytes exceeds the artifact string cap of " +
        std::to_string(kMaxStringLength));
    return;
  }
  WritePod<uint32_t>(static_cast<uint32_t>(s.size()));
  Append(s.data(), s.size());
}

ArtifactWriter::ArtifactWriter(const std::string& path,
                               const std::string& kind)
    : path_(path), kind_(kind) {}

ByteSink& ArtifactWriter::AddSection(const std::string& name) {
  if (status_.ok()) {
    if (name.empty() || name.size() > kMaxStringLength) {
      status_ = Status::InvalidArgument("bad section name '" + name + "'");
    } else if (sections_.size() >= kMaxSections) {
      status_ = Status::InvalidArgument("too many artifact sections");
    } else {
      for (const auto& [existing, sink] : sections_) {
        if (existing == name) {
          status_ = Status::InvalidArgument("duplicate artifact section '" +
                                            name + "'");
          break;
        }
      }
    }
  }
  sections_.emplace_back(name, std::make_unique<ByteSink>());
  return *sections_.back().second;
}

Status ArtifactWriter::Finish() {
  if (finished_) return status_;
  if (status_.ok()) {
    for (const auto& [name, sink] : sections_) {
      if (!sink->status().ok()) {
        status_ = sink->status();
        break;
      }
    }
  }
  if (!status_.ok()) return status_;
  finished_ = true;

  // Header: envelope, then the table, then a checksum over both.
  ByteSink header;
  header.WriteElements(kMagic, sizeof(kMagic));
  header.WritePod<uint32_t>(kSerdeFormatV2);
  header.WriteString(kind_);
  header.WritePod<uint32_t>(static_cast<uint32_t>(sections_.size()));
  // Table entry sizes are known up front, so section offsets can be
  // computed before the table is serialized.
  uint64_t header_size =
      header.bytes().size() + sizeof(uint64_t);  // + header checksum
  for (const auto& [name, sink] : sections_) {
    header_size += sizeof(uint32_t) + name.size() + 3 * sizeof(uint64_t);
  }
  std::vector<SectionInfo> table;
  table.reserve(sections_.size());
  uint64_t cursor = AlignUp(header_size);
  for (const auto& [name, sink] : sections_) {
    SectionInfo info;
    info.name = name;
    info.offset = cursor;
    info.length = sink->bytes().size();
    info.checksum = HashBytes(sink->bytes().data(), sink->bytes().size());
    cursor = AlignUp(cursor + info.length);
    table.push_back(std::move(info));
  }
  for (const SectionInfo& info : table) {
    header.WriteString(info.name);
    header.WritePod(info.offset);
    header.WritePod(info.length);
    header.WritePod(info.checksum);
  }
  if (!header.status().ok()) return status_ = header.status();
  const uint64_t header_checksum =
      HashBytes(header.bytes().data(), header.bytes().size());
  header.WritePod(header_checksum);
  PRSIM_CHECK(header.bytes().size() == header_size);

  const std::string tmp_path = UniqueTmpPath(path_);
  std::ofstream out(tmp_path, std::ios::binary);
  if (!out) {
    return status_ =
               Status::IOError("cannot open '" + path_ + "' for writing");
  }
  out.write(header.bytes().data(),
            static_cast<std::streamsize>(header.bytes().size()));
  uint64_t written = header.bytes().size();
  static constexpr char kZeros[kSectionAlignment] = {};
  for (size_t i = 0; i < table.size(); ++i) {
    out.write(kZeros, static_cast<std::streamsize>(table[i].offset - written));
    const std::string& bytes = sections_[i].second->bytes();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    written = table[i].offset + table[i].length;
  }
  out.close();
  if (!out) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    return status_ = Status::IOError("write failure on '" + path_ + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path_, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return status_ = Status::IOError("cannot move temporary into '" + path_ +
                                     "': " + ec.message());
  }
  return status_;
}

Status SectionReader::Consume(void* dst, size_t len) {
  if (len == 0) return Status::OK();
  if (len > remaining()) {
    return Corrupt("truncated (wanted " + std::to_string(len) +
                   " bytes, have " + std::to_string(remaining()) + ")");
  }
  std::memcpy(dst, data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status SectionReader::ReadString(std::string* out) {
  uint32_t len = 0;
  PRSIM_RETURN_NOT_OK(ReadPod(&len));
  if (len > kMaxStringLength || len > remaining()) {
    return Corrupt("string length " + std::to_string(len) + " out of range");
  }
  out->resize(len);
  return Consume(out->data(), len);
}

Status SectionReader::Finish() {
  if (pos_ != data_.size()) {
    return Corrupt(std::to_string(data_.size() - pos_) +
                   " unread bytes at the end of the section");
  }
  return Status::OK();
}

Status SectionReader::Corrupt(const std::string& what) const {
  return Status::InvalidArgument("corrupt artifact '" + path_ + "': " + what);
}

Result<ArtifactReader> ArtifactReader::Open(const std::string& path,
                                            const std::string& kind,
                                            const Options& options) {
  PRSIM_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> file,
                         MmapFile::Open(path, options.allow_mmap));
  const std::byte* base = file->data();
  const uint64_t size = file->size();
  const auto corrupt = [&path](const std::string& what) {
    return Status::InvalidArgument("corrupt artifact '" + path + "': " +
                                   what);
  };

  // A reader over the whole file bounds the header reads.
  SectionReader header(path, {base, static_cast<size_t>(size)}, nullptr);
  if (size < kMinArtifactBytes) {
    return Status::IOError("'" + path + "' is too short to be an artifact");
  }
  char magic[sizeof(kMagic)];
  PRSIM_RETURN_NOT_OK(header.ReadElements(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("'" + path + "' is not a prsim artifact");
  }
  uint32_t stored_version = 0;
  PRSIM_RETURN_NOT_OK(header.ReadPod(&stored_version));
  if (stored_version != kSerdeFormatV2) {
    return Status::IOError(
        "'" + path + "' has artifact version " +
        std::to_string(stored_version) + "; this build reads version " +
        std::to_string(kSerdeFormatV2));
  }
  std::string stored_kind;
  if (!header.ReadString(&stored_kind).ok()) {
    return corrupt("unreadable kind string");
  }
  if (stored_kind != kind) {
    return Status::IOError("'" + path + "' holds a '" + stored_kind +
                           "' artifact, expected '" + kind + "'");
  }

  ArtifactReader reader;
  reader.file_ = std::move(file);
  reader.path_ = path;
  reader.verify_checksums_ = options.verify_checksums;

  uint32_t section_count = 0;
  if (!header.ReadPod(&section_count).ok() || section_count > kMaxSections) {
    return corrupt("bad section count");
  }
  reader.sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionInfo info;
    if (!header.ReadString(&info.name).ok() ||
        !header.ReadPod(&info.offset).ok() ||
        !header.ReadPod(&info.length).ok() ||
        !header.ReadPod(&info.checksum).ok()) {
      return corrupt("truncated section table");
    }
    if (info.offset % kSectionAlignment != 0 || info.offset > size ||
        info.length > size - info.offset) {
      return corrupt("section '" + info.name + "' is out of bounds");
    }
    for (const SectionInfo& prior : reader.sections_) {
      if (prior.name == info.name) {
        return corrupt("duplicate section '" + info.name + "'");
      }
    }
    reader.sections_.push_back(std::move(info));
  }
  const uint64_t table_end = size - header.remaining();
  uint64_t stored_header_checksum = 0;
  PRSIM_RETURN_NOT_OK(header.ReadPod(&stored_header_checksum));
  if (options.verify_checksums &&
      HashBytes(base, table_end) != stored_header_checksum) {
    return corrupt("header checksum mismatch");
  }
  return reader;
}

Result<SectionReader> ArtifactReader::Section(const std::string& name) const {
  uint64_t stall_ms = 0;
  if (PRSIM_FAULT_POINT("artifact.section.err", &stall_ms)) {
    // Injected storage failure: looks exactly like an unreadable section,
    // exercising every loader's corrupt-artifact error path.
    return InjectedFault("artifact.section.err");
  }
  const std::byte* base = file_->data();
  for (const SectionInfo& info : sections_) {
    if (info.name != name) continue;
    if (verify_checksums_ &&
        HashBytes(base + info.offset, info.length) != info.checksum) {
      return Status::InvalidArgument("corrupt artifact '" + path_ +
                                     "': section '" + name +
                                     "' checksum mismatch");
    }
    return SectionReader(
        path_, {base + info.offset, static_cast<size_t>(info.length)}, file_);
  }
  return Status::InvalidArgument("corrupt artifact '" + path_ +
                                 "': missing section '" + name + "'");
}

}  // namespace prsim
