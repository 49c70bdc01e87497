// Tests for the artifact container: sectioned layout, deterministic
// byte-identical output, mmap-backed zero-copy reads with a behaviorally
// identical read() fallback, crash-safe writes, clean kIOError rejection of
// files that are not readable artifacts (including unsupported container
// versions), and clean kInvalidArgument rejection of corrupt or truncated
// files.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/mmap_file.h"
#include "util/pod_array.h"
#include "util/serde.h"

namespace prsim {
namespace {

/// v2 section offsets are 64-byte aligned (kSectionAlignment in serde.cc).
constexpr uint64_t kAlignment = 64;

class SerdeV2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_serde_v2_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// Writes a three-section reference artifact and returns its path.
  std::string WriteSample(const std::string& name) {
    const std::string path = Path(name);
    ArtifactWriter writer(path, "v2-test");
    ByteSink& meta = writer.AddSection("meta");
    meta.WritePod<uint32_t>(42);
    meta.WriteString("hello sections");
    ByteSink& numbers = writer.AddSection("numbers");
    numbers.WriteVector(std::vector<uint64_t>{5, 6, 7, 8});
    ByteSink& empty = writer.AddSection("empty");
    (void)empty;  // zero-length sections are legal
    EXPECT_TRUE(writer.Finish().ok());
    return path;
  }

  /// Reads the reference artifact back through `options`, checking every
  /// field; returns the first failure.
  Status ReadSample(const std::string& path,
                    const ArtifactReadOptions& options = {}) {
    PRSIM_ASSIGN_OR_RETURN(ArtifactReader reader,
                           ArtifactReader::Open(path, "v2-test", options));
    PRSIM_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
    uint32_t a = 0;
    std::string s;
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&a));
    PRSIM_RETURN_NOT_OK(meta.ReadString(&s));
    PRSIM_RETURN_NOT_OK(meta.Finish());
    EXPECT_EQ(a, 42u);
    EXPECT_EQ(s, "hello sections");
    PRSIM_ASSIGN_OR_RETURN(SectionReader numbers, reader.Section("numbers"));
    std::vector<uint64_t> v;
    PRSIM_RETURN_NOT_OK(numbers.ReadVector(&v));
    PRSIM_RETURN_NOT_OK(numbers.Finish());
    EXPECT_EQ(v, (std::vector<uint64_t>{5, 6, 7, 8}));
    PRSIM_ASSIGN_OR_RETURN(SectionReader empty, reader.Section("empty"));
    EXPECT_EQ(empty.remaining(), 0u);
    PRSIM_RETURN_NOT_OK(empty.Finish());
    return Status::OK();
  }

  static std::string FileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  /// Flips one byte at `offset` (negative = from the end).
  void CorruptByte(const std::string& path, int64_t offset) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(offset, offset < 0 ? std::ios::end : std::ios::beg);
    const auto pos = file.tellg();
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(pos);
    file.write(&byte, 1);
  }

  /// Overwrites the u32 container version that follows the 8-byte magic.
  void PatchVersion(const std::string& path, uint32_t version) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }

  /// No file in the test directory may be a writer's leftover temporary.
  void ExpectNoTempFiles() {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
          << entry.path();
    }
  }

  /// File offset of the last byte of the "numbers" section body. The bytes
  /// after it are alignment padding, which no checksum covers — corruption
  /// tests must land inside a section.
  int64_t NumbersLastByte(const std::string& path) {
    auto reader = ArtifactReader::Open(path, "v2-test");
    EXPECT_TRUE(reader.ok());
    const SectionInfo& numbers = reader.ValueOrDie().sections()[1];
    EXPECT_EQ(numbers.name, "numbers");
    return static_cast<int64_t>(numbers.offset + numbers.length - 1);
  }

  std::filesystem::path dir_;
};

TEST_F(SerdeV2Test, RoundTrip) {
  EXPECT_TRUE(ReadSample(WriteSample("ok.bin")).ok());
}

TEST_F(SerdeV2Test, RoundTripWithoutMmap) {
  const std::string path = WriteSample("fallback.bin");
  ArtifactReadOptions options;
  options.allow_mmap = false;
  EXPECT_TRUE(ReadSample(path, options).ok());
}

// Identical content must produce a byte-identical file: the bench cache and
// the CI round-trip smoke both diff artifacts bit for bit.
TEST_F(SerdeV2Test, OutputIsDeterministic) {
  const std::string a = WriteSample("det_a.bin");
  const std::string b = WriteSample("det_b.bin");
  const std::string bytes = FileBytes(a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, FileBytes(b));
}

TEST_F(SerdeV2Test, SectionTableIsAlignedAndOrdered) {
  auto reader = ArtifactReader::Open(WriteSample("table.bin"), "v2-test");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto& sections = reader.ValueOrDie().sections();
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].name, "meta");
  EXPECT_EQ(sections[1].name, "numbers");
  EXPECT_EQ(sections[2].name, "empty");
  // 4 (count) + 4+14 (string) bytes of meta payload.
  EXPECT_EQ(sections[0].length, 22u);
  // 8 (count) + 4 * 8 elements.
  EXPECT_EQ(sections[1].length, 40u);
  EXPECT_EQ(sections[2].length, 0u);
  uint64_t prior_end = 0;
  for (const SectionInfo& info : sections) {
    EXPECT_EQ(info.offset % kAlignment, 0u) << info.name;
    EXPECT_GE(info.offset, prior_end) << info.name;
    prior_end = info.offset + info.length;
  }
}

TEST_F(SerdeV2Test, MmapAndFallbackAgree) {
  const std::string path = WriteSample("agree.bin");
  auto mapped = ArtifactReader::Open(path, "v2-test");
  ArtifactReadOptions no_mmap;
  no_mmap.allow_mmap = false;
  auto heap = ArtifactReader::Open(path, "v2-test", no_mmap);
  ASSERT_TRUE(mapped.ok() && heap.ok());
  EXPECT_TRUE(mapped.ValueOrDie().is_mapped());
  EXPECT_FALSE(heap.ValueOrDie().is_mapped());

  // The same section yields the same bytes through either backing.
  for (const auto* reader : {&mapped.ValueOrDie(), &heap.ValueOrDie()}) {
    auto section = reader->Section("numbers");
    ASSERT_TRUE(section.ok());
    std::vector<uint64_t> v;
    ASSERT_TRUE(section.ValueOrDie().ReadVector(&v).ok());
    EXPECT_EQ(v, (std::vector<uint64_t>{5, 6, 7, 8}));
  }
}

// ReadPodArray over a mapped artifact must hand out a view into the
// mapping, and that view must keep the mapping alive after the reader dies.
TEST_F(SerdeV2Test, PodArrayIsZeroCopyWhenMapped) {
  const std::string path = WriteSample("zero_copy.bin");
  PodArray<uint64_t> array;
  {
    auto reader = ArtifactReader::Open(path, "v2-test");
    ASSERT_TRUE(reader.ok());
    auto section = reader.ValueOrDie().Section("numbers");
    ASSERT_TRUE(section.ok());
    ASSERT_TRUE(section.ValueOrDie().ReadPodArray(&array).ok());
  }  // reader destroyed; the keepalive must hold the mapping
  EXPECT_TRUE(array.zero_copy());
  ASSERT_EQ(array.size(), 4u);
  EXPECT_EQ(array[0], 5u);
  EXPECT_EQ(array[3], 8u);
  // Copies materialize onto the heap (a copy has no keepalive).
  PodArray<uint64_t> copy = array;
  EXPECT_FALSE(copy.zero_copy());
  EXPECT_EQ(copy[2], 7u);
}

TEST_F(SerdeV2Test, PodArrayCopiesOnHeapFallback) {
  const std::string path = WriteSample("heap_array.bin");
  ArtifactReadOptions options;
  options.allow_mmap = false;
  auto reader = ArtifactReader::Open(path, "v2-test", options);
  ASSERT_TRUE(reader.ok());
  auto section = reader.ValueOrDie().Section("numbers");
  ASSERT_TRUE(section.ok());
  PodArray<uint64_t> array;
  ASSERT_TRUE(section.ValueOrDie().ReadPodArray(&array).ok());
  ASSERT_EQ(array.size(), 4u);
  EXPECT_EQ(array[1], 6u);
}

// ---------------------------------------------------------------------------
// Rejection: not-an-artifact problems are kIOError, structural corruption
// inside a valid envelope is kInvalidArgument.
// ---------------------------------------------------------------------------

TEST_F(SerdeV2Test, MissingFileFailsWithIOError) {
  auto reader = ArtifactReader::Open(Path("missing.bin"), "v2-test");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST_F(SerdeV2Test, WrongKindFailsWithIOError) {
  auto reader = ArtifactReader::Open(WriteSample("kind.bin"), "other-kind");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_NE(reader.status().message().find("v2-test"), std::string::npos);
}

TEST_F(SerdeV2Test, FlippedMagicFailsWithIOError) {
  const std::string path = WriteSample("magic.bin");
  CorruptByte(path, 0);
  auto reader = ArtifactReader::Open(path, "v2-test");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

// Only the current container version opens; an older (or newer) one is a
// not-readable-here artifact, and the message names the version found.
TEST_F(SerdeV2Test, UnsupportedVersionFailsWithIOError) {
  for (const uint32_t version : {1u, 3u}) {
    SCOPED_TRACE(version);
    const std::string path =
        WriteSample("version" + std::to_string(version) + ".bin");
    PatchVersion(path, version);
    auto reader = ArtifactReader::Open(path, "v2-test");
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
    EXPECT_NE(reader.status().message().find("version " +
                                             std::to_string(version)),
              std::string::npos)
        << reader.status().ToString();
  }
}

TEST_F(SerdeV2Test, MissingSectionFailsWithInvalidArgument) {
  auto reader = ArtifactReader::Open(WriteSample("missing_sec.bin"),
                                     "v2-test");
  ASSERT_TRUE(reader.ok());
  auto section = reader.ValueOrDie().Section("no-such-section");
  ASSERT_FALSE(section.ok());
  EXPECT_EQ(section.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(section.status().message().find("missing section"),
            std::string::npos);
}

TEST_F(SerdeV2Test, CorruptSectionBodyFailsWithInvalidArgument) {
  const std::string path = WriteSample("flip_body.bin");
  CorruptByte(path, NumbersLastByte(path));
  auto reader = ArtifactReader::Open(path, "v2-test");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // The header (and the untouched section) still read fine...
  EXPECT_TRUE(reader.ValueOrDie().Section("meta").ok());
  // ...but the damaged section fails its checksum.
  auto numbers = reader.ValueOrDie().Section("numbers");
  ASSERT_FALSE(numbers.ok());
  EXPECT_EQ(numbers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(numbers.status().message().find("checksum"), std::string::npos)
      << numbers.status().ToString();
}

TEST_F(SerdeV2Test, CorruptSectionTableFailsWithInvalidArgument) {
  const std::string path = WriteSample("flip_table.bin");
  // Envelope is 8 magic + 4 version + (4+7) kind + 4 count = 27 bytes; the
  // table starts right after, so offset 30 lands inside the first entry.
  CorruptByte(path, 30);
  auto reader = ArtifactReader::Open(path, "v2-test");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerdeV2Test, TruncatedSectionFailsWithInvalidArgument) {
  const std::string path = WriteSample("trunc.bin");
  // Cut into the "numbers" section's bytes: its table entry (and the
  // zero-length section behind it) now point past EOF.
  std::filesystem::resize_file(
      path, static_cast<uint64_t>(NumbersLastByte(path)) - 8);
  auto reader = ArtifactReader::Open(path, "v2-test");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("out of bounds"),
            std::string::npos)
      << reader.status().ToString();
}

TEST_F(SerdeV2Test, VerificationCanBeDisabledForTrustedCaches) {
  const std::string path = WriteSample("trusted.bin");
  CorruptByte(path, NumbersLastByte(path));
  ArtifactReadOptions options;
  options.verify_checksums = false;
  auto reader = ArtifactReader::Open(path, "v2-test", options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // With verification off the damaged section opens (garbage in, garbage
  // out — the option exists for trusted local caches only).
  EXPECT_TRUE(reader.ValueOrDie().Section("numbers").ok());
}

// ---------------------------------------------------------------------------
// Writer-side rejection.
// ---------------------------------------------------------------------------

TEST_F(SerdeV2Test, DuplicateSectionNameFailsAtFinish) {
  ArtifactWriter writer(Path("dup.bin"), "v2-test");
  writer.AddSection("twice").WritePod<uint32_t>(1);
  writer.AddSection("twice").WritePod<uint32_t>(2);
  const Status st = writer.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(Path("dup.bin")));
}

// The reader caps strings at 256 bytes, so the writer must reject longer
// ones instead of producing an artifact that can never be read — and the
// failed save must leave neither the file nor a temporary behind.
TEST_F(SerdeV2Test, OverlongSectionStringFailsAtFinish) {
  ArtifactWriter writer(Path("long.bin"), "v2-test");
  writer.AddSection("meta").WriteString(std::string(300, 'x'));
  const Status st = writer.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(Path("long.bin")));
  ExpectNoTempFiles();
}

// ---------------------------------------------------------------------------
// MmapFile itself.
// ---------------------------------------------------------------------------

TEST_F(SerdeV2Test, MmapFileMapsAndFallsBack) {
  const std::string path = Path("raw.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "twelve bytes";
  }
  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped.ValueOrDie()->is_mapped());
  ASSERT_EQ(mapped.ValueOrDie()->size(), 12u);

  auto heap = MmapFile::Open(path, /*allow_mmap=*/false);
  ASSERT_TRUE(heap.ok());
  EXPECT_FALSE(heap.ValueOrDie()->is_mapped());
  ASSERT_EQ(heap.ValueOrDie()->size(), 12u);
  EXPECT_EQ(std::memcmp(mapped.ValueOrDie()->data(),
                        heap.ValueOrDie()->data(), 12),
            0);
}

TEST_F(SerdeV2Test, MmapFileMissingFileFailsWithIOError) {
  auto file = MmapFile::Open(Path("nope.bin"));
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace prsim
