// Tests for the serialization primitives under the artifact container:
// ByteSink element writes, SectionReader length checks, writer failure and
// cleanup paths, and the stable string hash. The container layout itself
// (sections, checksums, mmap) is covered by serde_v2_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/serde.h"

namespace prsim {
namespace {

class SerdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_serde_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string FileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  /// No file in the test directory may be a writer's leftover temporary.
  void ExpectNoTempFiles() {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
          << entry.path();
    }
  }

  std::filesystem::path dir_;
};

// A hostile length prefix must fail cleanly instead of attempting a
// multi-gigabyte allocation.
TEST_F(SerdeTest, OversizedVectorLengthFails) {
  const std::string path = Path("huge.bin");
  {
    ArtifactWriter writer(path, "serde-test");
    // Fake element count with no elements behind it.
    writer.AddSection("numbers").WritePod<uint64_t>(0x7fffffffffffffffULL);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = ArtifactReader::Open(path, "serde-test");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto section = reader.ValueOrDie().Section("numbers");
  ASSERT_TRUE(section.ok());
  std::vector<double> v;
  const Status st = section.ValueOrDie().ReadVector(&v);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(v.empty());
}

TEST_F(SerdeTest, AbandonedWriterLeavesNoFile) {
  {
    ArtifactWriter writer(Path("abandoned.bin"), "serde-test");
    writer.AddSection("meta").WritePod<uint32_t>(1);
    // No Finish(): simulates a failed save path bailing out early.
  }
  EXPECT_FALSE(std::filesystem::exists(Path("abandoned.bin")));
  ExpectNoTempFiles();
}

TEST_F(SerdeTest, WriterToUnwritablePathFails) {
  ArtifactWriter writer(Path("no/such/dir/x.bin"), "serde-test");
  writer.AddSection("meta").WritePod<uint32_t>(1);
  const Status st = writer.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// WriteElements streamed piecewise must be byte-identical to one
// WriteVector of the concatenation.
TEST_F(SerdeTest, WriteElementsMatchesWriteVector) {
  const std::vector<uint32_t> a = {1, 2, 3}, b = {4, 5};
  {
    ArtifactWriter writer(Path("vec.bin"), "serde-test");
    writer.AddSection("numbers").WriteVector(
        std::vector<uint32_t>{1, 2, 3, 4, 5});
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    ArtifactWriter writer(Path("elems.bin"), "serde-test");
    ByteSink& numbers = writer.AddSection("numbers");
    numbers.WritePod<uint64_t>(a.size() + b.size());
    numbers.WriteElements(a.data(), a.size());
    numbers.WriteElements(b.data(), b.size());
    ASSERT_TRUE(writer.Finish().ok());
  }
  EXPECT_EQ(FileBytes(Path("vec.bin")), FileBytes(Path("elems.bin")));

  auto reader = ArtifactReader::Open(Path("elems.bin"), "serde-test");
  ASSERT_TRUE(reader.ok());
  auto section = reader.ValueOrDie().Section("numbers");
  ASSERT_TRUE(section.ok());
  std::vector<uint32_t> round;
  ASSERT_TRUE(section.ValueOrDie().ReadVector(&round).ok());
  EXPECT_EQ(round, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(section.ValueOrDie().Finish().ok());
}

TEST_F(SerdeTest, HashStringIsStable) {
  // FNV-1a offset basis: hashing zero bytes must return it unchanged.
  EXPECT_EQ(HashString(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(HashString("a"), HashString("b"));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
}

}  // namespace
}  // namespace prsim
