// Fault injection against the precompute artifact reader: every corruption
// mode must surface as a distinct, descriptive typed Status — never a crash,
// never a partially-initialised engine. The whole suite also runs under
// ASan/UBSan in CI, so an out-of-bounds read on a crafted file would fail
// loudly there.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/version.h"
#include "core/csrplus_engine.h"
#include "core/precompute_io.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

// Fixture graph dimensions, from which every byte offset below follows.
constexpr Index kNodes = 40;
constexpr Index kRank = 5;

// On-disk layout for (n=40, r=5), format v2: 88-byte header, then five
// sections each prefixed by a 24-byte descriptor plus zero padding up to
// the next 64-byte file offset, then the 32-byte version trailer.
// Payload sizes: U/V/Z = n*r*8 = 1600, Sigma = r*8 = 40, P = r*r*8 = 200.
constexpr int64_t kHeaderBytes = 88;
constexpr int64_t kDescriptorBytes = 24;
constexpr int64_t kTrailerBytes = 32;
constexpr int64_t kNr = kNodes * kRank * 8;
constexpr int64_t kR = kRank * 8;
constexpr int64_t kRr = kRank * kRank * 8;

struct SectionLayout {
  const char* name;
  int64_t descriptor_offset;
  int64_t payload_offset;  // after the descriptor and the v2 padding
  int64_t payload_bytes;
};

std::vector<SectionLayout> Layout() {
  std::vector<SectionLayout> sections;
  int64_t offset = kHeaderBytes;
  for (const auto& [name, bytes] :
       std::vector<std::pair<const char*, int64_t>>{
           {"U", kNr}, {"Sigma", kR}, {"V", kNr}, {"P", kRr}, {"Z", kNr}}) {
    const int64_t descriptor_end = offset + kDescriptorBytes;
    const int64_t payload = descriptor_end +
        precompute_io::SectionPadBytes(precompute_io::kFormatVersion,
                                       descriptor_end);
    sections.push_back({name, offset, payload, bytes});
    offset = payload + bytes;
  }
  return sections;
}

int64_t SectionsEnd() {
  const SectionLayout z = Layout().back();
  return z.payload_offset + z.payload_bytes;
}

int64_t FileBytes() { return SectionsEnd() + kTrailerBytes; }

LoadOptions MappedNoBackgroundVerify() {
  LoadOptions options;
  options.mode = LoadMode::kMapped;
  // Deterministic timing: checksums settle only on the explicit Verify
  // call, so each test controls exactly when detection happens.
  options.background_verify = false;
  return options;
}

// What a mapped load reports for `path`: the load's own error, or, when the
// load succeeds, the verdict of the lazy payload-checksum pass.
Status MappedStatus(const std::string& path) {
  auto mapped =
      CsrPlusEngine::LoadPrecompute(path, MappedNoBackgroundVerify());
  if (!mapped.ok()) return mapped.status();
  return mapped->VerifyMappedSections();
}

class PrecomputeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("csrplus_fault_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    const graph::Graph g = csrplus::testing::RandomGraph(kNodes, 220, 0xF00D);
    CsrPlusOptions options;
    options.rank = kRank;
    auto engine = CsrPlusEngine::Precompute(g, options);
    CSR_CHECK(engine.ok()) << engine.status().ToString();
    good_path_ = Path("good.cspc");
    CSR_CHECK(engine->SavePrecompute(good_path_).ok());
    good_fingerprint_ = engine->fingerprint();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::vector<char> ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  static void WriteBytes(const std::string& path,
                         const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Copies the good artifact, XOR-flipping one byte at `offset`.
  std::string CorruptAt(int64_t offset, const std::string& name) {
    std::vector<char> bytes = ReadBytes(good_path_);
    CSR_CHECK(offset >= 0 &&
              offset < static_cast<int64_t>(bytes.size()));
    bytes[static_cast<std::size_t>(offset)] ^= 0x5A;
    const std::string path = Path(name);
    WriteBytes(path, bytes);
    return path;
  }

  // Copies the good artifact truncated to `keep_bytes`.
  std::string TruncateTo(int64_t keep_bytes, const std::string& name) {
    std::vector<char> bytes = ReadBytes(good_path_);
    CSR_CHECK(keep_bytes <= static_cast<int64_t>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(keep_bytes));
    const std::string path = Path(name);
    WriteBytes(path, bytes);
    return path;
  }

  // Expects LoadPrecompute to fail with `code` and a message containing
  // `needle`. Both load modes share one parser, so a mapped load must report
  // the identical status: at load time for structural faults, from
  // VerifyMappedSections for the lazily checksummed U/V/P/Z payloads.
  void ExpectLoadFails(const std::string& path, StatusCode code,
                       const std::string& needle) {
    auto result = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.status().code(), code) << result.status().ToString();
    EXPECT_NE(result.status().message().find(needle), std::string::npos)
        << "status '" << result.status().ToString()
        << "' does not mention '" << needle << "'";
    const Status mapped = MappedStatus(path);
    EXPECT_EQ(mapped.code(), result.status().code()) << mapped.ToString();
    EXPECT_EQ(mapped.message(), result.status().message());
  }

  std::filesystem::path dir_;
  std::string good_path_;
  GraphFingerprint good_fingerprint_;
};

TEST_F(PrecomputeFaultTest, GoodArtifactHasTheExpectedSizeAndLoads) {
  ASSERT_EQ(static_cast<int64_t>(ReadBytes(good_path_).size()), FileBytes());
  EXPECT_TRUE(CsrPlusEngine::LoadPrecompute(good_path_, LoadOptions{}).ok());
}

TEST_F(PrecomputeFaultTest, EveryV2PayloadIsSixtyFourByteAligned) {
  for (const SectionLayout& s : Layout()) {
    EXPECT_EQ(s.payload_offset % precompute_io::kSectionAlignment, 0)
        << "section " << s.name;
  }
}

TEST_F(PrecomputeFaultTest, MissingFileIsIOError) {
  auto result =
      CsrPlusEngine::LoadPrecompute(Path("does_not_exist.cspc"),
                                    LoadOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  const Status mapped = MappedStatus(Path("does_not_exist.cspc"));
  EXPECT_TRUE(mapped.IsIOError());
  EXPECT_EQ(mapped.message(), result.status().message());
}

TEST_F(PrecomputeFaultTest, ZeroLengthFileIsDataLoss) {
  const std::string path = Path("empty.cspc");
  WriteBytes(path, {});
  ExpectLoadFails(path, StatusCode::kDataLoss, "empty");
}

TEST_F(PrecomputeFaultTest, TruncatedHeaderIsDataLoss) {
  ExpectLoadFails(TruncateTo(40, "header_cut.cspc"), StatusCode::kDataLoss,
                  "truncated in header");
}

TEST_F(PrecomputeFaultTest, WrongMagicIsInvalidArgument) {
  ExpectLoadFails(CorruptAt(0, "magic.cspc"), StatusCode::kInvalidArgument,
                  "bad magic");
}

TEST_F(PrecomputeFaultTest, FutureFormatVersionIsFailedPrecondition) {
  // Bump the u32 version at offset 8 WITHOUT fixing the header checksum:
  // the version gate must fire before checksum verification, because a
  // future format may not even checksum the same way.
  std::vector<char> bytes = ReadBytes(good_path_);
  const uint32_t future = precompute_io::kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  const std::string path = Path("future.cspc");
  WriteBytes(path, bytes);
  ExpectLoadFails(path, StatusCode::kFailedPrecondition, "newer");
}

TEST_F(PrecomputeFaultTest, FlippedHeaderByteIsChecksumDataLoss) {
  // Offset 16 = first byte of the damping field (see precompute_io.cc).
  ExpectLoadFails(CorruptAt(16, "header_flip.cspc"), StatusCode::kDataLoss,
                  "header checksum mismatch");
}

TEST_F(PrecomputeFaultTest, FlippedFingerprintByteIsChecksumDataLoss) {
  // Fingerprint fields live at offsets [48, 72); they are covered by the
  // header checksum, so corruption there cannot masquerade as a different
  // graph — it reads as corruption.
  ExpectLoadFails(CorruptAt(64, "fp_flip.cspc"), StatusCode::kDataLoss,
                  "header checksum mismatch");
}

TEST_F(PrecomputeFaultTest, FlippedByteInEachSectionPayloadNamesTheSection) {
  for (const SectionLayout& s : Layout()) {
    const int64_t mid = s.payload_offset + s.payload_bytes / 2;
    ExpectLoadFails(CorruptAt(mid, std::string("payload_") + s.name + ".cspc"),
                    StatusCode::kDataLoss,
                    std::string("checksum mismatch in section ") + s.name);
  }
}

TEST_F(PrecomputeFaultTest, NonZeroPaddingByteIsDataLoss) {
  // v2 alignment padding must be zero: a flipped pad byte is corruption
  // even though no checksum covers it (the load path checks it directly).
  const SectionLayout u = Layout()[0];
  ASSERT_GT(u.payload_offset, u.descriptor_offset + kDescriptorBytes)
      << "fixture layout has no padding to corrupt";
  ExpectLoadFails(CorruptAt(u.payload_offset - 1, "pad.cspc"),
                  StatusCode::kDataLoss, "padding");
}

TEST_F(PrecomputeFaultTest, FlippedSectionIdIsDataLoss) {
  for (const SectionLayout& s : Layout()) {
    ExpectLoadFails(
        CorruptAt(s.descriptor_offset, std::string("id_") + s.name + ".cspc"),
        StatusCode::kDataLoss, "unexpected section id");
  }
}

TEST_F(PrecomputeFaultTest, CorruptedDescriptorSizeIsDataLoss) {
  // payload_bytes lives 8 bytes into the descriptor.
  const SectionLayout sigma = Layout()[1];
  ExpectLoadFails(CorruptAt(sigma.descriptor_offset + 8, "size.cspc"),
                  StatusCode::kDataLoss, "payload size mismatch");
}

TEST_F(PrecomputeFaultTest, TruncationInsideEachSectionIsDataLoss) {
  for (const SectionLayout& s : Layout()) {
    const int64_t cut = s.payload_offset + s.payload_bytes / 3;
    ExpectLoadFails(
        TruncateTo(cut, std::string("cut_") + s.name + ".cspc"),
        StatusCode::kDataLoss,
        std::string("truncated in section ") + s.name);
  }
}

TEST_F(PrecomputeFaultTest, TruncatedDescriptorIsDataLoss) {
  const SectionLayout z = Layout().back();
  ExpectLoadFails(TruncateTo(z.descriptor_offset + 10, "desc_cut.cspc"),
                  StatusCode::kDataLoss, "descriptor");
}

TEST_F(PrecomputeFaultTest, TrailingBytesAreDataLoss) {
  std::vector<char> bytes = ReadBytes(good_path_);
  bytes.push_back('x');
  const std::string path = Path("trailing.cspc");
  WriteBytes(path, bytes);
  ExpectLoadFails(path, StatusCode::kDataLoss, "trailing bytes");
}

TEST_F(PrecomputeFaultTest, LegacyArtifactWithoutTrailerStillLoads) {
  // Artifacts written before the version trailer existed end right after
  // section Z; they must keep loading, reporting builder version 0.
  const std::string path = TruncateTo(SectionsEnd(), "legacy.cspc");
  EXPECT_TRUE(CsrPlusEngine::LoadPrecompute(path, LoadOptions{}).ok());
  auto info = precompute_io::ReadArtifactInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->builder_version, 0u);
}

TEST_F(PrecomputeFaultTest, TrailerRecordsTheBuilderVersion) {
  auto info = precompute_io::ReadArtifactInfo(good_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->builder_version, PackedVersion());
}

TEST_F(PrecomputeFaultTest, FlippedTrailerByteIsDataLoss) {
  // Offset +8 = first byte of the trailer's builder_version field.
  ExpectLoadFails(CorruptAt(SectionsEnd() + 8, "trailer_flip.cspc"),
                  StatusCode::kDataLoss, "version trailer corrupted");
}

TEST_F(PrecomputeFaultTest, TruncatedTrailerIsDataLoss) {
  ExpectLoadFails(TruncateTo(SectionsEnd() + 10, "trailer_cut.cspc"),
                  StatusCode::kDataLoss, "trailing bytes");
}

TEST_F(PrecomputeFaultTest, FingerprintMismatchIsFailedPrecondition) {
  LoadOptions mismatch;
  mismatch.expected_fingerprint = good_fingerprint_;
  mismatch.expected_fingerprint->content_hash ^= 1;
  auto result = CsrPlusEngine::LoadPrecompute(good_path_, mismatch);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
  EXPECT_NE(result.status().message().find("fingerprint mismatch"),
            std::string::npos);

  // The exact fingerprint still loads.
  LoadOptions match;
  match.expected_fingerprint = good_fingerprint_;
  EXPECT_TRUE(CsrPlusEngine::LoadPrecompute(good_path_, match).ok());
}

TEST_F(PrecomputeFaultTest, AdversarialHeaderDimensionsAreDataLoss) {
  // n and r individually in range but n*r*sizeof overflows int64: the
  // loader must reject the header before computing any section size (the
  // old code multiplied first and CHECKed later, a signed-overflow UB
  // hazard that DenseMatrix::CheckedCount and ValidateHeader now close).
  std::vector<char> bytes = ReadBytes(good_path_);
  const int64_t huge = int64_t{1} << 31;  // 2^31 nodes x 2^31 rank
  std::memcpy(bytes.data() + 32, &huge, sizeof(huge));  // rank
  std::memcpy(bytes.data() + 40, &huge, sizeof(huge));  // num_nodes
  // Re-seal the header checksum so the dimension check itself is reached.
  uint64_t checksum = precompute_io::kFnvOffsetBasis;
  checksum = precompute_io::FnvHash(checksum, bytes.data(), 80);
  std::memcpy(bytes.data() + 80, &checksum, sizeof(checksum));
  const std::string path = Path("overflow.cspc");
  WriteBytes(path, bytes);
  ExpectLoadFails(path, StatusCode::kDataLoss, "overflow");

  LoadOptions mapped;
  mapped.mode = LoadMode::kMapped;
  auto mapped_result = CsrPlusEngine::LoadPrecompute(path, mapped);
  ASSERT_FALSE(mapped_result.ok());
  EXPECT_TRUE(mapped_result.status().IsDataLoss());
}

TEST_F(PrecomputeFaultTest, EveryFaultYieldsADistinctMessage) {
  // The suite's corruption modes, one representative each; their messages
  // must be pairwise distinct so operators can tell faults apart from logs.
  std::vector<std::string> paths = {
      TruncateTo(0, "d0.cspc"),
      TruncateTo(40, "d1.cspc"),
      CorruptAt(0, "d2.cspc"),
      CorruptAt(16, "d3.cspc"),
      CorruptAt(Layout()[0].descriptor_offset, "d4.cspc"),
      CorruptAt(Layout()[0].descriptor_offset + 8, "d5.cspc"),
      CorruptAt(Layout()[3].payload_offset + 4, "d6.cspc"),
      CorruptAt(Layout()[0].payload_offset - 1, "d7.cspc"),
      TruncateTo(FileBytes() - 100, "d8.cspc"),
      CorruptAt(SectionsEnd() + 8, "d9.cspc"),
  };
  std::vector<std::string> messages;
  for (const std::string& path : paths) {
    auto result = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
    ASSERT_FALSE(result.ok()) << path;
    // Strip the path prefix so only the diagnostic text is compared.
    std::string message = std::string(result.status().message());
    const std::size_t colon = message.find(": ");
    if (colon != std::string::npos) message = message.substr(colon + 2);
    messages.push_back(message);
  }
  for (std::size_t i = 0; i < messages.size(); ++i) {
    for (std::size_t j = i + 1; j < messages.size(); ++j) {
      EXPECT_NE(messages[i], messages[j])
          << "faults " << i << " and " << j << " are indistinguishable";
    }
  }
}

TEST_F(PrecomputeFaultTest, ReadArtifactInfoRejectsCorruptHeadersToo) {
  EXPECT_TRUE(precompute_io::ReadArtifactInfo(good_path_).ok());
  EXPECT_FALSE(precompute_io::ReadArtifactInfo(
                   CorruptAt(16, "info_flip.cspc")).ok());
  EXPECT_FALSE(precompute_io::ReadArtifactInfo(
                   TruncateTo(40, "info_cut.cspc")).ok());
}

// ---------------------------------------------------------------------------
// Mapped-mode lifecycle faults: corruption that happens BEFORE the map is
// deferred to VerifyMappedSections (the lazy-checksum contract); mutation
// of the backing file AFTER a successful map must be detected there too,
// and never crash the process.
// ---------------------------------------------------------------------------

TEST_F(PrecomputeFaultTest, MappedPayloadFaultsNameTheSectionOnVerify) {
  for (const SectionLayout& s : Layout()) {
    const std::string path = CorruptAt(s.payload_offset + s.payload_bytes / 2,
                                       std::string("lazy_") + s.name + ".cspc");
    const std::string expected =
        path + ": checksum mismatch in section " + s.name;
    auto mapped =
        CsrPlusEngine::LoadPrecompute(path, MappedNoBackgroundVerify());
    if (std::string(s.name) == "Sigma") {
      // Sigma is copied, so it is checked eagerly: the load itself fails.
      ASSERT_FALSE(mapped.ok());
      EXPECT_EQ(mapped.status().message(), expected);
      continue;
    }
    ASSERT_TRUE(mapped.ok()) << s.name << ": " << mapped.status().ToString();
    const Status verified = mapped->VerifyMappedSections();
    EXPECT_TRUE(verified.IsDataLoss()) << verified.ToString();
    EXPECT_EQ(verified.message(), expected);
  }
}

TEST_F(PrecomputeFaultTest, MappedLoadDefersPayloadChecksumsToVerify) {
  const std::string path =
      CorruptAt(Layout()[4].payload_offset + 8, "lazy_z.cspc");
  // Header and Sigma are verified eagerly, so the load itself succeeds...
  auto engine = CsrPlusEngine::LoadPrecompute(path, MappedNoBackgroundVerify());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // ...and the flipped Z byte surfaces as typed DataLoss on Verify.
  Status verified = engine->VerifyMappedSections();
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.IsDataLoss()) << verified.ToString();
  EXPECT_NE(verified.message().find("section Z"), std::string::npos)
      << verified.ToString();
  // Verification memoises: asking again reports the same failure.
  EXPECT_TRUE(engine->VerifyMappedSections().IsDataLoss());
}

TEST_F(PrecomputeFaultTest, UnlinkAfterMapKeepsServing) {
  std::filesystem::copy_file(good_path_, Path("unlink.cspc"));
  auto heap = CsrPlusEngine::LoadPrecompute(good_path_, LoadOptions{});
  ASSERT_TRUE(heap.ok());
  auto mapped = CsrPlusEngine::LoadPrecompute(Path("unlink.cspc"),
                                              MappedNoBackgroundVerify());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // POSIX keeps the inode alive while mapped: deleting the artifact out
  // from under a serving process must not disturb it.
  ASSERT_TRUE(std::filesystem::remove(Path("unlink.cspc")));
  EXPECT_TRUE(mapped->VerifyMappedSections().ok());
  auto heap_col = csrplus::testing::QueryColumn(*heap, 7);
  auto mapped_col = csrplus::testing::QueryColumn(*mapped, 7);
  ASSERT_TRUE(heap_col.ok() && mapped_col.ok());
  EXPECT_EQ(*heap_col, *mapped_col);
}

TEST_F(PrecomputeFaultTest, TruncationAfterMapIsDetectedWithoutACrash) {
  std::filesystem::copy_file(good_path_, Path("shrink.cspc"));
  auto mapped = CsrPlusEngine::LoadPrecompute(Path("shrink.cspc"),
                                              MappedNoBackgroundVerify());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Shrinking the file makes the tail pages SIGBUS on touch; the verifier
  // probes the file size first and reports DataLoss instead of faulting.
  std::filesystem::resize_file(Path("shrink.cspc"), 256);
  Status verified = mapped->VerifyMappedSections();
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.IsDataLoss()) << verified.ToString();
  EXPECT_NE(verified.message().find("truncated"), std::string::npos)
      << verified.ToString();
}

TEST_F(PrecomputeFaultTest, ByteFlipAfterMapIsDetectedByVerify) {
  std::filesystem::copy_file(good_path_, Path("flip.cspc"));
  auto mapped = CsrPlusEngine::LoadPrecompute(Path("flip.cspc"),
                                              MappedNoBackgroundVerify());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  {
    // Flip one U payload byte in place (same inode, so the MAP_SHARED
    // mapping observes the write).
    std::fstream f(Path("flip.cspc"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(Layout()[0].payload_offset + 16);
    char b = 0;
    f.get(b);
    f.seekp(Layout()[0].payload_offset + 16);
    f.put(static_cast<char>(b ^ 0x5A));
  }
  Status verified = mapped->VerifyMappedSections();
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.IsDataLoss()) << verified.ToString();
  EXPECT_NE(verified.message().find("section U"), std::string::npos)
      << verified.ToString();
}

}  // namespace
}  // namespace csrplus::core
