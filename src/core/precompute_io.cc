// Implementation of the versioned precompute artifact format declared in
// precompute_io.h, plus CsrPlusEngine::SavePrecompute / LoadPrecompute.
//
// Two read paths share all header/descriptor validation:
//   * heap (LoadMode::kHeapVerified) — fread everything into owning
//     DenseMatrix buffers, verifying every checksum before returning;
//   * mapped (LoadMode::kMapped) — mmap the file via ArtifactMapping and
//     point DenseMatrixViews straight at the section payloads; the small
//     Sigma section is checksummed eagerly, the large ones lazily on the
//     mapping's background verifier thread.

#include "core/precompute_io.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/version.h"
#include "core/artifact_mapping.h"
#include "obs/trace.h"

namespace csrplus::core {
namespace precompute_io {
namespace {

// Fixed-size file header. Field order/widths are the format: u64 + 2*u32 +
// nine 8-byte fields leave no padding, so the in-memory layout equals the
// on-disk layout on any little-endian platform.
struct Header {
  uint64_t magic;
  uint32_t version;
  uint32_t section_count;
  double damping;
  double epsilon;
  int64_t rank;
  int64_t num_nodes;
  int64_t fp_num_nodes;
  int64_t fp_nnz;
  uint64_t fp_content_hash;
  uint64_t reserved;
  uint64_t header_checksum;  // FNV-1a 64 over the 80 bytes above
};
static_assert(sizeof(Header) == 88, "header layout must be padding-free");
constexpr std::size_t kHeaderChecksummedBytes =
    sizeof(Header) - sizeof(uint64_t);

struct SectionHeader {
  uint32_t id;
  uint32_t reserved;
  uint64_t payload_bytes;
  uint64_t payload_checksum;  // FNV-1a 64 over the payload
};
static_assert(sizeof(SectionHeader) == 24,
              "section header layout must be padding-free");

// Optional version trailer appended after the final section. Absent in
// artifacts written before it existed, so the loader accepts EOF there.
struct Trailer {
  uint64_t magic;
  uint64_t builder_version;  // PackedVersion() of the writing build
  uint64_t reserved;
  uint64_t trailer_checksum;  // FNV-1a 64 over the 24 bytes above
};
static_assert(sizeof(Trailer) == 32, "trailer layout must be padding-free");
constexpr std::size_t kTrailerChecksummedBytes =
    sizeof(Trailer) - sizeof(uint64_t);

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionU: return "U";
    case kSectionSigma: return "Sigma";
    case kSectionV: return "V";
    case kSectionP: return "P";
    case kSectionZ: return "Z";
  }
  return "?";
}

// Payload bytes of each section in file order, implied by (n, r).
struct SectionSizes {
  int64_t bytes[kSectionCount];
  static SectionSizes For(Index n, Index r) {
    const int64_t nr = n * r * static_cast<int64_t>(sizeof(double));
    const int64_t rr = r * r * static_cast<int64_t>(sizeof(double));
    const int64_t sig = r * static_cast<int64_t>(sizeof(double));
    return SectionSizes{{nr, sig, nr, rr, nr}};  // U, Sigma, V, P, Z
  }
};
constexpr uint32_t kSectionOrder[kSectionCount] = {
    kSectionU, kSectionSigma, kSectionV, kSectionP, kSectionZ};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status RequireLittleEndian() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unimplemented(
        "precompute artifacts are little-endian only");
  }
  return Status::OK();
}

Status WriteAll(std::FILE* f, const void* data, std::size_t bytes,
                const std::string& path) {
  if (bytes == 0) return Status::OK();
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

// Writes one v2 section at the current position: descriptor, zero pad to
// the next 64-byte file offset, payload.
Status WriteSection(std::FILE* f, uint32_t id, const void* payload,
                    int64_t payload_bytes, const std::string& path) {
  SectionHeader sh;
  sh.id = id;
  sh.reserved = 0;
  sh.payload_bytes = static_cast<uint64_t>(payload_bytes);
  sh.payload_checksum =
      FnvHash(kFnvOffsetBasis, payload, static_cast<std::size_t>(payload_bytes));
  CSR_RETURN_IF_ERROR(WriteAll(f, &sh, sizeof(sh), path));
  const long pos = std::ftell(f);
  if (pos < 0) return Status::IOError("cannot tell position in " + path);
  const int64_t pad = SectionPadBytes(kFormatVersion, pos);
  if (pad > 0) {
    const unsigned char zeros[kSectionAlignment] = {0};
    CSR_RETURN_IF_ERROR(
        WriteAll(f, zeros, static_cast<std::size_t>(pad), path));
  }
  return WriteAll(f, payload, static_cast<std::size_t>(payload_bytes), path);
}

// Reads exactly `bytes` or fails with DataLoss naming `what` (truncation is
// a corruption condition, not a plain I/O failure: the header told us these
// bytes must exist).
Status ReadExact(std::FILE* f, void* data, std::size_t bytes,
                 const std::string& path, const std::string& what) {
  if (bytes == 0) return Status::OK();
  if (std::fread(data, 1, bytes, f) != bytes) {
    return Status::DataLoss(path + ": artifact truncated in " + what);
  }
  return Status::OK();
}

int64_t FileSize(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long size = std::ftell(f);
  if (std::fseek(f, 0, SEEK_SET) != 0) return -1;
  return size;
}

// Everything past the magic/version gates that both the FILE and the mapped
// path must agree on: header checksum, field ranges, and an overflow guard
// on the sizes the fields imply. Nothing downstream may do size arithmetic
// on (n, r) before this passes.
Status ValidateHeader(const Header& h, const std::string& path) {
  if (h.magic != kMagic) {
    return Status::InvalidArgument(
        path + ": not a csrplus precompute artifact (bad magic)");
  }
  if (h.version > kFormatVersion) {
    return Status::FailedPrecondition(
        path + ": artifact format version " + std::to_string(h.version) +
        " is newer than this build supports (" +
        std::to_string(kFormatVersion) + "); rebuild the artifact");
  }
  const uint64_t expected_checksum =
      FnvHash(kFnvOffsetBasis, &h, kHeaderChecksummedBytes);
  if (h.header_checksum != expected_checksum) {
    return Status::DataLoss(path + ": header checksum mismatch (corrupted)");
  }
  // The checksum also covers version, so a zero/garbage version with a
  // valid checksum can only be a deliberately crafted file; reject the
  // field ranges all the same so no size computation below trusts them.
  if (h.version == 0 || h.section_count != kSectionCount ||
      h.reserved != 0 || h.rank < 1 || h.num_nodes < h.rank ||
      h.fp_num_nodes < 0 || h.fp_nnz < 0 || !(h.damping > 0.0) ||
      !(h.damping < 1.0) || !(h.epsilon > 0.0) || !(h.epsilon < 1.0)) {
    return Status::DataLoss(path + ": header field out of range (corrupted)");
  }
  // Adversarial dimensions: (n, r) pass the range checks yet overflow the
  // sizes derived from them (EngineStateBytes, section offsets, DenseMatrix
  // element counts). Checked multiply with 16x headroom over the true state
  // size, so every later n*r/offset computation is provably in range.
  int64_t nr = 0;
  int64_t bound = 0;
  if (__builtin_mul_overflow(h.num_nodes, h.rank, &nr) ||
      __builtin_mul_overflow(nr, int64_t{16} * sizeof(double), &bound)) {
    return Status::DataLoss(
        path + ": header dimensions overflow (n=" +
        std::to_string(h.num_nodes) + ", r=" + std::to_string(h.rank) +
        " imply a state size past int64; corrupted or hostile header)");
  }
  return Status::OK();
}

// Opens, sizes and header-validates an artifact. On success the stream is
// positioned at the first section.
Result<std::pair<FilePtr, Header>> OpenAndValidateHeader(
    const std::string& path) {
  CSR_RETURN_IF_ERROR(RequireLittleEndian());
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);

  const int64_t file_bytes = FileSize(f.get());
  if (file_bytes < 0) return Status::IOError("cannot size " + path);
  if (file_bytes == 0) {
    return Status::DataLoss(path + ": artifact file is empty");
  }
  if (file_bytes < static_cast<int64_t>(sizeof(Header))) {
    return Status::DataLoss(path + ": artifact truncated in header (" +
                            std::to_string(file_bytes) + " bytes, header is " +
                            std::to_string(sizeof(Header)) + ")");
  }

  Header h;
  CSR_RETURN_IF_ERROR(ReadExact(f.get(), &h, sizeof(h), path, "header"));
  CSR_RETURN_IF_ERROR(ValidateHeader(h, path));
  return std::make_pair(std::move(f), h);
}

GraphFingerprint HeaderFingerprint(const Header& h) {
  GraphFingerprint fp;
  fp.num_nodes = h.fp_num_nodes;
  fp.nnz = h.fp_nnz;
  fp.content_hash = h.fp_content_hash;
  return fp;
}

Status CheckFingerprint(const GraphFingerprint& stored,
                        const LoadOptions& options, const std::string& path) {
  if (!options.expected_fingerprint.has_value() ||
      stored == *options.expected_fingerprint) {
    return Status::OK();
  }
  const GraphFingerprint& expected = *options.expected_fingerprint;
  return Status::FailedPrecondition(
      path + ": graph fingerprint mismatch — artifact was built for a "
      "graph with n=" + std::to_string(stored.num_nodes) + ", nnz=" +
      std::to_string(stored.nnz) + ", hash=" +
      std::to_string(stored.content_hash) + " but the serving graph has n=" +
      std::to_string(expected.num_nodes) + ", nnz=" +
      std::to_string(expected.nnz) + ", hash=" +
      std::to_string(expected.content_hash));
}

// Checks a section descriptor against the id/size the format mandates.
Status ValidateDescriptor(const SectionHeader& sh, uint32_t expected_id,
                          int64_t expected_bytes, const std::string& path) {
  const std::string name = SectionName(expected_id);
  if (sh.id != expected_id) {
    return Status::DataLoss(path + ": unexpected section id " +
                            std::to_string(sh.id) + " where section " + name +
                            " belongs");
  }
  if (sh.reserved != 0) {
    return Status::DataLoss(path + ": corrupt descriptor for section " + name);
  }
  if (sh.payload_bytes != static_cast<uint64_t>(expected_bytes)) {
    return Status::DataLoss(
        path + ": section " + name + " payload size mismatch (descriptor says " +
        std::to_string(sh.payload_bytes) + ", dimensions imply " +
        std::to_string(expected_bytes) + ")");
  }
  return Status::OK();
}

// Reads one section (descriptor, v2 pad, payload), enforcing id/order,
// exact payload size and checksum. `out` must already be sized to
// `expected_bytes`.
Status ReadSection(std::FILE* f, uint32_t version, uint32_t expected_id,
                   void* out, int64_t expected_bytes,
                   const std::string& path) {
  const std::string name = SectionName(expected_id);
  SectionHeader sh;
  CSR_RETURN_IF_ERROR(ReadExact(f, &sh, sizeof(sh), path,
                                "section " + name + " descriptor"));
  CSR_RETURN_IF_ERROR(ValidateDescriptor(sh, expected_id, expected_bytes, path));
  const long pos = std::ftell(f);
  if (pos < 0) return Status::IOError("cannot tell position in " + path);
  const int64_t pad = SectionPadBytes(version, pos);
  if (pad > 0) {
    unsigned char zeros[kSectionAlignment];
    CSR_RETURN_IF_ERROR(ReadExact(f, zeros, static_cast<std::size_t>(pad),
                                  path, "section " + name + " padding"));
    for (int64_t i = 0; i < pad; ++i) {
      if (zeros[i] != 0) {
        return Status::DataLoss(path + ": non-zero alignment padding before "
                                "section " + name);
      }
    }
  }
  CSR_RETURN_IF_ERROR(ReadExact(f, out, static_cast<std::size_t>(expected_bytes),
                                path, "section " + name));
  const uint64_t checksum =
      FnvHash(kFnvOffsetBasis, out, static_cast<std::size_t>(expected_bytes));
  if (checksum != sh.payload_checksum) {
    return Status::DataLoss(path + ": checksum mismatch in section " + name);
  }
  return Status::OK();
}

// Consumes the optional version trailer at the current stream position
// (directly after section Z) and verifies nothing follows it. Returns the
// builder version the trailer records, or 0 when the artifact predates the
// trailer (EOF right where it would start). Any other trailing shape is
// corruption.
Result<uint64_t> ReadTrailerAndExpectEof(std::FILE* f,
                                         const std::string& path) {
  Trailer t;
  const std::size_t got = std::fread(&t, 1, sizeof(t), f);
  if (got == 0) return uint64_t{0};  // legacy artifact: no trailer
  if (got != sizeof(t) || std::fgetc(f) != EOF) {
    return Status::DataLoss(path + ": trailing bytes after final section");
  }
  if (t.magic != kTrailerMagic) {
    return Status::DataLoss(
        path + ": trailing bytes after final section (not a version trailer)");
  }
  const uint64_t expected =
      FnvHash(kFnvOffsetBasis, &t, kTrailerChecksummedBytes);
  if (t.reserved != 0 || t.trailer_checksum != expected) {
    return Status::DataLoss(path + ": version trailer corrupted");
  }
  return t.builder_version;
}

// Validates an in-memory trailer image (mapped path); same rules as above.
Status ValidateTrailer(const Trailer& t, const std::string& path) {
  if (t.magic != kTrailerMagic) {
    return Status::DataLoss(
        path + ": trailing bytes after final section (not a version trailer)");
  }
  const uint64_t expected =
      FnvHash(kFnvOffsetBasis, &t, kTrailerChecksummedBytes);
  if (t.reserved != 0 || t.trailer_checksum != expected) {
    return Status::DataLoss(path + ": version trailer corrupted");
  }
  return Status::OK();
}

// Total bytes of header + all five sections (descriptors, v2 padding and
// payloads) for a version-`version` (n, r) artifact; the version trailer,
// when present, begins exactly here.
int64_t SectionsEndOffset(uint32_t version, Index n, Index r) {
  const SectionSizes sizes = SectionSizes::For(n, r);
  int64_t off = static_cast<int64_t>(sizeof(Header));
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    off += static_cast<int64_t>(sizeof(SectionHeader));
    off += SectionPadBytes(version, off);
    off += sizes.bytes[i];
  }
  return off;
}

}  // namespace

Result<ArtifactInfo> ReadArtifactInfo(const std::string& path) {
  CSR_ASSIGN_OR_RETURN(auto opened, OpenAndValidateHeader(path));
  const Header& h = opened.second;
  ArtifactInfo info;
  info.version = h.version;
  info.rank = h.rank;
  info.num_nodes = h.num_nodes;
  info.damping = h.damping;
  info.epsilon = h.epsilon;
  info.fingerprint = HeaderFingerprint(h);
  info.file_bytes = FileSize(opened.first.get());
  // Recover the builder version when the file is exactly sections + trailer
  // sized. Info reads stay lenient: a malformed trailer reports builder 0
  // here and is rejected by the full loader.
  const int64_t sections_end = SectionsEndOffset(h.version, h.num_nodes, h.rank);
  if (info.file_bytes ==
      sections_end + static_cast<int64_t>(sizeof(Trailer))) {
    std::FILE* f = opened.first.get();
    Trailer t;
    if (std::fseek(f, static_cast<long>(sections_end), SEEK_SET) == 0 &&
        std::fread(&t, 1, sizeof(t), f) == sizeof(t) &&
        t.magic == kTrailerMagic && t.reserved == 0 &&
        t.trailer_checksum ==
            FnvHash(kFnvOffsetBasis, &t, kTrailerChecksummedBytes)) {
      info.builder_version = t.builder_version;
    }
  }
  return info;
}

}  // namespace precompute_io

using precompute_io::FnvHash;
using precompute_io::kFnvOffsetBasis;

const char* LoadModeName(LoadMode mode) {
  return mode == LoadMode::kMapped ? "mmap" : "heap";
}

Result<CsrPlusEngine> CsrPlusEngine::LoadPrecomputeHeap(
    const std::string& path, const LoadOptions& options) {
  CSR_ASSIGN_OR_RETURN(auto opened,
                       precompute_io::OpenAndValidateHeader(path));
  std::FILE* f = opened.first.get();
  const auto& h = opened.second;
  const Index n = h.num_nodes;
  const Index r = h.rank;

  const GraphFingerprint stored = precompute_io::HeaderFingerprint(h);
  CSR_RETURN_IF_ERROR(precompute_io::CheckFingerprint(stored, options, path));

  // Header fields are checksummed, range-checked and overflow-guarded, so
  // the sizes below are trustworthy; charge them before allocating, exactly
  // like the compute path does, so warm starts respect the same cap as cold
  // starts.
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      precompute_io::EngineStateBytes(n, r), "CSR+ precompute state"));

  CsrPlusEngine engine;
  engine.u_ = DenseMatrix(n, r);
  engine.sigma_.assign(static_cast<std::size_t>(r), 0.0);
  engine.v_ = DenseMatrix(n, r);
  engine.p_ = DenseMatrix(r, r);
  engine.z_ = DenseMatrix(n, r);
  CSR_RETURN_IF_ERROR(precompute_io::ReadSection(
      f, h.version, precompute_io::kSectionU, engine.u_.data(),
      engine.u_.PayloadBytes(), path));
  CSR_RETURN_IF_ERROR(precompute_io::ReadSection(
      f, h.version, precompute_io::kSectionSigma, engine.sigma_.data(),
      static_cast<int64_t>(engine.sigma_.size() * sizeof(double)), path));
  CSR_RETURN_IF_ERROR(precompute_io::ReadSection(
      f, h.version, precompute_io::kSectionV, engine.v_.data(),
      engine.v_.PayloadBytes(), path));
  CSR_RETURN_IF_ERROR(precompute_io::ReadSection(
      f, h.version, precompute_io::kSectionP, engine.p_.data(),
      engine.p_.PayloadBytes(), path));
  CSR_RETURN_IF_ERROR(precompute_io::ReadSection(
      f, h.version, precompute_io::kSectionZ, engine.z_.data(),
      engine.z_.PayloadBytes(), path));
  {
    auto builder = precompute_io::ReadTrailerAndExpectEof(f, path);
    if (!builder.ok()) return builder.status();
  }

  engine.damping_ = h.damping;
  engine.epsilon_ = h.epsilon;
  engine.fingerprint_ = stored;
  engine.stats_.state_bytes = engine.u_.AllocatedBytes() +
                              engine.z_.AllocatedBytes() +
                              engine.p_.AllocatedBytes();
  return engine;
}

Result<CsrPlusEngine> CsrPlusEngine::LoadPrecomputeMapped(
    const std::string& path, const LoadOptions& options) {
  CSR_RETURN_IF_ERROR(precompute_io::RequireLittleEndian());
  CSR_ASSIGN_OR_RETURN(std::shared_ptr<ArtifactMapping> mapping,
                       ArtifactMapping::Open(path));
  const unsigned char* base = mapping->data();
  const int64_t file_bytes = mapping->size();
  if (file_bytes < static_cast<int64_t>(sizeof(precompute_io::Header))) {
    return Status::DataLoss(
        path + ": artifact truncated in header (" +
        std::to_string(file_bytes) + " bytes, header is " +
        std::to_string(sizeof(precompute_io::Header)) + ")");
  }
  precompute_io::Header h;
  std::memcpy(&h, base, sizeof(h));
  CSR_RETURN_IF_ERROR(precompute_io::ValidateHeader(h, path));
  const Index n = h.num_nodes;
  const Index r = h.rank;

  const GraphFingerprint stored = precompute_io::HeaderFingerprint(h);
  CSR_RETURN_IF_ERROR(precompute_io::CheckFingerprint(stored, options, path));

  // Mapped pages are page-cache-backed and reclaimable, so only the small
  // heap copies (sigma) plus the caller's advisory resident estimate are
  // charged — this is exactly what makes factors larger than RAM loadable.
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      options.mapped_budget_bytes +
          r * static_cast<int64_t>(sizeof(double)),
      "CSR+ mapped precompute state"));

  // Walk the section table: validate each descriptor and (v2) its zero
  // padding, record payload extents, defer payload checksums.
  const precompute_io::SectionSizes sizes =
      precompute_io::SectionSizes::For(n, r);
  int64_t payload_off[precompute_io::kSectionCount];
  std::vector<ArtifactMapping::Section> lazy_sections;
  int64_t off = static_cast<int64_t>(sizeof(precompute_io::Header));
  for (uint32_t i = 0; i < precompute_io::kSectionCount; ++i) {
    const uint32_t id = precompute_io::kSectionOrder[i];
    const std::string name = precompute_io::SectionName(id);
    if (off + static_cast<int64_t>(sizeof(precompute_io::SectionHeader)) >
        file_bytes) {
      return Status::DataLoss(path + ": artifact truncated in section " +
                              name + " descriptor");
    }
    precompute_io::SectionHeader sh;
    std::memcpy(&sh, base + off, sizeof(sh));
    CSR_RETURN_IF_ERROR(
        precompute_io::ValidateDescriptor(sh, id, sizes.bytes[i], path));
    off += static_cast<int64_t>(sizeof(sh));
    const int64_t pad = precompute_io::SectionPadBytes(h.version, off);
    if (off + pad + sizes.bytes[i] > file_bytes) {
      return Status::DataLoss(path + ": artifact truncated in section " +
                              name);
    }
    for (int64_t b = 0; b < pad; ++b) {
      if (base[off + b] != 0) {
        return Status::DataLoss(path + ": non-zero alignment padding before "
                                "section " + name);
      }
    }
    payload_off[i] = off + pad;
    if (id == precompute_io::kSectionSigma) {
      // Small enough to verify (and copy) eagerly.
      const uint64_t checksum =
          FnvHash(kFnvOffsetBasis, base + payload_off[i],
                  static_cast<std::size_t>(sizes.bytes[i]));
      if (checksum != sh.payload_checksum) {
        return Status::DataLoss(path + ": checksum mismatch in section " +
                                name);
      }
    } else {
      lazy_sections.push_back(ArtifactMapping::Section{
          name, payload_off[i], sizes.bytes[i], sh.payload_checksum});
    }
    off = payload_off[i] + sizes.bytes[i];
  }

  // Trailer: EOF directly after Z is a legacy artifact; otherwise exactly
  // one valid 32-byte trailer must close the file.
  const int64_t trailing = file_bytes - off;
  if (trailing != 0) {
    if (trailing != static_cast<int64_t>(sizeof(precompute_io::Trailer))) {
      return Status::DataLoss(path + ": trailing bytes after final section");
    }
    precompute_io::Trailer t;
    std::memcpy(&t, base + off, sizeof(t));
    CSR_RETURN_IF_ERROR(precompute_io::ValidateTrailer(t, path));
  }

  CsrPlusEngine engine;
  const auto payload = [&](uint32_t i) {
    return reinterpret_cast<const double*>(base + payload_off[i]);
  };
  engine.u_map_ = DenseMatrixView(payload(0), n, r);
  engine.sigma_.assign(payload(1), payload(1) + r);
  engine.v_map_ = DenseMatrixView(payload(2), n, r);
  engine.p_map_ = DenseMatrixView(payload(3), r, r);
  engine.z_map_ = DenseMatrixView(payload(4), n, r);

  // Paging policy: queries gather arbitrary rows of U (MADV_RANDOM defeats
  // useless readahead) but stream all of Z on every query column
  // (MADV_WILLNEED pulls it in now). V and P stay on default readahead —
  // persistence-only.
  mapping->Advise(payload_off[0], sizes.bytes[0],
                  ArtifactMapping::Advice::kRandom);
  mapping->Advise(payload_off[4], sizes.bytes[4],
                  ArtifactMapping::Advice::kWillNeed);

  mapping->SetSections(std::move(lazy_sections));
  if (options.background_verify) {
    mapping->StartBackgroundVerify();
  }
  engine.mapping_ = std::move(mapping);
  engine.damping_ = h.damping;
  engine.epsilon_ = h.epsilon;
  engine.fingerprint_ = stored;
  // Mapped state is file-backed, not heap: report the payload footprint the
  // mapping can fault in (U + Z + P, matching the heap path's definition).
  engine.stats_.state_bytes =
      sizes.bytes[0] + sizes.bytes[4] + sizes.bytes[3];
  return engine;
}

Result<CsrPlusEngine> CsrPlusEngine::LoadPrecompute(
    const std::string& path, const LoadOptions& options) {
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.artifact_load_us",
                        "restoring an engine from a .cspc artifact");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.artifact.loads", "calls",
                          "LoadPrecompute attempts (success or failure)", 1);
  CSRPLUS_TRACE_SPAN(span, obs::spans::kArtifactLoad);
  auto result = options.mode == LoadMode::kMapped
                    ? LoadPrecomputeMapped(path, options)
                    : LoadPrecomputeHeap(path, options);
  if (!result.ok()) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.artifact.load_failures", "calls",
                            "LoadPrecompute attempts that returned an error",
                            1);
  }
  return result;
}

Status CsrPlusEngine::VerifyMappedSections() const {
  if (mapping_ == nullptr) return Status::OK();
  return mapping_->Verify();
}

Status CsrPlusEngine::SavePrecompute(const std::string& path) const {
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.artifact_save_us",
                        "persisting an engine to a .cspc artifact");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.artifact.saves", "calls",
                          "SavePrecompute invocations", 1);
  CSRPLUS_TRACE_SPAN(span, obs::spans::kArtifactSave);
  CSR_RETURN_IF_ERROR(precompute_io::RequireLittleEndian());
  // Views work for heap and mapped engines alike, so a zero-copy engine can
  // re-persist (e.g. to migrate a v1 artifact to the current version).
  const DenseMatrixView u = this->u();
  const DenseMatrixView z = this->z();
  const DenseMatrixView p = this->p();
  const DenseMatrixView v = this->v();
  if (u.empty()) {
    return Status::FailedPrecondition(
        "cannot save an empty engine (precompute first)");
  }
  precompute_io::FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open " + path + " for writing");

  precompute_io::Header h;
  h.magic = precompute_io::kMagic;
  h.version = precompute_io::kFormatVersion;
  h.section_count = precompute_io::kSectionCount;
  h.damping = damping_;
  h.epsilon = epsilon_;
  h.rank = rank();
  h.num_nodes = num_nodes();
  h.fp_num_nodes = fingerprint_.num_nodes;
  h.fp_nnz = fingerprint_.nnz;
  h.fp_content_hash = fingerprint_.content_hash;
  h.reserved = 0;
  h.header_checksum =
      FnvHash(kFnvOffsetBasis, &h, precompute_io::kHeaderChecksummedBytes);
  CSR_RETURN_IF_ERROR(precompute_io::WriteAll(f.get(), &h, sizeof(h), path));

  CSR_RETURN_IF_ERROR(precompute_io::WriteSection(
      f.get(), precompute_io::kSectionU, u.data(), u.PayloadBytes(), path));
  CSR_RETURN_IF_ERROR(precompute_io::WriteSection(
      f.get(), precompute_io::kSectionSigma, sigma_.data(),
      static_cast<int64_t>(sigma_.size() * sizeof(double)), path));
  CSR_RETURN_IF_ERROR(precompute_io::WriteSection(
      f.get(), precompute_io::kSectionV, v.data(), v.PayloadBytes(), path));
  CSR_RETURN_IF_ERROR(precompute_io::WriteSection(
      f.get(), precompute_io::kSectionP, p.data(), p.PayloadBytes(), path));
  CSR_RETURN_IF_ERROR(precompute_io::WriteSection(
      f.get(), precompute_io::kSectionZ, z.data(), z.PayloadBytes(), path));

  precompute_io::Trailer trailer;
  trailer.magic = precompute_io::kTrailerMagic;
  trailer.builder_version = PackedVersion();
  trailer.reserved = 0;
  trailer.trailer_checksum = FnvHash(
      kFnvOffsetBasis, &trailer, precompute_io::kTrailerChecksummedBytes);
  CSR_RETURN_IF_ERROR(
      precompute_io::WriteAll(f.get(), &trailer, sizeof(trailer), path));
  if (std::fflush(f.get()) != 0) {
    return Status::IOError("flush failed on " + path);
  }
  return Status::OK();
}

GraphFingerprint FingerprintTransition(const CsrMatrix& transition) {
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.fingerprint_us",
                        "FNV-1a fingerprint of the transition matrix");
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kFingerprint, "n",
                         transition.rows());
  GraphFingerprint fp;
  fp.num_nodes = transition.rows();
  fp.nnz = transition.nnz();
  uint64_t hash = kFnvOffsetBasis;
  hash = FnvHash(hash, transition.row_ptr().data(),
                 transition.row_ptr().size() * sizeof(int64_t));
  hash = FnvHash(hash, transition.col_index().data(),
                 transition.col_index().size() * sizeof(int32_t));
  hash = FnvHash(hash, transition.values().data(),
                 transition.values().size() * sizeof(double));
  fp.content_hash = hash;
  return fp;
}

}  // namespace csrplus::core
