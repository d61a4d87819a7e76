// Implementation of the versioned precompute artifact format declared in
// precompute_io.h, plus CsrPlusEngine::SavePrecompute / LoadPrecompute.
//
// One parser reads every artifact: the file is opened with ArtifactMapping
// and OpenArtifact validates its header, section table, padding and trailer
// in place. The load modes differ only in what happens to the payloads:
//   * heap (LoadMode::kHeapVerified) — every section is read into an owning
//     DenseMatrix and its checksum verified before the engine is returned;
//     the mapping is then dropped;
//   * mapped (LoadMode::kMapped) — DenseMatrixViews point straight at the
//     section payloads; the small Sigma section is checksummed eagerly, the
//     large ones lazily on the mapping's background verifier thread.
// ReadArtifactInfo runs the same walk without payload checksums.

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

// Magic and version gates, header checksum, field ranges, and an overflow
// guard on the sizes the fields imply. Nothing downstream may do size
// arithmetic on (n, r) before this passes.
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

// An opened artifact as the parser reads it: the mapping, the validated
// header and, in file order, every section's payload extent and recorded
// checksum.
struct Artifact {
  std::shared_ptr<ArtifactMapping> mapping;
  Header header;
  std::vector<ArtifactMapping::Section> sections;  // U, Sigma, V, P, Z
  uint64_t builder_version = 0;  // from the trailer; 0 for legacy files
};

// The one artifact parser, shared by both load modes and ReadArtifactInfo.
// Maps the file, validates the header, then walks the section table: each
// descriptor, the v2 zero padding and the optional trailer. Reads no
// payload byte; whether and when payload checksums are verified is the
// caller's choice.
Result<Artifact> OpenArtifact(const std::string& path) {
  CSR_RETURN_IF_ERROR(RequireLittleEndian());
  Artifact artifact;
  CSR_ASSIGN_OR_RETURN(artifact.mapping, ArtifactMapping::Open(path));
  const unsigned char* base = artifact.mapping->data();
  const int64_t file_bytes = artifact.mapping->size();
  if (file_bytes < static_cast<int64_t>(sizeof(Header))) {
    return Status::DataLoss(path + ": artifact truncated in header (" +
                            std::to_string(file_bytes) + " bytes, header is " +
                            std::to_string(sizeof(Header)) + ")");
  }
  Header& h = artifact.header;
  std::memcpy(&h, base, sizeof(h));
  CSR_RETURN_IF_ERROR(ValidateHeader(h, path));

  const SectionSizes sizes = SectionSizes::For(h.num_nodes, h.rank);
  int64_t off = static_cast<int64_t>(sizeof(Header));
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const uint32_t id = kSectionOrder[i];
    const std::string name = SectionName(id);
    if (off + static_cast<int64_t>(sizeof(SectionHeader)) > file_bytes) {
      return Status::DataLoss(path + ": artifact truncated in section " +
                              name + " descriptor");
    }
    SectionHeader sh;
    std::memcpy(&sh, base + off, sizeof(sh));
    CSR_RETURN_IF_ERROR(ValidateDescriptor(sh, id, sizes.bytes[i], path));
    off += static_cast<int64_t>(sizeof(sh));
    const int64_t pad = SectionPadBytes(h.version, off);
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
    off += pad;
    artifact.sections.push_back(ArtifactMapping::Section{
        name, off, sizes.bytes[i], sh.payload_checksum});
    off += sizes.bytes[i];
  }

  // Trailer: EOF directly after Z is a legacy artifact; otherwise exactly
  // one valid 32-byte trailer must close the file.
  const int64_t trailing = file_bytes - off;
  if (trailing == 0) return artifact;
  if (trailing != static_cast<int64_t>(sizeof(Trailer))) {
    return Status::DataLoss(path + ": trailing bytes after final section");
  }
  Trailer t;
  std::memcpy(&t, base + off, sizeof(t));
  if (t.magic != kTrailerMagic) {
    return Status::DataLoss(
        path + ": trailing bytes after final section (not a version trailer)");
  }
  if (t.reserved != 0 ||
      t.trailer_checksum !=
          FnvHash(kFnvOffsetBasis, &t, kTrailerChecksummedBytes)) {
    return Status::DataLoss(path + ": version trailer corrupted");
  }
  artifact.builder_version = t.builder_version;
  return artifact;
}

Status ChecksumMismatch(const std::string& path,
                        const ArtifactMapping::Section& s) {
  return Status::DataLoss(path + ": checksum mismatch in section " + s.name);
}

// Heap mode: reads one section's payload into an owning matrix and checks
// its checksum. pread, not a copy out of the mapping: page-cache pages read
// that way never count toward this process's RSS, so a heap load peaks at
// its heap copy alone.
Result<DenseMatrix> ReadVerified(const ArtifactMapping& mapping,
                                 const ArtifactMapping::Section& s, Index rows,
                                 Index cols) {
  DenseMatrix m(rows, cols);
  CSR_RETURN_IF_ERROR(mapping.ReadAt(s.offset, s.bytes, m.data()));
  if (FnvHash(kFnvOffsetBasis, m.data(), static_cast<std::size_t>(s.bytes)) !=
      s.checksum) {
    return ChecksumMismatch(mapping.path(), s);
  }
  return m;
}

}  // namespace

Result<ArtifactInfo> ReadArtifactInfo(const std::string& path) {
  CSR_ASSIGN_OR_RETURN(const Artifact artifact, OpenArtifact(path));
  const Header& h = artifact.header;
  ArtifactInfo info;
  info.version = h.version;
  info.rank = h.rank;
  info.num_nodes = h.num_nodes;
  info.damping = h.damping;
  info.epsilon = h.epsilon;
  info.fingerprint = HeaderFingerprint(h);
  info.file_bytes = artifact.mapping->size();
  info.builder_version = artifact.builder_version;
  return info;
}

}  // namespace precompute_io

using precompute_io::FnvHash;
using precompute_io::kFnvOffsetBasis;

const char* LoadModeName(LoadMode mode) {
  return mode == LoadMode::kMapped ? "mmap" : "heap";
}

Result<CsrPlusEngine> CsrPlusEngine::LoadPrecompute(
    const std::string& path, const LoadOptions& options) {
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.artifact_load_us",
                        "restoring an engine from a .cspc artifact");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.artifact.loads", "calls",
                          "LoadPrecompute attempts (success or failure)", 1);
  CSRPLUS_TRACE_SPAN(span, obs::spans::kArtifactLoad);
  auto load = [&]() -> Result<CsrPlusEngine> {
    CSR_ASSIGN_OR_RETURN(precompute_io::Artifact artifact,
                         precompute_io::OpenArtifact(path));
    std::shared_ptr<ArtifactMapping>& mapping = artifact.mapping;
    const precompute_io::Header& h = artifact.header;
    std::vector<ArtifactMapping::Section>& sections = artifact.sections;
    const Index n = h.num_nodes;
    const Index r = h.rank;
    const bool mapped = options.mode == LoadMode::kMapped;

    const GraphFingerprint stored = precompute_io::HeaderFingerprint(h);
    CSR_RETURN_IF_ERROR(precompute_io::CheckFingerprint(stored, options, path));
    // The walked header is checksummed, range-checked and overflow-guarded,
    // so these sizes are trustworthy. A heap load charges the full state,
    // exactly like the compute path, so warm and cold starts share one cap.
    // Mapped pages are page-cache-backed and reclaimable, so a mapped load
    // charges only its Sigma copy: that is what makes factors larger than
    // RAM loadable.
    const int64_t sigma_bytes = r * static_cast<int64_t>(sizeof(double));
    CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
        mapped ? sigma_bytes : precompute_io::EngineStateBytes(n, r),
        mapped ? "CSR+ mapped precompute state" : "CSR+ precompute state"));

    // Sigma is r doubles: verified and copied eagerly in both modes.
    const ArtifactMapping::Section& sigma = sections[1];
    const auto* sigma_data =
        reinterpret_cast<const double*>(mapping->data() + sigma.offset);
    if (FnvHash(kFnvOffsetBasis, sigma_data,
                static_cast<std::size_t>(sigma.bytes)) != sigma.checksum) {
      return precompute_io::ChecksumMismatch(path, sigma);
    }

    CsrPlusEngine engine;
    engine.sigma_.assign(sigma_data, sigma_data + r);
    engine.damping_ = h.damping;
    engine.epsilon_ = h.epsilon;
    engine.fingerprint_ = stored;
    if (!mapped) {
      // Every checksum verified before the engine exists; the mapping is
      // dropped on return. The walk mapped the pages around every
      // descriptor; release them first, so the load peaks at the heap
      // copy alone.
      mapping->Advise(0, mapping->size(), ArtifactMapping::Advice::kDontNeed);
      CSR_ASSIGN_OR_RETURN(DenseMatrix u, precompute_io::ReadVerified(
                                              *mapping, sections[0], n, r));
      CSR_ASSIGN_OR_RETURN(DenseMatrix v, precompute_io::ReadVerified(
                                              *mapping, sections[2], n, r));
      CSR_ASSIGN_OR_RETURN(DenseMatrix p, precompute_io::ReadVerified(
                                              *mapping, sections[3], r, r));
      CSR_ASSIGN_OR_RETURN(DenseMatrix z, precompute_io::ReadVerified(
                                              *mapping, sections[4], n, r));
      engine.SetHeapFactors(std::move(u), std::move(z), std::move(p),
                            std::move(v));
      return engine;
    }

    CSRPLUS_OBS_COUNTER_ADD("csrplus.artifact.mmaps", "calls",
                            "artifact files mapped for zero-copy serving", 1);
    const auto view = [&](const ArtifactMapping::Section& s, Index rows) {
      return DenseMatrixView(
          reinterpret_cast<const double*>(mapping->data() + s.offset), rows,
          r);
    };
    engine.u_ = view(sections[0], n);
    engine.v_ = view(sections[2], n);
    engine.p_ = view(sections[3], r);
    engine.z_ = view(sections[4], n);
    // Paging policy: queries gather arbitrary rows of U (MADV_RANDOM defeats
    // useless readahead) but stream all of Z on every query column
    // (MADV_WILLNEED pulls it in now). V and P stay on default readahead —
    // persistence-only.
    mapping->Advise(sections[0].offset, sections[0].bytes,
                    ArtifactMapping::Advice::kRandom);
    mapping->Advise(sections[4].offset, sections[4].bytes,
                    ArtifactMapping::Advice::kWillNeed);
    // Mapped state is file-backed, not heap: report the payload footprint
    // the mapping can fault in (U + Z + P, the heap path's definition).
    engine.stats_.state_bytes =
        sections[0].bytes + sections[4].bytes + sections[3].bytes;
    // U/V/P/Z checksums are deferred to the lazy pass (Sigma is done).
    sections.erase(sections.begin() + 1);
    mapping->SetSections(std::move(sections));
    if (options.background_verify) mapping->StartBackgroundVerify();
    auto store = std::make_shared<FactorStore>();
    store->mapping = std::move(mapping);
    engine.store_ = std::move(store);
    return engine;
  };
  auto result = load();
  if (!result.ok()) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.artifact.load_failures", "calls",
                            "LoadPrecompute attempts that returned an error",
                            1);
  }
  return result;
}

Status CsrPlusEngine::VerifyMappedSections() const {
  if (!is_mapped()) return Status::OK();
  return store_->mapping->Verify();
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

uint64_t AnswerStateHash(const GraphFingerprint& graph, Index rank,
                         double damping, double epsilon) {
  const uint64_t damping_bits = std::bit_cast<uint64_t>(damping);
  const uint64_t epsilon_bits = std::bit_cast<uint64_t>(epsilon);
  uint64_t hash = kFnvOffsetBasis;
  hash = FnvHash(hash, &graph.num_nodes, sizeof(graph.num_nodes));
  hash = FnvHash(hash, &graph.nnz, sizeof(graph.nnz));
  hash = FnvHash(hash, &graph.content_hash, sizeof(graph.content_hash));
  hash = FnvHash(hash, &rank, sizeof(rank));
  hash = FnvHash(hash, &damping_bits, sizeof(damping_bits));
  hash = FnvHash(hash, &epsilon_bits, sizeof(epsilon_bits));
  return hash;
}

}  // namespace csrplus::core
