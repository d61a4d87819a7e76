// Persistent precompute artifacts: the on-disk format behind
// CsrPlusEngine::SavePrecompute / LoadPrecompute.
//
// CSR+'s rank-r SVD + repeated-squaring stage (Algorithm 1 lines 1-6) is
// query-independent, so a serving process should pay for it once, persist
// the result, and warm-start with pure I/O. An artifact stores everything
// the engine holds after precompute — the truncated factors U, Sigma, V,
// the subspace fixed point P, the memoised Z = U (Sigma P Sigma) — plus
// rank r, damping c, epsilon and a fingerprint of the transition matrix it
// was built from.
//
// On-disk layout, version 2 (all fields little-endian; doubles are
// IEEE-754 binary64; see docs/artifact-format.md for the normative spec):
//
//   header (88 bytes; checksum covers the 80 bytes before it)
//     u64  magic            "CSR+PC01" (0x313043502B525343 as LE u64)
//     u32  version          2
//     u32  section_count    5
//     f64  damping          c in (0, 1)
//     f64  epsilon          accuracy of the P fixed point
//     i64  rank             r >= 1
//     i64  num_nodes        n >= r
//     i64  fp_num_nodes     graph fingerprint: node count
//     i64  fp_nnz           graph fingerprint: transition nnz
//     u64  fp_content_hash  graph fingerprint: FNV-1a 64 of the CSR arrays
//     u64  reserved         0
//     u64  header_checksum  FNV-1a 64 over the 80 bytes above
//   then section_count sections, in the fixed order U, SIGMA, V, P, Z:
//     u32  section_id       1=U, 2=SIGMA, 3=V, 4=P, 5=Z
//     u32  reserved         0
//     u64  payload_bytes    must equal the size implied by (n, r)
//     u64  payload_checksum FNV-1a 64 over the payload
//     pad                   v2 only: zero bytes until the next 64-byte file
//                           offset boundary, so every payload starts
//                           64-byte-aligned (deterministic from the offset;
//                           non-zero pad bytes are DataLoss)
//     payload               row-major doubles (U/V/Z: n x r; P: r x r;
//                           SIGMA: r values)
//   then an optional 32-byte version trailer (absent in artifacts written
//   before the trailer existed; written by every current build):
//     u64  trailer_magic    "CSR+VT01" (0x313054562B525343 as LE u64)
//     u64  builder_version  PackedVersion() of the writing build
//     u64  reserved         0
//     u64  trailer_checksum FNV-1a 64 over the 24 bytes above
//   EOF directly after section Z means "no trailer" (legacy artifact);
//   any other trailing byte count, or a trailer with a bad magic or
//   checksum, is DataLoss.
//
// Version 1 is identical except that sections carry no alignment padding
// (payloads start directly after their descriptor, 8-byte-aligned). The
// loader reads both versions in both load modes; the 64-byte alignment of
// v2 exists so mmap'ed payloads sit on cache-line (and AVX-512 vector)
// boundaries.
//
// Every read-path failure returns a typed Status and never a
// partially-initialised engine:
//   IOError            — cannot open / unreadable file
//   InvalidArgument    — not an artifact at all (bad magic)
//   FailedPrecondition — format version newer than this build, or the
//                        artifact's fingerprint does not match the graph
//                        being served
//   DataLoss           — empty/truncated file, checksum mismatch,
//                        malformed or out-of-range header/section fields
//   ResourceExhausted  — the decoded state would exceed the memory budget

#ifndef CSRPLUS_CORE_PRECOMPUTE_IO_H_
#define CSRPLUS_CORE_PRECOMPUTE_IO_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/csrplus_engine.h"

namespace csrplus::core::precompute_io {

/// Artifact magic: the bytes "CSR+PC01" read as a little-endian u64.
inline constexpr uint64_t kMagic = 0x313043502B525343ULL;

/// Version-trailer magic: the bytes "CSR+VT01" read as a little-endian u64.
inline constexpr uint64_t kTrailerMagic = 0x313054562B525343ULL;

/// Current format version (v2: 64-byte-aligned section payloads). Bump on
/// any layout change and keep a loader for every older version; the
/// golden-artifact test in tests/precompute_io_test.cc (a pinned v1 file)
/// exists to make silent changes impossible.
inline constexpr uint32_t kFormatVersion = 2;

/// File-offset alignment of every v2 section payload. 64 covers cache
/// lines and the widest vector loads the SIMD kernels issue.
inline constexpr int64_t kSectionAlignment = 64;

/// Zero-pad bytes between a section descriptor ending at `offset` and its
/// payload, for the given format version (0 for v1).
inline int64_t SectionPadBytes(uint32_t version, int64_t offset) {
  if (version < 2) return 0;
  return (kSectionAlignment - offset % kSectionAlignment) % kSectionAlignment;
}

/// Section identifiers, in their mandatory file order.
enum SectionId : uint32_t {
  kSectionU = 1,
  kSectionSigma = 2,
  kSectionV = 3,
  kSectionP = 4,
  kSectionZ = 5,
};
inline constexpr uint32_t kSectionCount = 5;

/// FNV-1a 64 running hash over a byte range (the artifact checksum).
/// Seed the first call with kFnvOffsetBasis and chain the result.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline uint64_t FnvHash(uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Bytes of engine state retained after precompute (U, Sigma, V, P, Z).
/// Charged against the memory budget identically by the compute path
/// (PrecomputeFromPaperFactors) and the load path (LoadPrecompute), so warm
/// and cold starts fail the same way near the cap.
inline int64_t EngineStateBytes(Index n, Index r) {
  const int64_t nr = n * r * static_cast<int64_t>(sizeof(double));
  const int64_t rr = r * r * static_cast<int64_t>(sizeof(double));
  const int64_t sigma = r * static_cast<int64_t>(sizeof(double));
  return 3 * nr + rr + sigma;  // U + V + Z, plus P, plus sigma
}

/// Decoded artifact header, for tooling ("csrplus artifact-info") and
/// tests. Reading an info runs the loaders' structural walk (header,
/// section descriptors, padding, trailer) but checks no payload checksum.
struct ArtifactInfo {
  uint32_t version = 0;
  Index rank = 0;
  Index num_nodes = 0;
  double damping = 0.0;
  double epsilon = 0.0;
  GraphFingerprint fingerprint;
  int64_t file_bytes = 0;
  /// PackedVersion() of the build that wrote the artifact, recovered from
  /// the version trailer; 0 for legacy artifacts written before the trailer
  /// existed.
  uint64_t builder_version = 0;
};

/// Validates the structure of the artifact at `path` and decodes its
/// header.
Result<ArtifactInfo> ReadArtifactInfo(const std::string& path);

}  // namespace csrplus::core::precompute_io

#endif  // CSRPLUS_CORE_PRECOMPUTE_IO_H_
