// RAII mmap wrapper for .cspc precompute artifacts.
//
// Every artifact read opens the file through an ArtifactMapping: the one
// artifact parser (precompute_io.cc) walks the header and section table in
// place, for heap loads, mapped loads and ReadArtifactInfo alike. It owns a
// read-only, MAP_SHARED mapping of the file plus the file descriptor behind
// it. A heap load reads the payloads into owning buffers with ReadAt() and
// drops the mapping; a mapped load keeps it, so a CsrPlusEngine can serve
// factor sections zero-copy straight out of the page cache: warm start is
// O(1) instead of O(rn) copying, and factors larger than RAM page in on
// demand. MAP_SHARED (not PRIVATE) keeps later writes to the file visible
// through the mapping, which is what lets the lazy checksum pass detect
// post-map corruption; the retained fd lets CheckNotTruncated() probe the
// current file size without touching pages (a truncated-under-us artifact
// raises SIGBUS on access, so the probe runs *before* any payload read).
// Unlinking the file after a successful map is harmless — POSIX keeps the
// inode alive until the mapping is gone.
//
// Section checksums of a mapped load are verified lazily: Open() validates
// nothing beyond the mmap itself; the loader records the artifact's section
// table via SetSections(), and StartBackgroundVerify() checksums every
// section on a background thread (the thread is joined in the destructor,
// and Verify()/verification_status() are safe from any thread).

#ifndef CSRPLUS_CORE_ARTIFACT_MAPPING_H_
#define CSRPLUS_CORE_ARTIFACT_MAPPING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace csrplus::core {

class ArtifactMapping {
 public:
  /// One checksummed byte range inside the mapping (a section payload).
  struct Section {
    std::string name;        ///< "U", "Sigma", ... (for error messages).
    int64_t offset = 0;      ///< byte offset of the payload in the file.
    int64_t bytes = 0;       ///< payload length.
    uint64_t checksum = 0;   ///< expected FNV-1a 64 of the payload.
  };

  /// Paging hint for a byte range (forwarded to madvise).
  enum class Advice {
    kNormal,      ///< default readahead.
    kRandom,      ///< row-gather access (query columns of U).
    kSequential,  ///< full streaming scans.
    kWillNeed,    ///< prefetch now (factors streamed on every query).
    kDontNeed,    ///< drop from this process's RSS (the page cache keeps
                  ///< them; a later touch faults them back in).
  };

  /// Opens `path` read-only and maps the whole file (PROT_READ, MAP_SHARED).
  /// IOError when the file cannot be opened/mapped; DataLoss when it is
  /// empty (nothing to map).
  static Result<std::shared_ptr<ArtifactMapping>> Open(const std::string& path);

  /// Unmaps, joins the verifier thread (if running) and closes the fd.
  ~ArtifactMapping();

  ArtifactMapping(const ArtifactMapping&) = delete;
  ArtifactMapping& operator=(const ArtifactMapping&) = delete;

  /// Base of the mapping / mapped length / originating path.
  const unsigned char* data() const { return data_; }
  int64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Applies a paging hint to [offset, offset + length). Best-effort: an
  /// madvise failure is not an error worth surfacing (the kernel rounds the
  /// range itself; EINVAL on exotic filesystems just means "no hint").
  void Advise(int64_t offset, int64_t length, Advice advice) const;

  /// Copies bytes [offset, offset + bytes) of the file into `out` with
  /// pread rather than through the mapping, so the pages never count toward
  /// this process's resident set. DataLoss when the file ends early.
  Status ReadAt(int64_t offset, int64_t bytes, void* out) const;

  /// DataLoss if the file has been truncated below the mapped length since
  /// Open() — the SIGBUS-safe probe that must precede any payload read once
  /// the artifact could have been rewritten underneath us.
  Status CheckNotTruncated() const;

  /// Records the artifact's checksummed section table. Must be called (by
  /// the loader) before StartBackgroundVerify or Verify; not thread-safe
  /// against either.
  void SetSections(std::vector<Section> sections);

  /// Starts the lazy verification pass over the recorded sections on a
  /// background thread. Call at most once. The thread re-probes truncation
  /// first, then checksums each section; the result is owned by this
  /// mapping.
  void StartBackgroundVerify();

  /// Blocks until verification has finished — joining the background thread
  /// when one is running, checksumming inline otherwise — and returns the
  /// (memoised) result. Safe to call from multiple threads; idempotent.
  Status Verify();

  /// Non-blocking peek at the verification result: OK while the pass is
  /// still running or was never started, the sticky error once one is found.
  Status verification_status() const;

 private:
  ArtifactMapping() = default;

  // Runs on verifier_; also callable inline by Verify() fallback paths.
  Status VerifySections() const;

  std::string path_;
  int fd_ = -1;
  const unsigned char* data_ = nullptr;
  int64_t size_ = 0;
  std::vector<Section> sections_;  // immutable after SetSections

  std::thread verifier_;
  std::mutex join_mu_;            // serialises Verify() callers around join
  mutable std::mutex mu_;
  bool verify_started_ = false;   // guarded by mu_
  bool verify_done_ = false;      // guarded by mu_
  Status verify_status_;          // guarded by mu_
};

}  // namespace csrplus::core

#endif  // CSRPLUS_CORE_ARTIFACT_MAPPING_H_
