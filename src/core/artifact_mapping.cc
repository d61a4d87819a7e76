#include "core/artifact_mapping.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/precompute_io.h"
#include "obs/stats.h"

namespace csrplus::core {

Result<std::shared_ptr<ArtifactMapping>> ArtifactMapping::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot stat " + path + ": " + err);
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::DataLoss(path + ": artifact file is empty");
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                      PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot mmap " + path + ": " + err);
  }
  // The constructor is private; hand the members over directly.
  auto mapping = std::shared_ptr<ArtifactMapping>(new ArtifactMapping());
  mapping->path_ = path;
  mapping->fd_ = fd;
  mapping->data_ = static_cast<const unsigned char*>(base);
  mapping->size_ = static_cast<int64_t>(st.st_size);
  return mapping;
}

ArtifactMapping::~ArtifactMapping() {
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    if (verifier_.joinable()) verifier_.join();
  }
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_),
             static_cast<std::size_t>(size_));
  }
  if (fd_ >= 0) ::close(fd_);
}

void ArtifactMapping::Advise(int64_t offset, int64_t length,
                             Advice advice) const {
  if (length <= 0 || offset < 0 || offset >= size_) return;
  // madvise wants a page-aligned start; round the range outward.
  const int64_t page = static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
  const int64_t begin = (offset / page) * page;
  const int64_t end = std::min(offset + length, size_);
  int hint = MADV_NORMAL;
  switch (advice) {
    case Advice::kNormal: hint = MADV_NORMAL; break;
    case Advice::kRandom: hint = MADV_RANDOM; break;
    case Advice::kSequential: hint = MADV_SEQUENTIAL; break;
    case Advice::kWillNeed: hint = MADV_WILLNEED; break;
    case Advice::kDontNeed: hint = MADV_DONTNEED; break;
  }
  // Best-effort by contract; some filesystems reject hints they can't use.
  (void)::madvise(const_cast<unsigned char*>(data_) + begin,
                  static_cast<std::size_t>(end - begin), hint);
}

Status ArtifactMapping::ReadAt(int64_t offset, int64_t bytes,
                               void* out) const {
  auto* dst = static_cast<unsigned char*>(out);
  while (bytes > 0) {
    const ssize_t got = ::pread(fd_, dst, static_cast<std::size_t>(bytes),
                                static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return Status::IOError("cannot read " + path_ + ": " +
                             std::strerror(errno));
    }
    if (got == 0) {
      return Status::DataLoss(path_ + ": artifact truncated while reading");
    }
    dst += got;
    offset += got;
    bytes -= got;
  }
  return Status::OK();
}

Status ArtifactMapping::CheckNotTruncated() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("cannot stat mapped artifact " + path_ + ": " +
                           std::strerror(errno));
  }
  if (static_cast<int64_t>(st.st_size) < size_) {
    return Status::DataLoss(
        path_ + ": artifact truncated after mapping (file is now " +
        std::to_string(st.st_size) + " bytes, mapped " +
        std::to_string(size_) + "); reads past EOF would fault");
  }
  return Status::OK();
}

Status ArtifactMapping::VerifySections() const {
  // Truncation first: checksumming a shrunk file would SIGBUS, the fstat
  // probe never touches a page.
  CSR_RETURN_IF_ERROR(CheckNotTruncated());
  for (const Section& s : sections_) {
    if (s.offset < 0 || s.bytes < 0 || s.offset + s.bytes > size_) {
      return Status::DataLoss(path_ + ": section " + s.name +
                              " lies outside the mapped file");
    }
    const uint64_t got =
        precompute_io::FnvHash(precompute_io::kFnvOffsetBasis,
                               data_ + s.offset,
                               static_cast<std::size_t>(s.bytes));
    if (got != s.checksum) {
      return Status::DataLoss(path_ + ": checksum mismatch in section " +
                              s.name);
    }
  }
  return Status::OK();
}

void ArtifactMapping::SetSections(std::vector<Section> sections) {
  sections_ = std::move(sections);
}

void ArtifactMapping::StartBackgroundVerify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CSR_CHECK(!verify_started_) << "StartBackgroundVerify called twice";
    verify_started_ = true;
  }
  verifier_ = std::thread([this]() {
    Status status = VerifySections();
    if (!status.ok()) {
      CSRPLUS_OBS_COUNTER_ADD(
          "csrplus.artifact.verify_failures", "calls",
          "background verification passes that found corruption", 1);
    }
    std::lock_guard<std::mutex> lock(mu_);
    verify_status_ = std::move(status);
    verify_done_ = true;
  });
}

Status ArtifactMapping::Verify() {
  // One caller at a time past here: the first joins (or checksums inline)
  // and memoises; later callers return the memoised verdict.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (verifier_.joinable()) verifier_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (verify_done_) return verify_status_;
  }
  Status status = VerifySections();
  std::lock_guard<std::mutex> lock(mu_);
  verify_status_ = std::move(status);
  verify_done_ = true;
  return verify_status_;
}

Status ArtifactMapping::verification_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verify_status_;
}

}  // namespace csrplus::core
