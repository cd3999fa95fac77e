#include "recovery/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/failpoint.h"

namespace divexp {
namespace recovery {
namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " '" + path + "': " + std::strerror(errno);
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync the directory containing `path` so a rename into it is
/// durable. Best-effort on filesystems that reject directory fds.
void SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

class TempFileGuard {
 public:
  explicit TempFileGuard(std::string path) : path_(std::move(path)) {}
  ~TempFileGuard() {
    if (!path_.empty()) ::unlink(path_.c_str());
  }
  void Release() { path_.clear(); }

 private:
  std::string path_;
};

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  DIVEXP_FAILPOINT_STATUS("io.atomic.begin");
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(Errno("open", tmp));
  }
  TempFileGuard guard(tmp);

  size_t written = 0;
  const size_t midpoint = contents.size() / 2;
  while (written < contents.size()) {
#if defined(DIVEXP_FAILPOINTS_ENABLED)
    // Simulated mid-write death: half the payload is on disk, then the
    // process aborts (or the write errors out). Either way the
    // destination must be left untouched.
    if (written >= midpoint && written > 0 &&
        FailPointRegistry::Default().armed()) {
      const Status fp_status =
          FailPointRegistry::Default().Hit("io.atomic.mid_write");
      if (!fp_status.ok()) {
        ::close(fd);
        return fp_status;
      }
    }
#endif
    size_t chunk = contents.size() - written;
#if defined(DIVEXP_FAILPOINTS_ENABLED)
    // Stop the first write at the midpoint so the mid_write failpoint
    // above observes a genuinely half-written temp file.
    if (written < midpoint) chunk = midpoint - written;
    // Simulated ENOSPC: the kernel accepts the open but the write
    // itself fails (or makes no progress).
    if (FailPointRegistry::Default().armed()) {
      const Status fp_status =
          FailPointRegistry::Default().Hit("io.atomic.write_fail");
      if (!fp_status.ok()) {
        ::close(fd);
        return Status::IOError("write '" + tmp +
                               "': " + fp_status.message());
      }
    }
#endif
    const ssize_t n = ::write(fd, contents.data() + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(Errno("write", tmp));
      ::close(fd);
      return status;
    }
    if (n == 0) {
      // A zero-byte write with a non-zero request means the device can
      // make no progress (full disk / quota). Without this check the
      // loop would spin forever instead of failing cleanly.
      ::close(fd);
      return Status::IOError("write '" + tmp +
                             "': short write, no progress (device full?)");
    }
    written += static_cast<size_t>(n);
  }

  if (::fsync(fd) != 0) {
    const Status status = Status::IOError(Errno("fsync", tmp));
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) {
    return Status::IOError(Errno("close", tmp));
  }
  DIVEXP_FAILPOINT_STATUS("io.atomic.before_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError(Errno("rename", tmp + " -> " + path));
  }
  guard.Release();
  SyncDirectory(DirName(path));
  return Status::OK();
}

Result<std::unique_ptr<AtomicFileWriter>> AtomicFileWriter::Create(
    const std::string& path) {
  DIVEXP_FAILPOINT_STATUS("io.atomic.begin");
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(Errno("open", tmp));
  }
  return std::unique_ptr<AtomicFileWriter>(
      new AtomicFileWriter(path, std::move(tmp), fd));
}

AtomicFileWriter::~AtomicFileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!committed_ && dead_.ok()) ::unlink(tmp_.c_str());
}

Status AtomicFileWriter::Fail(Status status) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ::unlink(tmp_.c_str());
  dead_ = status;
  return dead_;
}

Status AtomicFileWriter::Append(std::string_view chunk) {
  if (!dead_.ok()) return dead_;
  if (fd_ < 0) {
    return Status::Internal("AtomicFileWriter used after Commit");
  }
  size_t written = 0;
  while (written < chunk.size()) {
#if defined(DIVEXP_FAILPOINTS_ENABLED)
    // Mirror WriteFileAtomic's injection points: mid_write simulates
    // death with part of the stream on disk (never before the first
    // chunk, so the temp file is genuinely partial), write_fail
    // simulates ENOSPC on the write itself.
    if (FailPointRegistry::Default().armed()) {
      if (appended_ > 0 || written > 0) {
        const Status fp_status =
            FailPointRegistry::Default().Hit("io.atomic.mid_write");
        if (!fp_status.ok()) return Fail(fp_status);
      }
      const Status fp_status =
          FailPointRegistry::Default().Hit("io.atomic.write_fail");
      if (!fp_status.ok()) {
        return Fail(Status::IOError("write '" + tmp_ +
                                    "': " + fp_status.message()));
      }
    }
#endif
    const ssize_t n = ::write(fd_, chunk.data() + written,
                              chunk.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail(Status::IOError(Errno("write", tmp_)));
    }
    if (n == 0) {
      return Fail(Status::IOError(
          "write '" + tmp_ + "': short write, no progress (device full?)"));
    }
    written += static_cast<size_t>(n);
  }
  appended_ += chunk.size();
#if defined(__linux__)
  // Start the disk on what is already appended, so Commit's fsync waits
  // only for the tail instead of the whole file. Advisory: a failure here
  // resurfaces at the fsync.
  if (appended_ - writeback_from_ >= kWritebackBytes) {
    ::sync_file_range(fd_, static_cast<off_t>(writeback_from_),
                      static_cast<off_t>(appended_ - writeback_from_),
                      SYNC_FILE_RANGE_WRITE);
    writeback_from_ = appended_;
  }
#endif
  return Status::OK();
}

Status AtomicFileWriter::WriteAt(uint64_t offset, std::string_view bytes) {
  if (!dead_.ok()) return dead_;
  if (fd_ < 0) {
    return Status::Internal("AtomicFileWriter used after Commit");
  }
  if (offset + bytes.size() > appended_) {
    return Status::OutOfRange(
        "WriteAt patch [" + std::to_string(offset) + ", " +
        std::to_string(offset + bytes.size()) + ") extends past the " +
        std::to_string(appended_) + " appended bytes");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd_, bytes.data() + written, bytes.size() - written,
                 static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail(Status::IOError(Errno("pwrite", tmp_)));
    }
    if (n == 0) {
      return Fail(Status::IOError(
          "pwrite '" + tmp_ + "': short write, no progress (device full?)"));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (!dead_.ok()) return dead_;
  if (fd_ < 0) {
    return Status::Internal("AtomicFileWriter used after Commit");
  }
  if (::fsync(fd_) != 0) {
    return Fail(Status::IOError(Errno("fsync", tmp_)));
  }
  if (::close(fd_) != 0) {
    const Status status = Status::IOError(Errno("close", tmp_));
    fd_ = -1;
    return Fail(status);
  }
  fd_ = -1;
#if defined(DIVEXP_FAILPOINTS_ENABLED)
  if (FailPointRegistry::Default().armed()) {
    const Status fp_status =
        FailPointRegistry::Default().Hit("io.atomic.before_rename");
    if (!fp_status.ok()) return Fail(fp_status);
  }
#endif
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return Fail(Status::IOError(Errno("rename", tmp_ + " -> " + path_)));
  }
  committed_ = true;
  SyncDirectory(DirName(path_));
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  DIVEXP_FAILPOINT_STATUS("io.atomic.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read '" + path + "' failed");
  }
  return std::move(buffer).str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("empty directory path");
  }
  // Create each path component in turn (mkdir -p).
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos < path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(Errno("mkdir", prefix));
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("'" + path + "' is not a directory");
  }
  return Status::OK();
}

}  // namespace recovery
}  // namespace divexp
