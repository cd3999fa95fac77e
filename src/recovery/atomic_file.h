// Crash-safe file replacement: write-temp / fsync / rename.
//
// WriteFileAtomic() guarantees that after any crash (including one
// injected mid-write via the io.atomic.mid_write failpoint) the
// destination path holds either its previous contents or the complete
// new contents — never a torn mix. The temp file lives in the same
// directory as the destination so the rename is atomic within one
// filesystem; the directory itself is fsync'd after the rename so the
// new directory entry is durable.
#ifndef DIVEXP_RECOVERY_ATOMIC_FILE_H_
#define DIVEXP_RECOVERY_ATOMIC_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace divexp {
namespace recovery {

/// Atomically replaces `path` with `contents`. On any error the temp
/// file is unlinked and the destination is untouched.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Streaming counterpart of WriteFileAtomic. The caller appends the
/// contents in chunks (peak memory O(chunk), not O(file)) and may patch
/// earlier bytes — a fixed-size header whose size/checksum fields are
/// only known once the payload has streamed past. Commit() performs the
/// fsync / rename / directory-sync choreography; until then the
/// destination is untouched, and on destruction without Commit() the
/// temp file is unlinked. Same crash contract as WriteFileAtomic: the
/// destination holds either its previous contents or the complete new
/// contents, never a torn mix. Every 8 MiB appended, the writer asks
/// the kernel to start writing that range back (Linux), so Commit's
/// fsync does not wait for the whole file.
///
/// Not thread-safe; one writer streams one file.
class AtomicFileWriter {
 public:
  /// Opens a temp file next to `path`. Fires io.atomic.begin.
  static Result<std::unique_ptr<AtomicFileWriter>> Create(
      const std::string& path);

  /// Unlinks the temp file if Commit() was never reached.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Appends `chunk` at the current end of the temp file. Fires the
  /// io.atomic.write_fail / io.atomic.mid_write points like
  /// WriteFileAtomic's write loop. After any error the writer is dead:
  /// the temp file is unlinked and further calls fail cleanly.
  Status Append(std::string_view chunk);

  /// Overwrites `bytes` at `offset`, which must lie entirely within the
  /// appended range (this patches a placeholder header; it never
  /// extends the file).
  Status WriteAt(uint64_t offset, std::string_view bytes);

  /// fsync + close + rename over the destination + directory sync.
  /// Fires io.atomic.before_rename. The writer is dead afterwards,
  /// success or not.
  Status Commit();

  /// Total bytes appended so far.
  uint64_t bytes_appended() const { return appended_; }

 private:
  AtomicFileWriter(std::string path, std::string tmp, int fd)
      : path_(std::move(path)), tmp_(std::move(tmp)), fd_(fd) {}

  /// Closes the fd, unlinks the temp file, and remembers `status` so
  /// every later call reports the original failure.
  Status Fail(Status status);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  /// Appended bytes between two early-writeback requests.
  static constexpr uint64_t kWritebackBytes = uint64_t{8} << 20;

  uint64_t appended_ = 0;
  uint64_t writeback_from_ = 0;  ///< start of the not-yet-requested range
  Status dead_;  ///< first failure; writer unusable once non-OK
  bool committed_ = false;
};

/// Reads the whole file into a string. NotFound if it does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// True if `path` exists (any file type).
bool FileExists(const std::string& path);

/// Creates `path` (and missing parents) as a directory; OK if it
/// already exists as one.
Status EnsureDirectory(const std::string& path);

}  // namespace recovery
}  // namespace divexp

#endif  // DIVEXP_RECOVERY_ATOMIC_FILE_H_
