// Bit-identity of pattern tables through their artifact bytes.
//
// The artifact (serve/artifact.h) holds every column of a table: items,
// tallies, all four stats as raw doubles, subset links (kNoLink holes
// included), catalog, dataset row count and the global Beta stats. Two
// tables are bit-identical exactly when their artifact bytes are equal,
// so the differential harnesses compare these strings.
#ifndef DIVEXP_TESTS_TESTING_ARTIFACT_BYTES_H_
#define DIVEXP_TESTS_TESTING_ARTIFACT_BYTES_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/pattern.h"
#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "util/status.h"

namespace divexp {
namespace testing {

/// Writes `table` as an artifact on `num_threads` workers to a
/// per-process temp file named after `leaf`, reads the bytes back and
/// removes the file. A table the writer rejects (for example one not in
/// canonical order) fails the calling test through DIVEXP_CHECK.
inline std::string WriteArtifactBytes(const PatternTable& table,
                                      const std::string& leaf = "table",
                                      size_t num_threads = 1) {
  const char* base = std::getenv("TMPDIR");
  const std::string path =
      std::string(base != nullptr && base[0] != '\0' ? base : "/tmp") +
      "/divexp_artifact_bytes." + std::to_string(::getpid()) + "." + leaf +
      ".dvt";
  DIVEXP_CHECK_OK(
      serve::WritePatternTableArtifact(path, table, nullptr, num_threads));
  auto bytes = recovery::ReadFileToString(path);
  DIVEXP_CHECK_OK(bytes.status());
  std::remove(path.c_str());
  return std::move(bytes).value();
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_ARTIFACT_BYTES_H_
