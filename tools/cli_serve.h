// `divexp serve` — interactive/daemon front end over a pattern-table
// artifact. Kept separate from main() so it can be unit
// tested against in-memory streams.
#ifndef DIVEXP_TOOLS_CLI_SERVE_H_
#define DIVEXP_TOOLS_CLI_SERVE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/status.h"

namespace divexp {
namespace cli {

/// Parsed `divexp serve` configuration.
struct ServeOptions {
  /// Artifact (.dvt) path, as written by `divexp --save-artifact`.
  std::string table_path;
  /// Unix socket to listen on; empty = REPL on stdin/stdout.
  std::string socket_path;
  size_t num_threads = 4;
  /// Full artifact validation (every section CRC + fingerprint) before
  /// serving, instead of the default O(1) header validation.
  bool verify = false;
  serve::QueryServiceOptions service;
  /// Socket-daemon knobs (per-connection idle deadline).
  serve::SocketServerOptions socket;
  bool show_help = false;
};

/// Parses argv after the `serve` verb.
Result<ServeOptions> ParseServeOptions(const std::vector<std::string>& args);

/// Usage text for `divexp serve`.
std::string ServeUsageString();

/// Runs the REPL (no --socket) or the socket daemon (--socket; serves
/// until `in` reaches EOF, or — when `in` is the real stdin — until
/// SIGTERM/SIGINT arrives, observed through a self-pipe so the handler
/// stays async-signal-safe). Shutdown drains in-flight responses
/// before the listener closes. Returns after the server has shut down.
Status RunServe(const ServeOptions& opts, std::istream& in,
                std::ostream& out, std::ostream& log);

}  // namespace cli
}  // namespace divexp

#endif  // DIVEXP_TOOLS_CLI_SERVE_H_
