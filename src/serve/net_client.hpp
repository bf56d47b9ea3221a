// Client side of the wire protocol: a blocking, line-buffered TCP
// connection plus the deterministic multi-connection replay driver.
//
// replay_over_network() re-sends a parsed request stream over N concurrent
// connections and reassembles the responses into original request order, so
// the resulting transcript can be cmp'd bit-for-bit against the in-process
// `specmatch_cli serve FILE` path (the serve_net_smoke contract). The rules
// that make the reassembled transcript deterministic:
//
//   * all requests of one market ride one connection (assigned round-robin
//     by first appearance), preserving per-market order — the only order
//     response content depends on;
//   * `create`, `stats`, and `restore` are client-side barriers (every
//     earlier request must be answered first; `create` additionally
//     completes before anything later is dispatched), because their
//     responses read global registry state (market count, resident bytes,
//     evictions, spill/fault counters);
//   * per-connection, the server answers in request order (its seq-ordered
//     session contract), so responses need no tags to be re-attributed.
//
// See docs/PROTOCOL.md ("Determinism over connections").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace specmatch::serve {

/// A blocking loopback TCP connection with buffered line reads. Move-only;
/// closes on destruction.
class ClientConnection {
 public:
  ClientConnection() = default;
  ~ClientConnection();

  ClientConnection(ClientConnection&& other) noexcept;
  ClientConnection& operator=(ClientConnection&& other) noexcept;
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Connects to 127.0.0.1:port; throws CheckError on failure. The error
  /// names the target address and the attempt count
  /// ("connect(127.0.0.1:PORT): ... (after 1 attempt)").
  static ClientConnection connect_loopback(int port);

  bool connected() const { return fd_ >= 0; }

  /// Writes all of `bytes` (throws CheckError on a dead peer).
  void send_all(const std::string& bytes);

  /// Next newline-terminated line, without the newline. False on clean EOF
  /// with no buffered partial line; throws CheckError on a mid-line EOF or
  /// receive error.
  bool read_line(std::string& line);

  /// Half-close: no more requests will be sent; the server flushes every
  /// pending response and then closes.
  void half_close();

  void close();

 private:
  int fd_ = -1;
  std::string buf_;
};

struct ReplayResult {
  /// One response line per request, in original request order.
  std::vector<std::string> transcript;
  std::int64_t bytes_sent = 0;
};

/// Replays `requests` over `conns` concurrent connections to
/// 127.0.0.1:port per the determinism rules above. Throws CheckError if the
/// server closes a connection early or answers with a protocol-fatal
/// (`err!`) line.
ReplayResult replay_over_network(int port, const std::vector<Request>& requests,
                                 int conns);

}  // namespace specmatch::serve
