// NetServer: the TCP front-end of the MatchServer.
//
// A single poll(2) event loop owns the listening socket, every connection,
// and all socket I/O; requests are parsed out of per-connection byte
// buffers by the very same RequestReader the file replay path uses and
// submitted to the MatchServer, whose drain lanes answer through a
// thread-safe completion queue that wakes the loop via a self-pipe. Each
// connection is a session: requests are numbered in arrival order
// (per-connection seq) and responses are re-sequenced into exactly that
// order before any byte is written back, so a client always reads one
// response line per request line, in order, no matter which drain lane
// finished first.
//
// Backpressure (docs/PROTOCOL.md): under ServeConfig::Overflow::kBlock the
// loop stops *reading* a connection while the admission queue is full or
// the connection's in-flight window is exhausted — the client experiences
// TCP flow control, and the event loop never parks inside submit(). Under
// kReject, overflow is answered inline with an `err <verb> <id>: shed`
// response in the connection's ordinary response sequence.
//
// Shutdown (SIGTERM/SIGINT via install_signal_handlers, or
// request_shutdown from any thread) drains gracefully: stop accepting,
// finish parsing whatever complete frames are already buffered, answer
// every admitted request, flush every socket, then close — bounded by
// NetConfig::drain_timeout_ms. See docs/PROTOCOL.md for the wire grammar
// and docs/SERVING.md for the deployment story.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace specmatch::serve {

struct NetConfig {
  /// TCP port to bind on the loopback interface; 0 picks an ephemeral port
  /// (listen() returns the choice — how tests and the smoke script find it).
  int port = 0;
  /// listen(2) backlog. Default: SPECMATCH_SERVE_LISTEN_BACKLOG (128).
  int backlog = 128;
  /// Concurrent-connection cap; an accept beyond it is answered with a
  /// single `err! server at connection limit` line and closed. Default:
  /// SPECMATCH_SERVE_MAX_CONNS (1024).
  int max_conns = 1024;
  /// Per-connection in-flight request window: the loop stops reading a
  /// connection with this many unanswered requests. Default:
  /// SPECMATCH_SERVE_CONN_WINDOW (64).
  int conn_window = 64;
  /// Graceful-drain budget: how long shutdown waits for in-flight batches
  /// to finish and sockets to flush before force-closing. Default:
  /// SPECMATCH_SERVE_DRAIN_MS (5000).
  int drain_timeout_ms = 5000;
  /// Longest tolerated request line (a frame with no newline beyond this is
  /// a protocol error). Default: SPECMATCH_SERVE_MAX_LINE (1 MiB).
  std::size_t max_line_bytes = std::size_t{1} << 20;

  /// Defaults with the SPECMATCH_SERVE_* environment overrides applied.
  static NetConfig from_env();
};

/// Totals over the life of one run(); exact once run() has returned.
struct NetStats {
  std::int64_t accepted = 0;         ///< connections accepted
  std::int64_t rejected = 0;         ///< accepts refused at max_conns
  std::int64_t closed = 0;           ///< connections fully closed
  std::int64_t requests = 0;         ///< frames parsed and submitted
  std::int64_t responses = 0;        ///< response lines written back
  std::int64_t shed_inline = 0;      ///< kReject overflow answered inline
  std::int64_t protocol_errors = 0;  ///< fatal frames (connection killed)
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
};

class NetServer {
 public:
  /// Serves `server` over TCP. The server outlives the NetServer; the
  /// NetServer never creates or destroys it (several front-ends could share
  /// one engine).
  NetServer(MatchServer& server, NetConfig config = NetConfig::from_env());
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens on 127.0.0.1:config.port; returns the bound port
  /// (the ephemeral choice when config.port == 0). Throws CheckError on
  /// bind/listen failure. Must be called exactly once, before run().
  int listen_on_loopback();

  /// The bound port; valid after listen_on_loopback().
  int port() const { return port_; }

  /// The event loop: accepts, reads, parses, submits, writes. Returns only
  /// after a requested shutdown has drained (or hit drain_timeout_ms).
  void run();

  /// Begins graceful drain; safe from any thread and from signal handlers
  /// (atomic store + self-pipe write only).
  void request_shutdown();

  /// Routes SIGTERM/SIGINT to request_shutdown() of this instance (at most
  /// one NetServer per process may install handlers). SIGPIPE is ignored
  /// process-wide — socket write errors are handled at the call site.
  void install_signal_handlers();

  /// Totals so far; exact after run() returns.
  NetStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;        ///< unconsumed request bytes
    int lines_consumed = 0;   ///< absolute line counter for error messages
    std::uint64_t submitted = 0;  ///< per-connection seq of the next request
    std::uint64_t answered = 0;   ///< responses moved to outbuf so far
    /// Out-of-order completions parked until every earlier seq has landed.
    std::map<std::uint64_t, std::string> reorder;
    std::string outbuf;
    std::size_t out_offset = 0;
    bool read_eof = false;  ///< peer half-closed (or drain stopped reads)
    bool fatal = false;     ///< protocol error: flush outbuf, then close
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string text;
  };

  void accept_ready();
  void read_ready(Connection& conn);
  void write_ready(Connection& conn);
  /// Parses every complete frame in conn.inbuf (respecting flow control)
  /// and submits it; sets conn.fatal on malformed input.
  void parse_available(Connection& conn);
  /// Queues `text` as the response to (conn, seq) and advances the
  /// in-order prefix into conn.outbuf.
  void deliver(Connection& conn, std::uint64_t seq, const std::string& text);
  void fatal_error(Connection& conn, const std::string& detail);
  void close_connection(std::uint64_t id);
  /// True when nothing remains to read, answer, or flush on `conn`.
  bool drained(const Connection& conn) const;
  void drain_completions();
  bool wants_read(const Connection& conn) const;
  void wake();

  MatchServer& match_;
  NetConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::uint64_t next_conn_id_ = 1;  // 0 is the fixed-pollfd sentinel
  std::map<std::uint64_t, Connection> conns_;
  NetStats stats_;

  std::atomic<bool> shutdown_{false};
  bool draining_ = false;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;
};

}  // namespace specmatch::serve
