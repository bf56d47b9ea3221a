#include "serve/net_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "serve/protocol.hpp"

namespace specmatch::serve {

namespace {

std::atomic<NetServer*> g_signal_target{nullptr};

extern "C" void netserver_on_signal(int /*signum*/) {
  // Async-signal-safe by construction: request_shutdown only stores an
  // atomic flag and write(2)s one byte into the self-pipe.
  if (NetServer* target = g_signal_target.load(std::memory_order_acquire))
    target->request_shutdown();
}

}  // namespace

NetConfig NetConfig::from_env() {
  NetConfig config;
  config.backlog = env_count("SPECMATCH_SERVE_LISTEN_BACKLOG", 1, 128);
  config.max_conns = env_count("SPECMATCH_SERVE_MAX_CONNS", 1, 1024);
  config.conn_window = env_count("SPECMATCH_SERVE_CONN_WINDOW", 1, 64);
  config.drain_timeout_ms = env_count("SPECMATCH_SERVE_DRAIN_MS", 1, 5000);
  config.max_line_bytes = static_cast<std::size_t>(
      env_count("SPECMATCH_SERVE_MAX_LINE", 1, 1 << 20));
  return config;
}

NetServer::NetServer(MatchServer& server, NetConfig config)
    : match_(server), config_(config) {
  config_.backlog = std::max(1, config_.backlog);
  config_.max_conns = std::max(1, config_.max_conns);
  config_.conn_window = std::max(1, config_.conn_window);
  config_.max_line_bytes = std::max<std::size_t>(64, config_.max_line_bytes);
  SPECMATCH_CHECK_MSG(::pipe(wake_pipe_) == 0,
                      "NetServer: pipe(2) failed: " << std::strerror(errno));
  for (const int fd : wake_pipe_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
}

NetServer::~NetServer() {
  NetServer* self = this;
  g_signal_target.compare_exchange_strong(self, nullptr);
  // Response callbacks capture `this`: make sure none are still in flight
  // inside the MatchServer before tearing the completion queue down.
  match_.drain();
  for (auto& [id, conn] : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

int NetServer::listen_on_loopback() {
  SPECMATCH_CHECK_MSG(listen_fd_ < 0, "NetServer: already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  SPECMATCH_CHECK_MSG(fd >= 0,
                      "NetServer: socket(2) failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    SPECMATCH_CHECK_MSG(false, "NetServer: cannot bind 127.0.0.1:"
                                   << config_.port << ": " << reason);
  }
  if (::listen(fd, config_.backlog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    SPECMATCH_CHECK_MSG(false, "NetServer: listen(2) failed: " << reason);
  }
  socklen_t len = sizeof addr;
  SPECMATCH_CHECK_MSG(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "NetServer: getsockname failed: " << std::strerror(errno));
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(addr.sin_port));
  return port_;
}

void NetServer::request_shutdown() {
  shutdown_.store(true, std::memory_order_release);
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void NetServer::install_signal_handlers() {
  g_signal_target.store(this, std::memory_order_release);
  struct sigaction action {};
  action.sa_handler = netserver_on_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  // Socket write errors are handled at the send(2) call sites (and sends
  // pass MSG_NOSIGNAL anyway); a dying peer must never kill the server.
  ::signal(SIGPIPE, SIG_IGN);
}

NetStats NetServer::stats() const { return stats_; }

void NetServer::wake() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

bool NetServer::wants_read(const Connection& conn) const {
  if (conn.read_eof || conn.fatal) return false;
  if (conn.submitted - conn.answered >=
      static_cast<std::uint64_t>(config_.conn_window))
    return false;
  return true;
}

bool NetServer::drained(const Connection& conn) const {
  return conn.read_eof && !conn.fatal && conn.inbuf.empty() &&
         conn.submitted == conn.answered && conn.reorder.empty() &&
         conn.out_offset == conn.outbuf.size();
}

void NetServer::deliver(Connection& conn, std::uint64_t seq,
                        const std::string& text) {
  conn.reorder.emplace(seq, text);
  while (!conn.reorder.empty() &&
         conn.reorder.begin()->first == conn.answered) {
    conn.outbuf += conn.reorder.begin()->second;
    conn.outbuf += '\n';
    conn.reorder.erase(conn.reorder.begin());
    ++conn.answered;
    ++stats_.responses;
    metrics::count("net.responses");
  }
}

void NetServer::fatal_error(Connection& conn, const std::string& detail) {
  // Protocol errors are fatal to the session but never to earlier requests:
  // the error line takes the *next* response slot, so everything already
  // admitted still answers, in order, before the stream ends.
  ++stats_.protocol_errors;
  metrics::count("net.protocol_errors");
  std::ostringstream out;
  out << "err! protocol conn=" << conn.id << " seq=" << conn.submitted << ": "
      << detail;
  deliver(conn, conn.submitted, out.str());
  ++conn.submitted;
  conn.fatal = true;
  conn.read_eof = true;
  conn.inbuf.clear();
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
}

void NetServer::parse_available(Connection& conn) {
  while (!conn.fatal) {
    const std::size_t region_end = conn.inbuf.rfind('\n');
    if (region_end == std::string::npos) {
      if (conn.inbuf.size() > config_.max_line_bytes) {
        fatal_error(conn, "oversized line (" +
                              std::to_string(conn.inbuf.size()) +
                              " bytes and no newline; limit " +
                              std::to_string(config_.max_line_bytes) + ")");
      } else if (conn.read_eof && !conn.inbuf.empty()) {
        fatal_error(conn, "truncated request (connection closed mid-line)");
      }
      return;
    }

    // Flow control: a full per-connection window, or (under kBlock) a full
    // admission queue, pauses parsing — bytes stay buffered, poll interest
    // drops, and the client feels TCP backpressure. kReject falls through:
    // overflow is answered inline below.
    if (conn.submitted - conn.answered >=
        static_cast<std::uint64_t>(config_.conn_window)) {
      metrics::count("net.flow_stalls");
      return;
    }
    if (match_.overflow_blocks() &&
        match_.pending() >= match_.queue_capacity()) {
      metrics::count("net.flow_stalls");
      return;
    }

    // One parse attempt over the complete-line region. The reader is handed
    // the connection's absolute line offset so ProtocolError messages keep
    // meaningful per-connection line numbers.
    std::istringstream frame(conn.inbuf.substr(0, region_end + 1));
    RequestReader reader(frame, conn.lines_consumed);
    Request request;
    bool got = false;
    try {
      got = reader.next(request);
    } catch (const ProtocolError& e) {
      if (frame.eof() && !conn.read_eof) {
        // The parser ran out of *available* lines mid-frame (a create whose
        // embedded scenario is still in flight): not an error yet — wait
        // for more bytes.
        return;
      }
      fatal_error(conn, e.what());
      return;
    }
    if (!got) {
      // The whole region was blank lines and comments: consume it.
      conn.lines_consumed += static_cast<int>(
          std::count(conn.inbuf.begin(),
                     conn.inbuf.begin() +
                         static_cast<std::ptrdiff_t>(region_end + 1),
                     '\n'));
      conn.inbuf.erase(0, region_end + 1);
      continue;
    }

    const std::streampos pos = frame.tellg();
    const std::size_t consumed =
        (frame.eof() || pos == std::streampos(-1))
            ? region_end + 1
            : static_cast<std::size_t>(pos);
    conn.lines_consumed = reader.line();
    conn.inbuf.erase(0, consumed);

    const std::uint64_t seq = conn.submitted++;
    ++stats_.requests;
    metrics::count("net.requests");
    metrics::observe("net.conn_in_flight",
                     static_cast<double>(conn.submitted - conn.answered));

    const std::string keyword = request_keyword(request.type);
    const std::string market = request.market_id;
    const std::uint64_t conn_id = conn.id;
    const bool admitted = match_.submit(
        std::move(request), [this, conn_id, seq](const Response& response) {
          {
            std::lock_guard<std::mutex> lock(completion_mutex_);
            completions_.push_back({conn_id, seq, response.text});
          }
          wake();
        });
    if (!admitted) {
      // Overflow::kReject sheds at admission; the network tier answers the
      // shed inline, in the connection's ordinary response sequence.
      ++stats_.shed_inline;
      metrics::count("net.shed_inline");
      deliver(conn, seq,
              "err " + keyword + " " + market + ": shed (admission queue full)");
    }
  }
}

void NetServer::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection already force-closed
    deliver(it->second, completion.seq, completion.text);
  }
}

void NetServer::accept_ready() {
  trace::ScopedSpan span("net.accept");
  int accepted_now = 0;
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: retry on next poll
    }
    if (static_cast<int>(conns_.size()) >= config_.max_conns) {
      ++stats_.rejected;
      metrics::count("net.rejected");
      static const char kRefusal[] = "err! server at connection limit\n";
      [[maybe_unused]] const ssize_t n =
          ::send(fd, kRefusal, sizeof kRefusal - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conns_.emplace(conn.id, std::move(conn));
    ++stats_.accepted;
    ++accepted_now;
    metrics::count("net.accepted");
    metrics::gauge_set("net.connections",
                       static_cast<double>(conns_.size()));
  }
  span.set_arg(accepted_now);
}

void NetServer::read_ready(Connection& conn) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.inbuf.append(buf, static_cast<std::size_t>(n));
      stats_.bytes_in += n;
      metrics::count("net.bytes_in", n);
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // Hard receive error (ECONNRESET and friends): the peer is gone, so
    // pending responses have nowhere to go.
    close_connection(conn.id);
    return;
  }
  parse_available(conn);
}

void NetServer::write_ready(Connection& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_offset,
               conn.outbuf.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      stats_.bytes_out += n;
      metrics::count("net.bytes_out", n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(conn.id);
    return;
  }
  if (conn.out_offset == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset > std::size_t{256} * 1024) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
}

void NetServer::close_connection(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  conns_.erase(it);
  ++stats_.closed;
  metrics::count("net.closed");
  metrics::gauge_set("net.connections", static_cast<double>(conns_.size()));
}

void NetServer::run() {
  SPECMATCH_CHECK_MSG(listen_fd_ >= 0,
                      "NetServer::run() before listen_on_loopback()");
  using Clock = std::chrono::steady_clock;
  Clock::time_point drain_deadline{};
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per fds entry (0s for fixed)

  while (true) {
    if (!draining_ && shutdown_.load(std::memory_order_acquire)) {
      // Graceful drain: stop accepting, stop reading new bytes, finish
      // parsing what is already buffered, answer everything admitted, and
      // flush every socket — bounded by drain_timeout_ms.
      draining_ = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [id, conn] : conns_) {
        if (!conn.read_eof) {
          conn.read_eof = true;
          ::shutdown(conn.fd, SHUT_RD);
        }
        parse_available(conn);
      }
    }

    // Reap finished connections (fatal sessions once their error line is
    // flushed; clean sessions once fully answered and flushed).
    std::vector<std::uint64_t> done;
    for (auto& [id, conn] : conns_) {
      const bool flushed = conn.out_offset == conn.outbuf.size();
      const bool answered_all =
          conn.reorder.empty() && conn.submitted == conn.answered;
      if ((conn.fatal && flushed && answered_all) || drained(conn))
        done.push_back(id);
    }
    for (const std::uint64_t id : done) close_connection(id);

    if (draining_ && conns_.empty()) break;

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    std::size_t listener_at = SIZE_MAX;
    if (!draining_ && listen_fd_ >= 0 &&
        static_cast<int>(conns_.size()) < config_.max_conns) {
      listener_at = fds.size();
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    const bool global_headroom =
        !match_.overflow_blocks() ||
        match_.pending() < match_.queue_capacity();
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (wants_read(conn) && global_headroom) events |= POLLIN;
      if (conn.out_offset < conn.outbuf.size()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    int timeout_ms = -1;
    if (draining_) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(drain_deadline - Clock::now());
      if (remaining.count() <= 0) {
        // Drain budget exhausted: force-close what is left. Anything still
        // admitted completes inside the MatchServer (drain() below); its
        // responses simply have no socket to land on.
        const std::vector<std::uint64_t> rest = [&] {
          std::vector<std::uint64_t> ids;
          for (const auto& [id, conn] : conns_) ids.push_back(id);
          return ids;
        }();
        for (const std::uint64_t id : rest) close_connection(id);
        break;
      }
      timeout_ms = static_cast<int>(remaining.count());
    }

    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      SPECMATCH_CHECK_MSG(false,
                          "NetServer: poll(2) failed: " << std::strerror(errno));
    }

    if ((fds[0].revents & (POLLIN | POLLERR)) != 0) {
      char sink[256];
      while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
      }
    }
    // Land finished responses first so window/queue headroom below is
    // current, then resume any flow-stalled parsing.
    drain_completions();
    for (auto& [id, conn] : conns_) {
      if (!conn.inbuf.empty() && !conn.fatal) parse_available(conn);
    }

    if (listener_at != SIZE_MAX &&
        (fds[listener_at].revents & (POLLIN | POLLERR)) != 0)
      accept_ready();

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fd_conn[k] == 0) continue;  // wake pipe / listener, handled above
      const auto it = conns_.find(fd_conn[k]);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      const short revents = fds[k].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        read_ready(it->second);
      // read_ready may have closed the connection on a hard error.
      const auto again = conns_.find(fd_conn[k]);
      if (again == conns_.end()) continue;
      if ((revents & (POLLOUT | POLLHUP | POLLERR)) != 0 ||
          again->second.out_offset < again->second.outbuf.size())
        write_ready(again->second);
    }
  }

  trace::ScopedSpan span("net.drain");
  match_.drain();
}

}  // namespace specmatch::serve
