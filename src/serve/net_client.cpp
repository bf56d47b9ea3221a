#include "serve/net_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.hpp"

namespace specmatch::serve {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

ClientConnection::~ClientConnection() { close(); }

ClientConnection::ClientConnection(ClientConnection&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

ClientConnection& ClientConnection::operator=(
    ClientConnection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.fd_ = -1;
  }
  return *this;
}

ClientConnection ClientConnection::connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SPECMATCH_CHECK_MSG(fd >= 0,
                      std::string("socket(): ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    SPECMATCH_CHECK_MSG(false, "connect(127.0.0.1:" + std::to_string(port) +
                                   "): " + std::strerror(err) +
                                   " (after 1 attempt)");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ClientConnection conn;
  conn.fd_ = fd;
  return conn;
}

void ClientConnection::send_all(const std::string& bytes) {
  SPECMATCH_CHECK_MSG(fd_ >= 0, "send on a closed connection");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      SPECMATCH_CHECK_MSG(false,
                          std::string("send(): ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool ClientConnection::read_line(std::string& line) {
  SPECMATCH_CHECK_MSG(fd_ >= 0, "read on a closed connection");
  while (true) {
    std::size_t newline = buf_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buf_, 0, newline);
      buf_.erase(0, newline + 1);
      return true;
    }
    char chunk[kReadChunk];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      SPECMATCH_CHECK_MSG(false,
                          std::string("recv(): ") + std::strerror(errno));
    }
    if (n == 0) {
      SPECMATCH_CHECK_MSG(buf_.empty(),
                          "connection closed mid-line (partial response)");
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void ClientConnection::half_close() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void ClientConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

/// Everything one replay worker needs: its connection and the indices (into
/// the original request vector) of the requests it owns, in order.
struct Lane {
  ClientConnection conn;
  std::vector<std::size_t> owned;
  std::size_t next = 0;  ///< first index in `owned` not yet sent
  std::size_t sent = 0;  ///< requests sent, not yet answered
};

}  // namespace

ReplayResult replay_over_network(int port,
                                 const std::vector<Request>& requests,
                                 int conns) {
  SPECMATCH_CHECK_MSG(conns >= 1, "replay needs at least one connection");
  ReplayResult result;
  result.transcript.resize(requests.size());
  if (requests.empty()) return result;
  if (static_cast<std::size_t>(conns) > requests.size()) {
    conns = static_cast<int>(requests.size());
  }

  // Markets are assigned to connections round-robin by first appearance, so
  // each market's requests stay ordered on one session. Barrier requests
  // (create, stats) also get a home lane this way — they just additionally
  // synchronise with every other lane below.
  std::vector<Lane> lanes(static_cast<std::size_t>(conns));
  {
    std::map<std::string, int> market_lane;
    int next_lane = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto [it, inserted] =
          market_lane.emplace(requests[i].market_id, next_lane);
      if (inserted) next_lane = (next_lane + 1) % conns;
      lanes[static_cast<std::size_t>(it->second)].owned.push_back(i);
    }
    for (auto& lane : lanes) {
      lane.conn = ClientConnection::connect_loopback(port);
    }
  }

  // Barriers partition the request stream into phases. Phase p covers the
  // half-open index range [phase_start[p], phase_start[p+1]); each barrier
  // request is a phase of its own. Workers may only send a request once its
  // phase is open, and a phase opens only after every earlier request has
  // been answered — giving create/stats/restore exclusive access to global registry
  // state, exactly like the single-stream in-process replay.
  std::vector<std::size_t> phase_start{0};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    bool barrier = requests[i].type == RequestType::kCreate ||
                   requests[i].type == RequestType::kStats ||
                   requests[i].type == RequestType::kRestore;
    if (barrier) {
      if (phase_start.back() != i) phase_start.push_back(i);
      phase_start.push_back(i + 1);
    }
  }
  if (phase_start.back() != requests.size()) {
    phase_start.push_back(requests.size());
  }
  // phase_of[i] = the phase request i belongs to.
  std::vector<std::size_t> phase_of(requests.size());
  for (std::size_t p = 0; p + 1 < phase_start.size(); ++p) {
    for (std::size_t i = phase_start[p]; i < phase_start[p + 1]; ++i) {
      phase_of[i] = p;
    }
  }

  std::mutex mutex;
  std::condition_variable advanced;
  std::size_t answered = 0;     // requests answered across all lanes
  std::size_t open_phase = 0;   // highest phase whose sends may proceed
  std::string first_failure;    // first worker error, if any

  auto worker = [&](std::size_t lane_index) {
    Lane& lane = lanes[lane_index];
    try {
      std::string line;
      while (true) {
        // Send every owned request whose phase is open; under a closed loop
        // that is bounded by the phase structure, not a window — the server
        // applies its own conn_window flow control.
        std::size_t to_read = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          while (lane.next < lane.owned.size() && lane.sent == 0) {
            std::size_t i = lane.owned[lane.next];
            std::size_t p = phase_of[i];
            bool exclusive = requests[i].type == RequestType::kCreate ||
                             requests[i].type == RequestType::kStats ||
                             requests[i].type == RequestType::kRestore;
            // Wait until the request's phase is the open one. For barrier
            // requests the phase contains only this request, so opening it
            // means everything earlier is answered.
            advanced.wait(lock, [&] {
              if (!first_failure.empty()) return true;
              std::size_t current = open_phase;
              // Recompute lazily: answered only grows.
              while (current + 1 < phase_start.size() &&
                     answered >= phase_start[current + 1]) {
                ++current;
              }
              open_phase = current;
              return current >= p;
            });
            if (!first_failure.empty()) return;
            if (open_phase > p) {
              // Should be impossible: our own unanswered requests hold the
              // phase back. Guard anyway.
              SPECMATCH_CHECK_MSG(false, "replay phase overran its sender");
            }
            std::string wire = format_request(requests[i]);
            lock.unlock();
            lane.conn.send_all(wire);
            lock.lock();
            result.bytes_sent += static_cast<std::int64_t>(wire.size());
            ++lane.next;
            ++lane.sent;
            if (exclusive) break;  // barrier: read its answer before more
          }
          if (lane.sent == 0 && lane.next >= lane.owned.size()) {
            break;  // done: everything sent and answered
          }
          to_read = lane.sent;
        }
        // Read one response (responses arrive in per-connection send
        // order), record it, and let waiters re-evaluate the open phase.
        SPECMATCH_CHECK_MSG(to_read > 0, "replay worker stalled");
        bool got = lane.conn.read_line(line);
        SPECMATCH_CHECK_MSG(got, "server closed connection early");
        SPECMATCH_CHECK_MSG(line.rfind("err!", 0) != 0,
                            "protocol-fatal response: " + line);
        {
          std::lock_guard<std::mutex> lock(mutex);
          std::size_t i = lane.owned[lane.next - lane.sent];
          result.transcript[i] = line + "\n";
          --lane.sent;
          ++answered;
        }
        advanced.notify_all();
      }
      lane.conn.half_close();
      // Consume the server's clean EOF so close() can't race the final
      // flush on the server side.
      while (lane.conn.read_line(line)) {
        std::lock_guard<std::mutex> lock(mutex);
        if (first_failure.empty()) {
          first_failure = "unexpected trailing response: " + line;
        }
      }
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (first_failure.empty()) first_failure = e.what();
      }
      advanced.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(lanes.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    threads.emplace_back(worker, k);
  }
  for (auto& t : threads) t.join();
  SPECMATCH_CHECK_MSG(first_failure.empty(),
                      "network replay failed: " + first_failure);
  return result;
}

}  // namespace specmatch::serve
