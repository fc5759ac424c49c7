#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.h"

namespace vizndp::net {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

bool IsPeerGone(int err) {
  return err == EPIPE || err == ECONNRESET || err == ENOTCONN;
}

// Sends the whole buffer, looping over partial writes. MSG_NOSIGNAL keeps
// a dead peer from raising SIGPIPE; EPIPE/ECONNRESET surface as the typed
// peer-closed error instead of a raw errno string.
void WriteAll(int fd, const Byte* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsPeerGone(errno)) {
        throw PeerClosedError("tcp peer closed during send");
      }
      ThrowErrno("tcp write");
    }
    off += static_cast<size_t>(n);
  }
}

// Waits until `fd` is readable or `deadline` passes. An already-expired
// deadline still checks readability once with a zero timeout: callers use
// Receive(now) as a non-blocking poll (the server's between-chunk cancel
// sweep), and a frame that has already arrived must be visible to it.
void PollReadable(int fd, Deadline deadline) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      pollfd expired{fd, POLLIN, 0};
      int rc = ::poll(&expired, 1, 0);
      while (rc < 0 && errno == EINTR) rc = ::poll(&expired, 1, 0);
      if (rc < 0) ThrowErrno("tcp poll");
      if (rc > 0) return;
      throw TimeoutError("tcp receive deadline exceeded");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    // +1 rounds up so we never poll(0) in a hot loop just before expiry.
    const int timeout_ms =
        static_cast<int>(std::min<long long>(remaining.count() + 1,
                                             60'000));
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("tcp poll");
    }
    if (rc > 0) return;
    // rc == 0: timed out this round; loop re-checks the deadline (and
    // re-polls when the deadline is further than one poll quantum away).
  }
}

// Returns false on clean EOF at a frame boundary. With a deadline, every
// blocking read is preceded by a poll; TimeoutError propagates to the
// caller with `*consumed` telling it whether the stream is still framed.
bool ReadAll(int fd, Byte* data, size_t size, Deadline deadline,
             size_t* consumed = nullptr) {
  size_t off = 0;
  while (off < size) {
    if (deadline != kNoDeadline) PollReadable(fd, deadline);
    const ssize_t n = ::read(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsPeerGone(errno)) {
        throw PeerClosedError("tcp peer reset during read");
      }
      ThrowErrno("tcp read");
    }
    if (n == 0) {
      if (off == 0) return false;
      throw PeerClosedError("tcp connection closed mid-frame");
    }
    off += static_cast<size_t>(n);
    if (consumed != nullptr) *consumed += static_cast<size_t>(n);
  }
  return true;
}

// Least time Receive allows a frame's body once its header has arrived.
constexpr std::chrono::milliseconds kBodyGrace{100};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(int fd, const TcpOptions& options)
      : fd_(fd), options_(options) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpTransport() override { Close(); }

  void Send(ByteSpan frame) override {
    if (fd_ < 0) throw PeerClosedError("tcp transport is closed");
    Byte header[4];
    VIZNDP_CHECK_MSG(frame.size() <= 0xFFFFFFFFull, "frame too large");
    StoreLE(static_cast<std::uint32_t>(frame.size()), header);
    WriteAll(fd_, header, sizeof(header));
    WriteAll(fd_, frame.data(), frame.size());
  }

  Bytes Receive(Deadline deadline) override {
    if (fd_ < 0) throw PeerClosedError("tcp transport is closed");
    Byte header[4];
    size_t consumed = 0;
    try {
      if (!ReadAll(fd_, header, sizeof(header), deadline, &consumed)) {
        throw PeerClosedError("tcp connection closed by peer");
      }
      // Send() writes header and body in two syscalls, so the body may
      // trail the header by a scheduling quantum. Once the header is in,
      // the body always gets at least kBodyGrace: a deadline that expires
      // in between (the server's poll tick, an already-expired
      // non-blocking poll) must not cut a healthy frame in half and
      // poison the connection.
      deadline = std::max(deadline,
                          std::chrono::steady_clock::now() + kBodyGrace);
      const std::uint32_t size = LoadLE<std::uint32_t>(header);
      if (size > options_.max_frame_bytes) {
        // Refuse before allocating: a malicious or corrupted header can
        // claim up to 4 GiB. The stream cannot be trusted past this
        // point, so the connection dies with it.
        Close();
        throw DecodeError("tcp frame length " + std::to_string(size) +
                          " exceeds max_frame_bytes " +
                          std::to_string(options_.max_frame_bytes));
      }
      Bytes frame(size);
      if (size > 0 && !ReadAll(fd_, frame.data(), size, deadline, &consumed)) {
        throw PeerClosedError("tcp connection closed mid-frame");
      }
      return frame;
    } catch (const TimeoutError&) {
      // A timeout before any byte of the frame was consumed leaves the
      // stream framed and the connection reusable. Mid-frame, the unread
      // remainder would desynchronise every later Receive — poison the
      // connection so the caller reconnects instead of misparsing.
      if (consumed != 0) Close();
      throw;
    }
  }

  void Close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_WR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
  TcpOptions options_;
};

int ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t len,
                       std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) {
    return ::connect(fd, addr, len);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready == 0) {
      errno = ETIMEDOUT;
      rc = -1;
    } else if (ready > 0) {
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      errno = err;
      rc = err == 0 ? 0 : -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return rc;
}

}  // namespace

TransportPtr TcpConnect(const std::string& host, std::uint16_t port,
                        const TcpOptions& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &result);
  if (rc != 0) {
    throw IoError("getaddrinfo(" + host + "): " + gai_strerror(rc));
  }
  int fd = -1;
  bool timed_out = false;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (ConnectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                           options.connect_timeout) == 0) {
      break;
    }
    timed_out = timed_out || errno == ETIMEDOUT;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    const std::string where = host + ":" + std::to_string(port);
    if (timed_out) throw TimeoutError("connect to " + where + " timed out");
    throw IoError("cannot connect to " + where);
  }
  return std::make_unique<TcpTransport>(fd, options);
}

TcpListener::TcpListener(std::uint16_t port, const TcpOptions& options)
    : options_(options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ThrowErrno("bind");
  }
  if (::listen(fd_, 8) != 0) ThrowErrno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

TransportPtr TcpListener::Accept() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) ThrowErrno("accept");
  return std::make_unique<TcpTransport>(fd, options_);
}

}  // namespace vizndp::net
