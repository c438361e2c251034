#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/fault.h"
#include "util/metrics.h"

namespace tcvs {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Remaining milliseconds until `deadline` (rounded up), or -1 (poll's
/// "infinite") when no deadline is set.
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline -
                                                           Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

/// Waits until `fd` is ready for `events` or the deadline passes.
/// EINTR-safe: signals recompute the remaining budget and re-poll.
Status PollFd(int fd, short events, bool has_deadline,
              Clock::time_point deadline) {
  for (;;) {
    int remaining = RemainingMs(has_deadline, deadline);
    if (has_deadline && remaining == 0) {
      return Status::DeadlineExceeded("socket I/O deadline elapsed");
    }
    pollfd pfd{fd, events, 0};
    int n = ::poll(&pfd, 1, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (n == 0) {
      return Status::DeadlineExceeded("socket I/O deadline elapsed");
    }
    if (pfd.revents & POLLNVAL) return Status::IOError("poll: bad fd");
    // POLLERR/POLLHUP: let the subsequent read/write surface the error.
    return Status::OK();
  }
}

/// Writes every byte the `iovcnt` buffers at `iov` describe, retrying
/// EINTR, short writes, and EAGAIN (via poll) until done or the deadline
/// passes; a short write advances `iov` in place. One sendmsg per attempt
/// puts a frame's header and payload in the same segment, so Nagle never
/// holds a payload back behind a header waiting for the peer's delayed ACK.
/// MSG_NOSIGNAL keeps a dead peer from killing the process with SIGPIPE —
/// essential once faults and retries make mid-write disconnects routine.
Status WriteAll(int fd, iovec* iov, int iovcnt, bool has_deadline,
                Clock::time_point deadline) {
  for (;;) {
    while (iovcnt > 0 && iov->iov_len == 0) {
      ++iov;
      --iovcnt;
    }
    if (iovcnt == 0) return Status::OK();
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        TCVS_RETURN_NOT_OK(PollFd(fd, POLLOUT, has_deadline, deadline));
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::IOError("write: connection closed by peer");
      }
      return Errno("write");
    }
    for (auto left = static_cast<size_t>(n); left > 0; ++iov, --iovcnt) {
      if (left < iov->iov_len) {
        iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
        iov->iov_len -= left;
        break;
      }
      left -= iov->iov_len;
    }
  }
}

Status ReadAll(int fd, uint8_t* data, size_t len, bool has_deadline,
               Clock::time_point deadline) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::recv(fd, data + done, len - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        TCVS_RETURN_NOT_OK(PollFd(fd, POLLIN, has_deadline, deadline));
        continue;
      }
      if (errno == ECONNRESET) {
        return Status::IOError("read: connection reset by peer");
      }
      return Errno("read");
    }
    if (n == 0) return Status::IOError("read: connection closed");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

TcpConnection::TcpConnection(int fd) : fd_(fd) {
  if (fd_ >= 0) SetNonBlocking(fd_);
}

TcpConnection::~TcpConnection() { Close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(other.fd_), io_timeout_ms_(other.io_timeout_ms_) {
  other.fd_ = -1;
}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    io_timeout_ms_ = other.io_timeout_ms_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpConnection> TcpConnection::Connect(const std::string& host,
                                             uint16_t port, int timeout_ms) {
  if (util::FaultInjector::Instance().ShouldFail(kFaultConnectFail)) {
    return Status::Unavailable("fault injected: " +
                               std::string(kFaultConnectFail));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host address: " + host);
  }
  // Non-blocking connect: initiate, poll for writability within the
  // deadline, then read SO_ERROR for the actual outcome.
  SetNonBlocking(fd);
  bool has_deadline = timeout_ms > 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    Status st = (errno == ECONNREFUSED || errno == ENETUNREACH ||
                 errno == EHOSTUNREACH || errno == ETIMEDOUT)
                    ? Status::Unavailable("connect: " + resolved + ": " +
                                          std::strerror(errno))
                    : Errno("connect");
    ::close(fd);
    return st;
  }
  if (rc != 0) {
    Status st = PollFd(fd, POLLOUT, has_deadline, deadline);
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      ::close(fd);
      return Status::Unavailable("connect: " + resolved + ": " +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(fd);
}

Status TcpConnection::SendFrame(const Bytes& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("connection closed");
  if (payload.size() > kMaxFrame) {
    return Status::InvalidArgument("frame too large");
  }
  auto& faults = util::FaultInjector::Instance();
  uint64_t arg = 0;
  if (faults.ShouldFail(kFaultSendDelay, &arg)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(arg));
  }
  if (faults.ShouldFail(kFaultSendDrop)) {
    Close();
    return Status::IOError("fault injected: " + std::string(kFaultSendDrop));
  }

  bool has_deadline = io_timeout_ms_ > 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(io_timeout_ms_);

  uint8_t header[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(len >> (8 * i));
  // sendmsg never writes through iov_base; the casts only shed const.
  iovec iov[2] = {{header, 4},
                  {const_cast<uint8_t*>(payload.data()), payload.size()}};

  if (faults.ShouldFail(kFaultSendTruncate, &arg)) {
    // Write a prefix of the framed message, then sever the connection: the
    // peer sees a torn frame exactly as if we died mid-write.
    size_t cut = std::min<uint64_t>(arg, 4 + payload.size());
    iov[0].iov_len = std::min<size_t>(cut, 4);
    iov[1].iov_len = cut - iov[0].iov_len;
    (void)WriteAll(fd_, iov, 2, has_deadline, deadline);
    Close();
    return Status::IOError("fault injected: " +
                           std::string(kFaultSendTruncate));
  }
  Bytes corrupted;
  if (faults.ShouldFail(kFaultSendBitflip, &arg) && !payload.empty()) {
    corrupted = payload;
    corrupted[arg % corrupted.size()] ^= 0x01;
    iov[1].iov_base = corrupted.data();
  }

  Status st = WriteAll(fd_, iov, 2, has_deadline, deadline);
  // A deadline mid-frame leaves the stream unframed; poison the connection.
  if (st.IsDeadlineExceeded()) Close();
  if (st.ok()) {
    static util::Counter* const frames =
        util::MetricsRegistry::Instance().GetCounter("net.frames_sent_total");
    static util::Counter* const bytes =
        util::MetricsRegistry::Instance().GetCounter("net.bytes_sent_total");
    frames->Increment();
    bytes->Increment(4 + payload.size());
  }
  return st;
}

Result<Bytes> TcpConnection::ReceiveFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("connection closed");
  if (util::FaultInjector::Instance().ShouldFail(kFaultRecvDrop)) {
    Close();
    return Status::IOError("fault injected: " + std::string(kFaultRecvDrop));
  }
  bool has_deadline = io_timeout_ms_ > 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  uint8_t header[4];
  Status st = ReadAll(fd_, header, 4, has_deadline, deadline);
  if (!st.ok()) {
    if (st.IsDeadlineExceeded()) Close();
    return st;
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= uint32_t(header[i]) << (8 * i);
  if (len > kMaxFrame) return Status::IOError("oversized frame");
  Bytes payload(len);
  if (len > 0) {
    st = ReadAll(fd_, payload.data(), len, has_deadline, deadline);
    if (!st.ok()) {
      if (st.IsDeadlineExceeded()) Close();
      return st;
    }
  }
  static util::Counter* const frames =
      util::MetricsRegistry::Instance().GetCounter("net.frames_received_total");
  static util::Counter* const bytes =
      util::MetricsRegistry::Instance().GetCounter("net.bytes_received_total");
  frames->Increment();
  bytes->Increment(4 + payload.size());
  return payload;
}

Result<size_t> TcpConnection::ReadSome(uint8_t* buf, size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("connection closed");
  if (len == 0) return static_cast<size_t>(0);
  bool has_deadline = io_timeout_ms_ > 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  for (;;) {
    ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);  // 0 = orderly EOF.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      TCVS_RETURN_NOT_OK(PollFd(fd_, POLLIN, has_deadline, deadline));
      continue;
    }
    if (errno == ECONNRESET) {
      return Status::IOError("read: connection reset by peer");
    }
    return Errno("read");
  }
}

Status TcpConnection::WriteRaw(const uint8_t* data, size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("connection closed");
  bool has_deadline = io_timeout_ms_ > 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  iovec iov{const_cast<uint8_t*>(data), len};
  return WriteAll(fd_, &iov, 1, has_deadline, deadline);
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> TcpListener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 16) != 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  SetNonBlocking(fd);
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<TcpConnection> TcpListener::TryAccept() {
  if (fd_ < 0) return Status::FailedPrecondition("listener closed");
  int cfd;
  do {
    cfd = ::accept(fd_, nullptr, nullptr);
  } while (cfd < 0 && errno == EINTR);
  if (cfd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return TcpConnection();
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM || errno == ECONNABORTED) {
      return Status::Unavailable(std::string("accept: ") +
                                 std::strerror(errno));
    }
    return Errno("accept");
  }
  // Both ends of every connection run with Nagle off (Connect sets it on
  // the client side): a reply must leave as soon as it is written, not
  // after the peer's delayed ACK for the previous segment.
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(cfd);
}

Result<TcpConnection> TcpListener::Accept() {
  for (;;) {
    TCVS_ASSIGN_OR_RETURN(TcpConnection conn, TryAccept());
    if (conn.valid()) return conn;
    TCVS_RETURN_NOT_OK(PollFd(fd_, POLLIN, false, Clock::time_point()));
  }
}

Result<uint64_t> ParseUint(const std::string& text, uint64_t max) {
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return Status::InvalidArgument("expected a number in 0.." +
                                   std::to_string(max) + ", got '" + text +
                                   "'");
  }
  return value;
}

Result<uint16_t> ParsePort(const std::string& text) {
  TCVS_ASSIGN_OR_RETURN(uint64_t value, ParseUint(text, 65535));
  return static_cast<uint16_t>(value);
}

}  // namespace net
}  // namespace tcvs
