#include "net/serve_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "util/metrics.h"

namespace tcvs {
namespace net {

namespace {

Status EpollError(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Arms `fd` for one readiness event (EPOLL_CTL_ADD or _MOD), tagged with
/// its connection (null = the listener).
bool Arm(int epoll_fd, int op, int fd, TcpConnection* conn) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.ptr = conn;
  return fd >= 0 && ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
}

}  // namespace

ServeLoop::ServeLoop(int num_threads, int poll_interval_ms)
    : num_threads_(std::max(1, num_threads)),
      poll_interval_ms_(std::max(1, poll_interval_ms)) {}

ServeLoop::~ServeLoop() {
  Stop(Status::OK());
  (void)Join();
}

Status ServeLoop::Start(TcpListener* listener, Handler handler) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return EpollError("epoll_create1");
  listener_ = listener;
  handler_ = std::move(handler);
  if (!Arm(epoll_fd_, EPOLL_CTL_ADD, listener_->fd(), nullptr)) {
    return EpollError("epoll_ctl(listener)");
  }
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void ServeLoop::Stop(Status exit_status) {
  util::MutexLock lock(&mu_);
  if (!stopping()) {
    exit_status_ = std::move(exit_status);
    stopping_.store(true, std::memory_order_release);
  }
}

Status ServeLoop::Join() {
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  util::MutexLock lock(&mu_);
  conns_.clear();  // Closes every connection still open.
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  return exit_status_;
}

void ServeLoop::WorkerLoop() {
  while (!stopping()) {
    epoll_event event{};
    const int n = ::epoll_wait(epoll_fd_, &event, 1, poll_interval_ms_);
    if (n < 0 && errno != EINTR) {
      Stop(EpollError("epoll_wait"));
      return;
    }
    if (n <= 0) continue;  // Slice elapsed or EINTR: re-check for a stop.
    { util::MutexLock lock(&mu_); }  // See the class comment.
    if (stopping()) return;  // Join closes the connection.
    auto* conn = static_cast<TcpConnection*>(event.data.ptr);
    if (conn == nullptr) {
      AcceptOne();
    } else if (handler_(conn) == Action::kClose || !Rearm(conn->fd(), conn)) {
      util::MutexLock lock(&mu_);
      // A fault point may already have closed the fd, which left the set.
      if (conn->valid()) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
      }
      conns_.erase(conn);
    }
  }
}

void ServeLoop::AcceptOne() {
  static util::Counter* const accepted =
      util::MetricsRegistry::Instance().GetCounter(
          "net.serve.connections_total");
  static util::Counter* const accept_errors =
      util::MetricsRegistry::Instance().GetCounter(
          "net.serve.accept_errors_total");
  Result<TcpConnection> conn_or = listener_->TryAccept();
  if (!conn_or.ok() && !conn_or.status().IsUnavailable()) {
    Stop(conn_or.status());
    return;
  }
  if (!conn_or.ok()) {
    // Out of fds or buffers: the connection stays queued in the kernel.
    // Back off one slice so the level-triggered listener does not spin.
    accept_errors->Increment();
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_interval_ms_));
  } else if (conn_or->valid()) {
    auto conn =
        std::make_unique<TcpConnection>(std::move(conn_or).ValueOrDie());
    util::MutexLock lock(&mu_);
    if (Arm(epoll_fd_, EPOLL_CTL_ADD, conn->fd(), conn.get())) {
      accepted->Increment();
      conns_.emplace(conn.get(), std::move(conn));
    } else {
      accept_errors->Increment();  // Dropped: the peer sees a reset.
    }
  }
  if (!Rearm(listener_->fd(), nullptr)) Stop(EpollError("epoll_ctl(rearm)"));
}

bool ServeLoop::Rearm(int fd, TcpConnection* conn) {
  util::MutexLock lock(&mu_);
  return Arm(epoll_fd_, EPOLL_CTL_MOD, fd, conn);
}

}  // namespace net
}  // namespace tcvs
