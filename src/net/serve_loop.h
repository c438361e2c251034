#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tcvs {
namespace net {

/// \brief The one connection-serving loop behind both planes (rpc::Serve
/// and HttpAdminServer): workers share one epoll set holding the listener
/// and every open connection, each registered EPOLLIN | EPOLLONESHOT. A
/// worker woken on the listener accepts one connection; a worker woken on a
/// connection calls the handler for one request, then re-arms or closes it.
/// So a connection holds a worker for one request, not for its lifetime,
/// and ONESHOT keeps its replies in order.
///
/// Re-arms and closes run under `mu_`, and a woken worker takes `mu_` once
/// before touching the fd: that orders one worker's use of a connection
/// before the next one's for ThreadSanitizer, whose epoll_ctl interceptor
/// only releases on EPOLL_CTL_ADD.
class ServeLoop {
 public:
  enum class Action { kKeep, kClose };
  /// Serves one request on a readable (or closed) connection.
  using Handler = std::function<Action(TcpConnection* conn)>;

  /// `poll_interval_ms` bounds each epoll_wait: the latency of noticing
  /// Stop(), and the back-off after a transient accept error.
  ServeLoop(int num_threads, int poll_interval_ms);
  /// Stops (OK unless a stop was already requested) and joins.
  ~ServeLoop();

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Registers `listener` (borrowed) and starts the workers.
  Status Start(TcpListener* listener, Handler handler);

  /// Begins shutdown; the FIRST caller's status is what Join returns (a
  /// crash fault and a graceful shutdown may race). Safe from handlers.
  void Stop(Status exit_status) TCVS_EXCLUDES(mu_);

  /// Waits for a stop and every worker, then closes every connection.
  /// Returns the first stop status. Call from one thread, not a handler.
  Status Join() TCVS_EXCLUDES(mu_);

 private:
  void WorkerLoop();
  void AcceptOne() TCVS_EXCLUDES(mu_);
  /// Re-enables `fd` (tagged `conn`, null = listener) for one more event.
  bool Rearm(int fd, TcpConnection* conn) TCVS_EXCLUDES(mu_);
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  const int num_threads_;
  const int poll_interval_ms_;
  Handler handler_;
  TcpListener* listener_ = nullptr;
  int epoll_fd_ = -1;

  util::Mutex mu_{"net.serve.loop"};
  std::unordered_map<TcpConnection*, std::unique_ptr<TcpConnection>> conns_
      TCVS_GUARDED_BY(mu_);
  std::atomic<bool> stopping_{false};
  Status exit_status_ TCVS_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace net
}  // namespace tcvs
