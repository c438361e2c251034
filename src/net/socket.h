#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace net {

/// \name Fault points consulted by this layer (see util/fault.h).
/// @{
/// Connect() fails with Unavailable before touching the network.
inline constexpr char kFaultConnectFail[] = "net.connect.fail";
/// SendFrame drops the connection without writing; arg unused.
inline constexpr char kFaultSendDrop[] = "net.send.drop";
/// SendFrame sleeps for `arg` milliseconds before writing (slow peer).
inline constexpr char kFaultSendDelay[] = "net.send.delay";
/// SendFrame writes only the first `arg` bytes of the framed message, then
/// drops the connection (torn frame on the wire).
inline constexpr char kFaultSendTruncate[] = "net.send.truncate";
/// SendFrame flips bit 0 of payload byte `arg % size` (in-flight corruption
/// that TCP's weak checksum missed).
inline constexpr char kFaultSendBitflip[] = "net.send.bitflip";
/// ReceiveFrame drops the connection instead of reading.
inline constexpr char kFaultRecvDrop[] = "net.recv.drop";
/// @}

/// \brief A connected TCP stream carrying length-prefixed frames (u32 LE
/// length + payload). Move-only; the destructor closes the fd.
///
/// Frames keep the RPC layer trivial: one frame out, one frame back. Frame
/// size is capped to keep a malicious peer from forcing huge allocations.
///
/// The fd is non-blocking; all transfers run EINTR/EAGAIN-safe poll()
/// loops, so short reads/writes and signals are retried internally and an
/// optional per-operation deadline (set_io_timeout_ms) turns a hung peer
/// into Status::DeadlineExceeded instead of a wedged process.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(int fd);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;
  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad or "localhost").
  /// \param timeout_ms 0 = wait forever; otherwise the handshake must
  /// complete within the deadline or DeadlineExceeded is returned. Connect
  /// refusal / unreachable peers return Unavailable (retryable).
  static Result<TcpConnection> Connect(const std::string& host, uint16_t port,
                                       int timeout_ms = 0);

  /// Deadline applied to each subsequent SendFrame/ReceiveFrame as a whole
  /// (0 = none). A deadline expiry leaves the stream mid-frame, so the
  /// connection is closed: frame boundaries cannot be trusted afterwards.
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  /// Writes one frame — header and payload in one sendmsg — retrying short
  /// writes and EINTR internally.
  Status SendFrame(const Bytes& payload);

  /// Reads one frame, retrying short reads and EINTR internally.
  /// \return IOError on EOF or malformed length.
  Result<Bytes> ReceiveFrame();

  /// \name Raw (unframed) byte I/O, for protocols that frame themselves —
  /// the HTTP admin plane. Both honor set_io_timeout_ms as a whole-call
  /// deadline, like the frame operations.
  /// @{
  /// Reads at most `len` bytes into `buf`, blocking until at least one byte
  /// arrives. Returns the count read, or 0 on orderly EOF.
  Result<size_t> ReadSome(uint8_t* buf, size_t len);
  /// Writes exactly `len` bytes, retrying short writes and EINTR.
  Status WriteRaw(const uint8_t* data, size_t len);
  /// @}

  bool valid() const { return fd_ >= 0; }
  /// The socket descriptor (-1 once closed), for inspecting socket options.
  int fd() const { return fd_; }
  void Close();

  /// Maximum accepted frame size (16 MiB).
  static constexpr uint32_t kMaxFrame = 16u << 20;

 private:
  int fd_ = -1;
  int io_timeout_ms_ = 0;
};

/// \brief A listening TCP socket on the loopback interface.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;

  /// Binds to 127.0.0.1:`port` (0 = ephemeral; see port()).
  static Result<TcpListener> Bind(uint16_t port);

  uint16_t port() const { return port_; }

  /// The listening descriptor (-1 once closed), for registering it with a
  /// readiness set (net::ServeLoop).
  int fd() const { return fd_; }

  /// Accepts one pending connection without waiting (the listener is
  /// non-blocking): an invalid TcpConnection when none is pending. Running
  /// out of fds, buffers or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) and a
  /// connection aborted before it was accepted are Unavailable — transient,
  /// the queue keeps any pending connection. Any other failure is IOError.
  Result<TcpConnection> TryAccept();

  /// Blocks until a client connects (EINTR-safe).
  Result<TcpConnection> Accept();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// \brief Parses a decimal unsigned integer in 0..max. An empty, signed,
/// non-numeric, partly numeric or out-of-range value is InvalidArgument —
/// never wrapped, truncated or defaulted.
Result<uint64_t> ParseUint(const std::string& text, uint64_t max);

/// \brief Parses a decimal TCP port: ParseUint(text, 65535).
Result<uint16_t> ParsePort(const std::string& text);

}  // namespace net
}  // namespace tcvs
