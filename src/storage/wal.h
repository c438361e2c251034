#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace storage {

/// \name Fault points consulted by this layer (see util/fault.h).
/// @{
/// WalWriter::Append writes only the first `arg` bytes of the framed
/// record, then fails (crash mid-append: a torn tail on disk).
inline constexpr char kFaultWalTorn[] = "wal.append.torn";
/// The fdatasync in WalWriter::Flush fails (dying disk / full device).
inline constexpr char kFaultWalSyncFail[] = "wal.sync.fail";
/// AtomicWriteFile writes the temp file but "crashes" before the rename,
/// leaving the destination untouched (the atomicity contract under test).
inline constexpr char kFaultAtomicCrash[] = "storage.atomic.crash";
/// The ftruncate in WalWriter::Truncate fails, leaving the log untouched.
inline constexpr char kFaultWalTruncateFail[] = "wal.truncate.fail";
/// @}

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// string — the per-record integrity check of the write-ahead log.
uint32_t Crc32(const uint8_t* data, size_t len);
uint32_t Crc32(const Bytes& data);

/// \brief The device-sync half of a WAL flush: fdatasync(2) on the log's
/// descriptor (plus the emulated delay) in sync mode, a no-op otherwise.
/// It touches only the descriptor, so the group-commit leader runs it
/// without the lock that serializes appends, while other transactions
/// stage their records; the writer must stay open until it returns.
struct WalSync {
  int fd = -1;
  bool sync = false;
  uint32_t delay_us = 0;

  Status Run() const;
};

/// \brief Append-only write-ahead log. Record framing:
///
///   u32 LE payload length | u32 LE CRC-32(payload) | payload bytes
///
/// Torn tails are expected after a crash: the reader stops at the first
/// record whose header, length, or CRC does not check out, yielding the
/// longest valid prefix (standard WAL semantics).
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;

  /// Opens for appending (creates if missing).
  /// \param sync when true, every Append (and Flush) also issues
  /// fdatasync(2), so acknowledged records survive an OS crash or power
  /// loss — without it "durable" records only reach the page cache.
  /// Opt-in because it costs a device round trip per transaction.
  static Result<WalWriter> Open(const std::string& path, bool sync = false);

  /// Appends one record and flushes it to the OS (and, in sync mode, to
  /// the device).
  Status Append(const Bytes& record);

  /// Appends one framed record into the stdio buffer WITHOUT flushing: the
  /// group-commit path stages several records, then amortizes ONE Flush
  /// (one fdatasync in sync mode) over the whole batch. A record appended
  /// this way is not durable — not even process-crash-safe — until a
  /// subsequent Flush returns OK.
  Status AppendNoFlush(const Bytes& record);

  /// Flushes buffered data down to the file descriptor (and the device in
  /// sync mode): Push(), then sync().Run().
  Status Flush();

  /// Pushes the stdio buffer to the file descriptor (a write(2); the bytes
  /// survive a process crash but not yet power loss).
  Status Push();

  /// The device sync covering every byte pushed so far.
  WalSync sync_handle() const;

  /// Discards every record (ftruncate to zero length through the open
  /// descriptor) and starts the log again with `first_record`, pushed but
  /// not synced: the sync of any later append covers it. Not counted as an
  /// append. If the ftruncate fails the log is untouched and still
  /// appendable; if writing `first_record` fails the writer closes, since
  /// an emptied log must not take records without its first one.
  Status Truncate(const Bytes& first_record);

  void Close();

  /// False once the writer has closed (Close, or a Truncate that emptied
  /// the log but could not write its first record).
  bool is_open() const { return file_ != nullptr; }

  bool sync() const { return sync_; }

  /// Emulated device-sync latency: every fdatasync additionally busy-waits
  /// this long. Benchmarking knob ONLY — virtualized hosts often absorb
  /// flushes in a write cache in ~100µs, which hides exactly the cost that
  /// group commit amortizes; this restores a realistic (e.g. SATA-class,
  /// 1-5ms) device round trip. Never set in production paths.
  void set_emulated_sync_delay_us(uint32_t us) { sync_delay_us_ = us; }
  uint32_t emulated_sync_delay_us() const { return sync_delay_us_; }

 private:
  /// Writes one framed record into the stdio buffer.
  Status WriteFramed(const Bytes& record);

  std::FILE* file_ = nullptr;
  bool sync_ = false;
  uint32_t sync_delay_us_ = 0;
};

/// \brief Reads every valid record from a WAL file. Returns the longest
/// valid prefix; a trailing torn/corrupt record is silently dropped (and
/// reported via `truncated`).
Result<std::vector<Bytes>> ReadWal(const std::string& path, bool* truncated);

/// Receives a file's contents one chunk at a time.
using ChunkSink = std::function<Status(const Bytes& chunk)>;

/// \brief Atomically and durably replaces `path` with `contents`: write
/// `path`.tmp, fsync it, rename it over `path`, fsync the directory. After
/// an OK return the new contents survive power loss; after a crash at any
/// point `path` holds either the old or the new contents, never a mix.
Status AtomicWriteFile(const std::string& path, const Bytes& contents);

/// \brief AtomicWriteFile for contents too large to hold in memory at once:
/// `produce` writes them chunk by chunk into the temp file through the sink
/// it is handed. An error from `produce` (or the sink) aborts the replace
/// and leaves `path` untouched.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(const ChunkSink&)>& produce);

/// \brief Reads an entire file. NotFound when it does not exist.
Result<Bytes> ReadFileBytes(const std::string& path);

}  // namespace storage
}  // namespace tcvs
