#pragma once

#include <cstdio>
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
/// @}

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// string — the per-record integrity check of the write-ahead log.
uint32_t Crc32(const uint8_t* data, size_t len);
uint32_t Crc32(const Bytes& data);

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
  /// sync mode).
  Status Flush();

  void Close();

  bool sync() const { return sync_; }

  /// Emulated device-sync latency: every fdatasync additionally busy-waits
  /// this long. Benchmarking knob ONLY — virtualized hosts often absorb
  /// flushes in a write cache in ~100µs, which hides exactly the cost that
  /// group commit amortizes; this restores a realistic (e.g. SATA-class,
  /// 1-5ms) device round trip. Never set in production paths.
  void set_emulated_sync_delay_us(uint32_t us) { sync_delay_us_ = us; }
  uint32_t emulated_sync_delay_us() const { return sync_delay_us_; }

 private:
  std::FILE* file_ = nullptr;
  bool sync_ = false;
  uint32_t sync_delay_us_ = 0;
};

/// \brief Reads every valid record from a WAL file. Returns the longest
/// valid prefix; a trailing torn/corrupt record is silently dropped (and
/// reported via `truncated`).
Result<std::vector<Bytes>> ReadWal(const std::string& path, bool* truncated);

/// \brief Atomically and durably replaces `path` with `contents`: write
/// `path`.tmp, fsync it, rename it over `path`, fsync the directory. After
/// an OK return the new contents survive power loss; after a crash at any
/// point `path` holds either the old or the new contents, never a mix.
Status AtomicWriteFile(const std::string& path, const Bytes& contents);

/// \brief Reads an entire file. NotFound when it does not exist.
Result<Bytes> ReadFileBytes(const std::string& path);

/// \brief Truncates a file to zero length (creating it if absent).
Status TruncateFile(const std::string& path);

}  // namespace storage
}  // namespace tcvs
