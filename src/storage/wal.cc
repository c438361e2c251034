#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/fault.h"
#include "util/metrics.h"

namespace tcvs {
namespace storage {

namespace {

const uint32_t* CrcTable() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  const uint32_t* table = CrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const Bytes& data) { return Crc32(data.data(), data.size()); }

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_),
      sync_(other.sync_),
      sync_delay_us_(other.sync_delay_us_) {
  other.file_ = nullptr;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    sync_ = other.sync_;
    sync_delay_us_ = other.sync_delay_us_;
    other.file_ = nullptr;
  }
  return *this;
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<WalWriter> WalWriter::Open(const std::string& path, bool sync) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Errno("open wal " + path);
  WalWriter w;
  w.file_ = f;
  w.sync_ = sync;
  return w;
}

Status WalWriter::Append(const Bytes& record) {
  TCVS_RETURN_NOT_OK(AppendNoFlush(record));
  return Flush();
}

Status WalWriter::AppendNoFlush(const Bytes& record) {
  if (file_ == nullptr) return Status::FailedPrecondition("wal closed");
  TCVS_SPAN("storage.wal.append");
  static util::Counter* const appends =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.wal.appends_total");
  static util::Counter* const bytes = util::MetricsRegistry::Instance()
                                          .GetCounter("storage.wal.bytes_total");
  appends->Increment();
  bytes->Increment(8 + record.size());
  uint8_t header[8];
  uint32_t len = static_cast<uint32_t>(record.size());
  uint32_t crc = Crc32(record);
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(len >> (8 * i));
  for (int i = 0; i < 4; ++i) {
    header[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  uint64_t torn_at = 0;
  if (util::FaultInjector::Instance().ShouldFail(kFaultWalTorn, &torn_at)) {
    // Crash mid-append: only the first `torn_at` bytes of the framed record
    // reach the file, exactly the tail a power cut leaves behind.
    Bytes framed(header, header + 8);
    framed.insert(framed.end(), record.begin(), record.end());
    size_t cut = static_cast<size_t>(torn_at) < framed.size()
                     ? static_cast<size_t>(torn_at)
                     : framed.size();
    if (cut > 0) std::fwrite(framed.data(), 1, cut, file_);
    std::fflush(file_);
    return Status::IOError("fault injected: " + std::string(kFaultWalTorn));
  }
  if (std::fwrite(header, 1, 8, file_) != 8) return Errno("wal write header");
  if (!record.empty() &&
      std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Errno("wal write payload");
  }
  return Status::OK();
}

Status WalWriter::Flush() {
  if (file_ == nullptr) return Status::FailedPrecondition("wal closed");
  if (std::fflush(file_) != 0) return Errno("wal flush");
  if (sync_) {
    if (util::FaultInjector::Instance().ShouldFail(kFaultWalSyncFail)) {
      return Status::IOError("fault injected: " +
                             std::string(kFaultWalSyncFail));
    }
    TCVS_SPAN("storage.wal.fsync");
    static util::Counter* const fsyncs =
        util::MetricsRegistry::Instance().GetCounter(
            "storage.wal.fsyncs_total");
    fsyncs->Increment();
    if (::fdatasync(::fileno(file_)) != 0) return Errno("wal fdatasync");
    if (sync_delay_us_ > 0) {
      // Emulated device round trip (bench knob; see header). Sleeps — like
      // real I/O, the wait yields the CPU to concurrently staging threads.
      std::this_thread::sleep_for(std::chrono::microseconds(sync_delay_us_));
    }
  }
  return Status::OK();
}

Result<std::vector<Bytes>> ReadWal(const std::string& path, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return std::vector<Bytes>{};
    return Errno("open wal " + path);
  }
  std::vector<Bytes> records;
  for (;;) {
    uint8_t header[8];
    size_t got = std::fread(header, 1, 8, f);
    if (got == 0) break;  // Clean EOF.
    if (got < 8) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) len |= uint32_t(header[i]) << (8 * i);
    for (int i = 0; i < 4; ++i) crc |= uint32_t(header[4 + i]) << (8 * i);
    if (len > (64u << 20)) {  // Absurd length: treat as torn tail.
      if (truncated != nullptr) *truncated = true;
      break;
    }
    Bytes payload(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    if (Crc32(payload) != crc) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    records.push_back(std::move(payload));
  }
  std::fclose(f);
  static util::Counter* const replayed =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.wal.replayed_records_total");
  static util::Counter* const torn = util::MetricsRegistry::Instance().GetCounter(
      "storage.wal.torn_tails_total");
  replayed->Increment(records.size());
  if (truncated != nullptr && *truncated) torn->Increment();
  return records;
}

Status AtomicWriteFile(const std::string& path, const Bytes& contents) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Errno("open " + tmp);
  if (!contents.empty() &&
      std::fwrite(contents.data(), 1, contents.size(), f) != contents.size()) {
    std::fclose(f);
    return Errno("write " + tmp);
  }
  // The contents must be durable BEFORE the rename publishes them: a
  // rename that reaches the disk ahead of the data would replace a good
  // file with an empty one on power loss.
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    std::fclose(f);
    return Errno("flush " + tmp);
  }
  std::fclose(f);
  if (util::FaultInjector::Instance().ShouldFail(kFaultAtomicCrash)) {
    // Crash between write and rename: the temp file exists, the
    // destination is untouched — the atomicity contract this fault tests.
    return Status::IOError("fault injected: " +
                           std::string(kFaultAtomicCrash));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename " + tmp + " -> " + path);
  }
  // The rename itself is a directory update; sync the directory so callers
  // (DurableServer::Checkpoint truncates the WAL next) can rely on it.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return Errno("open directory " + dir);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return Errno("fsync directory " + dir);
  return Status::OK();
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Errno("open " + path);
  }
  Bytes out;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

Status TruncateFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Errno("truncate " + path);
  std::fclose(f);
  return Status::OK();
}

}  // namespace storage
}  // namespace tcvs
