#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace util {

/// \brief Append-only little-endian encoder for wire messages and digest
/// preimages.
///
/// All multi-byte integers are little-endian; variable-size byte strings are
/// length-prefixed with a u32. The format is self-delimiting so a Reader can
/// decode a concatenation of fields written by a Writer.
class Writer {
 public:
  Writer() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Length-prefixed byte string.
  void PutBytes(const Bytes& b);
  /// Length-prefixed UTF-8/byte string.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix (caller knows the size, e.g. digests).
  void PutRaw(const Bytes& b);

  const Bytes& buffer() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  /// Empties the buffer, keeping its capacity (reuse as a chunk buffer).
  void Clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

/// \brief Cursor-based decoder matching Writer's format.
///
/// Every accessor returns OutOfRange if the buffer is exhausted, making
/// malformed (possibly malicious) wire messages a recoverable error rather
/// than UB.
class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  /// Reads a u32 length prefix then that many bytes.
  Result<Bytes> GetBytes();
  Result<std::string> GetString();
  /// Reads exactly `n` raw bytes.
  Result<Bytes> GetRaw(size_t n);

  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  const Bytes& buf_;
  size_t pos_ = 0;
};

}  // namespace util
}  // namespace tcvs
