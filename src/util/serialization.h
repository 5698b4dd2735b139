#ifndef PEREACH_UTIL_SERIALIZATION_H_
#define PEREACH_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bitset.h"
#include "src/util/logging.h"
#include "src/util/status.h"

namespace pereach {

/// Append-only byte buffer with varint and fixed-width primitives. Every
/// payload that crosses a simulated site boundary is encoded through this
/// class so that reported network traffic reflects real byte counts.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  /// LEB128-style variable-length unsigned integer (1 byte for values < 128).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  void PutDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Appends raw bytes (no length prefix).
  void PutRaw(const std::vector<uint8_t>& bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Appends a length-prefixed frame — the multiplexing unit of batched
  /// replies: one frame per query inside one wire payload.
  void PutFrame(const std::vector<uint8_t>& bytes) {
    PutVarint(bytes.size());
    PutRaw(bytes);
  }

  /// Encodes a bitset as its bit length followed by ceil(n/8) payload bytes —
  /// the "|Fi.O| bits per equation" wire format of the paper's traffic bound.
  void PutBitset(const Bitset& b) {
    PutVarint(b.size());
    const size_t num_bytes = (b.size() + 7) / 8;
    const std::vector<uint64_t>& words = b.words();
    for (size_t i = 0; i < num_bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(words[i >> 3] >> (8 * (i & 7))));
    }
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential reader over a byte buffer produced by Encoder. Every read is
/// bounds-checked; what a violation does depends on the error mode chosen at
/// construction:
///
///   - `OnError::kAbort` (default): a truncated or malformed payload
///     CHECK-aborts with a diagnostic instead of reading out of range,
///     over-allocating, or fabricating data. Correct for trusted in-process
///     buffers this program encoded itself, where corruption is a bug.
///   - `OnError::kStatus`: the first violation records a sticky Corruption
///     status; that read and every subsequent read return a zero/empty value
///     and `ok()` turns false. Required at every transport ingress — one
///     corrupt frame from a socket peer must reject the message, never kill
///     the server (DESIGN.md §13).
///
/// In kStatus mode callers poll `ok()` at decode checkpoints and must treat
/// all intermediate values as garbage once it is false. Sub-decoders from
/// `GetFrame()` inherit the mode but track their own status: check both.
class Decoder {
 public:
  enum class OnError : uint8_t { kAbort, kStatus };

  explicit Decoder(const std::vector<uint8_t>& buf,
                   OnError on_error = OnError::kAbort)
      : data_(buf.data()), size_(buf.size()), on_error_(on_error) {}

  /// View over a raw byte range (used for sub-frames of batched payloads).
  Decoder(const uint8_t* data, size_t size, OnError on_error = OnError::kAbort)
      : data_(data), size_(size), on_error_(on_error) {}

  [[nodiscard]] uint8_t GetU8() {
    if (!Check(pos_ < size_, "decoder: truncated payload")) return 0;
    return data_[pos_++];
  }

  [[nodiscard]] uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(GetU8()) << (8 * i);
    return v;
  }

  [[nodiscard]] uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(GetU8()) << (8 * i);
    return v;
  }

  [[nodiscard]] uint64_t GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      const uint8_t byte = GetU8();
      if (failed_) return 0;
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (!Check(shift < 64, "decoder: overlong varint")) return 0;
    }
    return v;
  }

  /// Reads a varint that declares a count of elements occupying at least
  /// `min_element_bytes` each. A count the remaining buffer cannot possibly
  /// hold fails here, before any allocation — a malformed length can
  /// otherwise request a multi-gigabyte resize and die far from the cause.
  [[nodiscard]] size_t GetCount(size_t min_element_bytes = 1) {
    const uint64_t n = GetVarint();
    if (!Check(min_element_bytes == 0 || n <= remaining() / min_element_bytes,
               "decoder: count exceeds payload size")) {
      return 0;
    }
    return static_cast<size_t>(n);
  }

  [[nodiscard]] double GetDouble() {
    const uint64_t bits = GetU64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string GetString() {
    // remaining()-relative comparison avoids the pos_ + n overflow that a
    // near-SIZE_MAX length would slip past an absolute bounds check.
    const uint64_t n = GetVarint();
    if (!Check(n <= remaining(), "decoder: truncated string")) return "";
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  [[nodiscard]] Bitset GetBitset() {
    // Compare bit counts, not (num_bits + 7) / 8: a length near UINT64_MAX
    // would wrap the byte count to 0 and slip past the check.
    const uint64_t num_bits = GetVarint();
    if (!Check(num_bits <= 8 * static_cast<uint64_t>(remaining()),
               "decoder: truncated bitset")) {
      return Bitset(0);
    }
    const uint64_t num_bytes = (num_bits + 7) / 8;
    Bitset b(static_cast<size_t>(num_bits));
    std::vector<uint64_t>& words = b.mutable_words();
    for (size_t i = 0; i < num_bytes; ++i) {
      words[i >> 3] |= static_cast<uint64_t>(GetU8()) << (8 * (i & 7));
    }
    return b;
  }

  /// Consumes a length-prefixed frame and returns a decoder over its bytes.
  /// The frame must lie entirely within the remaining buffer. The sub-decoder
  /// inherits the error mode but keeps its own status.
  [[nodiscard]] Decoder GetFrame() {
    const uint64_t n = GetVarint();
    if (!Check(n <= remaining(), "decoder: truncated frame")) {
      return Decoder(data_, 0, on_error_);
    }
    Decoder sub(data_ + pos_, static_cast<size_t>(n), on_error_);
    pos_ += static_cast<size_t>(n);
    return sub;
  }

  /// False once any read failed, regardless of position.
  [[nodiscard]] bool Done() const { return !failed_ && pos_ == size_; }
  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] size_t remaining() const { return size_ - pos_; }

  /// Content validation for Deserialize bodies: a decoded value that breaks
  /// its payload's invariants (an index past its table, a reference to an
  /// entry that does not exist) fails the decoder exactly like a malformed
  /// read. Returns `cond`.
  bool Require(bool cond, const char* msg) { return Check(cond, msg); }

  /// kStatus mode: true until the first malformed read. Always true in
  /// kAbort mode (a violation never returns).
  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] Status status() const {
    return failed_ ? Status::Corruption(error_) : Status::OK();
  }

 private:
  /// Returns true when `cond` holds. Otherwise aborts (kAbort) or marks the
  /// decoder failed and exhausts it so no later read touches the buffer
  /// (kStatus); the first failure's message wins.
  bool Check(bool cond, const char* msg) {
    if (cond) return true;
    if (on_error_ == OnError::kAbort) {
      (void)internal_logging::FatalLogMessage(__FILE__, __LINE__, msg);
    }
    if (!failed_) {
      failed_ = true;
      error_ = msg;
    }
    pos_ = size_;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  OnError on_error_;
  bool failed_ = false;
  const char* error_ = "";
};

}  // namespace pereach

#endif  // PEREACH_UTIL_SERIALIZATION_H_
