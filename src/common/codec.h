#ifndef FW_COMMON_CODEC_H_
#define FW_COMMON_CODEC_H_

// Little-endian binary payload codec for every persisted byte: the
// durability file formats (DESIGN.md §16) and the ExecutorCheckpoint
// layout (exec/checkpoint.h). Deliberately tiny: fixed-width integers,
// IEEE-754 doubles as bit patterns, and length-prefixed byte strings —
// nothing locale- or host-order dependent, so payloads verify and decode
// identically on every machine.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace fw {

/// Appends fields to an owned byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after `buf`'s contents, reusing its storage; Take() hands it
  /// back.
  explicit ByteWriter(std::string buf) : buf_(std::move(buf)) {}

  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) { Fixed<4>(v); }

  void U64(uint64_t v) { Fixed<8>(v); }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  /// Doubles persist as their bit patterns — exact round-trip, no
  /// formatting involved.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  /// Raw bytes, no length prefix (the caller writes the size it needs).
  void Bytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <int N>
  void Fixed(uint64_t v) {
    char out[N];
    for (int i = 0; i < N; ++i) out[i] = static_cast<char>(v >> (8 * i));
    buf_.append(out, N);
  }

  std::string buf_;
};

/// Bounds-checked reader over a byte buffer. Every getter returns false
/// (and latches `ok() == false`) on underrun instead of reading past the
/// end, so decoding corrupt payloads degrades to a Status, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(uint32_t* v) {
    uint64_t out = 0;
    if (!Fixed(4, &out)) return false;
    *v = static_cast<uint32_t>(out);
    return true;
  }

  bool U64(uint64_t* v) { return Fixed(8, v); }

  bool I64(int64_t* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }

  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  /// A view of the next `size` raw bytes; fails before touching memory
  /// when fewer remain, so a forged size never drives an allocation.
  bool Bytes(size_t size, std::string_view* out) {
    if (!Need(size)) return false;
    *out = data_.substr(pos_, size);
    pos_ += size;
    return true;
  }

  bool Str(std::string* s) {
    uint32_t len = 0;
    std::string_view bytes;
    if (!U32(&len) || !Bytes(len, &bytes)) return false;
    s->assign(bytes);
    return true;
  }

  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  bool Fixed(int n, uint64_t* v) {
    if (!Need(static_cast<size_t>(n))) return false;
    uint64_t out = 0;
    for (int i = 0; i < n; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
             << (8 * i);
    }
    *v = out;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fw

#endif  // FW_COMMON_CODEC_H_
