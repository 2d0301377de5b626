// Byte-stream serialization.
//
// The paper's data interface moves "generic byte streams" between backends
// (filesystem / tar archive / database) with a single configuration switch.
// ByteWriter/ByteReader are the canonical encoding used by every component
// that serializes state: little-endian fixed-width integers, doubles, length-
// prefixed strings and vectors.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mummi::util {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `buffer`'s storage from the start: its bytes are dropped
  /// and its capacity kept, so a buffer handed back for every save grows
  /// once instead of once per save.
  explicit ByteWriter(Bytes buffer) : buf_(std::move(buffer)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  void bytes(const Bytes& b) {
    u64(b.size());
    raw(b.data(), b.size());
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed section written in place: the same bytes as
  /// `bytes(blob)` for the blob `write()` would produce on a fresh writer,
  /// without building that blob. The u64 length is reserved up front and
  /// patched once `write()` returns.
  template <typename Fn>
  void section(Fn&& write) {
    const std::size_t at = buf_.size();
    u64(0);
    write();
    const std::uint64_t n = buf_.size() - at - sizeof(std::uint64_t);
    std::memcpy(buf_.data() + at, &n, sizeof n);
  }

  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // empty vectors hand out a null data()
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  // A reader only borrows the buffer; binding a temporary would dangle.
  explicit ByteReader(Bytes&&) = delete;
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { std::uint8_t v; raw(&v, 1); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }
  float f32() { float v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }

  std::string str() {
    const auto n = len(u64());
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  Bytes bytes() {
    const auto n = len(u64());
    Bytes b(n);
    raw(b.data(), n);
    return b;
  }

  /// Reader over the next length-prefixed section (see ByteWriter::section)
  /// that borrows this reader's buffer; this reader skips past it. A length
  /// beyond the remaining bytes throws FormatError before anything is read.
  ByteReader section() {
    const auto n = len(u64());
    ByteReader sub(data_ + pos_, n);
    pos_ += n;
    return sub;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = u64();
    if (count > remaining() / sizeof(T))
      throw FormatError("byte stream truncated (vector)");
    std::vector<T> v(count);
    raw(v.data(), count * sizeof(T));
    return v;
  }

  void raw(void* p, std::size_t n) {
    if (n > remaining()) throw FormatError("byte stream truncated");
    if (n == 0) return;  // empty vectors hand out a null data()
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }

 private:
  std::size_t len(std::uint64_t n) {
    if (n > remaining()) throw FormatError("byte stream truncated (length)");
    return static_cast<std::size_t>(n);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Converts between Bytes and std::string (for text payloads).
[[nodiscard]] Bytes to_bytes(const std::string& s);
[[nodiscard]] std::string to_string(const Bytes& b);

/// FNV-1a 64-bit hash — key sharding in the KV cluster and content checks.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n);
[[nodiscard]] std::uint64_t fnv1a(const std::string& s);

}  // namespace mummi::util
