// Little-endian byte codec shared by the binary snapshot format
// (replay/binary.*), the fleet wire protocol (fleet/handoff.*) and the
// verifier's state encoding (verify/statespace.*).
//
// Each record layout is written once, as a `transfer(Io&, Record&)`
// template that runs over a ByteWriter to encode and over a ByteReader to
// decode:
//
//   template <typename Io>
//   void transfer(Io& io, Grant& grant) {
//     io.field(grant.index);
//     io.field(grant.seed);
//   }
//
// The writer only reads the record, so an encoder may hand it a const
// record through const_cast. Range checks go through check(), which fails
// the decode; the writer ignores it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace umlsoc::support {

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends to `buffer`, keeping its bytes and capacity; take() hands it
  /// back.
  explicit ByteWriter(std::string buffer) : buffer_(std::move(buffer)) {}

  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { raw(&value, sizeof value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void bytes(std::string_view value) { buffer_.append(value); }

  /// Writes `value` at its own width: bool as one byte, std::string as a
  /// u32 length and its bytes, integers and enums little-endian.
  template <typename T>
  void field(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      u8(value ? 1 : 0);
    } else if constexpr (std::is_same_v<T, std::string>) {
      u32(static_cast<std::uint32_t>(value.size()));
      bytes(value);
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
      raw(&value, sizeof value);
    }
  }

  /// Writes a u32 count, then each element through `element(item)`, or
  /// through field() when no `element` is given.
  template <typename Container, typename Element>
  void sequence(Container& items, Element&& element) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (auto& item : items) element(item);
  }
  template <typename Container>
  void sequence(Container& items) {
    sequence(items, [this](const auto& item) { field(item); });
  }

  /// Overwrites the unsigned integer written earlier at `offset`, such as
  /// a length or checksum placeholder.
  template <typename T>
  void patch(std::size_t offset, T value) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof value; ++i) {
      buffer_[offset + i] = static_cast<char>(value >> (8 * i));
    }
  }

  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  [[nodiscard]] std::string take() { return std::move(buffer_); }
  [[nodiscard]] const std::string& buffer() const { return buffer_; }

 private:
  void raw(const void* data, std::size_t size) {
    if constexpr (std::endian::native == std::endian::little) {
      buffer_.append(static_cast<const char*>(data), size);
    } else {
      const auto* first = static_cast<const unsigned char*>(data);
      for (std::size_t i = size; i-- > 0;) buffer_.push_back(static_cast<char>(first[i]));
    }
  }

  std::string buffer_;
};

/// Bounds-checked reader. The first overrun latches `failed()`; subsequent
/// reads return zero so decoders can run to completion and report once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    std::uint8_t value = 0;
    raw(&value, 1);
    return value;
  }
  std::uint16_t u16() {
    std::uint16_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::string_view bytes(std::size_t size) {
    if (failed_ || data_.size() - position_ < size) {
      failed_ = true;
      return {};
    }
    const std::string_view view = data_.substr(position_, size);
    position_ += size;
    return view;
  }

  /// Reads `value` in ByteWriter::field's layout.
  template <typename T>
  void field(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = u8() != 0;
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::string_view view = bytes(u32());
      value.assign(view.data(), view.size());
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
      value = T{};
      raw(&value, sizeof value);
    }
  }

  /// Reads a u32 count, then appends elements decoded by `element(item)`
  /// (or field()) until the count is reached or the input runs out. The
  /// count is never trusted to size the container.
  template <typename Container, typename Element>
  void sequence(Container& items, Element&& element) {
    const std::uint32_t count = u32();
    for (std::uint32_t i = 0; i < count && !failed_; ++i) element(items.emplace_back());
  }
  template <typename Container>
  void sequence(Container& items) {
    sequence(items, [this](auto& item) { field(item); });
  }

  /// Latches a decode failure, as an overrun does; for out-of-range values.
  void fail() { failed_ = true; }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t position() const { return position_; }
  [[nodiscard]] std::size_t remaining() const { return failed_ ? 0 : data_.size() - position_; }
  [[nodiscard]] bool exhausted() const { return !failed_ && position_ == data_.size(); }

 private:
  void raw(void* out, std::size_t size) {
    const std::string_view view = bytes(size);
    if (view.size() != size) return;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, view.data(), size);
    } else {
      auto* first = static_cast<unsigned char*>(out);
      for (std::size_t i = 0; i < size; ++i) {
        first[i] = static_cast<unsigned char>(view[size - 1 - i]);
      }
    }
  }

  std::string_view data_;
  std::size_t position_ = 0;
  bool failed_ = false;
};

/// Range check inside a transfer(): decoding fails when `ok` is false. The
/// writer encodes only in-range values, so it ignores the check.
inline void check(ByteWriter&, bool) {}
inline void check(ByteReader& in, bool ok) {
  if (!ok) in.fail();
}

}  // namespace umlsoc::support
