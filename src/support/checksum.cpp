#include "support/checksum.hpp"

#include <bit>
#include <cstring>

namespace umlsoc::support {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Little-endian load of a T from `bytes`.
template <typename T>
T load(const char* bytes) {
  T value = 0;
  std::memcpy(&value, bytes, sizeof value);
  if constexpr (std::endian::native == std::endian::big) {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof value; ++i) {
      swapped = static_cast<T>((swapped << 8) | ((value >> (8 * i)) & 0xff));
    }
    value = swapped;
  }
  return value;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

std::uint64_t merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(std::string_view data, std::uint64_t seed) {
  const char* p = data.data();
  const char* const end = p + data.size();
  std::uint64_t acc = 0;
  if (data.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load<std::uint64_t>(p));
      v2 = lane_round(v2, load<std::uint64_t>(p + 8));
      v3 = lane_round(v3, load<std::uint64_t>(p + 16));
      v4 = lane_round(v4, load<std::uint64_t>(p + 24));
    }
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    acc = merge(merge(merge(merge(acc, v1), v2), v3), v4);
  } else {
    acc = seed + kPrime5;
  }
  acc += data.size();
  for (; end - p >= 8; p += 8) {
    acc = std::rotl(acc ^ lane_round(0, load<std::uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc = std::rotl(acc ^ load<std::uint32_t>(p) * kPrime1, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p != end; ++p) {
    acc = std::rotl(acc ^ static_cast<unsigned char>(*p) * kPrime5, 11) * kPrime1;
  }
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace umlsoc::support
