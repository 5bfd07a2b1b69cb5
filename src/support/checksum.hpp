// XXH64, the 64-bit xxHash, written from its published specification
// (github.com/Cyan4973/xxHash, doc/xxhash_spec.md). It checksums the binary
// snapshot format's header and frames (replay/binary.*) and fingerprints
// the verifier's visited states (verify/statespace.*).
//
// Four independent lanes take one 8-byte word each per 32-byte stripe, so
// it hashes several bytes per cycle where a byte-serial FNV-1a hashes one.
// Each lane round is a bijection of its input word: a single flipped bit
// always changes that lane's state.
#pragma once

#include <cstdint>
#include <string_view>

namespace umlsoc::support {

/// XXH64 of `data` under `seed`; xxh64("", 0) == 0xEF46DB3751D8E999.
[[nodiscard]] std::uint64_t xxh64(std::string_view data, std::uint64_t seed = 0);

}  // namespace umlsoc::support
