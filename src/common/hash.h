// FNV-1a 64 over 64-bit words, folded byte by byte (little-endian). The
// packet engine's event digest and the topology fingerprint share it.
#pragma once

#include <cstdint>

namespace d2net {

inline std::uint64_t fnv1a64_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFFu)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace d2net
