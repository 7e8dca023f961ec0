// fnv.hpp — FNV-1a, the repo's one checksum.
//
// Used for per-block integrity sums (block_device.cpp) and output
// fingerprints in tests.  One shared definition so a sum recorded by one
// layer is verifiable by another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace emsplit {

/// FNV-1a over a byte span.
inline std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace emsplit
