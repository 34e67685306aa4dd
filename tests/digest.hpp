// Byte-stable digests for golden tests.
//
// A pinned digest keeps a reference that lives outside the code it checks:
// the literal was recorded once from a known-good build, and any later
// change to a trajectory, a task graph or a factor shows up as a mismatch.
// Values are serialized little-endian, so the digests do not depend on the
// host's byte order.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "util/hash.hpp"

namespace anyblock::testing_digest {

/// Accumulates fixed-width little-endian fields, then hashes them with
/// FNV-1a 64.
class Digest {
 public:
  Digest& add(std::uint64_t value) {
    for (int b = 0; b < 8; ++b)
      bytes_.push_back(static_cast<char>((value >> (8 * b)) & 0xffu));
    return *this;
  }
  Digest& add(std::int64_t value) {
    return add(static_cast<std::uint64_t>(value));
  }
  Digest& add(std::int32_t value) { return add(std::int64_t{value}); }
  Digest& add(double value) { return add(bits(value)); }

  [[nodiscard]] std::uint64_t value() const { return fnv1a64(bytes_); }

  /// IEEE-754 bit pattern of a double (bit-exact comparisons in literals).
  static std::uint64_t bits(double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
  }

 private:
  std::string bytes_;
};

}  // namespace anyblock::testing_digest
