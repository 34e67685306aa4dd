// Wire format of the socket transport: length-prefixed frames.
//
// Every frame is  [u32 length][u8 type][type-specific body] , all integers
// little-endian, `length` counting the bytes after itself.  Frame types:
//
//   kHello        u32 protocol version, i32 sending process index — first
//                 frame on every connection; the acceptor learns who dialed.
//   kData         the vmpi::WireMessage envelope: i32 source, i32 dest,
//                 i64 tag, u64 flow, u64 seq, u64 count, count doubles.
//   kBlob         i32 process, u64 size, bytes — gather contribution.
//   kBlobAll      u64 count, then per process u64 size + bytes — the
//                 assembled allgather result, broadcast by process 0.
//
// Type 3 stays unassigned so the other types keep their wire values; it
// decodes as an unknown type.
//
// Encoding returns the full frame (prefix included); decode_frame takes the
// body (prefix already consumed by the connection's reassembly buffer) and
// throws std::runtime_error on malformed input — a protocol error, never a
// recoverable condition.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vmpi/transport.hpp"

namespace anyblock::net {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard cap on one frame's body; a length above this is treated as stream
/// corruption.  Generous: a 128 MiB tile payload is ~4096x4096 doubles.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 27;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kData = 2,
  kBlob = 4,
  kBlobAll = 5,
};

std::string encode_hello(int process);
std::string encode_data(const vmpi::WireMessage& message);
std::string encode_blob(int process, std::string_view bytes);
std::string encode_blob_all(const std::vector<std::string>& blobs);

/// One decoded frame; the fields populated depend on `type`.
struct Frame {
  FrameType type = FrameType::kHello;
  int process = -1;                ///< kHello, kBlob
  vmpi::WireMessage message;       ///< kData
  std::string blob;                ///< kBlob
  std::vector<std::string> blobs;  ///< kBlobAll
};

/// Decodes a frame body (without the u32 length prefix).
Frame decode_frame(std::string_view body);

}  // namespace anyblock::net
