#include "net/frame.hpp"

#include <cstring>
#include <stdexcept>

namespace anyblock::net {

namespace {

// The hosts this targets are little-endian (x86-64, aarch64); memcpy of the
// native representation is the wire encoding.  A mixed-endian mesh would
// need byte swaps here and nowhere else.
template <typename T>
void append(std::string& out, T value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

template <typename T>
T take(std::string_view body, std::size_t& offset) {
  T value;
  if (offset + sizeof value > body.size())
    throw std::runtime_error("net: truncated frame");
  std::memcpy(&value, body.data() + offset, sizeof value);
  offset += sizeof value;
  return value;
}

/// Opens a frame of `type`, reserving the length prefix; seal() backpatches
/// the length once the body is complete.
std::string open_frame(FrameType type) {
  std::string frame;
  append<std::uint32_t>(frame, 0);
  append<std::uint8_t>(frame, static_cast<std::uint8_t>(type));
  return frame;
}

std::string seal(std::string frame) {
  const auto length =
      static_cast<std::uint32_t>(frame.size() - sizeof(std::uint32_t));
  std::memcpy(frame.data(), &length, sizeof length);
  return frame;
}

}  // namespace

std::string encode_hello(int process) {
  std::string frame = open_frame(FrameType::kHello);
  append<std::uint32_t>(frame, kProtocolVersion);
  append<std::int32_t>(frame, process);
  return seal(std::move(frame));
}

std::string encode_data(const vmpi::WireMessage& message) {
  std::string frame = open_frame(FrameType::kData);
  frame.reserve(frame.size() + 40 + message.data.size() * sizeof(double));
  append<std::int32_t>(frame, message.source);
  append<std::int32_t>(frame, message.dest);
  append<std::int64_t>(frame, message.tag);
  append<std::uint64_t>(frame, message.flow);
  append<std::uint64_t>(frame, message.seq);
  append<std::uint64_t>(frame, message.data.size());
  frame.append(reinterpret_cast<const char*>(message.data.data()),
               message.data.size() * sizeof(double));
  return seal(std::move(frame));
}

std::string encode_blob(int process, std::string_view bytes) {
  std::string frame = open_frame(FrameType::kBlob);
  append<std::int32_t>(frame, process);
  append<std::uint64_t>(frame, bytes.size());
  frame.append(bytes);
  return seal(std::move(frame));
}

std::string encode_blob_all(const std::vector<std::string>& blobs) {
  std::string frame = open_frame(FrameType::kBlobAll);
  append<std::uint64_t>(frame, blobs.size());
  for (const std::string& blob : blobs) {
    append<std::uint64_t>(frame, blob.size());
    frame.append(blob);
  }
  return seal(std::move(frame));
}

Frame decode_frame(std::string_view body) {
  std::size_t offset = 0;
  Frame frame;
  frame.type = static_cast<FrameType>(take<std::uint8_t>(body, offset));
  switch (frame.type) {
    case FrameType::kHello: {
      const auto version = take<std::uint32_t>(body, offset);
      if (version != kProtocolVersion)
        throw std::runtime_error("net: peer speaks protocol version " +
                                 std::to_string(version) + ", expected " +
                                 std::to_string(kProtocolVersion));
      frame.process = take<std::int32_t>(body, offset);
      return frame;
    }
    case FrameType::kData: {
      frame.message.source = take<std::int32_t>(body, offset);
      frame.message.dest = take<std::int32_t>(body, offset);
      frame.message.tag = take<std::int64_t>(body, offset);
      frame.message.flow = take<std::uint64_t>(body, offset);
      frame.message.seq = take<std::uint64_t>(body, offset);
      const auto count = take<std::uint64_t>(body, offset);
      // Divide rather than multiply: a hostile count must not overflow.
      if (count > (body.size() - offset) / sizeof(double))
        throw std::runtime_error("net: truncated data frame payload");
      frame.message.data.resize(count);
      // An empty payload's data() may be null, which memcpy must not get.
      if (count > 0)
        std::memcpy(frame.message.data.data(), body.data() + offset,
                    count * sizeof(double));
      return frame;
    }
    case FrameType::kBlob: {
      frame.process = take<std::int32_t>(body, offset);
      const auto size = take<std::uint64_t>(body, offset);
      if (size > body.size() - offset)
        throw std::runtime_error("net: truncated blob frame");
      frame.blob.assign(body.data() + offset, size);
      return frame;
    }
    case FrameType::kBlobAll: {
      const auto count = take<std::uint64_t>(body, offset);
      frame.blobs.reserve(count);
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto size = take<std::uint64_t>(body, offset);
        if (size > body.size() - offset)
          throw std::runtime_error("net: truncated blob-all frame");
        frame.blobs.emplace_back(body.data() + offset, size);
        offset += size;
      }
      return frame;
    }
  }
  throw std::runtime_error("net: unknown frame type " +
                           std::to_string(static_cast<int>(frame.type)));
}

}  // namespace anyblock::net
