#include "net/frame.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/connection.hpp"

namespace anyblock::net {
namespace {

// Strips the u32 length prefix and checks it matches the body size — what
// the connection's reassembly buffer does before calling decode_frame.
std::string_view body_of(const std::string& frame) {
  EXPECT_GE(frame.size(), sizeof(std::uint32_t));
  std::uint32_t length = 0;
  std::memcpy(&length, frame.data(), sizeof length);
  EXPECT_EQ(length, frame.size() - sizeof length);
  return std::string_view(frame).substr(sizeof length);
}

TEST(Frame, HelloRoundTrip) {
  const Frame frame = decode_frame(body_of(encode_hello(3)));
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.process, 3);
}

TEST(Frame, DataRoundTrip) {
  vmpi::WireMessage message;
  message.source = 5;
  message.dest = 17;
  message.tag = (std::int64_t{1} << 40) + 7;
  message.flow = (std::uint64_t{2} << 48) | 99;
  message.seq = 12345;
  message.data = {1.5, -2.25, 0.0, 1e300};

  const Frame frame = decode_frame(body_of(encode_data(message)));
  EXPECT_EQ(frame.type, FrameType::kData);
  EXPECT_EQ(frame.message.source, message.source);
  EXPECT_EQ(frame.message.dest, message.dest);
  EXPECT_EQ(frame.message.tag, message.tag);
  EXPECT_EQ(frame.message.flow, message.flow);
  EXPECT_EQ(frame.message.seq, message.seq);
  EXPECT_EQ(frame.message.data, message.data);
}

TEST(Frame, EmptyPayloadRoundTrip) {
  vmpi::WireMessage message;
  message.source = 0;
  message.dest = 1;
  const Frame frame = decode_frame(body_of(encode_data(message)));
  EXPECT_TRUE(frame.message.data.empty());
}

TEST(Frame, BlobRoundTrip) {
  const std::string bytes("\x00\x01\xffpayload", 10);
  const Frame frame = decode_frame(body_of(encode_blob(2, bytes)));
  EXPECT_EQ(frame.type, FrameType::kBlob);
  EXPECT_EQ(frame.process, 2);
  EXPECT_EQ(frame.blob, bytes);
}

TEST(Frame, BlobAllRoundTrip) {
  const std::vector<std::string> blobs = {"first", "", std::string(1000, 'x')};
  const Frame frame = decode_frame(body_of(encode_blob_all(blobs)));
  EXPECT_EQ(frame.type, FrameType::kBlobAll);
  EXPECT_EQ(frame.blobs, blobs);
}

TEST(Frame, TruncatedBodyThrows) {
  const std::string frame = encode_data({0, 1, 7, 0, 0, {1.0, 2.0, 3.0}});
  const std::string_view body = body_of(frame);
  for (const std::size_t keep : {std::size_t{0}, body.size() / 2}) {
    EXPECT_THROW(decode_frame(body.substr(0, keep)), std::runtime_error);
  }
}

TEST(Frame, UnknownTypeThrows) {
  std::string body("\x7f", 1);
  EXPECT_THROW(decode_frame(body), std::runtime_error);
}

TEST(Frame, DataCountBeyondBodyThrows) {
  // A kData header claiming more doubles than the body carries must be
  // rejected, not read out of bounds.
  std::string frame = encode_data({0, 1, 7, 0, 0, {1.0, 2.0}});
  std::string_view body = body_of(frame);
  std::string corrupted(body);
  const std::size_t count_offset =
      1 + sizeof(std::int32_t) * 2 + sizeof(std::int64_t) +
      sizeof(std::uint64_t) * 2;
  const std::uint64_t bogus = 1u << 20;
  std::memcpy(corrupted.data() + count_offset, &bogus, sizeof bogus);
  EXPECT_THROW(decode_frame(corrupted), std::runtime_error);
}

TEST(Connection, DeliversFramesThatArriveTogetherWithEof) {
  // A peer that sends its last frames and exits at once: the frames and
  // the EOF land in one read pass, and every frame must still come out
  // before the connection reports the peer gone.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string bytes =
      encode_blob_all({"zero", "one", "two"}) + encode_blob(1, "tail");
  ASSERT_EQ(write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  close(fds[1]);
  ASSERT_EQ(fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL) | O_NONBLOCK), 0);
  Connection reader(fds[0], 1 << 20);
  std::vector<Frame> frames;
  const bool open = reader.read_frames([&](std::string_view body) {
    frames.push_back(decode_frame(body));
  });
  EXPECT_FALSE(open);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kBlobAll);
  EXPECT_EQ(frames[0].blobs.size(), 3u);
  EXPECT_EQ(frames[1].type, FrameType::kBlob);
  EXPECT_EQ(frames[1].blob, "tail");
}

}  // namespace
}  // namespace anyblock::net
