// Tests for the PVM-style message pack/unpack buffers.

#include "runtime/message.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace hbsp::rt {
namespace {

TEST(PackBuffer, TypedRoundTrip) {
  PackBuffer out;
  out.pack<std::int32_t>(-7);
  out.pack<double>(2.5);
  out.pack<std::uint8_t>(0xAB);

  UnpackBuffer in{out.bytes()};
  EXPECT_EQ(in.unpack<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(in.unpack<double>(), 2.5);
  EXPECT_EQ(in.unpack<std::uint8_t>(), 0xAB);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(PackBuffer, SpanRoundTrip) {
  const std::vector<std::int64_t> values{1, -2, 3, -4};
  PackBuffer out;
  out.pack_span<std::int64_t>(values);
  EXPECT_EQ(out.size(), values.size() * sizeof(std::int64_t));

  UnpackBuffer in{out.bytes()};
  EXPECT_EQ(in.unpack_span<std::int64_t>(4), values);
}

TEST(PackBuffer, MixedScalarAndSpan) {
  PackBuffer out;
  out.pack<std::int32_t>(3);  // count prefix
  const std::vector<float> values{1.5f, 2.5f, 3.5f};
  out.pack_span<float>(values);

  UnpackBuffer in{out.bytes()};
  const auto count = in.unpack<std::int32_t>();
  EXPECT_EQ(in.unpack_span<float>(static_cast<std::size_t>(count)), values);
}

TEST(PackBuffer, TakeMovesAndClears) {
  PackBuffer out;
  out.pack<std::int32_t>(1);
  const auto bytes = out.take();
  EXPECT_EQ(bytes.size(), 4u);
  EXPECT_EQ(out.size(), 0u);
}

TEST(PackBuffer, ClearResets) {
  PackBuffer out;
  out.pack<double>(1.0);
  out.clear();
  EXPECT_EQ(out.size(), 0u);
}

TEST(UnpackBuffer, ReadPastEndThrows) {
  PackBuffer out;
  out.pack<std::int32_t>(5);
  UnpackBuffer in{out.bytes()};
  (void)in.unpack<std::int32_t>();
  EXPECT_THROW((void)in.unpack<std::int32_t>(), std::out_of_range);
}

TEST(UnpackBuffer, SpanPastEndThrows) {
  PackBuffer out;
  out.pack<std::int32_t>(5);
  UnpackBuffer in{out.bytes()};
  EXPECT_THROW((void)in.unpack_span<std::int32_t>(2), std::out_of_range);
}

TEST(UnpackBuffer, ZeroCountSpanIsFine) {
  UnpackBuffer in{std::span<const std::byte>{}};
  EXPECT_TRUE(in.unpack_span<std::int32_t>(0).empty());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(Message, UnpackAll) {
  const std::vector<std::int32_t> values{10, 20, 30};
  PackBuffer out;
  out.pack_span<std::int32_t>(values);
  Message message;
  message.payload = out.take();
  message.items = 3;
  EXPECT_EQ(message.unpack_all<std::int32_t>(), values);
}

TEST(Message, UnpackAllSizeMismatchThrows) {
  Message message;
  message.payload.resize(5);  // not a multiple of 4
  EXPECT_THROW((void)message.unpack_all<std::int32_t>(), std::length_error);
}

TEST(Message, UnpackAllEmptyPayload) {
  Message message;
  EXPECT_TRUE(message.unpack_all<std::int32_t>().empty());
}

TEST(Message, AppendToExtendsExistingValues) {
  const std::vector<std::int32_t> values{-1, 2, -3};
  PackBuffer out;
  out.pack_span<std::int32_t>(values);
  Message message;
  message.payload = out.take();
  std::vector<std::int32_t> sink{7, 8};
  message.append_to(sink);
  EXPECT_EQ(sink, (std::vector<std::int32_t>{7, 8, -1, 2, -3}));
  message.append_to(sink);
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.back(), -3);
}

TEST(Message, AppendToEmptyPayloadIsNoOp) {
  Message message;
  std::vector<std::int32_t> sink{4};
  message.append_to(sink);
  EXPECT_EQ(sink, std::vector<std::int32_t>{4});
}

TEST(Message, AppendToSizeMismatchThrowsAndLeavesTargetUntouched) {
  Message message;
  message.payload.resize(6);  // not a multiple of 4
  std::vector<std::int32_t> sink{1, 2};
  EXPECT_THROW(message.append_to(sink), std::length_error);
  EXPECT_EQ(sink, (std::vector<std::int32_t>{1, 2}));
}

}  // namespace
}  // namespace hbsp::rt
