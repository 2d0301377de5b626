#include "util/npy.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace mummi::util {
namespace {

TEST(Npy, F32RoundTrip) {
  const auto a =
      NpyArray::from_f32({2, 3}, {1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  const auto b = npy_decode(npy_encode(a));
  EXPECT_EQ(b.dtype, NpyType::kF32);
  EXPECT_EQ(b.shape, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(b.f32, a.f32);
}

TEST(Npy, F64RoundTrip) {
  const auto a = NpyArray::from_f64({4}, {1.5, -2.5, 3.25, 0.0});
  const auto b = npy_decode(npy_encode(a));
  EXPECT_EQ(b.dtype, NpyType::kF64);
  EXPECT_EQ(b.shape, (std::vector<std::size_t>{4}));
  EXPECT_EQ(b.f64, a.f64);
}

TEST(Npy, I64RoundTrip) {
  const auto a = NpyArray::from_i64({2, 2}, {-1, 2, -3, 4});
  const auto b = npy_decode(npy_encode(a));
  EXPECT_EQ(b.i64, a.i64);
}

TEST(Npy, ThreeDimensional) {
  std::vector<float> data(2 * 3 * 4);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i);
  const auto b = npy_decode(npy_encode(NpyArray::from_f32({2, 3, 4}, data)));
  EXPECT_EQ(b.shape, (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(b.f32, data);
}

TEST(Npy, ScalarShape) {
  const auto b = npy_decode(npy_encode(NpyArray::from_f64({1}, {3.14})));
  EXPECT_EQ(b.element_count(), 1u);
  EXPECT_DOUBLE_EQ(b.f64[0], 3.14);
}

TEST(Npy, HeaderIsSpecCompliant) {
  const auto bytes = npy_encode(NpyArray::from_f32({5}, {1, 2, 3, 4, 5}));
  ASSERT_GE(bytes.size(), 10u);
  EXPECT_EQ(std::memcmp(bytes.data(), "\x93NUMPY", 6), 0);
  EXPECT_EQ(bytes[6], 1);  // version 1.0
  EXPECT_EQ(bytes[7], 0);
  std::uint16_t hlen;
  std::memcpy(&hlen, bytes.data() + 8, 2);
  // Total header block 64-byte aligned, newline-terminated.
  EXPECT_EQ((10u + hlen) % 64, 0u);
  EXPECT_EQ(bytes[9 + hlen], '\n');
  const std::string header(reinterpret_cast<const char*>(bytes.data() + 10),
                           hlen);
  EXPECT_NE(header.find("'descr': '<f4'"), std::string::npos);
  EXPECT_NE(header.find("'fortran_order': False"), std::string::npos);
  EXPECT_NE(header.find("(5,)"), std::string::npos);
}

TEST(Npy, ShapeDataMismatchRejected) {
  EXPECT_THROW(NpyArray::from_f32({3}, {1.f}), Error);
}

TEST(Npy, GarbageRejected) {
  EXPECT_THROW(npy_decode(to_bytes("not an npy file at all")), FormatError);
  EXPECT_THROW(npy_decode(Bytes{}), FormatError);
}

TEST(Npy, TruncatedDataRejected) {
  auto bytes = npy_encode(NpyArray::from_f64({8}, std::vector<double>(8, 1.0)));
  bytes.resize(bytes.size() - 16);
  EXPECT_THROW(npy_decode(bytes), FormatError);
}

// A v1.0 stream whose header claims `shape` for `descr`, followed by
// `payload` zero bytes; the header is not padded, which the decoder allows.
Bytes forged_npy(const std::string& descr, const std::string& shape,
                 std::size_t payload = 0) {
  const std::string header = "{'descr': '" + descr +
                             "', 'fortran_order': False, 'shape': " + shape +
                             ", }\n";
  const auto hlen = static_cast<std::uint16_t>(header.size());
  std::string raw("\x93NUMPY\x01\x00", 8);
  raw.push_back(static_cast<char>(hlen & 0xff));
  raw.push_back(static_cast<char>(hlen >> 8));
  return to_bytes(raw + header + std::string(payload, '\0'));
}

TEST(Npy, ForgedShapesRejected) {
  // The forging helper itself produces streams the decoder accepts.
  const auto ok = npy_decode(forged_npy("<f4", "(2, 3)", 24));
  EXPECT_EQ(ok.shape, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(ok.f32.size(), 6u);

  // The element count wraps to 0 in 64 bits: 2^32 * 2^32.
  EXPECT_THROW(npy_decode(forged_npy("<f4", "(4294967296, 4294967296)")),
               FormatError);
  // The count fits, but count * 8 bytes wraps to 0: 2^61 * 8.
  EXPECT_THROW(npy_decode(forged_npy("<f8", "(2305843009213693952,)")),
               FormatError);
  // Dimensions that are not non-negative decimal integers in range.
  for (const char* shape : {"(abc,)", "(99999999999999999999999,)", "(-1,)",
                            "(3x,)", "(+3,)"})
    EXPECT_THROW(npy_decode(forged_npy("<f4", shape, 64)), FormatError)
        << shape;
}

TEST(Npy, MalformedHeaderValuesRejected) {
  // Empty, unterminated-quote and unterminated-paren values are format
  // errors, never a std::out_of_range from the header parser.
  EXPECT_THROW(npy_decode(forged_npy("<f4", "", 64)), FormatError);
  EXPECT_THROW(npy_decode(forged_npy("<f4", "(2, 3", 64)), FormatError);
  EXPECT_THROW(npy_decode(forged_npy("<f4", "3", 64)), FormatError);
  auto raw = [](const std::string& header) {
    std::string s("\x93NUMPY\x01\x00", 8);
    s.push_back(static_cast<char>(header.size()));
    s.push_back('\0');
    return to_bytes(s + header);
  };
  EXPECT_THROW(npy_decode(raw("{'descr': '<f4")), FormatError);
  EXPECT_THROW(npy_decode(raw("{'descr': '<f4', 'fortran_order': False, "
                              "'shape': (2, 3")),
               FormatError);
  EXPECT_THROW(npy_decode(raw("{'descr': '<f4', 'fortran_order': False, "
                              "'shape':")),
               FormatError);
  EXPECT_THROW(npy_decode(raw("{'descr': '', 'fortran_order': False, "
                              "'shape': (), }")),
               FormatError);
}

}  // namespace
}  // namespace mummi::util
