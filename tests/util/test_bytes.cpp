#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace mummi::util {
namespace {

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(123456);
  w.u64(1ULL << 50);
  w.i64(-42);
  w.f32(1.5f);
  w.f64(-2.25);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 1ULL << 50);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string("a\0b", 3));  // embedded NUL survives
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
}

TEST(Bytes, VectorRoundTrip) {
  ByteWriter w;
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  w.vec(std::vector<int>{});
  ByteReader r(w.data());
  EXPECT_EQ(r.vec<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.vec<int>().empty());
}

TEST(Bytes, NestedBytes) {
  ByteWriter inner;
  inner.u32(99);
  ByteWriter outer;
  outer.bytes(inner.data());
  outer.u8(1);
  ByteReader r(outer.data());
  const Bytes inner_back = r.bytes();
  ByteReader ri(inner_back);
  EXPECT_EQ(ri.u32(), 99u);
  EXPECT_EQ(r.u8(), 1);
}

TEST(Bytes, SectionRoundTripMatchesNestedBytes) {
  ByteWriter inner;
  inner.u32(99);
  inner.str("state");
  ByteWriter nested;
  nested.bytes(inner.data());
  nested.u8(1);

  ByteWriter w;
  w.section([&] {
    w.u32(99);
    w.str("state");
  });
  w.u8(1);
  EXPECT_EQ(w.data(), nested.data());

  ByteReader r(w.data());
  ByteReader s = r.section();
  EXPECT_EQ(s.u32(), 99u);
  EXPECT_EQ(s.str(), "state");
  EXPECT_TRUE(s.at_end());
  EXPECT_EQ(r.u8(), 1);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, NestedSections) {
  ByteWriter w;
  w.section([&] {
    w.u8(1);
    w.section([&] { w.u64(7); });
    w.section([] {});
    w.u8(2);
  });
  w.u8(3);
  ByteReader r(w.data());
  ByteReader outer = r.section();
  EXPECT_EQ(outer.u8(), 1);
  ByteReader first = outer.section();
  EXPECT_EQ(first.u64(), 7u);
  EXPECT_TRUE(first.at_end());
  EXPECT_TRUE(outer.section().at_end());
  EXPECT_EQ(outer.u8(), 2);
  EXPECT_TRUE(outer.at_end());
  EXPECT_EQ(r.u8(), 3);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, SectionReaderIsBounded) {
  ByteWriter w;
  w.section([&] { w.u32(5); });
  w.u64(11);
  ByteReader r(w.data());
  ByteReader s = r.section();
  EXPECT_EQ(s.u32(), 5u);
  // The section ends where its length says, not where the buffer does.
  EXPECT_THROW(s.u8(), FormatError);
  EXPECT_EQ(r.u64(), 11u);
}

TEST(Bytes, ForgedSectionLengthThrows) {
  ByteWriter w;
  w.u64(1ULL << 40);  // a length no buffer here holds
  w.u32(5);
  ByteReader r(w.data());
  EXPECT_THROW(r.section(), FormatError);
  ByteWriter off_by_one;
  off_by_one.u64(5);
  off_by_one.u32(5);
  ByteReader r2(off_by_one.data());
  EXPECT_THROW(r2.section(), FormatError);
}

TEST(Bytes, TruncatedStreamThrows) {
  ByteWriter w;
  w.u64(5);
  ByteReader r(w.data());
  EXPECT_EQ(r.u64(), 5u);
  EXPECT_THROW(r.u8(), FormatError);
}

TEST(Bytes, TruncatedVectorLengthThrows) {
  // A vector claiming far more elements than bytes present must not allocate
  // or read out of bounds.
  ByteWriter w;
  w.u64(1ULL << 60);
  ByteReader r(w.data());
  EXPECT_THROW(r.vec<double>(), FormatError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.u64(100);  // claims a 100-byte string with no payload
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), FormatError);
}

TEST(Bytes, ToFromString) {
  const std::string s = "payload";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, Fnv1aStableAndSpread) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

}  // namespace
}  // namespace mummi::util
