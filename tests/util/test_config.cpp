#include "util/config.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mummi::util {
namespace {

TEST(Config, ParsesSectionsAndKeys) {
  const auto cfg = Config::parse(
      "top = 1\n"
      "[datastore]\n"
      "backend = redis\n"
      "servers = 20\n"
      "[job.cg_sim]\n"
      "cores = 3\n");
  EXPECT_EQ(cfg.get_int("top"), 1);
  EXPECT_EQ(cfg.get_string("datastore.backend"), "redis");
  EXPECT_EQ(cfg.get_int("datastore.servers"), 20);
  EXPECT_EQ(cfg.get_int("job.cg_sim.cores"), 3);
}

TEST(Config, IgnoresCommentsAndBlanks) {
  const auto cfg = Config::parse(
      "# comment\n"
      "; also comment\n"
      "\n"
      "key = value\n");
  EXPECT_EQ(cfg.get_string("key"), "value");
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(Config, TrimsWhitespace) {
  const auto cfg = Config::parse("  key   =   spaced value  \n");
  EXPECT_EQ(cfg.get_string("key"), "spaced value");
}

TEST(Config, MissingKeyThrows) {
  const Config cfg;
  EXPECT_THROW((void)cfg.get_string("absent"), ConfigError);
  EXPECT_THROW((void)cfg.get_int("absent"), ConfigError);
}

TEST(Config, FallbacksOnlyWhenMissing) {
  const auto cfg = Config::parse("n = 5\nbad = xyz\n");
  EXPECT_EQ(cfg.get_int("n", 7), 5);
  EXPECT_EQ(cfg.get_int("absent", 7), 7);
  // Malformed values throw even with a fallback.
  EXPECT_THROW((void)cfg.get_int("bad", 7), ConfigError);
}

TEST(Config, BooleanForms) {
  const auto cfg = Config::parse(
      "a = true\nb = yes\nc = on\nd = 1\ne = false\nf = no\ng = off\nh = 0\n");
  for (const char* k : {"a", "b", "c", "d"}) EXPECT_TRUE(cfg.get_bool(k)) << k;
  for (const char* k : {"e", "f", "g", "h"}) EXPECT_FALSE(cfg.get_bool(k)) << k;
}

TEST(Config, DoubleParsing) {
  const auto cfg = Config::parse("x = 2.5\ny = -1e3\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("x"), 2.5);
  EXPECT_DOUBLE_EQ(cfg.get_double("y"), -1000.0);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("just a line without equals\n"), ConfigError);
  EXPECT_THROW(Config::parse("[unterminated\n"), ConfigError);
  EXPECT_THROW(Config::parse("= novalue\n"), ConfigError);
}

TEST(Config, RoundTripsThroughToString) {
  const auto cfg = Config::parse(
      "root = 1\n[alpha]\nx = a\ny = b\n[beta]\nz = c\n");
  const auto again = Config::parse(cfg.to_string());
  EXPECT_EQ(again.keys(), cfg.keys());
  for (const auto& k : cfg.keys())
    EXPECT_EQ(again.get_string(k), cfg.get_string(k));
}

TEST(Config, MergeOverrides) {
  auto base = Config::parse("a = 1\nb = 2\n");
  const auto overlay = Config::parse("b = 3\nc = 4\n");
  base.merge_from(overlay);
  EXPECT_EQ(base.get_int("a"), 1);
  EXPECT_EQ(base.get_int("b"), 3);
  EXPECT_EQ(base.get_int("c"), 4);
}

TEST(Config, SetAndHas) {
  Config cfg;
  EXPECT_FALSE(cfg.has("x.y"));
  cfg.set("x.y", "10");
  EXPECT_TRUE(cfg.has("x.y"));
  EXPECT_EQ(cfg.get_int("x.y"), 10);
}

}  // namespace
}  // namespace mummi::util
