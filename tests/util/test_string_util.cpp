#include "util/string_util.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace mummi::util {
namespace {

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StringUtil, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("empty"), "empty");
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expect;
};

// Without this, gtest prints a GlobCase as its raw bytes — two string
// pointers that move with every build — and ctest's discovered test names
// embed that text, so the case names would change from build to build.
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << "'" << c.pattern << "' vs '" << c.text << "' -> "
      << (c.expect ? "match" : "no match");
}

class GlobMatch : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobMatch,
    ::testing::Values(
        GlobCase{"*", "anything", true}, GlobCase{"*", "", true},
        GlobCase{"abc", "abc", true}, GlobCase{"abc", "abd", false},
        GlobCase{"a?c", "abc", true}, GlobCase{"a?c", "ac", false},
        GlobCase{"rdf-*", "rdf-123", true}, GlobCase{"rdf-*", "ss-123", false},
        GlobCase{"*-done", "frame-42-done", true},
        GlobCase{"*42*", "frame-42-done", true},
        GlobCase{"*42*", "frame-43-done", false},
        GlobCase{"a*b*c", "axxbyyc", true}, GlobCase{"a*b*c", "axxcyyb", false},
        GlobCase{"", "", true}, GlobCase{"", "x", false},
        GlobCase{"**", "x", true}, GlobCase{"?", "", false}));

TEST(StringUtil, GlobLiteralPrefix) {
  EXPECT_EQ(glob_literal_prefix("rdf-pending:*"), "rdf-pending:");
  EXPECT_EQ(glob_literal_prefix("abc"), "abc");
  EXPECT_EQ(glob_literal_prefix("*"), "");
  EXPECT_EQ(glob_literal_prefix("a?c"), "a");
  EXPECT_EQ(glob_literal_prefix(""), "");
  EXPECT_EQ(glob_literal_prefix("ns:key*suffix"), "ns:key");
}

// Reference matcher: the textbook exponential recursion, correct by
// inspection. The production matcher's prefix fast paths must agree with it
// on every input.
bool ref_glob(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.empty();
  if (pattern[0] == '*')
    return ref_glob(pattern.substr(1), text) ||
           (!text.empty() && ref_glob(pattern, text.substr(1)));
  if (text.empty()) return false;
  if (pattern[0] == '?' || pattern[0] == text[0])
    return ref_glob(pattern.substr(1), text.substr(1));
  return false;
}

TEST(StringUtil, GlobPrefixFastPathAgreesWithReference) {
  // Randomized prefix+"*" patterns — the shape the namespace index routes —
  // checked against texts that share all, part, or none of the prefix.
  Rng rng(20260806);
  const std::string alphabet = "ab:-x";
  auto rand_str = [&](std::size_t max_len) {
    std::string s;
    const auto len = rng.uniform_index(max_len + 1);
    for (std::uint64_t i = 0; i < len; ++i)
      s += alphabet[static_cast<std::size_t>(
          rng.uniform_index(alphabet.size()))];
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    const std::string prefix = rand_str(8);
    const std::string pattern = prefix + "*";
    const std::string tail = rand_str(6);
    // Texts: exact prefix+tail, bare prefix, truncated prefix, unrelated.
    for (const std::string& text :
         {prefix + tail, prefix, prefix.substr(0, prefix.size() / 2),
          rand_str(10)}) {
      EXPECT_EQ(glob_match(pattern, text), ref_glob(pattern, text))
          << pattern << " vs " << text;
    }
  }
  // Non-trailing wildcards must still take the general path and agree.
  for (int iter = 0; iter < 200; ++iter) {
    const std::string pattern = rand_str(4) + "*" + rand_str(3) + "?";
    const std::string text = rand_str(10);
    EXPECT_EQ(glob_match(pattern, text), ref_glob(pattern, text))
        << pattern << " vs " << text;
  }
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KB");
  EXPECT_EQ(human_bytes(374e6), "356.7 MB");
}

}  // namespace
}  // namespace mummi::util
