#include "util/string_util.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace mummi::util {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string_view glob_literal_prefix(std::string_view pattern) {
  const std::size_t wild = pattern.find_first_of("*?");
  return wild == std::string_view::npos ? pattern : pattern.substr(0, wild);
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Fast paths for the two shapes namespace scans produce in bulk: a bare
  // "*" and a literal prefix followed by a single trailing '*'.
  if (pattern.size() == 1 && pattern[0] == '*') return true;
  const std::size_t wild = pattern.find_first_of("*?");
  if (wild != std::string_view::npos && pattern[wild] == '*' &&
      wild + 1 == pattern.size())
    return text.size() >= wild && text.substr(0, wild) == pattern.substr(0, wild);
  // Iterative wildcard match with backtracking on the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 5) {
    bytes /= 1024.0;
    ++u;
  }
  return format("%.1f %s", bytes, units[u]);
}

}  // namespace mummi::util
