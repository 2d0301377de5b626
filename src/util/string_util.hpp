// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mummi::util {

/// Removes leading/trailing whitespace.
[[nodiscard]] std::string trim(std::string_view s);

/// Splits on a delimiter; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Glob-style match supporting '*' and '?' only (the subset Redis KEYS uses).
/// Fast paths: "*" matches everything without scanning, and a pattern whose
/// only wildcard is a trailing '*' ("rdf:*") reduces to a prefix compare —
/// the shapes the KV namespace scans issue millions of times.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

/// Longest literal prefix of a glob pattern (the characters before the first
/// '*' or '?'). "rdf:1?" -> "rdf:1", "*" -> "", "plain" -> "plain". Lets
/// callers route a pattern to an index keyed on that prefix.
[[nodiscard]] std::string_view glob_literal_prefix(std::string_view pattern);

/// Renders a byte count as a human-readable string ("374.0 MB").
[[nodiscard]] std::string human_bytes(double bytes);

}  // namespace mummi::util
