// Small string helpers shared across the library.
#ifndef TCHIMERA_COMMON_STRING_UTIL_H_
#define TCHIMERA_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace tchimera {

// Appends the decimal form of the integer `v` (what std::to_string
// prints) to `out` without a temporary string.
template <typename Int>
void AppendDecimal(Int v, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// Joins `parts` with `sep`: Join({"a","b"}, ", ") == "a, b".
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Splits `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// True if `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Escapes a string for embedding in the textual serialization format:
// backslash-escapes `"`, `\`, and newlines. Unescape inverts it.
std::string EscapeString(std::string_view s);
// Returns false on a malformed escape sequence.
bool UnescapeString(std::string_view s, std::string* out);

// True if `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_-]*.
// Identifier syntax is shared by class, attribute and method names; '-' is
// allowed mid-name because the paper uses names like `proper-ext` and
// `m-project`.
bool IsIdentifier(std::string_view s);

}  // namespace tchimera

#endif  // TCHIMERA_COMMON_STRING_UTIL_H_
