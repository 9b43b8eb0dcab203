#ifndef SURVEYOR_UTIL_STRING_UTIL_H_
#define SURVEYOR_UTIL_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace surveyor {

/// Splits `text` on `delimiter`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Splits `text` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// ASCII lower-casing of one byte; every byte outside 'A'..'Z' passes
/// through, whatever the locale.
inline char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// Strips leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace surveyor

#endif  // SURVEYOR_UTIL_STRING_UTIL_H_
