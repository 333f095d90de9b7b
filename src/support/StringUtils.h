//===--- StringUtils.h - Small string helpers -------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_STRINGUTILS_H
#define TELECHAT_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace telechat {

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view Text);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses \p Text as a whole number from 0 to \p Max in strtoull's
/// base-0 notation (decimal, 0x hex, leading-0 octal): the one definition
/// of a number for the command line and the text frontends. Empty input,
/// a sign, whitespace, trailing characters and overflow return false,
/// leaving \p Out untouched.
bool parseNumber(const char *Text, uint64_t Max, uint64_t &Out);

/// parseNumber for \p Text, the value of the command-line flag \p Flag;
/// a rejected value prints "error: <Flag> expects ..., got '<Text>'".
bool parseNumberFlag(std::string_view Flag, const char *Text, uint64_t Max,
                     uint64_t &Out);

/// parseNumberFlag into an integer flag, bounded by its type's range
/// unless \p Max is smaller.
template <typename T>
bool parseFlag(std::string_view Flag, const char *Text, T &Out,
               uint64_t Max = uint64_t(std::numeric_limits<T>::max())) {
  uint64_t V = 0;
  if (!parseNumberFlag(Flag, Text, Max, V))
    return false;
  Out = T(V);
  return true;
}

/// The same for a real-valued flag: a finite number greater than zero.
bool parseFlag(std::string_view Flag, const char *Text, double &Out);

} // namespace telechat

#endif // TELECHAT_SUPPORT_STRINGUTILS_H
