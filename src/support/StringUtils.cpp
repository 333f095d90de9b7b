//===--- StringUtils.cpp - Small string helpers ---------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace telechat;

std::vector<std::string> telechat::splitString(std::string_view Text,
                                               char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.emplace_back(Text.substr(Start));
      return Out;
    }
    Out.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view telechat::trim(std::string_view Text) {
  while (!Text.empty() && isspace(static_cast<unsigned char>(Text.front())))
    Text.remove_prefix(1);
  while (!Text.empty() && isspace(static_cast<unsigned char>(Text.back())))
    Text.remove_suffix(1);
  return Text;
}

std::string telechat::joinStrings(const std::vector<std::string> &Parts,
                                  std::string_view Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string telechat::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out(Len > 0 ? Len : 0, '\0');
  if (Len > 0)
    vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

/// strtoull and strtod skip leading whitespace and accept a sign (strtoull
/// negates "-1" into 2^64 - 1), so a flag value must open with a digit.
static bool opensWithDigit(const char *Text) {
  return isdigit(static_cast<unsigned char>(Text[0])) ||
         (Text[0] == '.' && isdigit(static_cast<unsigned char>(Text[1])));
}

bool telechat::parseNumber(const char *Text, uint64_t Max, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = opensWithDigit(Text) ? strtoull(Text, &End, 0) : 0;
  if (!End || *End != '\0' || errno == ERANGE || V > Max)
    return false;
  Out = V;
  return true;
}

bool telechat::parseNumberFlag(std::string_view Flag, const char *Text,
                               uint64_t Max, uint64_t &Out) {
  if (parseNumber(Text, Max, Out))
    return true;
  fprintf(stderr, "error: %.*s expects a whole number from 0 to %llu, "
                  "got '%s'\n",
          int(Flag.size()), Flag.data(), static_cast<unsigned long long>(Max),
          Text);
  return false;
}

bool telechat::parseFlag(std::string_view Flag, const char *Text,
                         double &Out) {
  char *End = nullptr;
  double V = opensWithDigit(Text) ? strtod(Text, &End) : 0.0;
  if (!End || *End != '\0' || !std::isfinite(V) || V <= 0) {
    fprintf(stderr, "error: %.*s expects a finite number above 0, got '%s'\n",
            int(Flag.size()), Flag.data(), Text);
    return false;
  }
  Out = V;
  return true;
}
