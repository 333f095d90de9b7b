//===--- AsmToLitmus.cpp - The c2s/s2l disassembly round trip -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "core/AsmToLitmus.h"

#include "asmcore/AsmParser.h"
#include "asmcore/AsmPrinter.h"

using namespace telechat;

ErrorOr<AsmLitmusTest> telechat::disassemblyRoundTrip(const AsmLitmusTest &Raw,
                                                      std::string *TextOut) {
  std::string Text = printAsmLitmus(Raw);
  ErrorOr<AsmLitmusTest> Parsed = parseAsmLitmus(Text);
  if (TextOut)
    *TextOut = std::move(Text);
  if (!Parsed)
    return makeError("s2l parse of disassembly failed: " + Parsed.error());
  return Parsed;
}
