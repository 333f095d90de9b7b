//===--- AsmToLitmus.h - The c2s/s2l disassembly round trip -----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// c2s compiles and "disassembles" (prints the raw assembly test to
/// text); s2l parses it back and optimises. Going through text is
/// deliberate: the paper's pipeline runs objdump output through a parser,
/// and this module is our equivalent of that trust boundary. The round
/// trip prints into one string, parses it through views, and then hands
/// that string on: it copies neither the text nor the test.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CORE_ASMTOLITMUS_H
#define TELECHAT_CORE_ASMTOLITMUS_H

#include "asmcore/AsmProgram.h"
#include "core/LitmusOpt.h"
#include "support/Error.h"

namespace telechat {

/// Renders \p Raw to text and re-parses it, verifying the round trip.
/// The text moves into \p TextOut when it is given.
ErrorOr<AsmLitmusTest> disassemblyRoundTrip(const AsmLitmusTest &Raw,
                                            std::string *TextOut = nullptr);

} // namespace telechat

#endif // TELECHAT_CORE_ASMTOLITMUS_H
