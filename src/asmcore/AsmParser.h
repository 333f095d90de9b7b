//===--- AsmParser.h - Assembly litmus test parser --------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_ASMCORE_ASMPARSER_H
#define TELECHAT_ASMCORE_ASMPARSER_H

#include "asmcore/AsmProgram.h"
#include "support/Error.h"

#include <string_view>

namespace telechat {

/// Parses the textual assembly litmus format produced by printAsmLitmus
/// (the s2l front half: this is our "objdump output" reader). The text
/// is read once, through views, and each string the result keeps is
/// made once, in its field. Every error but that of a blank text starts
/// with "line <n>: ", the file line it was found on. Threads come back
/// in their printed order when that order is P0, P1, ...: "P<n>" names
/// sort by n, before every other name, which sort by name.
ErrorOr<AsmLitmusTest> parseAsmLitmus(std::string_view Text);

/// Parses one instruction line in the target's syntax. Its errors name
/// no line.
ErrorOr<AsmInst> parseAsmInst(Arch A, std::string_view Line);

} // namespace telechat

#endif // TELECHAT_ASMCORE_ASMPARSER_H
