//===--- AsmParser.cpp - Assembly litmus test parser ----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"

#include "asmcore/Semantics.h"
#include "litmus/Parser.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace telechat;

namespace {

/// Splits an operand list on commas that are not nested in () or [].
std::vector<std::string> splitOperands(std::string_view Text) {
  std::vector<std::string> Out;
  int Depth = 0;
  std::string Cur;
  for (char C : Text) {
    if (C == '(' || C == '[')
      ++Depth;
    if (C == ')' || C == ']')
      --Depth;
    if (C == ',' && Depth == 0) {
      Out.emplace_back(trim(Cur));
      Cur.clear();
      continue;
    }
    Cur += C;
  }
  if (!trim(Cur).empty() || !Out.empty())
    Out.emplace_back(trim(Cur));
  return Out;
}

/// A decimal integer token: an optional '-', then digits.
bool isIntToken(std::string_view S) {
  if (S.empty())
    return false;
  size_t I = S[0] == '-' ? 1 : 0;
  if (I == S.size())
    return false;
  for (size_t J = I; J != S.size(); ++J)
    if (!isdigit(static_cast<unsigned char>(S[J])))
      return false;
  return true;
}

/// False when \p S is not an integer token or its value does not fit in
/// 64 bits: an out-of-range immediate is refused, never saturated.
bool parseIntToken(std::string_view S, int64_t &Out) {
  if (!isIntToken(S))
    return false;
  errno = 0;
  Out = strtoll(std::string(S).c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// Parses the inside of an ARM-style [ ... ] memory operand.
ErrorOr<AsmOperand> parseBracketMem(Arch A, std::string_view Inner) {
  std::vector<std::string> Parts = splitOperands(Inner);
  if (Parts.empty())
    return makeError("empty memory operand");
  // x86 rip-relative: [rip+sym].
  if (A == Arch::X86_64) {
    std::string P = Parts[0];
    size_t Plus = P.find('+');
    if (Plus != std::string::npos) {
      std::string Base(trim(P.substr(0, Plus)));
      std::string Rest(trim(P.substr(Plus + 1)));
      if (Base == "rip")
        return AsmOperand::memSym("rip", Rest);
      int64_t Off;
      if (parseIntToken(Rest, Off))
        return AsmOperand::mem(Base, Off);
      return makeError("bad x86 memory operand [" + P + "]");
    }
    return AsmOperand::mem(P);
  }
  AsmOperand O = AsmOperand::mem(Parts[0]);
  if (Parts.size() > 1) {
    std::string Second = Parts[1];
    if (!Second.empty() && Second[0] == '#')
      Second = Second.substr(1);
    if (!Second.empty() && Second[0] == ':') {
      // [x8, :got_lo12:x]
      size_t End = Second.find(':', 1);
      if (End == std::string::npos)
        return makeError("bad relocation in memory operand");
      O.Modifier = Second.substr(1, End - 1);
      O.Sym = Second.substr(End + 1);
      return O;
    }
    int64_t Off;
    if (!parseIntToken(Second, Off))
      return makeError("bad memory offset '" + Second + "'");
    O.Imm = Off;
  }
  return O;
}

ErrorOr<AsmOperand> parseOperand(Arch A, const InstSemantics &Sem,
                                 std::string_view Raw) {
  std::string S(trim(Raw));
  if (S.empty())
    return makeError("empty operand");
  // ARM-style memory.
  if (S.front() == '[') {
    if (S.back() != ']')
      return makeError("unterminated memory operand " + S);
    return parseBracketMem(A, std::string_view(S).substr(1, S.size() - 2));
  }
  // off(base) / (base).
  if (S.back() == ')') {
    size_t Open = S.find('(');
    if (Open != std::string::npos) {
      std::string Prefix(trim(S.substr(0, Open)));
      std::string Base(trim(S.substr(Open + 1, S.size() - Open - 2)));
      // %hi(sym) / %lo(sym).
      if (!Prefix.empty() && Prefix[0] == '%')
        return AsmOperand::sym(Base, Prefix.substr(1));
      if (Sem.isRegisterName(Base)) {
        int64_t Off = 0;
        if (!Prefix.empty() && !parseIntToken(Prefix, Off))
          return makeError("bad memory offset '" + Prefix + "'");
        return AsmOperand::mem(Base, Off);
      }
      return makeError("bad operand " + S);
    }
  }
  // Immediates.
  if (S.front() == '#') {
    std::string Rest = S.substr(1);
    if (!Rest.empty() && Rest[0] == ':') {
      size_t End = Rest.find(':', 1);
      if (End == std::string::npos)
        return makeError("bad relocation " + S);
      return AsmOperand::sym(Rest.substr(End + 1), Rest.substr(1, End - 1));
    }
    int64_t Imm;
    if (!parseIntToken(Rest, Imm))
      return makeError("bad immediate " + S);
    return AsmOperand::imm(Imm);
  }
  if (isIntToken(S)) {
    int64_t Imm;
    if (!parseIntToken(S, Imm))
      return makeError("bad immediate " + S);
    return AsmOperand::imm(Imm);
  }
  // :mod:sym relocations.
  if (S.front() == ':') {
    size_t End = S.find(':', 1);
    if (End == std::string::npos)
      return makeError("bad relocation " + S);
    return AsmOperand::sym(S.substr(End + 1), S.substr(1, End - 1));
  }
  // sym@mod (PPC).
  if (size_t At = S.find('@'); At != std::string::npos)
    return AsmOperand::sym(S.substr(0, At), S.substr(At + 1));
  // Labels.
  if (S.front() == '.')
    return AsmOperand::label(S);
  // Registers, then bare symbols (barrier kinds, location names).
  if (Sem.isRegisterName(S))
    return AsmOperand::reg(S);
  return AsmOperand::sym(S);
}

std::optional<Arch> archFromToken(const std::string &Tok) {
  if (Tok == "AArch64")
    return Arch::AArch64;
  if (Tok == "ARMv7")
    return Arch::Armv7;
  if (Tok == "X86_64")
    return Arch::X86_64;
  if (Tok == "RISCV")
    return Arch::RiscV;
  if (Tok == "PPC")
    return Arch::Ppc;
  if (Tok == "MIPS")
    return Arch::Mips;
  return std::nullopt;
}

/// Parses one "name = value" entry of the initial-state block.
std::string parseInitEntry(std::string_view Entry, AsmLitmusTest &Test) {
  std::string S(trim(Entry));
  if (S.empty())
    return "";
  size_t Eq = S.find('=');
  if (Eq == std::string::npos)
    return "init entry missing '=': " + S;
  std::string Lhs(trim(S.substr(0, Eq)));
  std::string Rhs(trim(S.substr(Eq + 1)));
  // Thread register init: "P0:X1 = &x".
  size_t Colon = Lhs.find(':');
  if (Colon != std::string::npos && Lhs[0] == 'P') {
    std::string ThreadName = Lhs.substr(0, Colon);
    std::string Reg = Lhs.substr(Colon + 1);
    if (Rhs.empty() || Rhs[0] != '&')
      return "register init must be an address: " + S;
    for (AsmThread &T : Test.Threads)
      if (T.Name == ThreadName) {
        T.InitRegs.emplace_back(Reg, Rhs.substr(1));
        return "";
      }
    // Threads may not exist yet; stash via a placeholder thread list.
    AsmThread T;
    T.Name = ThreadName;
    T.InitRegs.emplace_back(Reg, Rhs.substr(1));
    Test.Threads.push_back(std::move(T));
    return "";
  }
  SimLoc L;
  // Optional qualifiers/types.
  std::vector<std::string> Words;
  for (const std::string &W : splitString(Lhs, ' '))
    if (!trim(W).empty())
      Words.emplace_back(trim(W));
  if (Words.empty())
    return "bad init entry: " + S;
  L.Name = Words.back();
  for (size_t I = 0; I + 1 < Words.size(); ++I) {
    if (Words[I] == "const") {
      L.Const = true;
      continue;
    }
    static const std::map<std::string, IntType> Types = {
        {"int8_t", {8, true}},    {"uint8_t", {8, false}},
        {"int16_t", {16, true}},  {"uint16_t", {16, false}},
        {"int32_t", {32, true}},  {"uint32_t", {32, false}},
        {"int64_t", {64, true}},  {"uint64_t", {64, false}},
        {"int", {32, true}},      {"__int128", {128, true}},
    };
    auto It = Types.find(Words[I]);
    if (It != Types.end())
      L.Type = It->second;
    // Unknown type words default to int32.
  }
  if (!Rhs.empty() && Rhs[0] == '&') {
    L.InitAddrOf = Rhs.substr(1);
  } else {
    // "N" or the 128-bit spelling "HI:LO".
    std::string HiText = "0", LoText = Rhs;
    if (size_t Colon2 = Rhs.find(':'); Colon2 != std::string::npos) {
      HiText = Rhs.substr(0, Colon2);
      LoText = Rhs.substr(Colon2 + 1);
    }
    uint64_t Hi = 0, Lo = 0;
    if (!parseNumber(HiText.c_str(), ~uint64_t(0), Hi) ||
        !parseNumber(LoText.c_str(), ~uint64_t(0), Lo))
      return "malformed initial value: " + S;
    L.Init = Value(Lo, Hi);
  }
  Test.Locations.push_back(std::move(L));
  return "";
}

} // namespace

ErrorOr<AsmInst> telechat::parseAsmInst(Arch A, std::string_view Line) {
  const InstSemantics &Sem = instSemantics(A);
  std::string S(trim(Line));
  // Mnemonic (plus "lock" prefix folding).
  size_t Space = S.find_first_of(" \t");
  std::string Mnemonic =
      Space == std::string::npos ? S : std::string(trim(S.substr(0, Space)));
  std::string Rest =
      Space == std::string::npos ? "" : std::string(trim(S.substr(Space)));
  for (char &C : Mnemonic)
    C = char(tolower(static_cast<unsigned char>(C)));
  if (Mnemonic == "lock") {
    size_t Space2 = Rest.find_first_of(" \t");
    std::string Second = Space2 == std::string::npos
                             ? Rest
                             : std::string(trim(Rest.substr(0, Space2)));
    for (char &C : Second)
      C = char(tolower(static_cast<unsigned char>(C)));
    Mnemonic = "lock." + Second;
    Rest = Space2 == std::string::npos
               ? ""
               : std::string(trim(Rest.substr(Space2)));
  }
  AsmInst I;
  I.Mnemonic = Mnemonic;
  if (!Rest.empty()) {
    for (const std::string &OpText : splitOperands(Rest)) {
      ErrorOr<AsmOperand> Op = parseOperand(A, Sem, OpText);
      if (!Op)
        return makeError(Op.error() + " in '" + std::string(Line) + "'");
      I.Ops.push_back(std::move(*Op));
    }
  }
  return I;
}

ErrorOr<AsmLitmusTest> telechat::parseAsmLitmus(std::string_view Text) {
  AsmLitmusTest Test;
  std::vector<std::string> Lines = splitString(Text, '\n');
  size_t LineNo = 0;
  auto NextLine = [&]() -> std::optional<std::string> {
    while (LineNo < Lines.size()) {
      std::string L(trim(Lines[LineNo++]));
      // Strip // comments.
      if (size_t C = L.find("//"); C != std::string::npos)
        L = std::string(trim(L.substr(0, C)));
      if (!L.empty())
        return L;
    }
    return std::nullopt;
  };

  // Header: "<Arch> <Name>".
  std::optional<std::string> Header = NextLine();
  if (!Header)
    return makeError("empty assembly litmus test");
  {
    size_t Space = Header->find(' ');
    if (Space == std::string::npos)
      return makeError("bad header: " + *Header);
    std::optional<Arch> A = archFromToken(Header->substr(0, Space));
    if (!A)
      return makeError("unknown architecture: " + *Header);
    Test.TargetArch = *A;
    Test.Name = std::string(trim(Header->substr(Space)));
  }
  // Init block.
  std::optional<std::string> Open = NextLine();
  if (!Open || (*Open)[0] != '{')
    return makeError("expected '{' after header");
  // Entries may span lines: InitLines[K] is the file line of line K of
  // InitText, so an entry's error names the line the entry starts on.
  std::string InitText = Open->substr(1);
  std::vector<size_t> InitLines{LineNo};
  while (InitText.find('}') == std::string::npos) {
    std::optional<std::string> L = NextLine();
    if (!L)
      return makeError("unterminated initial state");
    InitText += "\n" + *L;
    InitLines.push_back(LineNo);
  }
  InitText = InitText.substr(0, InitText.find('}'));
  size_t K = 0;
  for (const std::string &RawEntry : splitString(InitText, ';')) {
    if (std::string E = parseInitEntry(RawEntry, Test); !E.empty()) {
      auto Start = RawEntry.begin() + RawEntry.find_first_not_of(" \t\r\n");
      K += std::count(RawEntry.begin(), Start, '\n');
      return makeError(strFormat("line %zu: %s", InitLines[K], E.c_str()));
    }
    K += std::count(RawEntry.begin(), RawEntry.end(), '\n');
  }

  // Threads and final condition.
  while (true) {
    std::optional<std::string> L = NextLine();
    if (!L)
      return makeError("missing final condition");
    if (L->rfind("exists", 0) == 0 || L->rfind("forall", 0) == 0 ||
        L->rfind("~exists", 0) == 0) {
      std::string FinalText = *L;
      while (std::optional<std::string> More = NextLine())
        FinalText += " " + *More;
      ErrorOr<FinalCond> F = parseFinalCondition(FinalText);
      if (!F)
        return makeError(F.error());
      Test.Final = std::move(*F);
      break;
    }
    // "P0 {".
    size_t Brace = L->find('{');
    if (Brace == std::string::npos)
      return makeError("expected thread header, got: " + *L);
    std::string ThreadName(trim(L->substr(0, Brace)));
    AsmThread *T = nullptr;
    for (AsmThread &Existing : Test.Threads)
      if (Existing.Name == ThreadName)
        T = &Existing;
    if (!T) {
      AsmThread NewT;
      NewT.Name = ThreadName;
      Test.Threads.push_back(std::move(NewT));
      T = &Test.Threads.back();
    }
    while (true) {
      std::optional<std::string> Body = NextLine();
      if (!Body)
        return makeError("unterminated thread " + ThreadName);
      if ((*Body)[0] == '}')
        break;
      if (Body->back() == ':') {
        T->Labels[Body->substr(0, Body->size() - 1)] = T->Code.size();
        continue;
      }
      ErrorOr<AsmInst> I = parseAsmInst(Test.TargetArch, *Body);
      if (!I)
        return makeError(I.error());
      T->Code.push_back(std::move(*I));
    }
  }
  // Threads created by register-init entries must appear in program
  // order; sort by name for determinism.
  std::sort(Test.Threads.begin(), Test.Threads.end(),
            [](const AsmThread &A, const AsmThread &B) {
              return A.Name < B.Name;
            });
  return Test;
}
