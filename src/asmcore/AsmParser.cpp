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
#include <charconv>
#include <optional>
#include <tuple>

using namespace telechat;

namespace {

/// The lines of a text, one at a time, each trimmed and cut at its "//"
/// comment; blank lines are skipped.
class LineCursor {
public:
  explicit LineCursor(std::string_view Text) : Text(Text) {}

  std::optional<std::string_view> next() {
    while (Pos != std::string_view::npos) {
      size_t End = Text.find('\n', Pos);
      std::string_view L = trim(Text.substr(Pos, End - Pos));
      Pos = End == std::string_view::npos ? End : End + 1;
      ++LineNo;
      if (size_t C = L.find("//"); C != std::string_view::npos)
        L = trim(L.substr(0, C));
      if (!L.empty())
        return L;
    }
    return std::nullopt;
  }

  /// The file line of the last line next() returned; once it has
  /// returned nullopt, the last line of the text.
  size_t line() const { return LineNo; }

private:
  std::string_view Text;
  size_t Pos = 0;
  size_t LineNo = 0;
};

/// The operand views of the instruction being parsed and the parts of
/// its memory operand, kept between instructions.
struct OperandScratch {
  std::vector<std::string_view> Ops, Parts;
};

/// Splits an operand list on commas that are not nested in () or [],
/// into trimmed views of \p Text.
void splitOperands(std::string_view Text, std::vector<std::string_view> &Out) {
  Out.clear();
  int Depth = 0;
  size_t Start = 0;
  for (size_t I = 0; I != Text.size(); ++I) {
    char C = Text[I];
    if (C == '(' || C == '[')
      ++Depth;
    if (C == ')' || C == ']')
      --Depth;
    if (C == ',' && Depth == 0) {
      Out.push_back(trim(Text.substr(Start, I - Start)));
      Start = I + 1;
    }
  }
  std::string_view Last = trim(Text.substr(Start));
  if (!Last.empty() || !Out.empty())
    Out.push_back(Last);
}

/// A decimal integer token: an optional '-', then digits.
bool isIntToken(std::string_view S) {
  size_t I = !S.empty() && S[0] == '-' ? 1 : 0;
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
  return isIntToken(S) &&
         std::from_chars(S.data(), S.data() + S.size(), Out).ec == std::errc();
}

/// Reads "mod:sym", what follows the opening ':' of a relocation, into
/// \p O's modifier and symbol: false without the closing ':'.
bool splitRelocation(std::string_view S, AsmOperand &O) {
  size_t End = S.find(':');
  if (End == std::string_view::npos)
    return false;
  O.Modifier = S.substr(0, End);
  O.Sym = S.substr(End + 1);
  return true;
}

/// Parses the inside of an ARM-style [ ... ] memory operand into \p O;
/// returns the error, or "".
std::string parseBracketMem(Arch A, std::string_view Inner, AsmOperand &O,
                            std::vector<std::string_view> &Parts) {
  splitOperands(Inner, Parts);
  if (Parts.empty())
    return "empty memory operand";
  O.K = AsmOperand::Kind::Mem;
  // x86 rip-relative: [rip+sym].
  if (A == Arch::X86_64) {
    std::string_view P = Parts[0];
    size_t Plus = P.find('+');
    if (Plus == std::string_view::npos) {
      O.Reg = P;
      return "";
    }
    std::string_view Base = trim(P.substr(0, Plus));
    std::string_view Rest = trim(P.substr(Plus + 1));
    O.Reg = Base;
    if (Base == "rip")
      O.Sym = Rest;
    else if (!parseIntToken(Rest, O.Imm))
      return "bad x86 memory operand [" + std::string(P) + "]";
    return "";
  }
  O.Reg = Parts[0];
  if (Parts.size() == 1)
    return "";
  std::string_view Second = Parts[1];
  if (!Second.empty() && Second[0] == '#')
    Second.remove_prefix(1);
  if (!Second.empty() && Second[0] == ':') {
    // [x8, :got_lo12:x]
    if (!splitRelocation(Second.substr(1), O))
      return "bad relocation in memory operand";
    return "";
  }
  if (!parseIntToken(Second, O.Imm))
    return "bad memory offset '" + std::string(Second) + "'";
  return "";
}

/// Parses the trimmed operand \p S into \p O; returns the error, or "".
std::string parseOperand(Arch A, const InstSemantics &Sem, std::string_view S,
                         AsmOperand &O, std::vector<std::string_view> &Parts) {
  if (S.empty())
    return "empty operand";
  // ARM-style memory.
  if (S.front() == '[') {
    if (S.back() != ']')
      return "unterminated memory operand " + std::string(S);
    return parseBracketMem(A, S.substr(1, S.size() - 2), O, Parts);
  }
  // off(base) / (base).
  if (S.back() == ')') {
    size_t Open = S.find('(');
    if (Open != std::string_view::npos) {
      std::string_view Prefix = trim(S.substr(0, Open));
      std::string_view Base = trim(S.substr(Open + 1, S.size() - Open - 2));
      // %hi(sym) / %lo(sym).
      if (!Prefix.empty() && Prefix[0] == '%') {
        O.K = AsmOperand::Kind::Sym;
        O.Sym = Base;
        O.Modifier = Prefix.substr(1);
        return "";
      }
      if (Sem.isRegisterName(Base)) {
        if (!Prefix.empty() && !parseIntToken(Prefix, O.Imm))
          return "bad memory offset '" + std::string(Prefix) + "'";
        O.K = AsmOperand::Kind::Mem;
        O.Reg = Base;
        return "";
      }
      return "bad operand " + std::string(S);
    }
  }
  // Immediates.
  if (S.front() == '#') {
    std::string_view Rest = S.substr(1);
    if (!Rest.empty() && Rest[0] == ':') {
      O.K = AsmOperand::Kind::Sym;
      if (!splitRelocation(Rest.substr(1), O))
        return "bad relocation " + std::string(S);
      return "";
    }
    if (!parseIntToken(Rest, O.Imm))
      return "bad immediate " + std::string(S);
    O.K = AsmOperand::Kind::Imm;
    return "";
  }
  if (isIntToken(S)) {
    if (!parseIntToken(S, O.Imm))
      return "bad immediate " + std::string(S);
    O.K = AsmOperand::Kind::Imm;
    return "";
  }
  // :mod:sym relocations.
  if (S.front() == ':') {
    O.K = AsmOperand::Kind::Sym;
    if (!splitRelocation(S.substr(1), O))
      return "bad relocation " + std::string(S);
    return "";
  }
  // sym@mod (PPC).
  if (size_t At = S.find('@'); At != std::string_view::npos) {
    O.K = AsmOperand::Kind::Sym;
    O.Sym = S.substr(0, At);
    O.Modifier = S.substr(At + 1);
    return "";
  }
  // Labels.
  if (S.front() == '.') {
    O.K = AsmOperand::Kind::Label;
    O.Sym = S;
    return "";
  }
  // Registers, then bare symbols (barrier kinds, location names).
  if (Sem.isRegisterName(S)) {
    O.K = AsmOperand::Kind::Reg;
    O.Reg = S;
  } else {
    O.K = AsmOperand::Kind::Sym;
    O.Sym = S;
  }
  return "";
}

/// Cuts the first word off \p S: returns it and leaves the rest, both
/// trimmed.
std::string_view cutWord(std::string_view &S) {
  size_t Space = S.find_first_of(" \t");
  std::string_view Word = trim(S.substr(0, Space));
  S = Space == std::string_view::npos ? std::string_view()
                                      : trim(S.substr(Space));
  return Word;
}

/// Parses the instruction \p Line into \p I; returns the error, or "".
std::string parseInst(Arch A, const InstSemantics &Sem, std::string_view Line,
                      AsmInst &I, OperandScratch &Scratch) {
  std::string_view Rest = trim(Line);
  // Mnemonic (plus "lock" prefix folding).
  I.Mnemonic = cutWord(Rest);
  for (char &C : I.Mnemonic)
    C = char(tolower(static_cast<unsigned char>(C)));
  if (I.Mnemonic == "lock") {
    (I.Mnemonic += '.') += cutWord(Rest);
    for (char &C : I.Mnemonic)
      C = char(tolower(static_cast<unsigned char>(C)));
  }
  if (Rest.empty())
    return "";
  splitOperands(Rest, Scratch.Ops);
  I.Ops.resize(Scratch.Ops.size());
  for (size_t J = 0; J != Scratch.Ops.size(); ++J)
    if (std::string E =
            parseOperand(A, Sem, Scratch.Ops[J], I.Ops[J], Scratch.Parts);
        !E.empty())
      return E + " in '" + std::string(Line) + "'";
  return "";
}

std::optional<Arch> archFromToken(std::string_view Tok) {
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

/// The type words an initial-state entry may carry; any other word
/// leaves the type as it is (int32 unless an earlier word set it).
struct TypeWord {
  std::string_view Word;
  IntType Type;
};
constexpr TypeWord TypeWords[] = {
    {"int8_t", {8, true}},   {"uint8_t", {8, false}},  {"int16_t", {16, true}},
    {"uint16_t", {16, false}}, {"int32_t", {32, true}}, {"uint32_t", {32, false}},
    {"int64_t", {64, true}}, {"uint64_t", {64, false}}, {"int", {32, true}},
    {"__int128", {128, true}},
};

/// A qualifier word before the name of an initial-state location.
void applyQualifier(std::string_view Word, SimLoc &L) {
  if (Word == "const") {
    L.Const = true;
    return;
  }
  for (const TypeWord &T : TypeWords)
    if (T.Word == Word)
      L.Type = T.Type;
}

/// The thread named \p Name, added at the end if there is none yet: a
/// register initialiser may name a thread before its code does.
AsmThread &threadNamed(AsmLitmusTest &Test, std::string_view Name) {
  for (AsmThread &T : Test.Threads)
    if (T.Name == Name)
      return T;
  AsmThread &T = Test.Threads.emplace_back();
  T.Name = Name;
  return T;
}

/// Parses one "name = value" entry of the initial-state block; returns
/// the error, or "".
std::string parseInitEntry(std::string_view Entry, AsmLitmusTest &Test) {
  std::string_view S = trim(Entry);
  if (S.empty())
    return "";
  size_t Eq = S.find('=');
  if (Eq == std::string_view::npos)
    return "init entry missing '=': " + std::string(S);
  std::string_view Lhs = trim(S.substr(0, Eq));
  std::string_view Rhs = trim(S.substr(Eq + 1));
  // Thread register init: "P0:X1 = &x".
  size_t Colon = Lhs.find(':');
  if (Colon != std::string_view::npos && Lhs[0] == 'P') {
    std::string_view ThreadName = Lhs.substr(0, Colon);
    if (Rhs.empty() || Rhs[0] != '&')
      return "register init must be an address: " + std::string(S);
    threadNamed(Test, ThreadName)
        .InitRegs.emplace_back(Lhs.substr(Colon + 1), Rhs.substr(1));
    return "";
  }
  // Optional qualifiers/types, then the name: words split at ' '.
  SimLoc L;
  std::optional<std::string_view> Word;
  for (size_t Start = 0; Start <= Lhs.size();) {
    size_t Space = std::min(Lhs.find(' ', Start), Lhs.size());
    std::string_view W = trim(Lhs.substr(Start, Space - Start));
    Start = Space + 1;
    if (W.empty())
      continue;
    if (Word)
      applyQualifier(*Word, L);
    Word = W;
  }
  if (!Word)
    return "bad init entry: " + std::string(S);
  L.Name = *Word;
  if (!Rhs.empty() && Rhs[0] == '&') {
    L.InitAddrOf = Rhs.substr(1);
  } else {
    // "N" or the 128-bit spelling "HI:LO".
    std::string_view HiText = "0", LoText = Rhs;
    if (size_t Colon2 = Rhs.find(':'); Colon2 != std::string_view::npos) {
      HiText = Rhs.substr(0, Colon2);
      LoText = Rhs.substr(Colon2 + 1);
    }
    if (!parseNumber(std::string(HiText).c_str(), ~uint64_t(0), L.Init.Hi) ||
        !parseNumber(std::string(LoText).c_str(), ~uint64_t(0), L.Init.Lo))
      return "malformed initial value: " + std::string(S);
  }
  Test.Locations.push_back(std::move(L));
  return "";
}

/// One initial-state entry as its pieces arrive: entries end at ';' and
/// may span lines, whose pieces join with '\n'.
class InitEntry {
public:
  void add(std::string_view Piece, size_t Line) {
    Piece = trim(Piece);
    if (Piece.empty())
      return;
    if (Text.empty()) {
      Text = Piece;
      FirstLine = Line;
      return;
    }
    if (Joined.empty())
      Joined = Text;
    (Joined += '\n') += Piece;
    Text = Joined;
  }

  /// Parses the entry into \p Test and starts the next one; returns the
  /// error, prefixed with the line the entry starts on, or "".
  std::string finish(AsmLitmusTest &Test) {
    std::string E = parseInitEntry(Text, Test);
    if (!E.empty())
      E = strFormat("line %zu: %s", FirstLine, E.c_str());
    Text = {};
    Joined.clear();
    return E;
  }

private:
  std::string_view Text; ///< The entry so far, trimmed.
  std::string Joined;    ///< Its storage once it spans lines.
  size_t FirstLine = 0;
};

/// The order of threads in a parsed test: "P<n>" by n, then every other
/// name in name order. A name breaks ties, so the order is strict.
bool threadBefore(const AsmThread &A, const AsmThread &B) {
  auto Key = [](std::string_view Name) {
    bool Numbered = Name.size() > 1 && Name[0] == 'P' &&
                    std::all_of(Name.begin() + 1, Name.end(), [](char C) {
                      return isdigit(static_cast<unsigned char>(C));
                    });
    // n without its leading zeros: longer is larger, then digit order.
    std::string_view N;
    if (Numbered) {
      N = Name.substr(1);
      N.remove_prefix(std::min(N.find_first_not_of('0'), N.size()));
    }
    return std::make_tuple(!Numbered, N.size(), N, Name);
  };
  return Key(A.Name) < Key(B.Name);
}

} // namespace

ErrorOr<AsmInst> telechat::parseAsmInst(Arch A, std::string_view Line) {
  AsmInst I;
  OperandScratch Scratch;
  if (std::string E = parseInst(A, instSemantics(A), Line, I, Scratch);
      !E.empty())
    return makeError(std::move(E));
  return I;
}

ErrorOr<AsmLitmusTest> telechat::parseAsmLitmus(std::string_view Text) {
  AsmLitmusTest Test;
  LineCursor Lines(Text);
  // Every error names the line it is found on.
  auto Fail = [&Lines](const std::string &Msg) {
    return makeError("line " + std::to_string(Lines.line()) + ": " + Msg);
  };

  // Header: "<Arch> <Name>".
  std::optional<std::string_view> Header = Lines.next();
  if (!Header)
    return makeError("empty assembly litmus test");
  size_t Space = Header->find(' ');
  if (Space == std::string_view::npos)
    return Fail("bad header: " + std::string(*Header));
  std::optional<Arch> A = archFromToken(Header->substr(0, Space));
  if (!A)
    return Fail("unknown architecture: " + std::string(*Header));
  Test.TargetArch = *A;
  Test.Name = trim(Header->substr(Space));

  // Init block, up to the first '}'. An unterminated block is the error
  // even when an entry before its end is malformed.
  std::optional<std::string_view> Open = Lines.next();
  if (!Open || Open->front() != '{')
    return Fail("expected '{' after header");
  InitEntry Entry;
  std::string InitError;
  for (std::string_view Seg = Open->substr(1);;) {
    size_t Close = Seg.find('}');
    Seg = Seg.substr(0, Close);
    for (size_t Semi; (Semi = Seg.find(';')) != std::string_view::npos;
         Seg.remove_prefix(Semi + 1)) {
      Entry.add(Seg.substr(0, Semi), Lines.line());
      if (InitError.empty())
        InitError = Entry.finish(Test);
    }
    Entry.add(Seg, Lines.line());
    if (Close != std::string_view::npos)
      break;
    std::optional<std::string_view> L = Lines.next();
    if (!L)
      return Fail("unterminated initial state");
    Seg = *L;
  }
  if (InitError.empty())
    InitError = Entry.finish(Test);
  if (!InitError.empty())
    return makeError(std::move(InitError));

  // Threads and final condition.
  const InstSemantics &Sem = instSemantics(Test.TargetArch);
  OperandScratch Scratch;
  while (true) {
    std::optional<std::string_view> L = Lines.next();
    if (!L)
      return Fail("missing final condition");
    if (L->rfind("exists", 0) == 0 || L->rfind("forall", 0) == 0 ||
        L->rfind("~exists", 0) == 0) {
      // The condition runs to the end of the text. Its lines join with
      // '\n', skipped lines included, so errors name file lines.
      size_t FirstLine = Lines.line(), LastLine = FirstLine;
      std::string_view Cond = *L;
      std::string Joined;
      while (std::optional<std::string_view> More = Lines.next()) {
        if (Joined.empty())
          Joined = Cond;
        Joined.append(Lines.line() - LastLine, '\n') += *More;
        LastLine = Lines.line();
      }
      if (!Joined.empty())
        Cond = Joined;
      ErrorOr<FinalCond> F = parseFinalCondition(Cond, unsigned(FirstLine));
      if (!F)
        return makeError(F.error());
      Test.Final = std::move(*F);
      break;
    }
    // "P0 {".
    size_t Brace = L->find('{');
    if (Brace == std::string_view::npos)
      return Fail("expected thread header, got: " + std::string(*L));
    AsmThread &T = threadNamed(Test, trim(L->substr(0, Brace)));
    while (true) {
      std::optional<std::string_view> Body = Lines.next();
      if (!Body)
        return Fail("unterminated thread " + T.Name);
      if (Body->front() == '}')
        break;
      if (Body->back() == ':') {
        T.Labels[std::string(Body->substr(0, Body->size() - 1))] =
            T.Code.size();
        continue;
      }
      if (std::string E = parseInst(Test.TargetArch, Sem, *Body,
                                    T.Code.emplace_back(), Scratch);
          !E.empty())
        return Fail(E);
    }
  }
  // Threads created by register-init entries must appear in program
  // order.
  std::sort(Test.Threads.begin(), Test.Threads.end(), threadBefore);
  return Test;
}
