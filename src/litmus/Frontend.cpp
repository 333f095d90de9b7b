//===--- Frontend.cpp - Shared core of the C litmus frontends -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "litmus/Frontend.h"

#include "support/StringUtils.h"

#include <cctype>

using namespace telechat;
using namespace telechat::frontend;

Token Lexer::next() {
  if (!Pending.empty()) {
    Token T = Pending.back();
    Pending.pop_back();
    return T;
  }
  Token T = rawNext();
  // Expand #define aliases (single-token bodies only).
  if (T.K == Token::Kind::Ident && !Defines.empty()) {
    auto It = Defines.find(T.Text);
    if (It != Defines.end())
      T.Text = It->second;
  }
  return T;
}

Token Lexer::rawNext() {
  skipTrivia();
  Token T;
  T.Line = Line;
  if (Pos >= Text.size())
    return T;
  size_t Start = Pos;
  char C = Text[Pos];
  auto At = [&](size_t I, char D) { return I < Text.size() && Text[I] == D; };
  if (isalpha(static_cast<unsigned char>(C)) || C == '_') {
    T.K = Token::Kind::Ident;
    while (Pos < Text.size()) {
      if (isalnum(static_cast<unsigned char>(Text[Pos])) || Text[Pos] == '_')
        ++Pos;
      else if (Rules.QualifiedNames && Text[Pos] == ':' && At(Pos + 1, ':'))
        Pos += 2;
      else
        break;
    }
  } else if (isdigit(static_cast<unsigned char>(C))) {
    T.K = Token::Kind::Number;
    while (Pos < Text.size() && isalnum(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  } else if ((Rules.HerdConnectives && C == '/' && At(Pos + 1, '\\')) ||
             (Rules.CxxConnectives && C == '&' && At(Pos + 1, '&'))) {
    T.K = Token::Kind::AndAnd;
    Pos += 2;
  } else if ((Rules.HerdConnectives && C == '\\' && At(Pos + 1, '/')) ||
             (Rules.CxxConnectives && C == '|' && At(Pos + 1, '|'))) {
    T.K = Token::Kind::OrOr;
    Pos += 2;
  } else {
    T.K = Token::Kind::Punct;
    ++Pos;
  }
  T.Text = Text.substr(Start, Pos - Start);
  return T;
}

void Lexer::skipTrivia() {
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (C == '\n') {
      ++Line;
      ++Pos;
      continue;
    }
    if (isspace(static_cast<unsigned char>(C))) {
      ++Pos;
      continue;
    }
    if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
      while (Pos < Text.size() && Text[Pos] != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '*') {
      Pos += 2;
      while (Pos + 1 < Text.size() &&
             !(Text[Pos] == '*' && Text[Pos + 1] == '/')) {
        if (Text[Pos] == '\n')
          ++Line;
        ++Pos;
      }
      Pos = Pos + 2 <= Text.size() ? Pos + 2 : Text.size();
      continue;
    }
    if (C == '#' && Rules.Directives) {
      // "#define NAME BODY": BODY is the rest of the line, one token.
      size_t End = Text.find('\n', Pos);
      if (End == std::string_view::npos)
        End = Text.size();
      std::vector<std::string_view> Parts;
      for (size_t I = Pos; I != End;) {
        if (isspace(static_cast<unsigned char>(Text[I]))) {
          ++I;
          continue;
        }
        size_t From = I;
        while (I != End && !isspace(static_cast<unsigned char>(Text[I])))
          ++I;
        Parts.push_back(Text.substr(From, I - From));
      }
      if (Parts.size() >= 3 && Parts[0] == "#define")
        Defines[Parts[1]] = Parts[2];
      Pos = End;
      continue;
    }
    return;
  }
}

std::string Cursor::errStr(const Token &T, const std::string &Msg) const {
  return strFormat("line %u: %s (at '%s')", T.Line, Msg.c_str(),
                   std::string(T.Text).c_str());
}

std::string Cursor::tooDeep(const Token &T) const {
  return errStr(T, strFormat("nesting deeper than %u levels", MaxTreeDepth));
}

std::string Cursor::expectSemi() {
  Token T = Lex.next();
  if (!isPunct(T, ';'))
    return errStr(T, "expected ';'");
  return "";
}

std::string Cursor::numberOf(const Token &T, uint64_t &Out) const {
  if (!parseNumber(std::string(T.Text).c_str(), ~uint64_t(0), Out))
    return errStr(T, "malformed number");
  return "";
}

std::string Cursor::parseValue(Value &Out) {
  Token V = Lex.next();
  if (V.K != Token::Kind::Number)
    return errStr(V, "expected numeric value");
  uint64_t First = 0;
  if (std::string E = numberOf(V, First); !E.empty())
    return E;
  Token Colon = Lex.next();
  if (!isPunct(Colon, ':')) {
    Lex.putBack(Colon);
    Out = Value(First);
    return "";
  }
  Token Lo = Lex.next();
  if (Lo.K != Token::Kind::Number)
    return errStr(Lo, "expected low half after ':'");
  uint64_t Low = 0;
  if (std::string E = numberOf(Lo, Low); !E.empty())
    return E;
  Out = Value(Low, First);
  return "";
}

std::string Cursor::parseFinal(FinalCond &Out) {
  Token T = Lex.next();
  if (isPunct(T, '~')) {
    Out.Q = FinalCond::Quant::NotExists;
    T = Lex.next();
    if (!isIdent(T, "exists"))
      return errStr(T, "expected 'exists' after '~'");
  } else if (isIdent(T, "exists")) {
    Out.Q = FinalCond::Quant::Exists;
  } else if (isIdent(T, "forall")) {
    Out.Q = FinalCond::Quant::Forall;
  } else {
    return errStr(T, "expected final condition quantifier");
  }
  // The root sits at depth 0, so the tree has one level more room than a
  // statement's expressions.
  unsigned Height = 0;
  return parsePred(Out.P, /*MinPrec=*/0, MaxTreeDepth + 1, Height);
}

/// Predicate grammar: atom | '(' p ')' | 'not' p | p '/\' p | p '\/' p.
/// '/\' binds tighter than '\/'. \p Room and \p Height as for parseExpr.
std::string Cursor::parsePred(Predicate &Out, int MinPrec, unsigned Room,
                              unsigned &Height) {
  if (std::string E = parsePredPrimary(Out, Room, Height); !E.empty())
    return E;
  while (true) {
    Token T = Lex.next();
    int Prec;
    bool IsAnd;
    if (T.K == Token::Kind::AndAnd) {
      Prec = 2;
      IsAnd = true;
    } else if (T.K == Token::Kind::OrOr) {
      Prec = 1;
      IsAnd = false;
    } else {
      Lex.putBack(T);
      return "";
    }
    if (Prec < MinPrec) {
      Lex.putBack(T);
      return "";
    }
    // Flatten chains of the same connective so that printing is
    // round-trip stable: a /\ b /\ c is one 3-ary conjunction.
    Predicate::Kind Want = IsAnd ? Predicate::Kind::And : Predicate::Kind::Or;
    bool Flat = Out.K == Want;
    if (!Flat && Height == Room)
      return tooDeep(T);
    Predicate Rhs;
    unsigned RhsHeight = 0;
    if (std::string E = parsePred(Rhs, Prec + 1, Room - 1, RhsHeight);
        !E.empty())
      return E;
    Height = Flat ? std::max(Height, RhsHeight + 1)
                  : std::max(Height, RhsHeight) + 1;
    if (Flat) {
      Out.Ops.push_back(std::move(Rhs));
    } else {
      std::vector<Predicate> Ops;
      Ops.push_back(std::move(Out));
      Ops.push_back(std::move(Rhs));
      Out = IsAnd ? Predicate::conj(std::move(Ops))
                  : Predicate::disj(std::move(Ops));
    }
  }
}

std::string Cursor::parsePredPrimary(Predicate &Out, unsigned Room,
                                     unsigned &Height) {
  Token T = Lex.next();
  Height = 1;
  if (isPunct(T, '(')) {
    if (Nesting == MaxTreeDepth)
      return tooDeep(T);
    ++Nesting;
    std::string E = parsePred(Out, 0, Room, Height);
    --Nesting;
    if (!E.empty())
      return E;
    Token C = Lex.next();
    if (!isPunct(C, ')'))
      return errStr(C, "expected ')' in final condition");
    return "";
  }
  if (isIdent(T, "not") || isPunct(T, '~')) {
    if (Room == 1)
      return tooDeep(T);
    Predicate Inner;
    if (std::string E = parsePredPrimary(Inner, Room - 1, Height); !E.empty())
      return E;
    ++Height;
    Out = Predicate::negate(std::move(Inner));
    return "";
  }
  // Atom: "P1:r0=0", "1:r0=0", "y=2", or "[y]=2".
  bool Bracketed = false;
  if (isPunct(T, '[')) {
    Bracketed = true;
    T = Lex.next();
  }
  if (T.K != Token::Kind::Ident && T.K != Token::Kind::Number)
    return errStr(T, "expected final condition atom");
  std::string First(T.Text);
  if (Bracketed) {
    Token C = Lex.next();
    if (!isPunct(C, ']'))
      return errStr(C, "expected ']'");
  }
  Token Sep = Lex.next();
  if (!Bracketed && isPunct(Sep, ':')) {
    Token RegTok = Lex.next();
    if (RegTok.K != Token::Kind::Ident)
      return errStr(RegTok, "expected register after ':'");
    Token Eq = Lex.next();
    if (!isPunct(Eq, '='))
      return errStr(Eq, "expected '='");
    Value V;
    if (std::string E = parseValue(V); !E.empty())
      return E;
    std::string ThreadName = T.K == Token::Kind::Number ? "P" + First : First;
    Out = Predicate::regEq(std::move(ThreadName), std::string(RegTok.Text), V);
    return "";
  }
  if (!isPunct(Sep, '='))
    return errStr(Sep, "expected '=' in final condition atom");
  Value V;
  if (std::string E = parseValue(V); !E.empty())
    return E;
  Out = Predicate::locEq(std::move(First), V);
  return "";
}
