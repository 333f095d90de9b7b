//===--- Frontend.h - Shared core of the C litmus frontends -----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core under both C-like frontends: herd `C` litmus tests
/// (Parser.cpp) and C++ kernel snippets (Snippet.cpp). It holds the
/// lexer, the cursor with its error and number helpers, the
/// depth-counted statement and expression parser, and the predicate
/// parser of final conditions. Internal to src/litmus.
///
/// The dialects differ in the lexer only as data (LexRules), and above
/// it only through the hooks a dialect gives StmtParser, bound at
/// compile time.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_LITMUS_FRONTEND_H
#define TELECHAT_LITMUS_FRONTEND_H

#include "litmus/Ast.h"
#include "support/Error.h"
#include "support/Limits.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace telechat::frontend {

struct Token {
  enum class Kind {
    Ident,
    Number,
    Punct,  ///< One character.
    AndAnd, ///< "/\" or "&&".
    OrOr,   ///< "\/" or "||".
    End,
  };
  Kind K = Kind::End;
  std::string_view Text; ///< A view of the source, or of a #define body.
  unsigned Line = 0;
};

/// What the lexer reads differently in each dialect.
struct LexRules {
  /// A '#' opens a directive line; "#define NAME BODY" makes the
  /// identifier NAME read as the one-token BODY.
  bool Directives = false;
  /// "::" joins identifiers into one name ("std::memory_order_acquire").
  bool QualifiedNames = false;
  /// The connectives "/\" and "\/" are tokens.
  bool HerdConnectives = false;
  /// So are "&&" and "||", the same connectives.
  bool CxxConnectives = false;
};

class Lexer {
public:
  /// \p FirstLine numbers the first line of \p Text.
  Lexer(std::string_view Text, LexRules Rules, unsigned FirstLine)
      : Rules(Rules), Text(Text), Line(FirstLine) {}

  Token next();
  void putBack(const Token &T) { Pending.push_back(T); }

  /// Applies to every token not lexed yet.
  LexRules Rules;

private:
  Token rawNext();
  void skipTrivia();

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line;
  std::vector<Token> Pending;
  std::map<std::string_view, std::string_view> Defines;
};

/// A lexer with the error and number helpers, and the predicate parser.
class Cursor {
public:
  Cursor(std::string_view Text, LexRules Rules, unsigned FirstLine = 1)
      : Lex(Text, Rules, FirstLine) {}

  /// exists/forall/~exists ( predicate ).
  std::string parseFinal(FinalCond &Out);

protected:
  static bool isPunct(const Token &T, char C) {
    return T.K == Token::Kind::Punct && T.Text.size() == 1 && T.Text[0] == C;
  }
  static bool isIdent(const Token &T, std::string_view Name) {
    return T.K == Token::Kind::Ident && T.Text == Name;
  }

  /// "line N: Msg (at 'token')".
  std::string errStr(const Token &T, const std::string &Msg) const;
  Err err(const Token &T, const std::string &Msg) const {
    return makeError(errStr(T, Msg));
  }
  std::string tooDeep(const Token &T) const;
  std::string expectSemi();

  /// The value of a Number token (see parseNumber).
  std::string numberOf(const Token &T, uint64_t &Out) const;
  /// Parses "N" or the 128-bit spelling "HI:LO".
  std::string parseValue(Value &Out);

  Lexer Lex;
  unsigned Nesting = 0; ///< Open parentheses around the cursor.

private:
  std::string parsePred(Predicate &Out, int MinPrec, unsigned Room,
                        unsigned &Height);
  std::string parsePredPrimary(Predicate &Out, unsigned Room,
                               unsigned &Height);
};

/// The statement and expression parser. A dialect D derives from
/// StmtParser<D> and gives it four hooks:
///
///   std::string parseHead(const Token &T, Stmt &Out, unsigned Room);
///     a statement that is not an `if`, from its first token T, with
///     Room levels for its expressions;
///   std::string checkName(const Token &T);
///     an identifier read inside an expression: "" for a register;
///   std::string literal(const Token &T, Value &Out);
///     a number inside an expression;
///   static MemOrder order(std::string_view Name);
///     a memory order's spelling, MemOrder::NA if it is none.
///
/// Depths count as the wire decoder counts them: a statement's
/// expressions sit one level below it, a nested statement too, and no
/// node may sit deeper than MaxTreeDepth.
template <typename D> class StmtParser : public Cursor {
protected:
  using Cursor::Cursor;

  /// Statements until the closing '}' (consumed), at \p Depth: 0 for a
  /// thread body, one more per enclosing if.
  std::string parseBody(std::vector<Stmt> &Body, unsigned Depth) {
    while (true) {
      Token T = Lex.next();
      if (isPunct(T, '}'))
        return "";
      if (T.K == Token::Kind::End)
        return errStr(T, "unterminated thread body");
      Lex.putBack(T);
      Stmt S;
      if (std::string E = parseStmt(S, Depth); !E.empty())
        return E;
      Body.push_back(std::move(S));
    }
  }

  /// An expression tree of at most \p Room levels (a leaf takes one).
  std::string parseExpr(Expr &Out, unsigned Room) {
    unsigned Height = 0;
    return parseExpr(Out, Room, Height);
  }

  /// "order);" closing a call.
  std::string parseOrderClose(MemOrder &Out) {
    Token O = Lex.next();
    Out = D::order(O.Text);
    if (Out == MemOrder::NA)
      return errStr(O, "expected memory order");
    Token P = Lex.next();
    if (!isPunct(P, ')'))
      return errStr(P, "expected ')'");
    return expectSemi();
  }

  /// "(order);" after a fence's name.
  std::string parseFence(Stmt &Out) {
    Out.K = Stmt::Kind::Fence;
    Token P = Lex.next();
    if (!isPunct(P, '('))
      return errStr(P, "expected '('");
    return parseOrderClose(Out.Order);
  }

private:
  D &dialect() { return static_cast<D &>(*this); }

  /// One statement at \p Depth. Its expressions have MaxTreeDepth - Depth
  /// levels of room.
  std::string parseStmt(Stmt &Out, unsigned Depth) {
    Token T = Lex.next();
    if (Depth >= MaxTreeDepth)
      return tooDeep(T);
    unsigned Room = MaxTreeDepth - Depth;
    if (!isIdent(T, "if"))
      return dialect().parseHead(T, Out, Room);
    // if (cond) { ... } [else { ... }]
    Out.K = Stmt::Kind::If;
    Token P = Lex.next();
    if (!isPunct(P, '('))
      return errStr(P, "expected '(' after if");
    if (std::string E = parseExpr(Out.Cond, Room); !E.empty())
      return E;
    P = Lex.next();
    if (!isPunct(P, ')'))
      return errStr(P, "expected ')' after if condition");
    P = Lex.next();
    if (!isPunct(P, '{'))
      return errStr(P, "expected '{' after if");
    if (std::string E = parseBody(Out.Then, Depth + 1); !E.empty())
      return E;
    P = Lex.next();
    if (isIdent(P, "else")) {
      P = Lex.next();
      if (!isPunct(P, '{'))
        return errStr(P, "expected '{' after else");
      return parseBody(Out.Else, Depth + 1);
    }
    Lex.putBack(P);
    return "";
  }

  /// expr := primary (('+'|'-'|'^'|'&') primary)*. \p Height returns the
  /// levels the tree took. The chain is left-associative, so each
  /// operator adds a level.
  std::string parseExpr(Expr &Out, unsigned Room, unsigned &Height) {
    if (std::string E = parsePrimary(Out, Room, Height); !E.empty())
      return E;
    while (true) {
      Token T = Lex.next();
      Expr::Kind K;
      if (isPunct(T, '+'))
        K = Expr::Kind::Add;
      else if (isPunct(T, '-'))
        K = Expr::Kind::Sub;
      else if (isPunct(T, '^'))
        K = Expr::Kind::Xor;
      else if (isPunct(T, '&'))
        K = Expr::Kind::And;
      else {
        Lex.putBack(T);
        return "";
      }
      if (Height == Room)
        return tooDeep(T);
      Expr Rhs;
      unsigned RhsHeight = 0;
      if (std::string E = parsePrimary(Rhs, Room - 1, RhsHeight); !E.empty())
        return E;
      Height = std::max(Height, RhsHeight) + 1;
      Out = Expr::binary(K, std::move(Out), std::move(Rhs));
    }
  }

  /// A leaf, or a parenthesised expression. Parentheses add recursion
  /// but no node, so their nesting is bounded on its own.
  std::string parsePrimary(Expr &Out, unsigned Room, unsigned &Height) {
    Token T = Lex.next();
    Height = 1;
    if (T.K == Token::Kind::Number) {
      Value V;
      if (std::string E = dialect().literal(T, V); !E.empty())
        return E;
      Out = Expr::imm(V);
      return "";
    }
    if (T.K == Token::Kind::Ident) {
      if (std::string E = dialect().checkName(T); !E.empty())
        return E;
      Out = Expr::reg(std::string(T.Text));
      return "";
    }
    if (isPunct(T, '(')) {
      if (Nesting == MaxTreeDepth)
        return tooDeep(T);
      ++Nesting;
      std::string E = parseExpr(Out, Room, Height);
      --Nesting;
      if (!E.empty())
        return E;
      Token C = Lex.next();
      if (!isPunct(C, ')'))
        return errStr(C, "expected ')'");
      return "";
    }
    return errStr(T, "expected expression");
  }
};

} // namespace telechat::frontend

#endif // TELECHAT_LITMUS_FRONTEND_H
