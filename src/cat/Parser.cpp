//===--- Parser.cpp - Cat model language parser ---------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "cat/Parser.h"

#include "cat/Lexer.h"
#include "support/Limits.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace telechat;

namespace {

class CatParser {
public:
  CatParser(std::vector<CatToken> Tokens) : Tokens(std::move(Tokens)) {}

  ErrorOr<CatModel> run() {
    CatModel Model;
    // Optional leading model name (a bare identifier line or quoted text is
    // not supported; our models start with a name identifier).
    if (peek().K == CatToken::Kind::Ident &&
        peekAhead(1).K == CatToken::Kind::Keyword) {
      Model.Name = next().Text;
    }
    while (peek().K != CatToken::Kind::End) {
      std::string E = parseStmt(Model);
      if (!E.empty())
        return makeError(E);
    }
    if (!peek().Text.empty()) // lexer error carried in End token
      return makeError("lex error: " + peek().Text);
    return Model;
  }

private:
  const CatToken &peek() const { return Tokens[Pos]; }
  const CatToken &peekAhead(size_t N) const {
    return Tokens[std::min(Pos + N, Tokens.size() - 1)];
  }
  CatToken next() { return Tokens[std::min(Pos++, Tokens.size() - 1)]; }
  bool isKw(const CatToken &T, const char *Kw) const {
    return T.K == CatToken::Kind::Keyword && T.Text == Kw;
  }
  bool isPunct(const CatToken &T, char C) const {
    return T.K == CatToken::Kind::Punct && T.Text[0] == C;
  }
  std::string errAt(const CatToken &T, const std::string &Msg) {
    return strFormat("cat:%u: %s (at '%s')", T.Line, Msg.c_str(),
                     T.Text.c_str());
  }
  std::string tooDeep(const CatToken &T) {
    return errAt(T, strFormat("expression nests deeper than %u levels",
                              MaxTreeDepth));
  }

  std::string parseStmt(CatModel &Model) {
    CatToken T = next();
    if (isKw(T, "let")) {
      CatStmt S;
      S.K = CatStmt::Kind::Let;
      if (isKw(peek(), "rec")) {
        next();
        S.K = CatStmt::Kind::LetRec;
      }
      while (true) {
        CatBinding B;
        CatToken Name = next();
        if (Name.K != CatToken::Kind::Ident)
          return errAt(Name, "expected binding name");
        B.Name = Name.Text;
        CatToken Eq = next();
        if (!isPunct(Eq, '='))
          return errAt(Eq, "expected '=' in let binding");
        if (std::string E = parseTop(B.Body); !E.empty())
          return E;
        S.Bindings.push_back(std::move(B));
        if (isKw(peek(), "and")) {
          next();
          continue;
        }
        break;
      }
      Model.Stmts.push_back(std::move(S));
      return "";
    }
    if (isKw(T, "show")) {
      // Parse and discard.
      CatExpr E;
      if (std::string Err = parseTop(E); !Err.empty())
        return Err;
      if (isKw(peek(), "as")) {
        next();
        if (next().K != CatToken::Kind::Ident)
          return errAt(peek(), "expected name after 'as'");
      }
      return "";
    }
    bool IsFlag = false;
    if (isKw(T, "flag")) {
      IsFlag = true;
      T = next();
    }
    bool Negated = false;
    if (isPunct(T, '~')) {
      Negated = true;
      T = next();
    }
    CatCheck::Test Test;
    if (isKw(T, "acyclic"))
      Test = CatCheck::Test::Acyclic;
    else if (isKw(T, "irreflexive"))
      Test = CatCheck::Test::Irreflexive;
    else if (isKw(T, "empty"))
      Test = CatCheck::Test::Empty;
    else
      return errAt(T, "expected statement");

    CatStmt S;
    S.K = CatStmt::Kind::Check;
    S.Check.T = Test;
    S.Check.Negated = Negated;
    S.Check.IsFlag = IsFlag;
    if (std::string E = parseTop(S.Check.E); !E.empty())
      return E;
    if (isKw(peek(), "as")) {
      next();
      CatToken Name = next();
      if (Name.K != CatToken::Kind::Ident)
        return errAt(Name, "expected name after 'as'");
      S.Check.Name = Name.Text;
    } else {
      S.Check.Name = strFormat("check%zu", Model.Stmts.size());
    }
    Model.Stmts.push_back(std::move(S));
    return "";
  }

  /// Binary operator precedence levels; higher binds tighter.
  static int precedenceOf(const CatToken &T) {
    if (T.K != CatToken::Kind::Punct)
      return -1;
    switch (T.Text[0]) {
    case '|':
      return 1;
    case ';':
      return 2;
    case '\\':
      return 3;
    case '&':
      return 4;
    case '*':
      return 5;
    default:
      return -1;
    }
  }

  static CatExpr::Kind binKind(char C) {
    switch (C) {
    case '|':
      return CatExpr::Kind::Union;
    case ';':
      return CatExpr::Kind::Seq;
    case '\\':
      return CatExpr::Kind::Diff;
    case '&':
      return CatExpr::Kind::Inter;
    case '*':
      return CatExpr::Kind::Cross;
    }
    return CatExpr::Kind::Union;
  }

  /// Parses a whole expression. Every parse function reports the height
  /// of the tree it built (a leaf is 1) and refuses one taller than
  /// MaxTreeDepth; bracketing constructs also count their nesting, since
  /// parentheses add recursion but no node.
  std::string parseTop(CatExpr &Out) {
    unsigned Height = 0;
    return parseExpr(Out, 0, Height);
  }

  std::string parseExpr(CatExpr &Out, int MinPrec, unsigned &Height) {
    if (std::string E = parsePostfix(Out, Height); !E.empty())
      return E;
    while (true) {
      int Prec = precedenceOf(peek());
      if (Prec < 0 || Prec < MinPrec)
        return "";
      CatToken Op = next();
      CatExpr Rhs;
      unsigned RhsHeight = 0;
      if (std::string E = parseExpr(Rhs, Prec + 1, RhsHeight); !E.empty())
        return E;
      Height = std::max(Height, RhsHeight) + 1;
      if (Height > MaxTreeDepth)
        return tooDeep(Op);
      CatExpr Combined;
      Combined.K = binKind(Op.Text[0]);
      Combined.Line = Op.Line;
      Combined.Ops.push_back(std::move(Out));
      Combined.Ops.push_back(std::move(Rhs));
      Out = std::move(Combined);
    }
  }

  std::string parsePostfix(CatExpr &Out, unsigned &Height) {
    if (std::string E = parsePrimary(Out, Height); !E.empty())
      return E;
    while (true) {
      const CatToken &T = peek();
      CatExpr::Kind K;
      if (T.K == CatToken::Kind::InvOp)
        K = CatExpr::Kind::Inverse;
      else if (T.K == CatToken::Kind::PlusOp)
        K = CatExpr::Kind::Plus;
      else if (T.K == CatToken::Kind::StarOp)
        K = CatExpr::Kind::Star;
      else if (isPunct(T, '?'))
        K = CatExpr::Kind::Opt;
      else
        return "";
      CatToken Op = next();
      if (++Height > MaxTreeDepth)
        return tooDeep(Op);
      CatExpr Wrapped;
      Wrapped.K = K;
      Wrapped.Line = Op.Line;
      Wrapped.Ops.push_back(std::move(Out));
      Out = std::move(Wrapped);
    }
  }

  /// Parses a sub-expression inside a bracketing construct, one nesting
  /// level below \p Open.
  std::string parseNested(const CatToken &Open, CatExpr &Out,
                          unsigned &Height) {
    if (Nesting == MaxTreeDepth)
      return tooDeep(Open);
    ++Nesting;
    std::string E = parseExpr(Out, 0, Height);
    --Nesting;
    return E;
  }

  std::string parsePrimary(CatExpr &Out, unsigned &Height) {
    CatToken T = next();
    Out.Line = T.Line;
    Height = 1;
    if (T.K == CatToken::Kind::Zero) {
      Out.K = CatExpr::Kind::Zero;
      return "";
    }
    if (T.K == CatToken::Kind::Ident) {
      // Builtin functions take one parenthesised argument.
      if ((T.Text == "domain" || T.Text == "range" ||
           T.Text == "fencerel") &&
          isPunct(peek(), '(')) {
        next();
        CatExpr Arg;
        if (std::string E = parseNested(T, Arg, Height); !E.empty())
          return E;
        if (++Height > MaxTreeDepth)
          return tooDeep(T);
        CatToken Close = next();
        if (!isPunct(Close, ')'))
          return errAt(Close, "expected ')'");
        Out.K = T.Text == "domain"  ? CatExpr::Kind::Domain
                : T.Text == "range" ? CatExpr::Kind::Range
                                    : CatExpr::Kind::FenceRel;
        Out.Ops.push_back(std::move(Arg));
        return "";
      }
      Out.K = CatExpr::Kind::Id;
      Out.Name = T.Text;
      return "";
    }
    if (isPunct(T, '(')) {
      if (std::string E = parseNested(T, Out, Height); !E.empty())
        return E;
      CatToken Close = next();
      if (!isPunct(Close, ')'))
        return errAt(Close, "expected ')'");
      return "";
    }
    if (isPunct(T, '[')) {
      CatExpr Arg;
      if (std::string E = parseNested(T, Arg, Height); !E.empty())
        return E;
      if (++Height > MaxTreeDepth)
        return tooDeep(T);
      CatToken Close = next();
      if (!isPunct(Close, ']'))
        return errAt(Close, "expected ']'");
      Out.K = CatExpr::Kind::Bracket;
      Out.Ops.push_back(std::move(Arg));
      return "";
    }
    return errAt(T, "expected expression");
  }

  std::vector<CatToken> Tokens;
  size_t Pos = 0;
  unsigned Nesting = 0; ///< Open bracketing constructs around the cursor.
};

} // namespace

ErrorOr<CatModel> telechat::parseCat(std::string_view Text) {
  return CatParser(lexCat(Text)).run();
}
