//===--- Parser.cpp - C litmus test parser --------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "litmus/Parser.h"

#include "support/Limits.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <map>

using namespace telechat;

namespace {

struct Token {
  enum class Kind {
    Ident,
    Number,
    Punct, // single char: { } ( ) ; , * = + - ^ & : ~ [ ]
    AndAnd, // "/\"
    OrOr,   // "\/"
    End,
  };
  Kind K = Kind::End;
  std::string Text;
  unsigned Line = 0;
};

/// Tokenizer with #define token aliasing (the paper's tests abbreviate
/// memory orders with #define).
class Lexer {
public:
  Lexer(std::string_view Text) : Text(Text) {}

  Token next() {
    if (!Pending.empty()) {
      Token T = Pending.back();
      Pending.pop_back();
      return T;
    }
    Token T = rawNext();
    // Expand #define aliases (single-token bodies only).
    if (T.K == Token::Kind::Ident) {
      auto It = Defines.find(T.Text);
      if (It != Defines.end()) {
        T.Text = It->second;
        return T;
      }
    }
    return T;
  }

  void addDefine(const std::string &Name, const std::string &Body) {
    Defines[Name] = Body;
  }

  void putBack(Token T) { Pending.push_back(std::move(T)); }

private:
  Token rawNext() {
    skipTrivia();
    Token T;
    T.Line = Line;
    if (Pos >= Text.size())
      return T;
    char C = Text[Pos];
    if (isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             (isalnum(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '_'))
        ++Pos;
      T.K = Token::Kind::Ident;
      T.Text = std::string(Text.substr(Start, Pos - Start));
      return T;
    }
    if (isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             (isalnum(static_cast<unsigned char>(Text[Pos]))))
        ++Pos;
      T.K = Token::Kind::Number;
      T.Text = std::string(Text.substr(Start, Pos - Start));
      return T;
    }
    if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '\\') {
      Pos += 2;
      T.K = Token::Kind::AndAnd;
      T.Text = "/\\";
      return T;
    }
    if (C == '\\' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
      Pos += 2;
      T.K = Token::Kind::OrOr;
      T.Text = "\\/";
      return T;
    }
    ++Pos;
    T.K = Token::Kind::Punct;
    T.Text = std::string(1, C);
    return T;
  }

  void skipTrivia() {
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
      if (C == '#') {
        // "#define NAME BODY" -- BODY is the rest of the line (one token).
        size_t LineEnd = Text.find('\n', Pos);
        std::string_view Dir = Text.substr(
            Pos, LineEnd == std::string_view::npos ? Text.size() - Pos
                                                   : LineEnd - Pos);
        std::vector<std::string> Parts;
        for (std::string &P : splitString(std::string(Dir), ' '))
          if (!trim(P).empty())
            Parts.emplace_back(trim(P));
        if (Parts.size() >= 3 && Parts[0] == "#define")
          Defines[Parts[1]] = Parts[2];
        Pos = LineEnd == std::string_view::npos ? Text.size() : LineEnd;
        continue;
      }
      return;
    }
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
  std::vector<Token> Pending;
  std::map<std::string, std::string> Defines;
};

/// Maps a C type spelling to (IntType, atomic?). Unknown types parse as
/// 32-bit signed non-atomic.
bool classifyType(const std::string &Name, IntType &Ty, bool &Atomic) {
  static const std::map<std::string, std::pair<IntType, bool>> Table = {
      {"int", {{32, true}, false}},
      {"long", {{64, true}, false}},
      {"int8_t", {{8, true}, false}},
      {"int16_t", {{16, true}, false}},
      {"int32_t", {{32, true}, false}},
      {"int64_t", {{64, true}, false}},
      {"uint8_t", {{8, false}, false}},
      {"uint16_t", {{16, false}, false}},
      {"uint32_t", {{32, false}, false}},
      {"uint64_t", {{64, false}, false}},
      {"__int128", {{128, true}, false}},
      {"atomic_int", {{32, true}, true}},
      {"atomic_uint", {{32, false}, true}},
      {"atomic_long", {{64, true}, true}},
      {"atomic_llong", {{64, true}, true}},
      {"atomic_ulong", {{64, false}, true}},
      {"atomic_ullong", {{64, false}, true}},
      {"atomic_char", {{8, true}, true}},
      {"atomic_uchar", {{8, false}, true}},
      {"atomic_short", {{16, true}, true}},
      {"atomic_ushort", {{16, false}, true}},
      {"atomic_int128", {{128, true}, true}},
      {"atomic_uint128", {{128, false}, true}},
  };
  auto It = Table.find(Name);
  if (It == Table.end())
    return false;
  Ty = It->second.first;
  Atomic = It->second.second;
  return true;
}

MemOrder parseOrderName(const std::string &Name) {
  if (Name == "memory_order_relaxed")
    return MemOrder::Relaxed;
  if (Name == "memory_order_consume")
    return MemOrder::Consume;
  if (Name == "memory_order_acquire")
    return MemOrder::Acquire;
  if (Name == "memory_order_release")
    return MemOrder::Release;
  if (Name == "memory_order_acq_rel")
    return MemOrder::AcqRel;
  if (Name == "memory_order_seq_cst")
    return MemOrder::SeqCst;
  return MemOrder::NA;
}

class ParserImpl {
public:
  ParserImpl(std::string_view Text) : Lex(Text) {}

  ErrorOr<FinalCond> runFinalOnly() {
    LitmusTest Test;
    if (std::string E = parseFinal(Test); !E.empty())
      return makeError(E);
    return Test.Final;
  }

  ErrorOr<LitmusTest> run() {
    LitmusTest Test;
    // Optional "C Name" header. herd test names may contain '+', '-' and
    // digits (MP+rel+acq, 2+2W): concatenate tokens until the init '{'.
    Token T = Lex.next();
    if (T.K == Token::Kind::Ident && T.Text == "C") {
      while (true) {
        Token Part = Lex.next();
        if (isPunct(Part, '{') || Part.K == Token::Kind::End) {
          T = Part;
          break;
        }
        Test.Name += Part.Text;
      }
      if (Test.Name.empty())
        return err(T, "expected test name after 'C'");
    }
    // Initial state block.
    if (!isPunct(T, '{'))
      return err(T, "expected '{' opening the initial state");
    if (std::string E = parseInit(Test); !E.empty())
      return makeError(E);
    // Threads.
    while (true) {
      T = Lex.next();
      if (T.K == Token::Kind::End)
        return err(T, "missing final condition");
      if (T.K == Token::Kind::Ident &&
          (T.Text == "exists" || T.Text == "forall")) {
        Lex.putBack(T);
        break;
      }
      if (T.K == Token::Kind::Punct && T.Text == "~") {
        Lex.putBack(T);
        break;
      }
      Lex.putBack(T);
      if (std::string E = parseThread(Test); !E.empty())
        return makeError(E);
    }
    if (std::string E = parseFinal(Test); !E.empty())
      return makeError(E);
    if (Test.Name.empty())
      Test.Name = "unnamed";
    if (std::string E = Test.validate(); !E.empty())
      return makeError("invalid test: " + E);
    return Test;
  }

private:
  static bool isPunct(const Token &T, char C) {
    return T.K == Token::Kind::Punct && T.Text.size() == 1 && T.Text[0] == C;
  }

  Err err(const Token &T, const std::string &Msg) {
    return makeError(strFormat("line %u: %s (at '%s')", T.Line, Msg.c_str(),
                               T.Text.c_str()));
  }

  std::string errStr(const Token &T, const std::string &Msg) {
    return strFormat("line %u: %s (at '%s')", T.Line, Msg.c_str(),
                     T.Text.c_str());
  }

  /// The value of a Number token (see parseNumber).
  std::string numberOf(const Token &T, uint64_t &Out) {
    if (!parseNumber(T.Text.c_str(), ~uint64_t(0), Out))
      return errStr(T, "malformed number");
    return "";
  }

  /// { [const] [type] [*]name = value ; ... }
  std::string parseInit(LitmusTest &Test) {
    while (true) {
      Token T = Lex.next();
      if (isPunct(T, '}'))
        return "";
      if (T.K == Token::Kind::End)
        return errStr(T, "unterminated initial state");
      LocDecl L;
      // Leading qualifiers and type names.
      while (T.K == Token::Kind::Ident) {
        if (T.Text == "const") {
          L.Const = true;
          T = Lex.next();
          continue;
        }
        IntType Ty;
        bool Atomic;
        if (classifyType(T.Text, Ty, Atomic)) {
          L.Type = Ty;
          L.Atomic = Atomic;
          Token Next = Lex.next();
          if (Next.K == Token::Kind::Ident || isPunct(Next, '*')) {
            T = Next;
            continue;
          }
          // "x = 0": T was actually the location name.
          Lex.putBack(Next);
          break;
        }
        break;
      }
      if (isPunct(T, '*'))
        T = Lex.next();
      if (T.K != Token::Kind::Ident)
        return errStr(T, "expected location name in initial state");
      L.Name = T.Text;
      T = Lex.next();
      if (!isPunct(T, '='))
        return errStr(T, "expected '=' in initial state");
      T = Lex.next();
      if (T.K != Token::Kind::Number)
        return errStr(T, "expected numeric initial value");
      uint64_t Init = 0;
      if (std::string E = numberOf(T, Init); !E.empty())
        return E;
      L.Init = Value(Init);
      Test.Locations.push_back(std::move(L));
      T = Lex.next();
      if (isPunct(T, ';'))
        continue;
      if (isPunct(T, '}'))
        return "";
      return errStr(T, "expected ';' or '}' in initial state");
    }
  }

  /// [void] P0 ( params ) { body }
  std::string parseThread(LitmusTest &Test) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Ident && (T.Text == "void" || T.Text == "static"))
      T = Lex.next();
    if (T.K != Token::Kind::Ident)
      return errStr(T, "expected thread name");
    Thread Th;
    Th.Name = T.Text;
    T = Lex.next();
    if (!isPunct(T, '('))
      return errStr(T, "expected '(' after thread name");
    // Skip the parameter list; locations are resolved by name.
    unsigned Depth = 1;
    while (Depth) {
      T = Lex.next();
      if (T.K == Token::Kind::End)
        return errStr(T, "unterminated parameter list");
      if (isPunct(T, '('))
        ++Depth;
      if (isPunct(T, ')'))
        --Depth;
    }
    T = Lex.next();
    if (!isPunct(T, '{'))
      return errStr(T, "expected '{' opening thread body");
    std::string E = parseBody(Th.Body, 0);
    if (!E.empty())
      return E;
    Test.Threads.push_back(std::move(Th));
    return "";
  }

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

  /// One statement at \p Depth. Depths count as the wire decoder counts
  /// them: a statement's expressions sit one level below it, a nested
  /// statement too, and no node may sit deeper than MaxTreeDepth. So a
  /// statement's expressions have MaxTreeDepth - Depth levels of room.
  std::string parseStmt(Stmt &Out, unsigned Depth) {
    Token T = Lex.next();
    if (Depth >= MaxTreeDepth)
      return tooDeep(T);
    unsigned Room = MaxTreeDepth - Depth;
    // if (cond) { ... } [else { ... }]
    if (T.K == Token::Kind::Ident && T.Text == "if") {
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
      if (P.K == Token::Kind::Ident && P.Text == "else") {
        P = Lex.next();
        if (!isPunct(P, '{'))
          return errStr(P, "expected '{' after else");
        return parseBody(Out.Else, Depth + 1);
      }
      Lex.putBack(P);
      return "";
    }
    // atomic_store_explicit(loc, expr, order);
    if (T.K == Token::Kind::Ident && T.Text == "atomic_store_explicit") {
      Out.K = Stmt::Kind::Store;
      return parseCallStoreLike(Out, Room);
    }
    // Result-discarding RMW statement (paper Fig. 1):
    // atomic_exchange_explicit(y, 2, release);
    if (T.K == Token::Kind::Ident &&
        (T.Text == "atomic_exchange_explicit" ||
         T.Text == "atomic_fetch_add_explicit" ||
         T.Text == "atomic_fetch_sub_explicit")) {
      Out.K = Stmt::Kind::Rmw;
      Out.Rmw = T.Text == "atomic_exchange_explicit" ? RmwKind::Xchg
                : T.Text == "atomic_fetch_add_explicit"
                    ? RmwKind::FetchAdd
                    : RmwKind::FetchSub;
      Out.DstUsedNowhere = true;
      return parseCallStoreLike(Out, Room);
    }
    // atomic_thread_fence(order);
    if (T.K == Token::Kind::Ident && T.Text == "atomic_thread_fence") {
      Out.K = Stmt::Kind::Fence;
      Token P = Lex.next();
      if (!isPunct(P, '('))
        return errStr(P, "expected '('");
      Token O = Lex.next();
      Out.Order = parseOrderName(O.Text);
      if (Out.Order == MemOrder::NA)
        return errStr(O, "expected memory order");
      P = Lex.next();
      if (!isPunct(P, ')'))
        return errStr(P, "expected ')'");
      return expectSemi();
    }
    // *loc = expr;   (non-atomic store)
    if (isPunct(T, '*')) {
      Token LocTok = Lex.next();
      if (LocTok.K != Token::Kind::Ident)
        return errStr(LocTok, "expected location after '*'");
      Token Eq = Lex.next();
      if (!isPunct(Eq, '='))
        return errStr(Eq, "expected '='");
      Out.K = Stmt::Kind::Store;
      Out.Loc = LocTok.Text;
      Out.Order = MemOrder::NA;
      if (std::string E = parseExpr(Out.Val, Room); !E.empty())
        return E;
      return expectSemi();
    }
    // Optional type prefix for declarations: "int r0 = ..." / "r0 = ...".
    if (T.K != Token::Kind::Ident)
      return errStr(T, "expected statement");
    IntType Ty;
    bool Atomic;
    Token DstTok = T;
    if (classifyType(T.Text, Ty, Atomic)) {
      DstTok = Lex.next();
      if (DstTok.K != Token::Kind::Ident)
        return errStr(DstTok, "expected register name after type");
    }
    Token Eq = Lex.next();
    if (!isPunct(Eq, '='))
      return errStr(Eq, "expected '=' after register name");
    // RHS decides the statement kind.
    Token Rhs = Lex.next();
    if (Rhs.K == Token::Kind::Ident &&
        Rhs.Text == "atomic_load_explicit") {
      Out.K = Stmt::Kind::Load;
      Out.Dst = DstTok.Text;
      Token P = Lex.next();
      if (!isPunct(P, '('))
        return errStr(P, "expected '('");
      Token LocTok = Lex.next();
      if (isPunct(LocTok, '&'))
        LocTok = Lex.next();
      if (LocTok.K != Token::Kind::Ident)
        return errStr(LocTok, "expected location");
      Out.Loc = LocTok.Text;
      P = Lex.next();
      if (!isPunct(P, ','))
        return errStr(P, "expected ','");
      Token O = Lex.next();
      Out.Order = parseOrderName(O.Text);
      if (Out.Order == MemOrder::NA)
        return errStr(O, "expected memory order");
      P = Lex.next();
      if (!isPunct(P, ')'))
        return errStr(P, "expected ')'");
      return expectSemi();
    }
    if (Rhs.K == Token::Kind::Ident &&
        (Rhs.Text == "atomic_exchange_explicit" ||
         Rhs.Text == "atomic_fetch_add_explicit" ||
         Rhs.Text == "atomic_fetch_sub_explicit")) {
      Out.K = Stmt::Kind::Rmw;
      Out.Dst = DstTok.Text;
      Out.Rmw = Rhs.Text == "atomic_exchange_explicit" ? RmwKind::Xchg
                : Rhs.Text == "atomic_fetch_add_explicit"
                    ? RmwKind::FetchAdd
                    : RmwKind::FetchSub;
      return parseCallStoreLike(Out, Room);
    }
    if (isPunct(Rhs, '*')) {
      // Non-atomic load: r = *loc;
      Token LocTok = Lex.next();
      if (LocTok.K != Token::Kind::Ident)
        return errStr(LocTok, "expected location after '*'");
      Out.K = Stmt::Kind::Load;
      Out.Dst = DstTok.Text;
      Out.Loc = LocTok.Text;
      Out.Order = MemOrder::NA;
      return expectSemi();
    }
    // Local assignment: r = expr;
    Lex.putBack(Rhs);
    Out.K = Stmt::Kind::LocalAssign;
    Out.Dst = DstTok.Text;
    if (std::string E = parseExpr(Out.Val, Room); !E.empty())
      return E;
    return expectSemi();
  }

  /// Shared tail of store/rmw calls: "(loc, expr, order);".
  std::string parseCallStoreLike(Stmt &Out, unsigned Room) {
    Token P = Lex.next();
    if (!isPunct(P, '('))
      return errStr(P, "expected '('");
    Token LocTok = Lex.next();
    if (isPunct(LocTok, '&'))
      LocTok = Lex.next();
    if (LocTok.K != Token::Kind::Ident)
      return errStr(LocTok, "expected location");
    Out.Loc = LocTok.Text;
    P = Lex.next();
    if (!isPunct(P, ','))
      return errStr(P, "expected ','");
    if (std::string E = parseExpr(Out.Val, Room); !E.empty())
      return E;
    P = Lex.next();
    if (!isPunct(P, ','))
      return errStr(P, "expected ','");
    Token O = Lex.next();
    Out.Order = parseOrderName(O.Text);
    if (Out.Order == MemOrder::NA)
      return errStr(O, "expected memory order");
    P = Lex.next();
    if (!isPunct(P, ')'))
      return errStr(P, "expected ')'");
    return expectSemi();
  }

  std::string expectSemi() {
    Token T = Lex.next();
    if (!isPunct(T, ';'))
      return errStr(T, "expected ';'");
    return "";
  }

  std::string tooDeep(const Token &T) {
    return errStr(T, strFormat("nesting deeper than %u levels", MaxTreeDepth));
  }

  std::string parseExpr(Expr &Out, unsigned Room) {
    unsigned Height = 0;
    return parseExpr(Out, Room, Height);
  }

  /// expr := primary (('+'|'-'|'^'|'&') primary)*. The tree may take
  /// \p Room levels (a leaf takes one); \p Height returns what it took.
  /// The chain is left-associative, so each operator adds a level.
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
      Lex.putBack(T);
      Value V;
      if (std::string E = parseValue(V); !E.empty())
        return E;
      Out = Expr::imm(V);
      return "";
    }
    if (T.K == Token::Kind::Ident) {
      Out = Expr::reg(T.Text);
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

  /// exists/forall/~exists ( predicate )
  std::string parseFinal(LitmusTest &Test) {
    Token T = Lex.next();
    if (isPunct(T, '~')) {
      Test.Final.Q = FinalCond::Quant::NotExists;
      T = Lex.next();
      if (T.K != Token::Kind::Ident || T.Text != "exists")
        return errStr(T, "expected 'exists' after '~'");
    } else if (T.K == Token::Kind::Ident && T.Text == "exists") {
      Test.Final.Q = FinalCond::Quant::Exists;
    } else if (T.K == Token::Kind::Ident && T.Text == "forall") {
      Test.Final.Q = FinalCond::Quant::Forall;
    } else {
      return errStr(T, "expected final condition quantifier");
    }
    // The root sits at depth 0, so the tree has one level more room
    // than a statement's expressions.
    unsigned Height = 0;
    return parsePred(Test.Final.P, /*MinPrec=*/0, MaxTreeDepth + 1, Height);
  }

  /// Predicate grammar: atom | '(' p ')' | 'not' p | p '/\' p | p '\/' p.
  /// '/\' binds tighter than '\/'. \p Room and \p Height as for
  /// parseExpr.
  std::string parsePred(Predicate &Out, int MinPrec, unsigned Room,
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
      Predicate::Kind Want =
          IsAnd ? Predicate::Kind::And : Predicate::Kind::Or;
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

  std::string parsePredPrimary(Predicate &Out, unsigned Room,
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
    if ((T.K == Token::Kind::Ident && T.Text == "not") || isPunct(T, '~')) {
      if (Room == 1)
        return tooDeep(T);
      Predicate Inner;
      if (std::string E = parsePredPrimary(Inner, Room - 1, Height);
          !E.empty())
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
    std::string First = T.Text;
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
      std::string ThreadName =
          T.K == Token::Kind::Number ? "P" + First : First;
      Out = Predicate::regEq(ThreadName, RegTok.Text, V);
      return "";
    }
    if (!isPunct(Sep, '='))
      return errStr(Sep, "expected '=' in final condition atom");
    Value V;
    if (std::string E = parseValue(V); !E.empty())
      return E;
    Out = Predicate::locEq(First, V);
    return "";
  }

  /// Parses "N" or the 128-bit spelling "HI:LO".
  std::string parseValue(Value &Out) {
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

  Lexer Lex;
  unsigned Nesting = 0; ///< Open parentheses around the cursor.
};

} // namespace

ErrorOr<LitmusTest> telechat::parseLitmusC(std::string_view Text) {
  return ParserImpl(Text).run();
}

ErrorOr<FinalCond> telechat::parseFinalCondition(std::string_view Text) {
  return ParserImpl(Text).runFinalOnly();
}
