//===--- Parser.cpp - C litmus test parser --------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The herd dialect over the shared frontend core (Frontend.h): the
/// "C name" header, the initial state, thread headers, the
/// atomic_*_explicit and *loc statements, and the C type and order names.
///
//===----------------------------------------------------------------------===//

#include "litmus/Parser.h"

#include "litmus/Frontend.h"

#include <map>

using namespace telechat;
using namespace telechat::frontend;

namespace {

/// herd lexes '#' directive lines, with #define aliases (the paper's
/// tests abbreviate memory orders with #define).
constexpr LexRules HerdRules{/*Directives=*/true, /*QualifiedNames=*/false,
                             /*HerdConnectives=*/true,
                             /*CxxConnectives=*/false};

/// Maps a C type spelling to (IntType, atomic?). Unknown types parse as
/// 32-bit signed non-atomic.
bool classifyType(std::string_view Name, IntType &Ty, bool &Atomic) {
  static const std::map<std::string_view, std::pair<IntType, bool>> Table = {
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

MemOrder parseOrderName(std::string_view Name) {
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

class ParserImpl : public StmtParser<ParserImpl> {
public:
  explicit ParserImpl(std::string_view Text) : StmtParser(Text, HerdRules) {}

  ErrorOr<LitmusTest> run() {
    LitmusTest Test;
    // Optional "C Name" header. herd test names may contain '+', '-' and
    // digits (MP+rel+acq, 2+2W): concatenate tokens until the init '{'.
    Token T = Lex.next();
    if (isIdent(T, "C")) {
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
      Lex.putBack(T);
      if (isIdent(T, "exists") || isIdent(T, "forall") || isPunct(T, '~'))
        break;
      if (std::string E = parseThread(Test); !E.empty())
        return makeError(E);
    }
    if (std::string E = parseFinal(Test.Final); !E.empty())
      return makeError(E);
    if (Test.Name.empty())
      Test.Name = "unnamed";
    if (std::string E = Test.validate(); !E.empty())
      return makeError("invalid test: " + E);
    return Test;
  }

private:
  friend StmtParser;

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
    if (isIdent(T, "void") || isIdent(T, "static"))
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
    if (std::string E = parseBody(Th.Body, 0); !E.empty())
      return E;
    Test.Threads.push_back(std::move(Th));
    return "";
  }

  /// The RMW a call names, if it names one.
  static bool rmwCall(const Token &T, RmwKind &Out) {
    if (isIdent(T, "atomic_exchange_explicit"))
      Out = RmwKind::Xchg;
    else if (isIdent(T, "atomic_fetch_add_explicit"))
      Out = RmwKind::FetchAdd;
    else if (isIdent(T, "atomic_fetch_sub_explicit"))
      Out = RmwKind::FetchSub;
    else
      return false;
    return true;
  }

  /// A location after '*', or after '(' with an optional '&'.
  std::string parseLoc(Stmt &Out, bool AfterStar) {
    Token LocTok = Lex.next();
    if (!AfterStar && isPunct(LocTok, '&'))
      LocTok = Lex.next();
    if (LocTok.K != Token::Kind::Ident)
      return errStr(LocTok, AfterStar ? "expected location after '*'"
                                      : "expected location");
    Out.Loc = LocTok.Text;
    return "";
  }

  /// The statement heads of the herd dialect (StmtParser hook).
  std::string parseHead(const Token &T, Stmt &Out, unsigned Room) {
    // atomic_store_explicit(loc, expr, order);
    if (isIdent(T, "atomic_store_explicit")) {
      Out.K = Stmt::Kind::Store;
      return parseCallArgs(Out, Room, /*WithValue=*/true);
    }
    // Result-discarding RMW statement (paper Fig. 1):
    // atomic_exchange_explicit(y, 2, release);
    if (rmwCall(T, Out.Rmw)) {
      Out.K = Stmt::Kind::Rmw;
      Out.DstUsedNowhere = true;
      return parseCallArgs(Out, Room, /*WithValue=*/true);
    }
    if (isIdent(T, "atomic_thread_fence"))
      return parseFence(Out);
    // *loc = expr;   (non-atomic store)
    if (isPunct(T, '*')) {
      if (std::string E = parseLoc(Out, /*AfterStar=*/true); !E.empty())
        return E;
      Token Eq = Lex.next();
      if (!isPunct(Eq, '='))
        return errStr(Eq, "expected '='");
      Out.K = Stmt::Kind::Store;
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
    Out.Dst = DstTok.Text;
    // RHS decides the statement kind.
    Token Rhs = Lex.next();
    if (isIdent(Rhs, "atomic_load_explicit")) {
      Out.K = Stmt::Kind::Load;
      return parseCallArgs(Out, Room, /*WithValue=*/false);
    }
    if (rmwCall(Rhs, Out.Rmw)) {
      Out.K = Stmt::Kind::Rmw;
      return parseCallArgs(Out, Room, /*WithValue=*/true);
    }
    if (isPunct(Rhs, '*')) {
      // Non-atomic load: r = *loc;
      if (std::string E = parseLoc(Out, /*AfterStar=*/true); !E.empty())
        return E;
      Out.K = Stmt::Kind::Load;
      Out.Order = MemOrder::NA;
      return expectSemi();
    }
    // Local assignment: r = expr;
    Lex.putBack(Rhs);
    Out.K = Stmt::Kind::LocalAssign;
    if (std::string E = parseExpr(Out.Val, Room); !E.empty())
      return E;
    return expectSemi();
  }

  /// The arguments of an atomic_*_explicit call: "(loc, [expr,] order);".
  std::string parseCallArgs(Stmt &Out, unsigned Room, bool WithValue) {
    Token P = Lex.next();
    if (!isPunct(P, '('))
      return errStr(P, "expected '('");
    if (std::string E = parseLoc(Out, /*AfterStar=*/false); !E.empty())
      return E;
    P = Lex.next();
    if (!isPunct(P, ','))
      return errStr(P, "expected ','");
    if (WithValue) {
      if (std::string E = parseExpr(Out.Val, Room); !E.empty())
        return E;
      P = Lex.next();
      if (!isPunct(P, ','))
        return errStr(P, "expected ','");
    }
    return parseOrderClose(Out.Order);
  }

  /// StmtParser hooks: every name in an expression is a register, and a
  /// number may be the 128-bit spelling "HI:LO".
  std::string checkName(const Token &) { return ""; }
  std::string literal(const Token &T, Value &Out) {
    Lex.putBack(T);
    return parseValue(Out);
  }
  static MemOrder order(std::string_view Name) { return parseOrderName(Name); }
};

} // namespace

ErrorOr<LitmusTest> telechat::parseLitmusC(std::string_view Text) {
  return ParserImpl(Text).run();
}

ErrorOr<FinalCond> telechat::parseFinalCondition(std::string_view Text,
                                                 unsigned FirstLine) {
  FinalCond F;
  if (std::string E = Cursor(Text, HerdRules, FirstLine).parseFinal(F);
      !E.empty())
    return makeError(E);
  return F;
}
