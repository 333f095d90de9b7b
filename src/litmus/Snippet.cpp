//===--- Snippet.cpp - C++ std::atomic kernel-snippet frontend ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "litmus/Snippet.h"

#include "litmus/Parser.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace telechat;

namespace {

struct Token {
  enum class Kind {
    Ident,  ///< Identifiers, with "::"-joined qualifications kept whole.
    Number,
    Punct,  ///< Single char: { } ( ) ; , * = + - ^ & | < > . ~ :
    AndAnd, ///< "&&"
    OrOr,   ///< "||"
    End,
  };
  Kind K = Kind::End;
  std::string Text;
  unsigned Line = 0;
  size_t Start = 0; ///< Byte offset of the token's first character.
};

/// Snippet tokenizer. Unlike the herd-C lexer it keeps qualified names
/// ("std::memory_order_release", "rl::mo_acquire") as one identifier
/// token and lexes "&&" / "||" for the predicate sugar.
class Lexer {
public:
  Lexer(std::string_view Text) : Text(Text) {}

  Token next() {
    if (!Pending.empty()) {
      Token T = Pending.back();
      Pending.pop_back();
      return T;
    }
    skipTrivia();
    Token T;
    T.Line = Line;
    T.Start = Pos;
    if (Pos >= Text.size())
      return T;
    char C = Text[Pos];
    if (isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Text.size()) {
        char D = Text[Pos];
        if (isalnum(static_cast<unsigned char>(D)) || D == '_') {
          ++Pos;
          continue;
        }
        if (D == ':' && Pos + 1 < Text.size() && Text[Pos + 1] == ':') {
          Pos += 2;
          continue;
        }
        break;
      }
      T.K = Token::Kind::Ident;
      T.Text = std::string(Text.substr(Start, Pos - Start));
      return T;
    }
    if (isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             isalnum(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      T.K = Token::Kind::Number;
      T.Text = std::string(Text.substr(Start, Pos - Start));
      return T;
    }
    if (C == '&' && Pos + 1 < Text.size() && Text[Pos + 1] == '&') {
      Pos += 2;
      T.K = Token::Kind::AndAnd;
      T.Text = "&&";
      return T;
    }
    if (C == '|' && Pos + 1 < Text.size() && Text[Pos + 1] == '|') {
      Pos += 2;
      T.K = Token::Kind::OrOr;
      T.Text = "||";
      return T;
    }
    ++Pos;
    T.K = Token::Kind::Punct;
    T.Text = std::string(1, C);
    return T;
  }

  void putBack(Token T) { Pending.push_back(std::move(T)); }

private:
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
      return;
    }
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
  std::vector<Token> Pending;
};

/// Strips a leading "std::" or "rl::" qualification.
std::string unqualified(const std::string &Name) {
  for (const char *Prefix : {"std::", "rl::"}) {
    if (Name.rfind(Prefix, 0) == 0)
      return Name.substr(strlen(Prefix));
  }
  return Name;
}

/// Accepts every spelling the subset admits: memory_order_X,
/// memory_order::X (scoped enum) and Relacy's mo_X, each optionally
/// std::/rl::-qualified. NA on anything else.
MemOrder snippetOrder(const std::string &Name) {
  std::string S = unqualified(Name);
  if (S.rfind("memory_order::", 0) == 0)
    S = "memory_order_" + S.substr(strlen("memory_order::"));
  else if (S.rfind("mo_", 0) == 0)
    S = "memory_order_" + S.substr(3);
  static const std::map<std::string, MemOrder> Table = {
      {"memory_order_relaxed", MemOrder::Relaxed},
      {"memory_order_consume", MemOrder::Consume},
      {"memory_order_acquire", MemOrder::Acquire},
      {"memory_order_release", MemOrder::Release},
      {"memory_order_acq_rel", MemOrder::AcqRel},
      {"memory_order_seq_cst", MemOrder::SeqCst},
  };
  auto It = Table.find(S);
  return It == Table.end() ? MemOrder::NA : It->second;
}

/// The integer types admitted inside atomic<...> and as plain location /
/// register declarations.
bool snippetType(const std::string &Name, IntType &Ty) {
  static const std::map<std::string, IntType> Table = {
      {"int", {32, true}},       {"unsigned", {32, false}},
      {"long", {64, true}},      {"char", {8, true}},
      {"short", {16, true}},     {"int8_t", {8, true}},
      {"int16_t", {16, true}},   {"int32_t", {32, true}},
      {"int64_t", {64, true}},   {"uint8_t", {8, false}},
      {"uint16_t", {16, false}}, {"uint32_t", {32, false}},
      {"uint64_t", {64, false}}, {"__int128", {128, true}},
  };
  auto It = Table.find(unqualified(Name));
  if (It == Table.end())
    return false;
  Ty = It->second;
  return true;
}

class SnippetParser {
public:
  SnippetParser(std::string_view Text) : Text(Text), Lex(Text) {}

  ErrorOr<LitmusTest> run() {
    LitmusTest Test;
    // Optional "kernel Name" header.
    Token T = Lex.next();
    if (T.K == Token::Kind::Ident && T.Text == "kernel") {
      Token Name = Lex.next();
      if (Name.K != Token::Kind::Ident)
        return err(Name, "expected kernel name");
      Test.Name = Name.Text;
    } else {
      Lex.putBack(T);
      Test.Name = "snippet";
    }
    // Declarations, then threads, then the final condition.
    size_t FinalStart = 0;
    while (true) {
      T = Lex.next();
      if (T.K == Token::Kind::End)
        return err(T, "missing final condition");
      if ((T.K == Token::Kind::Ident &&
           (T.Text == "exists" || T.Text == "forall")) ||
          isPunct(T, '~')) {
        FinalStart = T.Start;
        break;
      }
      if (T.K == Token::Kind::Ident &&
          (T.Text == "thread" || T.Text == "void")) {
        if (std::string E = parseThread(Test, T.Text == "void"); !E.empty())
          return makeError(E);
        continue;
      }
      Lex.putBack(T);
      if (std::string E = parseDecl(Test); !E.empty())
        return makeError(E);
    }
    if (std::string E = parseFinal(Test, FinalStart); !E.empty())
      return makeError(E);
    if (std::string E = Test.validate(); !E.empty())
      return makeError("invalid kernel: " + E);
    return Test;
  }

private:
  static bool isPunct(const Token &T, char C) {
    return T.K == Token::Kind::Punct && T.Text.size() == 1 && T.Text[0] == C;
  }

  Err err(const Token &T, const std::string &Msg) {
    return makeError(errStr(T, Msg));
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

  bool isAtomicLoc(const std::string &Name) const {
    auto It = Locs.find(Name);
    return It != Locs.end() && It->second;
  }
  bool isLoc(const std::string &Name) const { return Locs.count(Name) != 0; }

  /// "std::atomic<T> name = init;" or "T name = init;" (const allowed).
  std::string parseDecl(LitmusTest &Test) {
    Token T = Lex.next();
    LocDecl L;
    if (T.K == Token::Kind::Ident && T.Text == "const") {
      L.Const = true;
      T = Lex.next();
    }
    if (T.K != Token::Kind::Ident)
      return errStr(T, "expected declaration or thread");
    std::string Base = unqualified(T.Text);
    if (Base == "atomic") {
      Token Lt = Lex.next();
      if (!isPunct(Lt, '<'))
        return errStr(Lt, "expected '<' after atomic");
      Token Inner = Lex.next();
      if (Inner.K != Token::Kind::Ident || !snippetType(Inner.Text, L.Type))
        return errStr(Inner, "unsupported atomic element type");
      Token Gt = Lex.next();
      if (!isPunct(Gt, '>'))
        return errStr(Gt, "expected '>' closing atomic<...>");
      L.Atomic = true;
    } else {
      if (!snippetType(T.Text, L.Type))
        return errStr(T, "unsupported declaration type");
      L.Atomic = false;
    }
    Token Name = Lex.next();
    if (Name.K != Token::Kind::Ident)
      return errStr(Name, "expected location name");
    L.Name = Name.Text;
    Token Eq = Lex.next();
    if (!isPunct(Eq, '='))
      return errStr(Eq, "expected '=' (locations need an initial value)");
    Token V = Lex.next();
    if (V.K != Token::Kind::Number)
      return errStr(V, "expected numeric initial value");
    uint64_t Init = 0;
    if (std::string E = numberOf(V, Init); !E.empty())
      return E;
    L.Init = Value(Init);
    Token Semi = Lex.next();
    if (!isPunct(Semi, ';'))
      return errStr(Semi, "expected ';' after declaration");
    Locs[L.Name] = L.Atomic;
    Test.Locations.push_back(std::move(L));
    return "";
  }

  /// "thread P0 { ... }" or "void P0() { ... }".
  std::string parseThread(LitmusTest &Test, bool CStyle) {
    Token Name = Lex.next();
    if (Name.K != Token::Kind::Ident)
      return errStr(Name, "expected thread name");
    Thread Th;
    Th.Name = Name.Text;
    Token T = Lex.next();
    if (CStyle || isPunct(T, '(')) {
      if (!isPunct(T, '('))
        return errStr(T, "expected '(' after thread name");
      Token Close = Lex.next();
      if (!isPunct(Close, ')'))
        return errStr(Close, "snippet threads take no parameters");
      T = Lex.next();
    }
    if (!isPunct(T, '{'))
      return errStr(T, "expected '{' opening thread body");
    if (std::string E = parseBody(Th.Body); !E.empty())
      return E;
    Test.Threads.push_back(std::move(Th));
    return "";
  }

  std::string parseBody(std::vector<Stmt> &Body) {
    while (true) {
      Token T = Lex.next();
      if (isPunct(T, '}'))
        return "";
      if (T.K == Token::Kind::End)
        return errStr(T, "unterminated thread body");
      Lex.putBack(T);
      Stmt S;
      if (std::string E = parseStmt(S); !E.empty())
        return E;
      Body.push_back(std::move(S));
    }
  }

  std::string parseStmt(Stmt &Out) {
    Token T = Lex.next();
    if (T.K != Token::Kind::Ident)
      return errStr(T, "expected statement");
    // if (e) { ... } [else { ... }]
    if (T.Text == "if") {
      Out.K = Stmt::Kind::If;
      Token P = Lex.next();
      if (!isPunct(P, '('))
        return errStr(P, "expected '(' after if");
      if (std::string E = parseExpr(Out.Cond); !E.empty())
        return E;
      P = Lex.next();
      if (!isPunct(P, ')'))
        return errStr(P, "expected ')' after if condition");
      P = Lex.next();
      if (!isPunct(P, '{'))
        return errStr(P, "expected '{' after if");
      if (std::string E = parseBody(Out.Then); !E.empty())
        return E;
      P = Lex.next();
      if (P.K == Token::Kind::Ident && P.Text == "else") {
        P = Lex.next();
        if (!isPunct(P, '{'))
          return errStr(P, "expected '{' after else");
        return parseBody(Out.Else);
      }
      Lex.putBack(P);
      return "";
    }
    // std::atomic_thread_fence(order);
    if (unqualified(T.Text) == "atomic_thread_fence") {
      Out.K = Stmt::Kind::Fence;
      Token P = Lex.next();
      if (!isPunct(P, '('))
        return errStr(P, "expected '('");
      Token O = Lex.next();
      Out.Order = snippetOrder(O.Text);
      if (Out.Order == MemOrder::NA)
        return errStr(O, "expected memory order");
      P = Lex.next();
      if (!isPunct(P, ')'))
        return errStr(P, "expected ')'");
      return expectSemi();
    }
    // Declarations open register-destination statements:
    //   int r = x.load(o); / = x.exchange(v, o); / = x; / = e;
    IntType Ty;
    if (snippetType(T.Text, Ty)) {
      Token Dst = Lex.next();
      if (Dst.K != Token::Kind::Ident)
        return errStr(Dst, "expected register name after type");
      Token Eq = Lex.next();
      if (!isPunct(Eq, '='))
        return errStr(Eq, "expected '=' after register name");
      return parseRegisterRhs(Out, Dst.Text);
    }
    // A location or register name: method call, store sugar, or
    // register reassignment.
    Token Next = Lex.next();
    if (isPunct(Next, '.')) {
      if (!isLoc(T.Text))
        return errStr(T, "'" + T.Text + "' is not a declared location");
      return parseMethod(Out, T.Text, /*Dst=*/"");
    }
    if (isPunct(Next, '=')) {
      if (isLoc(T.Text)) {
        // x = e; -- atomic locations default to seq_cst, plain ones NA.
        Out.K = Stmt::Kind::Store;
        Out.Loc = T.Text;
        Out.Order = isAtomicLoc(T.Text) ? MemOrder::SeqCst : MemOrder::NA;
        if (std::string E = parseExpr(Out.Val); !E.empty())
          return E;
        return expectSemi();
      }
      return parseRegisterRhs(Out, T.Text);
    }
    return errStr(Next, "expected '.' or '=' after name");
  }

  /// The right-hand side of "r = ...": a method call, a bare location
  /// read, or a local expression.
  std::string parseRegisterRhs(Stmt &Out, const std::string &Dst) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Ident) {
      Token Next = Lex.next();
      if (isPunct(Next, '.')) {
        if (!isLoc(T.Text))
          return errStr(T, "'" + T.Text + "' is not a declared location");
        return parseMethod(Out, T.Text, Dst);
      }
      if (isPunct(Next, ';') && isLoc(T.Text)) {
        // r = x; -- a seq_cst (atomic) or plain (non-atomic) load.
        Out.K = Stmt::Kind::Load;
        Out.Dst = Dst;
        Out.Loc = T.Text;
        Out.Order = isAtomicLoc(T.Text) ? MemOrder::SeqCst : MemOrder::NA;
        return "";
      }
      Lex.putBack(Next);
    }
    Lex.putBack(T);
    Out.K = Stmt::Kind::LocalAssign;
    Out.Dst = Dst;
    if (std::string E = parseExpr(Out.Val); !E.empty())
      return E;
    return expectSemi();
  }

  /// "loc.method(args);" with method one of store/load/exchange/
  /// fetch_add/fetch_sub. \p Dst empty means the result is discarded.
  std::string parseMethod(Stmt &Out, const std::string &Loc,
                          const std::string &Dst) {
    Token M = Lex.next();
    if (M.K != Token::Kind::Ident)
      return errStr(M, "expected atomic method name");
    Token P = Lex.next();
    if (!isPunct(P, '('))
      return errStr(P, "expected '(' after method name");
    Out.Loc = Loc;
    if (M.Text == "load") {
      Out.K = Stmt::Kind::Load;
      Out.Dst = Dst;
      if (Dst.empty())
        return errStr(M, "load result must be assigned");
      return parseOrderAndClose(Out);
    }
    if (M.Text == "store") {
      Out.K = Stmt::Kind::Store;
      if (!Dst.empty())
        return errStr(M, "store has no result");
      if (std::string E = parseExpr(Out.Val); !E.empty())
        return E;
      return parseCommaOrderAndClose(Out);
    }
    if (M.Text == "exchange" || M.Text == "fetch_add" ||
        M.Text == "fetch_sub") {
      Out.K = Stmt::Kind::Rmw;
      Out.Rmw = M.Text == "exchange"    ? RmwKind::Xchg
                : M.Text == "fetch_add" ? RmwKind::FetchAdd
                                        : RmwKind::FetchSub;
      Out.Dst = Dst.empty() ? "rmw_" + Loc + std::to_string(FreshRmw++)
                            : Dst;
      Out.DstUsedNowhere = Dst.empty();
      if (std::string E = parseExpr(Out.Val); !E.empty())
        return E;
      return parseCommaOrderAndClose(Out);
    }
    return errStr(M, "unsupported atomic method '" + M.Text + "'");
  }

  /// "[order] );" -- an omitted order is seq_cst, as in C++.
  std::string parseOrderAndClose(Stmt &Out) {
    Token T = Lex.next();
    if (isPunct(T, ')')) {
      Out.Order = MemOrder::SeqCst;
      return expectSemi();
    }
    Out.Order = snippetOrder(T.Text);
    if (Out.Order == MemOrder::NA)
      return errStr(T, "expected memory order");
    Token C = Lex.next();
    if (!isPunct(C, ')'))
      return errStr(C, "expected ')'");
    return expectSemi();
  }

  /// "[, order] );" after the value argument of store/rmw calls.
  std::string parseCommaOrderAndClose(Stmt &Out) {
    Token T = Lex.next();
    if (isPunct(T, ')')) {
      Out.Order = MemOrder::SeqCst;
      return expectSemi();
    }
    if (!isPunct(T, ','))
      return errStr(T, "expected ',' or ')'");
    return parseOrderAndClose(Out);
  }

  std::string expectSemi() {
    Token T = Lex.next();
    if (!isPunct(T, ';'))
      return errStr(T, "expected ';'");
    return "";
  }

  /// expr := primary (('+'|'-'|'^'|'&') primary)*
  std::string parseExpr(Expr &Out) {
    if (std::string E = parsePrimary(Out); !E.empty())
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
      Expr Rhs;
      if (std::string E = parsePrimary(Rhs); !E.empty())
        return E;
      Out = Expr::binary(K, std::move(Out), std::move(Rhs));
    }
  }

  std::string parsePrimary(Expr &Out) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Number) {
      uint64_t V = 0;
      if (std::string E = numberOf(T, V); !E.empty())
        return E;
      Out = Expr::imm(Value(V));
      return "";
    }
    if (T.K == Token::Kind::Ident) {
      if (isLoc(T.Text))
        return errStr(T, "location '" + T.Text +
                             "' read inside an expression (use .load)");
      Out = Expr::reg(T.Text);
      return "";
    }
    if (isPunct(T, '(')) {
      if (std::string E = parseExpr(Out); !E.empty())
        return E;
      Token C = Lex.next();
      if (!isPunct(C, ')'))
        return errStr(C, "expected ')'");
      return "";
    }
    return errStr(T, "expected expression");
  }

  /// Hands the remaining raw text to the herd predicate parser, with
  /// the &&/|| sugar rewritten to the /\ and \/ connectives.
  std::string parseFinal(LitmusTest &Test, size_t Start) {
    std::string Tail(Text.substr(Start));
    std::string Rewritten;
    Rewritten.reserve(Tail.size());
    for (size_t I = 0; I < Tail.size(); ++I) {
      if (Tail[I] == '&' && I + 1 < Tail.size() && Tail[I + 1] == '&') {
        Rewritten += "/\\";
        ++I;
      } else if (Tail[I] == '|' && I + 1 < Tail.size() &&
                 Tail[I + 1] == '|') {
        Rewritten += "\\/";
        ++I;
      } else {
        Rewritten += Tail[I];
      }
    }
    ErrorOr<FinalCond> F = parseFinalCondition(Rewritten);
    if (!F)
      return "final condition: " + F.error();
    Test.Final = *F;
    return "";
  }

  std::string_view Text;
  Lexer Lex;
  /// Declared locations -> atomic? (decides the defaults of the
  /// assignment sugar and catches undeclared-location typos early).
  std::map<std::string, bool> Locs;
  unsigned FreshRmw = 0;
};

} // namespace

ErrorOr<LitmusTest> telechat::parseKernelSnippet(std::string_view Text) {
  return SnippetParser(Text).run();
}

ErrorOr<std::vector<LitmusTest>>
telechat::readKernelDirectory(const std::string &Path) {
  namespace fs = std::filesystem;
  std::error_code EC;
  if (!fs::is_directory(Path, EC))
    return makeError(Path + ": not a directory");

  std::vector<std::string> Names;
  for (const fs::directory_entry &E : fs::directory_iterator(Path, EC)) {
    if (EC)
      return makeError(Path + ": " + EC.message());
    std::string Name = E.path().filename().string();
    if (Name.empty() || Name[0] == '.')
      continue; // Editor droppings and VCS metadata, not kernels.
    if (!E.is_regular_file(EC))
      continue;
    Names.push_back(std::move(Name));
  }
  // Directory iteration order is filesystem-dependent; the corpus order
  // (and with it every unit id) must not be.
  std::sort(Names.begin(), Names.end());

  std::vector<LitmusTest> Tests;
  Tests.reserve(Names.size());
  for (const std::string &Name : Names) {
    std::string File = (fs::path(Path) / Name).string();
    std::ifstream In(File);
    if (!In)
      return makeError("cannot open " + File);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    ErrorOr<LitmusTest> T = parseKernelSnippet(Buffer.str());
    if (!T)
      return makeError(File + ": " + T.error());
    Tests.push_back(std::move(*T));
  }
  if (Tests.empty())
    return makeError(Path + ": no kernel snippet files found");
  return Tests;
}
