//===--- Snippet.cpp - C++ std::atomic kernel-snippet frontend ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "litmus/Snippet.h"

#include "litmus/Frontend.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace telechat;
using namespace telechat::frontend;

namespace {

/// Snippets join "::"-qualified names into one identifier
/// ("std::memory_order_release", "rl::mo_acquire") and spell the
/// connectives "&&" and "||".
constexpr LexRules SnippetRules{/*Directives=*/false, /*QualifiedNames=*/true,
                                /*HerdConnectives=*/false,
                                /*CxxConnectives=*/true};

/// The final condition is the herd predicate grammar, lexed as herd
/// lexes it, with "&&" and "||" besides "/\" and "\/".
constexpr LexRules FinalRules{/*Directives=*/true, /*QualifiedNames=*/false,
                              /*HerdConnectives=*/true,
                              /*CxxConnectives=*/true};

/// Strips a leading "std::" or "rl::" qualification.
std::string_view unqualified(std::string_view Name) {
  for (std::string_view Prefix : {"std::", "rl::"})
    if (Name.substr(0, Prefix.size()) == Prefix)
      return Name.substr(Prefix.size());
  return Name;
}

/// Accepts every spelling the subset admits: memory_order_X,
/// memory_order::X (scoped enum) and Relacy's mo_X, each optionally
/// std::/rl::-qualified. NA on anything else.
MemOrder snippetOrder(std::string_view Name) {
  std::string_view S = unqualified(Name);
  for (std::string_view Prefix : {"memory_order::", "mo_", "memory_order_"})
    if (S.substr(0, Prefix.size()) == Prefix) {
      static const std::map<std::string_view, MemOrder> Table = {
          {"relaxed", MemOrder::Relaxed}, {"consume", MemOrder::Consume},
          {"acquire", MemOrder::Acquire}, {"release", MemOrder::Release},
          {"acq_rel", MemOrder::AcqRel},  {"seq_cst", MemOrder::SeqCst},
      };
      auto It = Table.find(S.substr(Prefix.size()));
      return It == Table.end() ? MemOrder::NA : It->second;
    }
  return MemOrder::NA;
}

/// The integer types admitted inside atomic<...> and as plain location /
/// register declarations.
bool snippetType(std::string_view Name, IntType &Ty) {
  static const std::map<std::string_view, IntType> Table = {
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

class SnippetParser : public StmtParser<SnippetParser> {
public:
  explicit SnippetParser(std::string_view Text)
      : StmtParser(Text, SnippetRules) {}

  ErrorOr<LitmusTest> run() {
    LitmusTest Test;
    // Optional "kernel Name" header.
    Token T = Lex.next();
    if (isIdent(T, "kernel")) {
      Token Name = Lex.next();
      if (Name.K != Token::Kind::Ident)
        return err(Name, "expected kernel name");
      Test.Name = Name.Text;
    } else {
      Lex.putBack(T);
      Test.Name = "snippet";
    }
    // Declarations, then threads, then the final condition.
    while (true) {
      T = Lex.next();
      if (T.K == Token::Kind::End)
        return err(T, "missing final condition");
      if (isIdent(T, "exists") || isIdent(T, "forall") || isPunct(T, '~')) {
        Lex.putBack(T);
        break;
      }
      if (isIdent(T, "thread") || isIdent(T, "void")) {
        if (std::string E = parseThread(Test, T.Text == "void"); !E.empty())
          return makeError(E);
        continue;
      }
      Lex.putBack(T);
      if (std::string E = parseDecl(Test); !E.empty())
        return makeError(E);
    }
    Lex.Rules = FinalRules;
    if (std::string E = parseFinal(Test.Final); !E.empty())
      return makeError("final condition: " + E);
    if (std::string E = Test.validate(); !E.empty())
      return makeError("invalid kernel: " + E);
    return Test;
  }

private:
  friend StmtParser;

  bool isAtomicLoc(std::string_view Name) const {
    auto It = Locs.find(Name);
    return It != Locs.end() && It->second;
  }
  bool isLoc(std::string_view Name) const { return Locs.count(Name) != 0; }

  /// A name the kernel declares, \p What: one identifier, unqualified,
  /// so that the printed test reads back.
  std::string declaredName(const Token &T, const std::string &What,
                           const char *Missing) {
    if (T.K != Token::Kind::Ident)
      return errStr(T, Missing);
    if (T.Text.find("::") != std::string_view::npos)
      return errStr(T, "a " + What + " name cannot be qualified");
    return "";
  }

  /// "std::atomic<T> name = init;" or "T name = init;" (const allowed).
  std::string parseDecl(LitmusTest &Test) {
    Token T = Lex.next();
    LocDecl L;
    if (isIdent(T, "const")) {
      L.Const = true;
      T = Lex.next();
    }
    if (T.K != Token::Kind::Ident)
      return errStr(T, "expected declaration or thread");
    if (unqualified(T.Text) == "atomic") {
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
    if (std::string E = declaredName(Name, "location", "expected location name");
        !E.empty())
      return E;
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
    if (std::string E = declaredName(Name, "thread", "expected thread name");
        !E.empty())
      return E;
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
    if (std::string E = parseBody(Th.Body, 0); !E.empty())
      return E;
    Test.Threads.push_back(std::move(Th));
    return "";
  }

  /// The statement heads of the snippet dialect (StmtParser hook).
  std::string parseHead(const Token &T, Stmt &Out, unsigned Room) {
    if (T.K != Token::Kind::Ident)
      return errStr(T, "expected statement");
    // std::atomic_thread_fence(order);
    if (unqualified(T.Text) == "atomic_thread_fence")
      return parseFence(Out);
    // Declarations open register-destination statements:
    //   int r = x.load(o); / = x.exchange(v, o); / = x; / = e;
    IntType Ty;
    if (snippetType(T.Text, Ty)) {
      Token Dst = Lex.next();
      if (std::string E = declaredName(Dst, "register",
                                       "expected register name after type");
          !E.empty())
        return E;
      Token Eq = Lex.next();
      if (!isPunct(Eq, '='))
        return errStr(Eq, "expected '=' after register name");
      return parseRegisterRhs(Out, Dst.Text, Room);
    }
    // A location or register name: method call, store sugar, or
    // register reassignment.
    Token Next = Lex.next();
    if (isPunct(Next, '.'))
      return parseMethod(Out, T, /*Dst=*/"", Room);
    if (isPunct(Next, '=')) {
      if (isLoc(T.Text)) {
        // x = e; -- atomic locations default to seq_cst, plain ones NA.
        Out.K = Stmt::Kind::Store;
        Out.Loc = T.Text;
        Out.Order = isAtomicLoc(T.Text) ? MemOrder::SeqCst : MemOrder::NA;
        if (std::string E = parseExpr(Out.Val, Room); !E.empty())
          return E;
        return expectSemi();
      }
      if (std::string E = declaredName(T, "register", "expected register");
          !E.empty())
        return E;
      return parseRegisterRhs(Out, T.Text, Room);
    }
    return errStr(Next, "expected '.' or '=' after name");
  }

  /// The right-hand side of "r = ...": a method call, a bare location
  /// read, or a local expression of at most \p Room levels.
  std::string parseRegisterRhs(Stmt &Out, std::string_view Dst,
                               unsigned Room) {
    Token T = Lex.next();
    if (T.K == Token::Kind::Ident) {
      Token Next = Lex.next();
      if (isPunct(Next, '.'))
        return parseMethod(Out, T, Dst, Room);
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
    if (std::string E = parseExpr(Out.Val, Room); !E.empty())
      return E;
    return expectSemi();
  }

  /// "loc.method(args);" after the '.', with method one of store/load/
  /// exchange/fetch_add/fetch_sub. \p Dst empty means the result is
  /// discarded; the value argument may take \p Room levels.
  std::string parseMethod(Stmt &Out, const Token &LocTok,
                          std::string_view Dst, unsigned Room) {
    std::string_view Loc = LocTok.Text;
    if (!isLoc(Loc))
      return errStr(LocTok,
                    "'" + std::string(Loc) + "' is not a declared location");
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
      if (std::string E = parseExpr(Out.Val, Room); !E.empty())
        return E;
      return parseCommaOrderAndClose(Out);
    }
    if (M.Text == "exchange" || M.Text == "fetch_add" ||
        M.Text == "fetch_sub") {
      Out.K = Stmt::Kind::Rmw;
      Out.Rmw = M.Text == "exchange"    ? RmwKind::Xchg
                : M.Text == "fetch_add" ? RmwKind::FetchAdd
                                        : RmwKind::FetchSub;
      Out.Dst = Dst.empty() ? "rmw_" + std::string(Loc) +
                                  std::to_string(FreshRmw++)
                            : std::string(Dst);
      Out.DstUsedNowhere = Dst.empty();
      if (std::string E = parseExpr(Out.Val, Room); !E.empty())
        return E;
      return parseCommaOrderAndClose(Out);
    }
    return errStr(M, "unsupported atomic method '" + std::string(M.Text) +
                         "'");
  }

  /// "[order] );" -- an omitted order is seq_cst, as in C++.
  std::string parseOrderAndClose(Stmt &Out) {
    Token T = Lex.next();
    if (isPunct(T, ')')) {
      Out.Order = MemOrder::SeqCst;
      return expectSemi();
    }
    Lex.putBack(T);
    return parseOrderClose(Out.Order);
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

  /// StmtParser hooks: a location read inside an expression is refused,
  /// and a number is one 64-bit literal.
  std::string checkName(const Token &T) {
    if (isLoc(T.Text))
      return errStr(T, "location '" + std::string(T.Text) +
                           "' read inside an expression (use .load)");
    return "";
  }
  std::string literal(const Token &T, Value &Out) {
    uint64_t V = 0;
    if (std::string E = numberOf(T, V); !E.empty())
      return E;
    Out = Value(V);
    return "";
  }
  static MemOrder order(std::string_view Name) { return snippetOrder(Name); }

  /// Declared locations -> atomic? (decides the defaults of the
  /// assignment sugar and catches undeclared-location typos early).
  std::map<std::string, bool, std::less<>> Locs;
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
