#include "check/srclint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace vini::check {
namespace {

// ---------------------------------------------------------------------------
// Lexer.  Produces a flat token stream (identifiers, numbers, punctuation)
// with 1-based line numbers, plus a per-line map of comment text.  String
// and character literals are stripped (their contents never trigger rules),
// and preprocessor lines are skipped wholesale, so macro bodies and include
// paths are invisible to the rules.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
};

struct Lexed {
  std::vector<Token> tokens;
  std::map<int, std::string> comments;  // line -> concatenated comment text
};

bool isIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool isIdentToken(const std::string& t) {
  return !t.empty() && isIdentStart(t[0]);
}

Lexed lex(const std::string& text) {
  Lexed out;
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen so far on this line
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: skip to end of line, honoring backslash
      // continuations.  Macro bodies are out of scope for the rules.
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (text[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && text[i] != '\n') ++i;
      out.comments[line] += text.substr(start, i - start);
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      std::size_t seg = i;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          out.comments[line] += text.substr(seg, i - seg);
          ++line;
          seg = i + 1;
        }
        ++i;
      }
      if (i + 1 < n) {
        out.comments[line] += text.substr(seg, i - seg);
        i += 2;
      } else {
        i = n;
      }
      continue;
    }
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      // Raw string literal: find the matching )delim" and drop it.
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && text[p] != '(' && text[p] != '\n') delim += text[p++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = text.find(closer, p);
      const std::size_t stop = end == std::string::npos ? n : end + closer.size();
      for (std::size_t k = i; k < stop; ++k) {
        if (text[k] == '\n') ++line;
      }
      i = stop;
      continue;
    }
    if (c == '"') {
      ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < n) {
          if (text[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'' && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        ++i;
      }
      if (i < n && text[i] == '\'') ++i;
      continue;
    }
    if (isIdentStart(c)) {
      std::size_t j = i;
      while (j < n && isIdentChar(text[j])) ++j;
      out.tokens.push_back({text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n) {
        const char d = text[j];
        if (isIdentChar(d) || d == '.') {
          ++j;
        } else if (d == '\'' && j + 1 < n &&
                   std::isalnum(static_cast<unsigned char>(text[j + 1]))) {
          ++j;  // digit separator
        } else if ((d == '+' || d == '-') && j > i &&
                   (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                    text[j - 1] == 'p' || text[j - 1] == 'P')) {
          ++j;  // exponent sign
        } else {
          break;
        }
      }
      out.tokens.push_back({text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: longest match first.
    static const char* kThree[] = {"<<=", ">>=", "->*", "..."};
    static const char* kTwo[] = {"::", "->", "<<", ">>", "<=", ">=", "==",
                                 "!=", "&&", "||", "++", "--", "+=", "-=",
                                 "*=", "/=", "%=", "&=", "|=", "^=", ".*"};
    std::string tok;
    for (const char* p : kThree) {
      if (text.compare(i, 3, p) == 0) {
        tok = p;
        break;
      }
    }
    if (tok.empty()) {
      for (const char* p : kTwo) {
        if (text.compare(i, 2, p) == 0) {
          tok = p;
          break;
        }
      }
    }
    if (tok.empty()) tok = std::string(1, c);
    out.tokens.push_back({tok, line});
    i += tok.size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scope classification.  Each token is tagged with the innermost brace
// scope containing it, classified from the statement head preceding the
// opening brace.  Heuristic but robust for this codebase's style; the
// self-test pins the cases the rules depend on.
// ---------------------------------------------------------------------------

enum class ScopeKind {
  kNamespace,  // file scope, namespace bodies, extern "C" blocks
  kClass,      // class/struct/union/enum bodies
  kFunction,   // function bodies and everything nested in them
  kInit,       // brace initializers at class/namespace scope
};

ScopeKind classifyBrace(const std::vector<Token>& toks, std::size_t stmt_start,
                        std::size_t brace, ScopeKind current) {
  bool has_namespace = false;
  bool has_classkey = false;
  bool has_extern = false;
  bool has_paren = false;
  for (std::size_t j = stmt_start; j < brace; ++j) {
    const std::string& t = toks[j].text;
    if (t == "namespace") has_namespace = true;
    else if (t == "class" || t == "struct" || t == "union" || t == "enum")
      has_classkey = true;
    else if (t == "extern") has_extern = true;
    else if (t == "(") has_paren = true;
  }
  const std::string prev = brace > stmt_start ? toks[brace - 1].text : "";
  if (has_namespace || has_extern) return ScopeKind::kNamespace;
  if (has_classkey && prev != ")" && prev != "=") return ScopeKind::kClass;
  if (current == ScopeKind::kFunction) return ScopeKind::kFunction;
  if (has_paren || prev == ")" || prev == "else" || prev == "do" ||
      prev == "try") {
    return ScopeKind::kFunction;
  }
  return ScopeKind::kInit;
}

std::vector<ScopeKind> classifyScopes(const std::vector<Token>& toks) {
  std::vector<ScopeKind> at(toks.size(), ScopeKind::kNamespace);
  std::vector<ScopeKind> stack{ScopeKind::kNamespace};
  std::size_t stmt_start = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    at[i] = stack.back();
    const std::string& t = toks[i].text;
    if (t == "{") {
      stack.push_back(classifyBrace(toks, stmt_start, i, stack.back()));
      stmt_start = i + 1;
    } else if (t == "}") {
      if (stack.size() > 1) stack.pop_back();
      stmt_start = i + 1;
    } else if (t == ";") {
      stmt_start = i + 1;
    }
  }
  return at;
}

// Skip a balanced <...> starting at toks[j] == "<"; returns the index just
// past the closing '>'.  A ">>" token closes two levels.  Bails (returning
// the stop index) on ';' or '{', which means the '<' was a comparison.
std::size_t skipAngles(const std::vector<Token>& toks, std::size_t j) {
  int depth = 0;
  for (; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth <= 0) return j + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t == ";" || t == "{") {
      return j;
    }
  }
  return j;
}

// Find the index of the matching ")" for toks[open] == "(".
std::size_t matchParen(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == "(") ++depth;
    else if (toks[j].text == ")" && --depth == 0) return j;
  }
  return toks.size();
}

// Find the index of the matching "}" for toks[open] == "{".
std::size_t matchBrace(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == "{") ++depth;
    else if (toks[j].text == "}" && --depth == 0) return j;
  }
  return toks.size();
}

void emit(std::vector<SrcFinding>& out, Severity severity, const char* code,
          const std::string& path, int line, std::string message) {
  out.push_back({severity, code, path, line, std::move(message)});
}

const std::set<std::string>& unorderedContainerNames() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kNames;
}

const std::set<std::string>& orderedContainerNames() {
  static const std::set<std::string> kNames = {"map", "set", "multimap",
                                               "multiset"};
  return kNames;
}

// Names declared (or returned) with an unordered container type: after the
// container keyword's template args, the next identifier is taken as the
// variable / member / accessor name.  Lexing the companion header lets a
// .cc file's loops over members declared in the header resolve.
std::set<std::string> collectUnorderedNames(const Lexed& lx) {
  std::set<std::string> names;
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (unorderedContainerNames().count(toks[i].text) == 0) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") j = skipAngles(toks, j);
    while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*"))
      ++j;
    if (j < toks.size() && isIdentToken(toks[j].text)) names.insert(toks[j].text);
  }
  return names;
}

// V200: iteration over an unordered container.  Bodies that emit output,
// schedule events, or append to ordered state are errors (iteration order
// leaks into observable results); any other iteration is a warning.
void ruleV200(const std::string& path, const Lexed& lx, const Lexed& header,
              std::vector<SrcFinding>& out) {
  std::set<std::string> names = collectUnorderedNames(lx);
  const std::set<std::string> header_names = collectUnorderedNames(header);
  names.insert(header_names.begin(), header_names.end());
  if (names.empty()) return;

  static const std::set<std::string> kOrderSensitive = {
      "<<",       "push_back", "emplace_back", "append",  "schedule",
      "scheduleAfter", "record", "write",    "writeCsv", "instant",
      "duration", "printf",    "fprintf",      "puts"};

  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    const std::size_t open = i + 1;
    const std::size_t close = matchParen(toks, open);
    if (close >= toks.size()) continue;
    // Range-for: the ':' at paren depth 1 splits declaration from range.
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (toks[j].text == "(") ++depth;
      else if (toks[j].text == ")") --depth;
      else if (toks[j].text == ":" && depth == 1 && toks[j - 1].text != ":" &&
               (j + 1 >= toks.size() || toks[j + 1].text != ":")) {
        colon = j;
        break;
      }
    }
    std::string container;
    if (colon != 0) {
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (names.count(toks[j].text)) {
          container = toks[j].text;
          break;
        }
      }
    } else {
      // Classic for: NAME.begin() / NAME.cbegin() inside the header.
      for (std::size_t j = open + 1; j + 2 < close; ++j) {
        if (names.count(toks[j].text) &&
            (toks[j + 1].text == "." || toks[j + 1].text == "->") &&
            (toks[j + 2].text == "begin" || toks[j + 2].text == "cbegin")) {
          container = toks[j].text;
          break;
        }
      }
    }
    if (container.empty()) continue;
    // Loop body: a brace block, or a single statement up to ';'.
    std::size_t body_begin = close + 1;
    std::size_t body_end = body_begin;
    if (body_begin < toks.size() && toks[body_begin].text == "{") {
      body_end = matchBrace(toks, body_begin);
    } else {
      while (body_end < toks.size() && toks[body_end].text != ";") ++body_end;
    }
    bool order_sensitive = false;
    for (std::size_t j = body_begin; j < body_end; ++j) {
      if (kOrderSensitive.count(toks[j].text)) {
        order_sensitive = true;
        break;
      }
    }
    if (order_sensitive) {
      emit(out, Severity::kError, "V200", path, toks[i].line,
           "iteration over unordered container '" + container +
               "' feeds output/scheduling/ordered state; iteration order is "
               "unspecified — sort keys first or use std::map");
    } else {
      emit(out, Severity::kWarning, "V200", path, toks[i].line,
           "iteration over unordered container '" + container +
               "'; verify the body is order-insensitive");
    }
  }
}

// V201: container keyed by raw pointer value — iteration order (and for
// ordered containers, comparison order) then depends on allocation
// addresses, which vary run to run.
void ruleV201(const std::string& path, const Lexed& lx,
              std::vector<SrcFinding>& out) {
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (unorderedContainerNames().count(t) == 0 &&
        orderedContainerNames().count(t) == 0) {
      continue;
    }
    if (toks[i + 1].text != "<") continue;
    // Collect the first template argument's tokens.
    std::vector<std::string> first;
    int depth = 1;
    bool done = false;
    for (std::size_t j = i + 2; j < toks.size() && !done; ++j) {
      const std::string& u = toks[j].text;
      if (u == "<") {
        ++depth;
      } else if (u == ">") {
        if (--depth == 0) done = true;
      } else if (u == ">>") {
        depth -= 2;
        if (depth <= 0) done = true;
      } else if (u == "," && depth == 1) {
        done = true;
      } else if (u == ";" || u == "{") {
        first.clear();
        done = true;
      }
      if (!done) first.push_back(u);
    }
    if (!first.empty() && first.back() == "*") {
      emit(out, Severity::kError, "V201", path, toks[i].line,
           "container keyed by raw pointer value; ordering/iteration depends "
           "on allocation addresses — key by a stable id instead");
    }
  }
}

// V202: wall-clock reads.  Simulated time comes from sim::now(); the only
// sanctioned wall-clock consumer is the event-loop profiler, which lives
// in the baseline allowlist.
void ruleV202(const std::string& path, const Lexed& lx,
              std::vector<SrcFinding>& out) {
  static const std::set<std::string> kClockIdents = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime", "gmtime", "ctime",
      "mktime"};
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (kClockIdents.count(t)) {
      emit(out, Severity::kError, "V202", path, toks[i].line,
           "wall-clock read ('" + t +
               "'); sim paths must use sim::now() — profiler reads belong in "
               "the baseline allowlist");
      continue;
    }
    if ((t == "time" || t == "clock") && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const std::string prev = i > 0 ? toks[i - 1].text : "";
      if (prev != "." && prev != "->") {
        emit(out, Severity::kError, "V202", path, toks[i].line,
             "wall-clock read ('" + t + "(...)'); sim paths must use "
             "sim::now()");
      }
    }
  }
}

// V203: global or unseeded randomness.  Deterministic replay requires every
// draw to come from a seeded, per-entity sim::Random stream.  The <random>
// distributions are flagged too: the standard leaves their algorithms to
// each library, so a seeded stream drawn through them differs between
// standard libraries (sim::Random writes its distributions out instead).
void ruleV203(const std::string& path, const Lexed& lx,
              const std::vector<ScopeKind>& scopes,
              std::vector<SrcFinding>& out) {
  static const std::set<std::string> kEngines = {
      "mt19937",       "mt19937_64",   "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
      "ranlux48_base", "knuth_b"};
  static const std::set<std::string> kLibraryDefined = {
      "uniform_int_distribution",  "uniform_real_distribution",
      "bernoulli_distribution",    "binomial_distribution",
      "negative_binomial_distribution", "geometric_distribution",
      "poisson_distribution",      "exponential_distribution",
      "gamma_distribution",        "weibull_distribution",
      "extreme_value_distribution", "normal_distribution",
      "lognormal_distribution",    "chi_squared_distribution",
      "cauchy_distribution",       "fisher_f_distribution",
      "student_t_distribution",    "discrete_distribution",
      "piecewise_constant_distribution", "piecewise_linear_distribution",
      "generate_canonical"};
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if ((t == "rand" || t == "srand" || t == "random_shuffle") &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::string prev = i > 0 ? toks[i - 1].text : "";
      if (prev != "." && prev != "->") {
        emit(out, Severity::kError, "V203", path, toks[i].line,
             "global RNG ('" + t + "(...)'); draw from the seeded per-entity "
             "sim::Random stream instead");
      }
      continue;
    }
    if (t == "random_device") {
      emit(out, Severity::kError, "V203", path, toks[i].line,
           "std::random_device is nondeterministic by design; seed from the "
           "experiment's configured seed instead");
      continue;
    }
    if (kLibraryDefined.count(t)) {
      emit(out, Severity::kError, "V203", path, toks[i].line,
           "std::" + t + " draws by an algorithm each standard library "
           "chooses; use sim::Random's specified distributions");
      continue;
    }
    if (kEngines.count(t) && scopes[i] == ScopeKind::kFunction &&
        i + 2 < toks.size() && isIdentToken(toks[i + 1].text)) {
      // A function-local engine declared without a seed argument:
      // `std::mt19937_64 rng;` or `std::mt19937_64 rng{};`.
      const std::string& after = toks[i + 2].text;
      const bool empty_brace = after == "{" && i + 3 < toks.size() &&
                               toks[i + 3].text == "}";
      if (after == ";" || empty_brace) {
        emit(out, Severity::kError, "V203", path, toks[i].line,
             "unseeded random engine '" + t + " " + toks[i + 1].text +
                 "'; construct it from the experiment's configured seed");
      }
    }
  }
}

// V204: mutable static state — non-const function-local statics, mutable
// static members, and namespace-scope mutable globals.  Such state is
// shared by every shard and survives across runs-in-process, breaking both
// determinism and thread-safety.  `constinit` only pins the initializer:
// the variable stays mutable, so it does not exempt a declaration.
void ruleV204(const std::string& path, const Lexed& lx,
              const std::vector<ScopeKind>& scopes,
              std::vector<SrcFinding>& out) {
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "static") continue;
    bool has_const = false;
    bool is_function = false;
    const std::size_t bound = std::min(toks.size(), i + 64);
    std::size_t j = i + 1;
    for (; j < bound; ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") {
        is_function = true;
        break;
      }
      if (t == ";" || t == "=" || t == "{") break;
      if (t == "const" || t == "constexpr") has_const = true;
    }
    if (is_function || has_const || j >= bound) continue;
    emit(out, Severity::kError, "V204", path, toks[i].line,
         "mutable static state; hoist into an object owned by the World (or "
         "mark const)");
  }

  // Namespace-scope mutable globals without the `static` keyword:
  // statements at namespace scope of the form `Type name = init;`.
  static const std::set<std::string> kDeclExcluders = {
      "using",  "typedef",  "struct",    "class",     "enum",
      "namespace", "template", "extern", "static",    "friend",
      "operator", "const",   "constexpr"};
  std::size_t stmt = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "{" || t == "}") {
      stmt = i + 1;
      continue;
    }
    if (t != ";") continue;
    const std::size_t begin = stmt;
    stmt = i + 1;
    if (begin >= i || scopes[begin] != ScopeKind::kNamespace) continue;
    bool excluded = false;
    std::size_t eq = 0;
    for (std::size_t j = begin; j < i; ++j) {
      if (kDeclExcluders.count(toks[j].text)) {
        excluded = true;
        break;
      }
      if (toks[j].text == "=" && eq == 0) eq = j;
    }
    if (excluded || eq == 0) continue;
    int idents = 0;
    bool has_call = false;
    for (std::size_t j = begin; j < eq; ++j) {
      if (isIdentToken(toks[j].text)) ++idents;
      if (toks[j].text == "(") has_call = true;
    }
    if (idents >= 2 && !has_call) {
      emit(out, Severity::kError, "V204", path, toks[begin].line,
           "namespace-scope mutable global; hoist into an object owned by "
           "the World (or mark const)");
    }
  }
}

// V205: branching on shared_ptr::use_count().  The count is advisory the
// moment a second thread exists; logic keyed on it is a latent race.
void ruleV205(const std::string& path, const Lexed& lx,
              std::vector<SrcFinding>& out) {
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "use_count" && toks[i + 1].text == "(") {
      emit(out, Severity::kError, "V205", path, toks[i].line,
           "logic depends on shared_ptr::use_count(), which is unreliable "
           "under concurrency; track ownership explicitly");
    }
  }
}

// V206: volatile used as a synchronization primitive.  volatile orders
// nothing between threads; std::atomic is the tool.
void ruleV206(const std::string& path, const Lexed& lx,
              std::vector<SrcFinding>& out) {
  for (const Token& t : lx.tokens) {
    if (t.text == "volatile") {
      emit(out, Severity::kError, "V206", path, t.line,
           "volatile is not a synchronization primitive; use std::atomic or "
           "a guarded member");
    }
  }
}

// V207: a member documented with the cross-shard marker comment must carry
// a VINI_GUARDED_BY / VINI_PT_GUARDED_BY annotation
// (src/core/thread_annotations.h), so clang's -Wthread-safety can police
// access once the sharded engine lands.
void ruleV207(const std::string& path, const Lexed& lx,
              std::vector<SrcFinding>& out) {
  const std::string kTag = "cross-shard:";
  const std::vector<Token>& toks = lx.tokens;
  for (const auto& [line, text] : lx.comments) {
    if (text.find(kTag) == std::string::npos) continue;
    // The declaration the comment documents starts at the first token on
    // this line or after it; the annotation must appear before the ';'.
    std::size_t first = toks.size();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].line >= line) {
        first = i;
        break;
      }
    }
    bool annotated = false;
    const std::size_t bound = std::min(toks.size(), first + 200);
    for (std::size_t i = first; i < bound; ++i) {
      if (toks[i].text == "VINI_GUARDED_BY" ||
          toks[i].text == "VINI_PT_GUARDED_BY") {
        annotated = true;
        break;
      }
      if (toks[i].text == ";") break;
    }
    if (!annotated) {
      emit(out, Severity::kError, "V207", path, line,
           "member documented as cross-shard but missing VINI_GUARDED_BY / "
           "VINI_PT_GUARDED_BY (core/thread_annotations.h)");
    }
  }
}

// V208: unknown event-schedule tag.  EventQueue::schedule/scheduleAfter
// accept a static tag string that attributes the event to a subsystem for
// the event-loop profiler; downstream tooling (vinibench's per-tag cost
// table, dashboards) keys on the documented vocabulary, so a typo'd or
// ad-hoc tag silently vanishes from every per-subsystem breakdown.  The vocabulary lives in
// the README ("Schedule tag vocabulary"); "test" and "bench" are
// reserved for tests, tools, and benches.
//
// The lexer strips string literals, so this rule scans the *raw* source:
// it finds each schedule/scheduleAfter call and checks the first string
// literal among its arguments (the tag always precedes the callback, so
// the scan stops at the first '{' — a lambda body — or the call's
// closing parenthesis).  Untagged calls are fine: the overloads without
// a tag are the untraced fast path.
void ruleV208(const std::string& path, const std::string& text,
              std::vector<SrcFinding>& out) {
  static const std::set<std::string> kKnownTags = {
      "phys.link",  "tcpip.host", "tcpip.tcp",     "cpu.scheduler",
      "fault.supervisor",         "xorp.ospf",     "xorp.bgp",
      "xorp.rip",   "click.shaper",                "app.iperf",
      "app.ping",   "app.traffic", "test",         "bench"};
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) ++i;
        else if (text[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      continue;
    }
    if (!isIdentStart(c)) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && isIdentChar(text[j])) ++j;
    const std::string ident = text.substr(i, j - i);
    i = j;
    if (ident != "schedule" && ident != "scheduleAfter") continue;
    std::size_t k = j;
    while (k < n && (text[k] == ' ' || text[k] == '\t')) ++k;
    if (k >= n || text[k] != '(') continue;
    // Look ahead through the argument list (the outer loop re-scans this
    // text afterwards, so `line` stays consistent).
    int depth = 0;
    int cur = line;
    std::size_t p = k;
    while (p < n) {
      const char d = text[p];
      if (d == '\n') {
        ++cur;
        ++p;
        continue;
      }
      if (d == '/' && p + 1 < n && text[p + 1] == '/') {
        while (p < n && text[p] != '\n') ++p;
        continue;
      }
      if (d == '/' && p + 1 < n && text[p + 1] == '*') {
        p += 2;
        while (p + 1 < n && !(text[p] == '*' && text[p + 1] == '/')) {
          if (text[p] == '\n') ++cur;
          ++p;
        }
        p = p + 1 < n ? p + 2 : n;
        continue;
      }
      if (d == '(') {
        ++depth;
        ++p;
        continue;
      }
      if (d == ')') {
        if (--depth == 0) break;
        ++p;
        continue;
      }
      if (d == '{') break;  // callback body: the tag would precede it
      if (d == '\'') {
        ++p;
        while (p < n && text[p] != '\'' && text[p] != '\n') {
          if (text[p] == '\\' && p + 1 < n) ++p;
          ++p;
        }
        if (p < n && text[p] == '\'') ++p;
        continue;
      }
      if (d == '"') {
        std::string tag;
        std::size_t e = p + 1;
        while (e < n && text[e] != '"') {
          if (text[e] == '\\' && e + 1 < n) ++e;
          tag += text[e++];
        }
        if (kKnownTags.count(tag) == 0) {
          emit(out, Severity::kError, "V208", path, cur,
               "unknown schedule tag \"" + tag +
                   "\" — not in the documented vocabulary (README "
                   "\"Schedule tag vocabulary\"); profiler breakdowns "
                   "and PROFILE_report.json consumers key on known tags");
        }
        break;
      }
      ++p;
    }
  }
}

std::string trimCopy(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::vector<SrcFinding> lintSource(const std::string& path,
                                   const std::string& text,
                                   const std::string& companion_header) {
  const Lexed lx = lex(text);
  const Lexed header = companion_header.empty() ? Lexed{} : lex(companion_header);
  const std::vector<ScopeKind> scopes = classifyScopes(lx.tokens);

  std::vector<SrcFinding> out;
  ruleV200(path, lx, header, out);
  ruleV201(path, lx, out);
  ruleV202(path, lx, out);
  ruleV203(path, lx, scopes, out);
  ruleV204(path, lx, scopes, out);
  ruleV205(path, lx, out);
  ruleV206(path, lx, out);
  ruleV207(path, lx, out);
  ruleV208(path, text, out);

  std::sort(out.begin(), out.end(),
            [](const SrcFinding& a, const SrcFinding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.code < b.code;
            });
  return out;
}

std::vector<SrcFinding> lintTree(const std::string& root,
                                 const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.generic_string() < b.generic_string();
            });

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };

  std::vector<SrcFinding> out;
  for (const fs::path& file : files) {
    const std::string text = slurp(file);
    std::string companion;
    if (file.extension() == ".cc") {
      fs::path sibling = file;
      sibling.replace_extension(".h");
      if (fs::exists(sibling)) companion = slurp(sibling);
    }
    const std::string rel = file.lexically_relative(root).generic_string();
    std::vector<SrcFinding> found = lintSource(rel, text, companion);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

Baseline parseBaseline(const std::string& text) {
  Baseline baseline;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trimCopy(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find_first_of(" \t");
    if (sp == std::string::npos) {
      throw std::runtime_error("srclint baseline line " +
                               std::to_string(lineno) +
                               ": expected 'Vxxx path -- justification'");
    }
    BaselineEntry entry;
    entry.code = line.substr(0, sp);
    if (entry.code.size() < 2 || entry.code[0] != 'V' ||
        entry.code.find_first_not_of("0123456789", 1) != std::string::npos) {
      throw std::runtime_error("srclint baseline line " +
                               std::to_string(lineno) + ": bad check code '" +
                               entry.code + "'");
    }
    const std::string rest = trimCopy(line.substr(sp + 1));
    const std::size_t sep = rest.find(" -- ");
    if (sep == std::string::npos) {
      throw std::runtime_error(
          "srclint baseline line " + std::to_string(lineno) +
          ": missing ' -- justification' after the path");
    }
    entry.path = trimCopy(rest.substr(0, sep));
    entry.justification = trimCopy(rest.substr(sep + 4));
    if (entry.path.empty() || entry.justification.empty()) {
      throw std::runtime_error("srclint baseline line " +
                               std::to_string(lineno) +
                               ": empty path or justification");
    }
    baseline.entries.push_back(std::move(entry));
  }
  return baseline;
}

std::string emitBaseline(const std::vector<SrcFinding>& findings) {
  std::set<std::pair<std::string, std::string>> keys;
  for (const SrcFinding& f : findings) keys.insert({f.code, f.path});
  std::ostringstream os;
  os << "# vini_srclint baseline: accepted V2xx suppressions.\n"
     << "# Format: <code> <path> -- <justification>\n"
     << "# Every entry must carry a justification; stale entries fail the "
        "gate.\n";
  for (const auto& [code, path] : keys) {
    os << code << " " << path << " -- TODO: justify this suppression\n";
  }
  return os.str();
}

BaselineResult applyBaseline(const std::vector<SrcFinding>& findings,
                             const Baseline& baseline) {
  BaselineResult result;
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    index[{baseline.entries[i].code, baseline.entries[i].path}] = i;
  }
  std::set<std::size_t> used;
  for (const SrcFinding& f : findings) {
    const auto it = index.find({f.code, f.path});
    if (it == index.end()) {
      result.unbaselined.push_back(f);
    } else {
      result.suppressed.push_back(f);
      used.insert(it->second);
    }
  }
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    if (used.count(i) == 0) result.stale.push_back(baseline.entries[i]);
  }
  return result;
}

bool srclintSelfTest(std::ostream& os) {
  struct Fixture {
    const char* name;
    const char* code;      // the V2xx code under test
    bool expect;           // should the code fire on this source?
    Severity severity;     // expected severity when it fires
    const char* source;
  };
  const Fixture fixtures[] = {
      {"v200-unordered-iteration-into-output", "V200", true, Severity::kError,
       "void f(std::ostream& os) {\n"
       "  std::unordered_map<int, int> m;\n"
       "  for (const auto& kv : m) { os << kv.first; }\n"
       "}\n"},
      {"v200-unordered-iteration-order-insensitive", "V200", true,
       Severity::kWarning,
       "int f() {\n"
       "  std::unordered_set<int> s;\n"
       "  int sum = 0;\n"
       "  for (int v : s) { sum += v; }\n"
       "  return sum;\n"
       "}\n"},
      {"v200-member-declared-in-companion-header", "V200", true,
       Severity::kError,
       "void Stack::dump(std::ostream& os) {\n"
       "  for (const auto& kv : connections_) { os << kv.first; }\n"
       "}\n"},
      {"v200-ordered-map-iteration-is-fine", "V200", false, Severity::kError,
       "void f(std::ostream& os) {\n"
       "  std::map<int, int> m;\n"
       "  for (const auto& kv : m) { os << kv.first; }\n"
       "}\n"},
      {"v201-pointer-keyed-set", "V201", true, Severity::kError,
       "struct R;\n"
       "std::set<R*> visited;\n"},
      {"v201-value-keyed-map-is-fine", "V201", false, Severity::kError,
       "std::map<std::string, int> counts;\n"},
      {"v202-steady-clock-read", "V202", true, Severity::kError,
       "void f() { auto t = std::chrono::steady_clock::now(); }\n"},
      {"v202-bare-time-call", "V202", true, Severity::kError,
       "long f() { return std::time(nullptr); }\n"},
      {"v202-sim-clock-is-fine", "V202", false, Severity::kError,
       "void f(Context& ctx) { auto t = ctx.clock->now(); double time = 1; }\n"},
      {"v203-rand-call", "V203", true, Severity::kError,
       "int f() { return std::rand(); }\n"},
      {"v203-unseeded-local-engine", "V203", true, Severity::kError,
       "int f() { std::mt19937_64 rng; return (int)rng(); }\n"},
      {"v203-library-distribution", "V203", true, Severity::kError,
       "double f(std::mt19937_64& rng) {\n"
       "  return std::normal_distribution<double>(0.0, 1.0)(rng);\n"
       "}\n"},
      {"v203-specified-distribution-is-fine", "V203", false, Severity::kError,
       "double f(std::mt19937_64& rng, Random& r) {\n"
       "  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;\n"
       "  return u + r.normal(0.0, 1.0);\n"
       "}\n"},
      {"v203-class-member-engine-is-fine", "V203", false, Severity::kError,
       "class Random {\n"
       " public:\n"
       "  explicit Random(uint64_t seed) : engine_(seed) {}\n"
       " private:\n"
       "  std::mt19937_64 engine_;\n"
       "};\n"},
      {"v204-mutable-static-local", "V204", true, Severity::kError,
       "int next() {\n"
       "  static int counter = 0;\n"
       "  return ++counter;\n"
       "}\n"},
      {"v204-namespace-scope-mutable-global", "V204", true, Severity::kError,
       "namespace app {\n"
       "Widget* g_current = nullptr;\n"
       "}\n"},
      {"v204-const-static-is-fine", "V204", false, Severity::kError,
       "const char* name() {\n"
       "  static const std::string kName = \"x\";\n"
       "  return kName.c_str();\n"
       "}\n"
       "constexpr int kTableSize = 64;\n"},
      {"v204-static-function-decl-is-fine", "V204", false, Severity::kError,
       "class Log {\n"
       " public:\n"
       "  static Log& instance();\n"
       "};\n"},
      {"v205-use-count-branch", "V205", true, Severity::kError,
       "void f(std::shared_ptr<int> p) { if (p.use_count() == 1) { p.reset(); } }\n"},
      {"v205-plain-reset-is-fine", "V205", false, Severity::kError,
       "void f(std::shared_ptr<int> p) { p.reset(); }\n"},
      {"v206-volatile-flag", "V206", true, Severity::kError,
       "struct S { volatile bool done_; };\n"},
      {"v206-atomic-is-fine", "V206", false, Severity::kError,
       "struct S { std::atomic<bool> done_; };\n"},
      {"v207-marker-without-annotation", "V207", true, Severity::kError,
       "class T {\n"
       "  // cross-shard: read by samplers on other shards\n"
       "  int count_ = 0;\n"
       "};\n"},
      {"v207-marker-with-annotation-is-fine", "V207", false, Severity::kError,
       "class T {\n"
       "  // cross-shard: read by samplers on other shards\n"
       "  int count_ VINI_GUARDED_BY(shard_) = 0;\n"
       "};\n"},
      {"v208-unknown-schedule-tag", "V208", true, Severity::kError,
       "void f(sim::EventQueue& q) {\n"
       "  q.scheduleAfter(5, \"phys.lnik\", [] {});\n"
       "}\n"},
      {"v208-known-tag-is-fine", "V208", false, Severity::kError,
       "void f(sim::EventQueue& q, sim::NodeTag node) {\n"
       "  q.scheduleAfter(5, \"phys.link\", node, [] {});\n"
       "  q.schedule(10,\n"
       "             \"tcpip.host\",  // tag on its own line\n"
       "             [] {});\n"
       "}\n"},
      {"v208-untagged-call-is-fine", "V208", false, Severity::kError,
       "void f(sim::EventQueue& q) {\n"
       "  q.schedule(10, [] { const char* s = \"not.a.tag\"; use(s); });\n"
       "}\n"},
  };

  const std::string companion =
      "class Stack {\n"
      "  std::unordered_map<int, Conn> connections_;\n"
      "};\n";

  bool ok = true;
  for (const Fixture& fx : fixtures) {
    const std::string header =
        std::string(fx.name).find("companion") != std::string::npos
            ? companion
            : std::string();
    const std::vector<SrcFinding> findings =
        lintSource("fixture.cc", fx.source, header);
    const SrcFinding* hit = nullptr;
    for (const SrcFinding& f : findings) {
      if (f.code == fx.code) {
        hit = &f;
        break;
      }
    }
    if ((hit != nullptr) != fx.expect) {
      os << "srclint self-test FAIL: " << fx.name << ": expected "
         << (fx.expect ? "a " : "no ") << fx.code << " finding\n";
      for (const SrcFinding& f : findings) os << "  got: " << formatFinding(f) << "\n";
      ok = false;
    } else if (hit != nullptr && hit->severity != fx.severity) {
      os << "srclint self-test FAIL: " << fx.name << ": expected severity "
         << severityName(fx.severity) << ", got "
         << severityName(hit->severity) << "\n";
      ok = false;
    }
  }

  // Baseline round trip: emitted entries parse back and suppress the
  // findings they were emitted for.
  std::vector<SrcFinding> sample;
  sample.push_back({Severity::kError, "V204", "src/x.cc", 7, "m"});
  sample.push_back({Severity::kError, "V202", "src/y.cc", 3, "m"});
  std::string text = emitBaseline(sample);
  std::size_t pos;
  while ((pos = text.find("TODO: justify this suppression")) !=
         std::string::npos) {
    text.replace(pos, 30, "self-test justification");
  }
  try {
    const Baseline parsed = parseBaseline(text);
    const BaselineResult applied = applyBaseline(sample, parsed);
    if (!applied.unbaselined.empty() || !applied.stale.empty() ||
        applied.suppressed.size() != 2) {
      os << "srclint self-test FAIL: baseline round trip did not suppress "
            "all sample findings\n";
      ok = false;
    }
  } catch (const std::exception& e) {
    os << "srclint self-test FAIL: baseline round trip threw: " << e.what()
       << "\n";
    ok = false;
  }
  // A malformed entry (no justification) must be rejected.
  bool threw = false;
  try {
    parseBaseline("V204 src/x.cc\n");
  } catch (const std::exception&) {
    threw = true;
  }
  if (!threw) {
    os << "srclint self-test FAIL: baseline without justification was "
          "accepted\n";
    ok = false;
  }
  return ok;
}

std::string formatFinding(const SrcFinding& finding) {
  Diagnostic d;
  d.severity = finding.severity;
  d.code = finding.code;
  d.location = finding.path + ":" + std::to_string(finding.line);
  d.message = finding.message;
  return formatDiagnostic(d);
}

void toReport(const std::vector<SrcFinding>& findings, Report& report) {
  for (const SrcFinding& f : findings) {
    report.add(f.severity, f.code, f.path + ":" + std::to_string(f.line),
               f.message);
  }
}

}  // namespace vini::check
