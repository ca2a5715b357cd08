#include "symbols.hpp"

#include <algorithm>
#include <array>
#include <iterator>

namespace iwscan::lint {

std::string_view fact_label(FactKind kind) {
  switch (kind) {
    case FactKind::Alloc: return "heap allocation";
    case FactKind::Growth: return "container growth";
    case FactKind::Lock: return "lock acquisition";
    case FactKind::Blocking: return "blocking call";
    case FactKind::Throw: return "throw";
    case FactKind::Iostream: return "stdio/iostream I/O";
    case FactKind::Entropy: return "entropy source";
    case FactKind::WallClock: return "wall-clock read";
  }
  return "violation";
}

namespace {

template <std::size_t N>
[[nodiscard]] bool in(const std::array<std::string_view, N>& set,
                      std::string_view text) {
  return std::find(set.begin(), set.end(), text) != set.end();
}

constexpr std::array<std::string_view, 8> kAllocCalls = {
    "make_unique", "make_shared", "to_string", "malloc",
    "calloc",      "realloc",     "aligned_alloc", "strdup"};

constexpr std::array<std::string_view, 12> kGrowthMethods = {
    "push_back", "emplace_back", "push_front",       "emplace_front",
    "insert",    "emplace",      "try_emplace",      "resize",
    "reserve",   "append",       "insert_or_assign", "assign"};

constexpr std::array<std::string_view, 6> kLockTypes = {
    "lock_guard", "unique_lock",        "scoped_lock",
    "shared_lock", "condition_variable", "condition_variable_any"};

constexpr std::array<std::string_view, 9> kBlockingCalls = {
    "sleep_for", "sleep_until", "usleep", "nanosleep", "poll",
    "select",    "epoll_wait",  "fsync",  "fdatasync"};

constexpr std::array<std::string_view, 20> kIostreamIdents = {
    "cout",  "cerr",  "clog",  "wcout",        "wcerr",
    "ifstream", "ofstream", "fstream", "stringstream", "ostringstream",
    "istringstream", "printf", "fprintf", "vfprintf", "puts",
    "fputs", "fputc", "fwrite", "fopen",  "getline"};

constexpr std::array<std::string_view, 3> kBannedClocks = {
    "steady_clock", "system_clock", "high_resolution_clock"};

constexpr std::array<std::string_view, 4> kWallClockCalls = {
    "clock_gettime", "gettimeofday", "localtime", "gmtime"};

// Identifiers that precede '(' without being calls, plus type keywords that
// show up in function-pointer declarators. 'new'/'delete' are here so the
// replacement operator new in util/alloc_stats.hpp is not indexed as a
// callable named "new": allocation is reported as a fact at the expression
// site, and placement new (which never enters operator new) stays silent.
constexpr std::array<std::string_view, 35> kNotACall = {
    "if",       "for",        "while",     "switch",     "catch",
    "return",   "sizeof",     "alignof",   "alignas",    "decltype",
    "typeid",   "noexcept",   "static_assert", "defined", "delete",
    "new",      "co_await",   "co_yield",  "co_return",  "requires",
    "constexpr", "consteval", "constinit", "operator",   "void",
    "int",      "char",       "bool",      "float",      "double",
    "auto",     "unsigned",   "signed",    "long",       "short"};

// Statement shapes at namespace scope that are declarations of something
// other than a variable; their presence disqualifies a mutable-global
// candidate. '(' and '[' additionally reject function declarators,
// function-pointer variables, attributes, and array-of-function oddities —
// a conservative miss, never a false flag.
constexpr std::array<std::string_view, 16> kNotAGlobalStmt = {
    "using",    "typedef", "template",      "concept",  "operator",
    "extern",   "friend",  "static_assert", "requires", "enum",
    "namespace", "struct", "class",         "union",    "(",
    "["};

/// Every identifier in tokens [begin, end) joins `refs`.
void add_idents(const std::vector<Token>& tokens, std::size_t begin,
                std::size_t end, std::set<std::string>& refs) {
  for (std::size_t k = begin; k < end && k < tokens.size(); ++k) {
    if (tokens[k].kind == TokKind::Ident) refs.emplace(tokens[k].text);
  }
}

class Extractor {
 public:
  Extractor(std::string_view path, std::size_t file_index,
            const ScanResult& scan, SymbolTable& out, FunctionDef& file_scope)
      : path_(path),
        file_index_(file_index),
        t_(scan.tokens),
        out_(out),
        file_scope_(file_scope) {}

  void run() {
    while (i_ < t_.size()) step();
    // Unbalanced braces (truncated input) leave function scopes open; close
    // their body ranges at end-of-tokens so dataflow never walks off the
    // vector.
    for (const auto& scope : scopes_) {
      if (scope.kind == Scope::Kind::Function && scope.func >= 0) {
        out_.defs[static_cast<std::size_t>(scope.func)].body_end = t_.size();
      }
    }
  }

 private:
  struct Scope {
    enum class Kind { Namespace, Class, Function, Block };
    Kind kind;
    std::string name;  // empty for blocks and anonymous namespaces
    int open_depth;    // brace depth just after the opening '{'
    int func = -1;     // defs index for Kind::Function
  };

  [[nodiscard]] const Token& tok(std::size_t i) const { return t_[i]; }
  [[nodiscard]] bool is(std::size_t i, std::string_view text) const {
    return i < t_.size() && t_[i].text == text;
  }
  [[nodiscard]] bool ident(std::size_t i) const {
    return i < t_.size() && t_[i].kind == TokKind::Ident;
  }

  [[nodiscard]] int current_function() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::Function) return it->func;
    }
    return -1;
  }

  [[nodiscard]] bool at_namespace_scope() const {
    return scopes_.empty() || scopes_.back().kind == Scope::Kind::Namespace;
  }

  /// Outside any function: inside a namespace- or class-scope initializer,
  /// or inside a brace block that is no indexed function's body (a brace
  /// initializer, an operator body, a macro's do-while). Names used here
  /// are references the unreached rule counts for the whole file.
  [[nodiscard]] bool in_file_scope_code() const {
    if (initializer_depth_ >= 0) return true;
    return std::any_of(scopes_.begin(), scopes_.end(), [](const Scope& scope) {
      return scope.kind == Scope::Kind::Block;
    });
  }

  void reset_pending() {
    pending_hot_ = false;
    pending_boundary_ = false;
    pending_noreturn_ = false;
  }

  void open_block() {
    ++depth_;
    scopes_.push_back({Scope::Kind::Block, "", depth_, -1});
  }

  void close_brace(std::size_t close_index) {
    --depth_;
    if (!scopes_.empty() && scopes_.back().open_depth == depth_ + 1) {
      const Scope& top = scopes_.back();
      if (top.kind == Scope::Kind::Function && top.func >= 0) {
        out_.defs[static_cast<std::size_t>(top.func)].body_end = close_index;
      }
      scopes_.pop_back();
    }
    reset_pending();
  }

  /// Index just past the matching closer, or t_.size() if unbalanced.
  [[nodiscard]] std::size_t skip_balanced(std::size_t open, std::string_view o,
                                          std::string_view c) const {
    int d = 0;
    for (std::size_t j = open; j < t_.size(); ++j) {
      if (t_[j].text == o) ++d;
      if (t_[j].text == c && --d == 0) return j + 1;
    }
    return t_.size();
  }

  [[nodiscard]] std::string scope_prefix() const {
    std::string joined;
    for (const auto& scope : scopes_) {
      if (scope.name.empty()) continue;
      if (!joined.empty()) joined += "::";
      joined += scope.name;
    }
    return joined;
  }

  /// Walk back over `A::B::` qualifiers from the name token at `i`.
  /// Returns the chain start index (and notes a leading '~').
  [[nodiscard]] std::size_t chain_start(std::size_t i) const {
    std::size_t j = i;
    while (j >= 2 && t_[j - 1].text == "::" && t_[j - 2].kind == TokKind::Ident) {
      j -= 2;
    }
    return j;
  }

  [[nodiscard]] std::string chain_text(std::size_t start, std::size_t i) const {
    std::string name;
    if (start >= 1 && t_[start - 1].text == "~") name = "~";
    for (std::size_t j = start; j <= i; ++j) {
      name += t_[j].text;
    }
    return name;
  }

  [[nodiscard]] bool member_access_before(std::size_t i) const {
    if (i == 0) return false;
    if (t_[i - 1].text == ".") return true;
    return i >= 2 && t_[i - 1].text == ">" && t_[i - 2].text == "-";
  }

  void add_fact(FactKind kind, int line, std::string token) {
    const int f = current_function();
    if (f < 0) return;
    out_.defs[static_cast<std::size_t>(f)].facts.push_back(
        {kind, line, std::move(token)});
  }

  void add_callee(std::string name) {
    const int f = current_function();
    if (f < 0) return;
    out_.defs[static_cast<std::size_t>(f)].callees.insert(std::move(name));
  }

  // ---- constructs -----------------------------------------------------

  void handle_namespace() {
    std::size_t j = i_ + 1;
    std::string name;
    while (j < t_.size() && (t_[j].kind == TokKind::Ident || t_[j].text == "::")) {
      name += t_[j].text;
      ++j;
    }
    if (is(j, "=")) {  // namespace alias
      while (j < t_.size() && t_[j].text != ";") ++j;
      i_ = j + 1;
      stmt_start_ = i_;
      return;
    }
    if (is(j, "{")) {
      ++depth_;
      initializer_depth_ = -1;
      scopes_.push_back({Scope::Kind::Namespace, name, depth_, -1});
      i_ = j + 1;
      stmt_start_ = i_;
      return;
    }
    i_ = j;
    stmt_start_ = i_;
  }

  void handle_class() {
    // `template <class T>` type parameters are not class definitions.
    if (i_ > 0 && (t_[i_ - 1].text == "<" || t_[i_ - 1].text == ",")) {
      ++i_;
      return;
    }
    std::size_t j = i_ + 1;
    while (is(j, "[")) j = skip_balanced(j, "[", "]");  // [[attributes]]
    std::string name;
    if (ident(j)) {
      name = t_[j].text;
      ++j;
    }
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") ++j;
    if (is(j, "{")) {
      ++depth_;
      initializer_depth_ = -1;
      scopes_.push_back({Scope::Kind::Class, name, depth_, -1});
      i_ = j + 1;
      stmt_start_ = i_;
      return;
    }
    i_ = (j < t_.size()) ? j + 1 : j;  // forward declaration
    stmt_start_ = i_;
  }

  void handle_enum() {
    std::size_t j = i_ + 1;
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") ++j;
    if (is(j, "{")) {
      i_ = skip_balanced(j, "{", "}");  // enumerators hold no code the rules see
      stmt_start_ = i_;
      return;
    }
    i_ = (j < t_.size()) ? j + 1 : j;
    stmt_start_ = i_;
  }

  /// Ident followed by '(' inside a function body: a call site, possibly
  /// also a fact (growth idiom, blocking call, entropy draw, ...).
  void handle_call(std::size_t i) {
    const std::string_view name = t_[i].text;
    const int line = t_[i].line;
    if (member_access_before(i)) {
      if (in(kGrowthMethods, name)) add_fact(FactKind::Growth, line, "." + std::string(name));
      if (name == "lock" || name == "try_lock") {
        add_fact(FactKind::Lock, line, "." + std::string(name));
      }
      add_callee(std::string(name));
      ++i_;
      return;
    }
    const std::size_t start = chain_start(i);
    const bool std_qualified = start < i && t_[start].text == "std";
    if (in(kBlockingCalls, name)) add_fact(FactKind::Blocking, line, std::string(name));
    if (in(kAllocCalls, name)) add_fact(FactKind::Alloc, line, std::string(name));
    if (in(kWallClockCalls, name)) add_fact(FactKind::WallClock, line, std::string(name));
    if (!std_qualified && (name == "rand" || name == "time")) {
      // A call site, not a declaration whose name merely collides (same
      // heuristic as the per-TU banned-call rule).
      const bool qualified_elsewhere =
          start < i || (i >= 1 && t_[i - 1].text == "::");
      const bool after_ident = i >= 1 && t_[i - 1].kind == TokKind::Ident &&
                               t_[i - 1].text != "return" && t_[i - 1].text != "case" &&
                               t_[i - 1].text != "else" && t_[i - 1].text != "do";
      if (!qualified_elsewhere && !after_ident) {
        add_fact(name == "rand" ? FactKind::Entropy : FactKind::WallClock, line,
                 std::string(name));
      }
    }
    if (name == "srand") add_fact(FactKind::Entropy, line, "srand");
    if (!std_qualified && !in(kNotACall, name)) add_callee(std::string(name));
    ++i_;
  }

  /// Plain identifier facts inside a function body (no '(' required).
  void handle_body_ident(std::size_t i) {
    const std::string_view name = t_[i].text;
    const int line = t_[i].line;
    if (name == "throw") {
      add_fact(FactKind::Throw, line, "throw");
    } else if (name == "new") {
      // `new (place) T` is placement construction into existing storage
      // (util::InlineFn's slot emplace); `new T` / `new T[n]` allocates.
      if (!is(i + 1, "(")) add_fact(FactKind::Alloc, line, "new");
    } else if (in(kLockTypes, name)) {
      add_fact(FactKind::Lock, line, std::string(name));
    } else if (in(kIostreamIdents, name)) {
      add_fact(FactKind::Iostream, line, std::string(name));
    } else if (name == "random_device") {
      add_fact(FactKind::Entropy, line, "random_device");
    } else if (in(kBannedClocks, name) && is(i + 1, "::") && is(i + 2, "now")) {
      add_fact(FactKind::WallClock, line, std::string(name) + "::now");
    }
    ++i_;
  }

  /// Ident at namespace scope whose next token is '=', '{', or ';': a
  /// variable declaration unless the statement so far says otherwise.
  /// const/constexpr declarations are exempt — only mutable state is
  /// shared-state the concurrency rule cares about.
  void check_global(std::size_t i) {
    if (member_access_before(i)) return;
    if (in(kNotAGlobalStmt, t_[i].text)) return;  // `operator=` and friends
    bool immutable = false;
    for (std::size_t j = stmt_start_; j < i && j < t_.size(); ++j) {
      const std::string_view text = t_[j].text;
      if (in(kNotAGlobalStmt, text)) return;
      if (text == "const" || text == "constexpr") immutable = true;
    }
    if (stmt_start_ >= i) return;  // a bare `name;` names nothing typed
    if (!immutable) {
      out_.globals.push_back({std::string(t_[i].text), std::string(path_),
                              t_[i].line});
    }
  }

  /// Ident followed by '(' at namespace/class scope: try to parse a
  /// function declaration or definition. Returns having advanced i_.
  void handle_candidate(std::size_t i) {
    const std::string_view name = t_[i].text;
    if (in(kNotACall, name)) {
      ++i_;
      return;
    }
    const std::size_t start = chain_start(i);
    const std::size_t params_open = i + 1;
    const std::size_t after_params = skip_balanced(params_open, "(", ")");
    // An expression at file scope, not a declarator: the names it passes
    // are references even when the parse below skips past them.
    if (in_file_scope_code()) add_idents(t_, params_open, after_params, file_scope_.refs);
    if (after_params >= t_.size()) {
      ++i_;
      return;
    }

    std::size_t j = after_params;
    // Specifier run: const/noexcept/override/final/try, noexcept(...),
    // trailing return types.
    while (j < t_.size()) {
      const std::string_view text = t_[j].text;
      if (text == "const" || text == "override" || text == "final" ||
          text == "mutable" || text == "try") {
        ++j;
        continue;
      }
      if (text == "noexcept") {
        ++j;
        if (is(j, "(")) j = skip_balanced(j, "(", ")");
        continue;
      }
      if (text == "-" && is(j + 1, ">")) {  // trailing return type
        j += 2;
        while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";" &&
               t_[j].text != "=") {
          ++j;
        }
        continue;
      }
      break;
    }

    bool is_definition = false;
    bool is_declaration = false;
    std::size_t body_open = t_.size();
    if (is(j, "{")) {
      is_definition = true;
      body_open = j;
    } else if (is(j, ";")) {
      is_declaration = true;
    } else if (is(j, "=")) {
      // `= default; / = delete; / = 0;` — declarations all.
      if ((is(j + 1, "default") || is(j + 1, "delete") || is(j + 1, "0")) &&
          is(j + 2, ";")) {
        is_declaration = true;
        j += 2;
      }
    } else if (is(j, ":") ) {
      // Constructor initializer list: members followed by (...) or {...},
      // comma-separated; the first unconsumed '{' after an initializer is
      // the body.
      ++j;
      while (j < t_.size()) {
        while (j < t_.size() && t_[j].text != "(" && t_[j].text != "{" &&
               t_[j].text != ";" && t_[j].text != "}") {
          ++j;
        }
        if (!is(j, "(") && !is(j, "{")) break;
        j = skip_balanced(j, t_[j].text, t_[j].text == "(" ? ")" : "}");
        if (is(j, ",")) {
          ++j;
          continue;
        }
        if (is(j, "{")) {
          is_definition = true;
          body_open = j;
        }
        break;
      }
    }

    if (!is_definition && !is_declaration) {
      ++i_;
      return;
    }

    std::string chain = chain_text(start, i);
    std::string qualified = scope_prefix();
    if (!qualified.empty() && !chain.empty()) qualified += "::";
    qualified += chain;

    initializer_depth_ = -1;
    if (is_declaration) {
      if (pending_hot_) out_.hot_qualified.insert(qualified);
      if (pending_noreturn_) out_.noreturn_qualified.insert(qualified);
      if (pending_boundary_) {
        out_.boundary_last.insert(std::string(name));
        out_.boundary_qualified.insert(qualified);
      }
      reset_pending();
      i_ = j + 1;
      stmt_start_ = i_;
      return;
    }

    FunctionDef def;
    def.qualified = std::move(qualified);
    def.last = std::string(name);
    def.file = std::string(path_);
    def.line = t_[i].line;
    def.hot = pending_hot_;
    def.noreturn = pending_noreturn_;
    def.file_index = file_index_;
    def.params_begin = params_open + 1;
    def.params_end = (after_params > 0) ? after_params - 1 : 0;
    def.body_begin = body_open + 1;
    def.body_end = t_.size();  // patched in close_brace
    add_idents(t_, params_open, body_open, def.refs);
    // Called without its name appearing at the call site.
    const bool in_class_named = !scopes_.empty() &&
                                scopes_.back().kind == Scope::Kind::Class &&
                                scopes_.back().name == name;
    def.implicit = (start >= 1 && (t_[start - 1].text == "~" ||
                                   t_[start - 1].text == "operator")) ||
                   (start + 2 <= i && t_[i - 2].text == name) ||
                   (start == i && in_class_named);
    // Display name: the last two segments ("Class::method") read well in
    // chains without the namespace noise.
    {
      const std::string& q = def.qualified;
      std::size_t cut = std::string::npos;
      const std::size_t last_sep = q.rfind("::");
      if (last_sep != std::string::npos && last_sep > 0) {
        cut = q.rfind("::", last_sep - 1);
      }
      def.display = (cut == std::string::npos) ? q : q.substr(cut + 2);
    }
    if (pending_boundary_) {
      out_.boundary_last.insert(def.last);
      out_.boundary_qualified.insert(def.qualified);
    }
    reset_pending();
    out_.defs.push_back(std::move(def));

    ++depth_;
    scopes_.push_back({Scope::Kind::Function, "", depth_,
                       static_cast<int>(out_.defs.size()) - 1});
    i_ = body_open + 1;
    stmt_start_ = i_;
  }

  void step() {
    const Token& t = t_[i_];
    if (t.kind == TokKind::Punct) {
      if (t.text == "{") {
        open_block();
        ++i_;
        stmt_start_ = i_;
        return;
      }
      if (t.text == "}") {
        close_brace(i_);
        ++i_;
        stmt_start_ = i_;
        return;
      }
      if (t.text == ";") {
        reset_pending();
        if (depth_ <= initializer_depth_) initializer_depth_ = -1;
        ++i_;
        stmt_start_ = i_;
        return;
      }
      // `name = ...` / `name[] = ...` outside a function opens an
      // initializer (`operator=` and comparisons inside one do not).
      if (t.text == "=" && i_ > 0 && current_function() < 0 &&
          ((t_[i_ - 1].kind == TokKind::Ident && t_[i_ - 1].text != "operator") ||
           t_[i_ - 1].text == "]")) {
        if (initializer_depth_ < 0) initializer_depth_ = depth_;
      }
      ++i_;
      return;
    }
    if (t.kind != TokKind::Ident) {
      ++i_;
      return;
    }

    const std::string_view text = t.text;
    if (text == "IWSCAN_HOT") {
      pending_hot_ = true;
      ++i_;
      return;
    }
    if (text == "IWSCAN_HOT_BOUNDARY") {
      pending_boundary_ = true;
      ++i_;
      return;
    }
    if (text == "noreturn") {
      pending_noreturn_ = true;
      ++i_;
      return;
    }

    const int fn = current_function();
    const bool in_fn = fn >= 0;
    if (in_fn) {
      out_.defs[static_cast<std::size_t>(fn)].refs.emplace(text);
    } else if (in_file_scope_code()) {
      file_scope_.refs.emplace(text);
    }
    if (!in_fn) {
      if (text == "namespace") {
        handle_namespace();
        return;
      }
      if (text == "class" || text == "struct" || text == "union") {
        handle_class();
        return;
      }
      if (text == "enum") {
        handle_enum();
        return;
      }
      if (is(i_ + 1, "(")) {
        handle_candidate(i_);
        return;
      }
      if (at_namespace_scope() &&
          (is(i_ + 1, "=") || is(i_ + 1, "{") || is(i_ + 1, ";"))) {
        check_global(i_);
      }
      ++i_;
      return;
    }
    if (is(i_ + 1, "(") && !in(kNotACall, text)) {
      handle_call(i_);
      return;
    }
    handle_body_ident(i_);
  }

  std::string_view path_;
  std::size_t file_index_;
  const std::vector<Token>& t_;
  SymbolTable& out_;
  FunctionDef& file_scope_;
  std::size_t i_ = 0;
  std::size_t stmt_start_ = 0;
  int depth_ = 0;
  int initializer_depth_ = -1;  // brace depth of the open initializer, or -1
  std::vector<Scope> scopes_;
  bool pending_hot_ = false;
  bool pending_boundary_ = false;
  bool pending_noreturn_ = false;
};

}  // namespace

SymbolTable extract_symbols(const std::vector<SourceFile>& files,
                            const std::vector<ScanResult>& scans) {
  SymbolTable out;
  for (std::size_t f = 0; f < files.size() && f < scans.size(); ++f) {
    const std::string& path = files[f].path;
    FunctionDef file_scope;
    file_scope.display = "<file scope>";
    file_scope.file = path;
    file_scope.file_index = f;
    if (path.rfind("src/", 0) == 0) {
      ++out.files_indexed;
      Extractor(path, f, scans[f], out, file_scope).run();
    } else {
      // Callers only: nothing of this file reaches the src/ tables.
      SymbolTable local;
      Extractor(path, f, scans[f], local, file_scope).run();
      std::move(local.defs.begin(), local.defs.end(),
                std::back_inserter(out.callers));
    }
    for (const auto& [first, end] : scans[f].macro_spans) {
      add_idents(scans[f].tokens, first, end, file_scope.refs);
    }
    out.callers.push_back(std::move(file_scope));
  }
  return out;
}

}  // namespace iwscan::lint
