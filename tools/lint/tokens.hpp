// iwlint's lexical layer, shared by the per-TU rule engine (iwlint.cpp)
// and the cross-TU call-graph analyzer (callgraph.cpp).
//
// This is a scanner, not a parser: it produces the token/comment/include
// streams the rules pattern-match against. Preprocessor directives are
// recognized only enough to capture #include targets and the leading
// #pragma once; other directive bodies fall through to normal
// tokenization so banned calls inside macro bodies are still seen, and
// #define spans are recorded so the unreached rule can count the names a
// macro body uses as references.
#pragma once

#include <cstddef>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

namespace iwscan::lint {

enum class TokKind { Ident, Number, Str, CharLit, Punct };

struct Token {
  TokKind kind;
  std::string_view text;
  int line;
};

struct IncludeDirective {
  int line;
  std::string_view target;
  bool angled;
};

struct Comment {
  int line;  // line the comment starts on
  std::string_view text;
};

struct ScanResult {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::vector<Comment> comments;
  // Token index ranges [first, end) of #define directives (name, parameter
  // list and body), in file order.
  std::vector<std::pair<std::size_t, std::size_t>> macro_spans;
  std::set<int> code_lines;            // lines holding at least one token/directive
  int first_code_line = 0;             // 0 = file holds no code at all
  bool first_code_is_pragma_once = false;
};

[[nodiscard]] bool is_ident_start(char c);
[[nodiscard]] bool is_ident_char(char c);

/// Tokenize one translation unit. The returned views borrow `src`.
[[nodiscard]] ScanResult tokenize(std::string_view src);

}  // namespace iwscan::lint
