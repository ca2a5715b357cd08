#include "tokens.hpp"

#include <algorithm>
#include <cctype>
#include <string>

namespace iwscan::lint {

bool is_ident_start(char c) {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}
bool is_ident_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

ScanResult tokenize(std::string_view src) {
  ScanResult out;
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto note_code = [&](int at_line) {
    out.code_lines.insert(at_line);
    if (out.first_code_line == 0) out.first_code_line = at_line;
  };
  // Multiline literals (raw strings, backslash-continued strings) occupy
  // every line they span; suppression targeting needs them all marked.
  auto note_code_range = [&](int from_line, int to_line) {
    for (int l = from_line; l <= to_line; ++l) note_code(l);
  };

  // A newline at `at` continues the directive line when a backslash
  // (optionally followed by '\r') precedes it.
  auto escaped_newline = [&](std::size_t at) {
    if (at > 0 && src[at - 1] == '\r') --at;
    return at > 0 && src[at - 1] == '\\';
  };

  auto skip_string = [&](char quote) {
    // i points at the opening quote.
    ++i;
    while (i < src.size() && src[i] != quote) {
      if (src[i] == '\\' && i + 1 < src.size()) ++i;
      if (src[i] == '\n') ++line;  // unterminated/multiline literal: keep counting
      ++i;
    }
    if (i < src.size()) ++i;  // closing quote
  };

  // An open #define: its first token index and the offset of the newline
  // that ends it (the first one not escaped by a backslash).
  std::size_t define_first = 0;
  std::size_t define_end = std::string_view::npos;
  auto close_define = [&] {
    out.macro_spans.emplace_back(define_first, out.tokens.size());
    define_end = std::string_view::npos;
  };

  while (i < src.size()) {
    if (i >= define_end) close_define();
    const char c = src[i];

    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Comments.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < src.size() && src[i] != '\n') ++i;
      out.comments.push_back({line, src.substr(start, i - start)});
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const std::size_t start = i;
      const int start_line = line;
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < src.size()) ? i + 2 : src.size();
      out.comments.push_back({start_line, src.substr(start, i - start)});
      at_line_start = false;
      continue;
    }

    // Preprocessor directives (only at the start of a line).
    if (c == '#' && at_line_start) {
      const int dir_line = line;
      ++i;
      while (i < src.size() && (src[i] == ' ' || src[i] == '\t')) ++i;
      std::size_t word_start = i;
      while (i < src.size() && is_ident_char(src[i])) ++i;
      const std::string_view word = src.substr(word_start, i - word_start);
      if (word == "include") {
        while (i < src.size() && (src[i] == ' ' || src[i] == '\t')) ++i;
        if (i < src.size() && (src[i] == '"' || src[i] == '<')) {
          const char close = (src[i] == '<') ? '>' : '"';
          const bool angled = (src[i] == '<');
          ++i;
          const std::size_t target_start = i;
          while (i < src.size() && src[i] != close && src[i] != '\n') ++i;
          out.includes.push_back(
              {dir_line, src.substr(target_start, i - target_start), angled});
          if (i < src.size() && src[i] == close) ++i;
        }
        note_code(dir_line);
      } else if (word == "pragma") {
        while (i < src.size() && (src[i] == ' ' || src[i] == '\t')) ++i;
        word_start = i;
        while (i < src.size() && is_ident_char(src[i])) ++i;
        if (out.first_code_line == 0 && src.substr(word_start, i - word_start) == "once") {
          out.first_code_is_pragma_once = true;
        }
        note_code(dir_line);
      } else {
        // Other directives (#define, #if, ...): the keyword is consumed and
        // the body falls through to normal tokenization so banned calls
        // inside macro bodies are still seen.
        if (word == "define") {
          define_first = out.tokens.size();
          define_end = i;
          while (define_end < src.size() &&
                 !(src[define_end] == '\n' && !escaped_newline(define_end))) {
            ++define_end;
          }
        }
        note_code(dir_line);
      }
      at_line_start = false;
      continue;
    }
    at_line_start = false;

    // String / char literals (incl. raw strings via their encoding prefix).
    // A literal spanning lines (backslash continuation) is attributed to
    // its START line — the same convention block comments use — so rules
    // and suppressions see the line a reader would point at.
    if (c == '"') {
      const std::size_t start = i;
      const int start_line = line;
      skip_string('"');
      out.tokens.push_back({TokKind::Str, src.substr(start, i - start), start_line});
      note_code_range(start_line, line);
      continue;
    }
    if (c == '\'') {
      const std::size_t start = i;
      const int start_line = line;
      skip_string('\'');
      out.tokens.push_back(
          {TokKind::CharLit, src.substr(start, i - start), start_line});
      note_code_range(start_line, line);
      continue;
    }

    if (is_ident_start(c)) {
      const std::size_t start = i;
      while (i < src.size() && is_ident_char(src[i])) ++i;
      const std::string_view word = src.substr(start, i - start);
      const bool raw_prefix = (word == "R" || word == "u8R" || word == "uR" ||
                               word == "UR" || word == "LR");
      if (raw_prefix && i < src.size() && src[i] == '"') {
        // Raw string: R"delim( ... )delim". The token carries its START
        // line (multiline raw strings are common in tests and tables);
        // the line counter still advances past every embedded newline.
        const int start_line = line;
        ++i;
        const std::size_t delim_start = i;
        while (i < src.size() && src[i] != '(') ++i;
        const std::string terminator =
            ")" + std::string(src.substr(delim_start, i - delim_start)) + "\"";
        const std::size_t body = (i < src.size()) ? i + 1 : i;
        const std::size_t end = src.find(terminator, body);
        const std::size_t stop =
            (end == std::string_view::npos) ? src.size() : end + terminator.size();
        line += static_cast<int>(std::count(src.begin() + static_cast<long>(start),
                                            src.begin() + static_cast<long>(stop), '\n'));
        out.tokens.push_back({TokKind::Str, src.substr(start, stop - start), start_line});
        i = stop;
        note_code_range(start_line, line);
      } else {
        out.tokens.push_back({TokKind::Ident, word, line});
        note_code(line);
      }
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t start = i;
      while (i < src.size() &&
             (is_ident_char(src[i]) || src[i] == '.' ||
              (src[i] == '\'' && i + 1 < src.size() && is_ident_char(src[i + 1])))) {
        ++i;
      }
      out.tokens.push_back({TokKind::Number, src.substr(start, i - start), line});
      note_code(line);
      continue;
    }

    // Punctuation. '::' is one token (qualified names matter to the rules).
    if (c == ':' && i + 1 < src.size() && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::Punct, src.substr(i, 2), line});
      i += 2;
    } else {
      out.tokens.push_back({TokKind::Punct, src.substr(i, 1), line});
      ++i;
    }
    note_code(line);
  }
  if (define_end != std::string_view::npos) close_define();
  return out;
}

}  // namespace iwscan::lint
