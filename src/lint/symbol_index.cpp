#include "lint/symbol_index.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>

namespace tagwatch::lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

const std::set<std::string_view>& keywords() {
  static const std::set<std::string_view> kw = {
      "alignas",      "alignof",       "and",        "and_eq",
      "asm",          "auto",          "bitand",     "bitor",
      "bool",         "break",         "case",       "catch",
      "char",         "char16_t",      "char32_t",   "char8_t",
      "class",        "co_await",      "co_return",  "co_yield",
      "compl",        "concept",       "const",      "const_cast",
      "consteval",    "constexpr",     "constinit",  "continue",
      "decltype",     "default",       "delete",     "do",
      "double",       "dynamic_cast",  "else",       "enum",
      "explicit",     "export",        "extern",     "false",
      "final",        "float",         "for",        "friend",
      "goto",         "if",            "inline",     "int",
      "long",         "mutable",       "namespace",  "new",
      "noexcept",     "not",           "not_eq",     "nullptr",
      "operator",     "or",            "or_eq",      "override",
      "private",      "protected",     "public",     "register",
      "reinterpret_cast", "requires",  "return",     "short",
      "signed",       "sizeof",        "static",     "static_assert",
      "static_cast",  "struct",        "switch",     "template",
      "this",         "thread_local",  "throw",      "true",
      "try",          "typedef",       "typeid",     "typename",
      "union",        "unsigned",      "using",      "virtual",
      "void",         "volatile",      "wchar_t",    "while",
      "xor",          "xor_eq"};
  return kw;
}

bool is_keyword(std::string_view s) { return keywords().count(s) > 0; }

struct Token {
  std::size_t pos = 0;
  std::string text;
  bool ident = false;
};

/// Tokenizes scrubbed source.  Preprocessor lines are dropped entirely
/// (macro bodies would otherwise masquerade as definitions); the only
/// multi-character punctuators kept whole are `::` and `->`, the two the
/// scanner keys off.
std::vector<Token> lex(const std::string& s) {
  std::vector<Token> tokens;
  bool line_start = true;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (c == '\n') line_start = true;
      ++i;
      continue;
    }
    if (c == '#' && line_start) {
      // Skip the directive, honoring backslash continuations.
      while (i < s.size() && s[i] != '\n') {
        if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') ++i;
        ++i;
      }
      continue;
    }
    line_start = false;
    if (is_ident_start(c)) {
      std::size_t end = i;
      while (end < s.size() && is_ident_char(s[end])) ++end;
      tokens.push_back({i, s.substr(i, end - i), true});
      i = end;
      continue;
    }
    if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
      tokens.push_back({i, "::", false});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
      tokens.push_back({i, "->", false});
      i += 2;
      continue;
    }
    tokens.push_back({i, std::string(1, c), false});
    ++i;
  }
  return tokens;
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Token index just *of* the close matching the open at `at`; kNpos when
/// unbalanced.
std::size_t match_tokens(const std::vector<Token>& t, std::size_t at,
                         std::string_view open, std::string_view close) {
  std::size_t depth = 0;
  for (std::size_t i = at; i < t.size(); ++i) {
    if (t[i].text == open) {
      ++depth;
    } else if (t[i].text == close) {
      if (--depth == 0) return i;
    }
  }
  return kNpos;
}

/// Skips a balanced template-argument block starting at a `<` token;
/// returns the index after the matching `>`, or kNpos if it does not
/// look like one (statement punctuation before closure).
std::size_t skip_angles(const std::vector<Token>& t, std::size_t at) {
  std::size_t depth = 0;
  for (std::size_t i = at; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth == 0) return i + 1;
    } else if (x == ";" || x == "{" || x == "}") {
      return kNpos;
    }
  }
  return kNpos;
}

/// Starting just past a parameter list's `)`, decides whether a function
/// *definition* follows: skips cv/ref/noexcept qualifiers, a trailing
/// return type, and a constructor initializer list, and returns the index
/// of the body's `{` — or kNpos when this is a declaration/expression.
std::size_t find_body_brace(const std::vector<Token>& t, std::size_t m) {
  while (m < t.size()) {
    const std::string& x = t[m].text;
    if (x == "const" || x == "override" || x == "final" || x == "mutable" ||
        x == "try" || x == "&" || x == "&&") {
      ++m;
      continue;
    }
    if (x == "noexcept" || x == "throw") {
      ++m;
      if (m < t.size() && t[m].text == "(") {
        const std::size_t close = match_tokens(t, m, "(", ")");
        if (close == kNpos) return kNpos;
        m = close + 1;
      }
      continue;
    }
    if (x == "->") {
      // Trailing return type: scan up to the body/terminator.
      ++m;
      while (m < t.size() && t[m].text != "{" && t[m].text != ";" &&
             t[m].text != ":") {
        ++m;
      }
      continue;
    }
    if (x == ":") {
      // Constructor initializer list: `name(args)` or `name{args}` items
      // separated by commas, then the body.
      ++m;
      for (;;) {
        if (m >= t.size() || !t[m].ident) return kNpos;
        ++m;
        while (m + 1 < t.size() && t[m].text == "::" && t[m + 1].ident) {
          m += 2;
        }
        if (m < t.size() && t[m].text == "<") {
          m = skip_angles(t, m);
          if (m == kNpos) return kNpos;
        }
        if (m >= t.size()) return kNpos;
        if (t[m].text == "(") {
          const std::size_t close = match_tokens(t, m, "(", ")");
          if (close == kNpos) return kNpos;
          m = close + 1;
        } else if (t[m].text == "{") {
          const std::size_t close = match_tokens(t, m, "{", "}");
          if (close == kNpos) return kNpos;
          m = close + 1;
        } else {
          return kNpos;
        }
        while (m < t.size() && t[m].text == ".") ++m;  // Pack expansion.
        if (m < t.size() && t[m].text == ",") {
          ++m;
          continue;
        }
        break;
      }
      if (m < t.size() && t[m].text == "{") return m;
      return kNpos;
    }
    if (x == "{") return m;
    return kNpos;
  }
  return kNpos;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind;
  std::string name;           ///< Namespace/class name ("" if anonymous).
  std::size_t def_index = 0;  ///< Valid for kFunction.
};

/// Definitions are only recognized at namespace/class/global scope; a
/// `name(args) {` inside a function body is a declaration-with-ctor or a
/// control construct, never a definition we want.
bool at_decl_scope(const std::vector<Scope>& stack) {
  if (stack.empty()) return true;
  const Scope::Kind kind = stack.back().kind;
  return kind == Scope::Kind::kNamespace || kind == Scope::Kind::kClass;
}

std::string scope_prefix(const std::vector<Scope>& stack) {
  std::string prefix;
  for (const Scope& s : stack) {
    if (s.kind != Scope::Kind::kNamespace && s.kind != Scope::Kind::kClass) {
      continue;
    }
    if (s.name.empty()) continue;
    if (!prefix.empty()) prefix += "::";
    prefix += s.name;
  }
  return prefix;
}

std::size_t line_at(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos, text.size())),
                            '\n'));
}

/// One file's pass: definitions plus the token stream (returned so the
/// call-site pass does not re-lex).
void index_file(const SourceFile& file, std::size_t file_index,
                const std::string& scrubbed, SymbolIndex& out,
                std::set<std::size_t>& def_name_positions) {
  const std::vector<Token> tokens = lex(scrubbed);
  std::vector<Scope> stack;
  std::size_t i = 0;
  while (i < tokens.size()) {
    const Token& t = tokens[i];
    if (t.ident) {
      if (t.text == "namespace") {
        std::size_t j = i + 1;
        std::string name;
        if (j < tokens.size() && tokens[j].ident &&
            !is_keyword(tokens[j].text)) {
          name = tokens[j].text;
          ++j;
          while (j + 1 < tokens.size() && tokens[j].text == "::" &&
                 tokens[j + 1].ident) {
            name += "::" + tokens[j + 1].text;
            j += 2;
          }
        }
        if (j < tokens.size() && tokens[j].text == "{") {
          stack.push_back({Scope::Kind::kNamespace, name, 0});
          i = j + 1;
        } else {
          i = j;  // Alias or using-directive; no scope.
        }
        continue;
      }
      if (t.text == "class" || t.text == "struct") {
        std::size_t j = i + 1;
        if (j >= tokens.size() || !tokens[j].ident ||
            is_keyword(tokens[j].text)) {
          ++i;  // Anonymous struct: its `{` becomes a plain block.
          continue;
        }
        const std::string name = tokens[j].text;
        ++j;
        // Scan past specialization args / base clause to `{` or `;`.
        while (j < tokens.size() && tokens[j].text != "{" &&
               tokens[j].text != ";") {
          ++j;
        }
        if (j < tokens.size() && tokens[j].text == "{") {
          stack.push_back({Scope::Kind::kClass, name, 0});
        }
        i = j + 1;
        continue;
      }
      if (t.text == "enum") {
        std::size_t j = i + 1;
        while (j < tokens.size() && tokens[j].text != "{" &&
               tokens[j].text != ";") {
          ++j;
        }
        if (j < tokens.size() && tokens[j].text == "{") {
          const std::size_t close = match_tokens(tokens, j, "{", "}");
          i = close == kNpos ? tokens.size() : close + 1;
        } else {
          i = j + 1;
        }
        continue;
      }
      if (!is_keyword(t.text)) {
        // Qualified-id chain: A::B::name.
        std::vector<std::string> parts = {t.text};
        std::size_t name_tok = i;
        std::size_t j = i + 1;
        while (j + 1 < tokens.size() && tokens[j].text == "::" &&
               tokens[j + 1].ident && !is_keyword(tokens[j + 1].text)) {
          parts.push_back(tokens[j + 1].text);
          name_tok = j + 1;
          j += 2;
        }
        if (j < tokens.size() && tokens[j].text == "(" &&
            at_decl_scope(stack)) {
          const std::size_t close = match_tokens(tokens, j, "(", ")");
          if (close != kNpos) {
            const std::size_t body = find_body_brace(tokens, close + 1);
            if (body != kNpos) {
              FunctionDef def;
              def.name = parts.back();
              std::string written;
              for (const std::string& p : parts) {
                if (!written.empty()) written += "::";
                written += p;
              }
              const std::string prefix = scope_prefix(stack);
              def.qualified =
                  prefix.empty() ? written : prefix + "::" + written;
              def.file = file.path;
              def.file_index = file_index;
              def.line = line_at(scrubbed, tokens[name_tok].pos);
              def.body_begin = tokens[body].pos;
              def.body_end = scrubbed.size();  // Fixed up on `}`.
              def_name_positions.insert(tokens[name_tok].pos);
              stack.push_back(
                  {Scope::Kind::kFunction, "", out.functions.size()});
              out.functions.push_back(std::move(def));
              i = body + 1;
              continue;
            }
          }
          i = j;  // Expression/declaration; resume at '('.
          continue;
        }
        i = j;
        continue;
      }
      ++i;
      continue;
    }
    if (t.text == "{") {
      stack.push_back({Scope::Kind::kBlock, "", 0});
      ++i;
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) {
        if (stack.back().kind == Scope::Kind::kFunction) {
          out.functions[stack.back().def_index].body_end = t.pos + 1;
        }
        stack.pop_back();
      }
      ++i;
      continue;
    }
    ++i;
  }
  // Call sites: rescan the token stream, attributing each `ident(` inside
  // a body to the innermost enclosing definition.
  out.calls_by_function.resize(out.functions.size());
  std::vector<std::size_t> defs_here;
  for (std::size_t f = 0; f < out.functions.size(); ++f) {
    if (out.functions[f].file_index == file_index) defs_here.push_back(f);
  }
  auto innermost = [&](std::size_t pos) -> std::size_t {
    std::size_t best = kNpos;
    for (const std::size_t f : defs_here) {
      const FunctionDef& d = out.functions[f];
      if (d.body_begin < pos && pos < d.body_end &&
          (best == kNpos ||
           d.body_begin > out.functions[best].body_begin)) {
        best = f;
      }
    }
    return best;
  };
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    if (!tokens[k].ident || is_keyword(tokens[k].text)) continue;
    std::vector<std::string> parts = {tokens[k].text};
    std::size_t j = k + 1;
    while (j + 1 < tokens.size() && tokens[j].text == "::" &&
           tokens[j + 1].ident && !is_keyword(tokens[j + 1].text)) {
      parts.push_back(tokens[j + 1].text);
      j += 2;
    }
    const std::size_t chain_end = j - 1;  // Last token of the chain.
    if (j >= tokens.size() || tokens[j].text != "(") {
      k = chain_end;
      continue;
    }
    if (def_name_positions.count(tokens[chain_end].pos) > 0) {
      k = chain_end;
      continue;  // This is a definition header, not a call.
    }
    const std::size_t caller = innermost(tokens[k].pos);
    if (caller == kNpos) {
      k = chain_end;
      continue;
    }
    CallSite call;
    call.caller = caller;
    for (const std::string& p : parts) {
      if (!call.callee_text.empty()) call.callee_text += "::";
      call.callee_text += p;
    }
    call.callee_name = parts.back();
    call.member_access =
        k > 0 && (tokens[k - 1].text == "." || tokens[k - 1].text == "->");
    call.pos = tokens[k].pos;
    call.line = line_at(scrubbed, tokens[k].pos);
    out.calls_by_function[caller].push_back(out.calls.size());
    out.calls.push_back(std::move(call));
    k = chain_end;
  }
}

}  // namespace

SymbolIndex build_symbol_index(const std::vector<SourceFile>& files) {
  SymbolIndex index;
  index.scrubbed.reserve(files.size());
  for (const SourceFile& file : files) {
    index.scrubbed.push_back(scrub_comments_and_strings(file.content));
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    std::set<std::size_t> def_name_positions;
    index_file(files[f], f, index.scrubbed[f], index, def_name_positions);
  }
  index.calls_by_function.resize(index.functions.size());
  return index;
}

}  // namespace tagwatch::lint
