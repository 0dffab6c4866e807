#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

namespace tagwatch::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// File stem: "src/core/pipeline.cpp" -> "pipeline".
std::string stem_of(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string_view::npos) name = name.substr(0, dot);
  return std::string(name);
}

/// Position of the first occurrence of identifier `name` at or after
/// `from`, with identifier boundaries on both sides; npos if none.
std::size_t find_identifier(const std::string& text, std::string_view name,
                            std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Given `pos` at an opening bracket, returns the position just past its
/// matching close, or npos when unbalanced.
std::size_t match_bracket(const std::string& text, std::size_t pos,
                          char open, char close) {
  std::size_t depth = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    if (text[i] == open) {
      ++depth;
    } else if (text[i] == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------- scrub

/// Blanks comment bodies (preserving newlines) so token rules do not fire
/// on prose.  String literals survive.
std::string scrub_comments(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLine, kBlock, kString, kChar } state =
      State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

/// Blanks comments *and* string/char literal contents.
std::string scrub_comments_and_strings(const std::string& text) {
  std::string out = scrub_comments(text);
  enum class State { kCode, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    switch (state) {
      case State::kCode:
        if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < out.size()) {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < out.size()) {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/// 1-based line number of byte offset `pos` in `text`.
std::size_t line_of(const std::string& text, std::size_t pos) {
  if (pos > text.size()) pos = text.size();
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

// ------------------------------------------------------------- rule D

/// Wall-clock / entropy / environment identifiers that must never appear
/// in src/ outside the WallClock seam.  Split into "any use" and "only as
/// a call" (plain `time` or `clock` is a fine variable name).
constexpr std::array<std::string_view, 8> kForbiddenIdentifiers = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock",
    "file_clock",    "utc_clock",    "tai_clock",    "gps_clock"};
constexpr std::array<std::string_view, 11> kForbiddenCalls = {
    "rand",         "srand",         "time",         "clock",
    "clock_gettime", "timespec_get", "gettimeofday", "getenv",
    "secure_getenv", "localtime",    "gmtime"};

/// Host time enters src/ only through util::WallClock, whose system-clock
/// implementation (src/util/wall_clock.*) is the one file set allowed to
/// read a clock.  tools/, tests/, bench/ and examples/ run off the
/// record→replay path and are out of scope.
bool in_determinism_scope(std::string_view path) {
  return path.rfind("src/", 0) == 0 &&
         path.rfind("src/util/wall_clock.", 0) != 0;
}

void check_determinism(const SourceFile& file, const std::string& scrubbed,
                       std::vector<Finding>& out) {
  if (!in_determinism_scope(file.path)) return;
  auto report = [&](std::size_t pos, const std::string& what) {
    out.push_back({file.path, line_of(scrubbed, pos), "determinism",
                   what + "; host time enters src/ only through "
                          "util::WallClock"});
  };
  for (const std::string_view ident : kForbiddenIdentifiers) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, ident, pos)) !=
           std::string::npos) {
      report(pos, "non-deterministic identifier '" + std::string(ident) + "'");
      pos += ident.size();
    }
  }
  for (const std::string_view call : kForbiddenCalls) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, call, pos)) !=
           std::string::npos) {
      const std::size_t after = skip_ws(scrubbed, pos + call.size());
      if (after < scrubbed.size() && scrubbed[after] == '(') {
        report(pos, "call to '" + std::string(call) + "()'");
      }
      pos += call.size();
    }
  }
  // Unseeded std::mt19937 / std::mt19937_64: a declaration with no
  // initializer (or an empty one) seeds from the default constant, which
  // hides the seed from the journal.
  for (const std::string_view engine : {std::string_view("mt19937"),
                                        std::string_view("mt19937_64")}) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, engine, pos)) !=
           std::string::npos) {
      const std::size_t report_at = pos;
      std::size_t cur = skip_ws(scrubbed, pos + engine.size());
      pos += engine.size();
      // Expect a declared variable name next; anything else (template
      // argument, reference parameter, qualified use) is not a decl.
      if (cur >= scrubbed.size() || !is_ident_char(scrubbed[cur]) ||
          std::isdigit(static_cast<unsigned char>(scrubbed[cur])) != 0) {
        continue;
      }
      while (cur < scrubbed.size() && is_ident_char(scrubbed[cur])) ++cur;
      cur = skip_ws(scrubbed, cur);
      bool unseeded = false;
      if (cur < scrubbed.size() && scrubbed[cur] == ';') {
        unseeded = true;
      } else if (cur < scrubbed.size() &&
                 (scrubbed[cur] == '(' || scrubbed[cur] == '{')) {
        const char close = scrubbed[cur] == '(' ? ')' : '}';
        const std::size_t end =
            match_bracket(scrubbed, cur, scrubbed[cur], close);
        if (end != std::string::npos &&
            skip_ws(scrubbed, cur + 1) == end - 1) {
          unseeded = true;  // Empty initializer: default seed.
        }
      }
      if (unseeded) {
        report(report_at,
               "unseeded std::" + std::string(engine) +
                   " (pass an explicit seed)");
      }
    }
  }
}

// ------------------------------------------------------------- rule H

void check_pragma_once(const SourceFile& file, const std::string& scrubbed,
                       std::vector<Finding>& out) {
  if (!ends_with(file.path, ".hpp")) return;
  const std::size_t first = skip_ws(scrubbed, 0);
  if (first >= scrubbed.size() ||
      scrubbed.compare(first, 12, "#pragma once") != 0) {
    out.push_back({file.path, first >= scrubbed.size()
                                  ? std::size_t{1}
                                  : line_of(scrubbed, first),
                   "header-pragma-once",
                   "header must open with #pragma once (before any code)"});
  }
}

void check_using_namespace(const SourceFile& file,
                           const std::string& scrubbed,
                           std::vector<Finding>& out) {
  if (!ends_with(file.path, ".hpp")) return;
  std::size_t pos = 0;
  while ((pos = find_identifier(scrubbed, "using", pos)) !=
         std::string::npos) {
    const std::size_t next = skip_ws(scrubbed, pos + 5);
    if (find_identifier(scrubbed, "namespace", next) == next) {
      out.push_back({file.path, line_of(scrubbed, pos),
                     "header-using-namespace",
                     "'using namespace' leaks into every includer; "
                     "qualify names instead"});
    }
    pos += 5;
  }
}

struct IncludeDirective {
  std::size_t line;
  bool quoted;
  std::string target;
};

std::vector<IncludeDirective> collect_includes(const std::string& scrubbed) {
  std::vector<IncludeDirective> includes;
  std::size_t pos = 0;
  while ((pos = scrubbed.find("#include", pos)) != std::string::npos) {
    // Must be the first token on its line.
    std::size_t bol = scrubbed.rfind('\n', pos);
    bol = bol == std::string::npos ? 0 : bol + 1;
    if (skip_ws(scrubbed, bol) != pos) {
      pos += 8;
      continue;
    }
    const std::size_t open = skip_ws(scrubbed, pos + 8);
    if (open < scrubbed.size() &&
        (scrubbed[open] == '"' || scrubbed[open] == '<')) {
      const char close = scrubbed[open] == '"' ? '"' : '>';
      const std::size_t end = scrubbed.find(close, open + 1);
      if (end != std::string::npos) {
        includes.push_back({line_of(scrubbed, pos), scrubbed[open] == '"',
                            scrubbed.substr(open + 1, end - open - 1)});
      }
    }
    pos += 8;
  }
  return includes;
}

void check_include_order(const SourceFile& file, const std::string& raw,
                         std::vector<Finding>& out) {
  // Scrub only comments: include targets are quoted strings and must
  // survive.  House order (matching .clang-format's Preserve blocks):
  // the .cpp's own header first, then every <system> include, then
  // "project" includes.
  const std::string scrubbed = scrub_comments(raw);
  std::vector<IncludeDirective> includes = collect_includes(scrubbed);
  if (includes.empty()) return;
  std::size_t start = 0;
  if (ends_with(file.path, ".cpp") && includes[0].quoted) {
    // Own header leads (foo.cpp -> "…/foo.hpp"); test files lead with the
    // header under test (test_foo.cpp -> "…/foo.hpp").  Both are exempt
    // from the system-first order.
    const std::string file_stem = stem_of(file.path);
    const std::string inc_stem = stem_of(includes[0].target);
    if (file_stem == inc_stem || file_stem == "test_" + inc_stem) {
      start = 1;
    }
  }
  bool seen_project = false;
  for (std::size_t i = start; i < includes.size(); ++i) {
    if (includes[i].quoted) {
      seen_project = true;
    } else if (seen_project) {
      out.push_back({file.path, includes[i].line, "include-order",
                     "<" + includes[i].target +
                         "> after a \"project\" include; order is: own "
                         "header, <system>, \"project\""});
    }
  }
}

// ------------------------------------------------------------- rule T

/// The one sanctioned home for raw threads and mutexes (util::TaskPool's
/// own files); everywhere else concurrency must route through the pool so
/// fork/join structure — and with it, determinism — is preserved by
/// construction.
bool is_task_pool_file(std::string_view path) {
  return path.find("src/util/task_pool.") != std::string_view::npos;
}

/// True when `pos` follows `lock_guard<` (or `unique_lock<`,
/// `scoped_lock<`, `shared_lock<`): the mutex type there is a RAII guard's
/// template argument — a use of some mutex, not a declaration of one.
bool is_guard_argument(const std::string& text, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) --i;
  if (i == 0 || text[i - 1] != '<') return false;
  --i;
  while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) --i;
  const std::size_t end = i;
  while (i > 0 && is_ident_char(text[i - 1])) --i;
  const std::string_view name(text.data() + i, end - i);
  return name == "lock_guard" || name == "unique_lock" ||
         name == "scoped_lock" || name == "shared_lock";
}

void check_threading(const SourceFile& file, const std::string& scrubbed,
                     std::vector<Finding>& out) {
  if (is_task_pool_file(file.path)) return;
  // (a) Raw thread primitives.  Only the std::-qualified spelling is
  // flagged: plain `thread` is a common variable name.
  for (const std::string_view prim :
       {std::string_view("thread"), std::string_view("jthread"),
        std::string_view("async")}) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, prim, pos)) !=
           std::string::npos) {
      if (pos >= 5 && scrubbed.compare(pos - 5, 5, "std::") == 0) {
        out.push_back({file.path, line_of(scrubbed, pos),
                       "threading-discipline",
                       "raw std::" + std::string(prim) +
                           "; route concurrency through util::TaskPool"});
      }
      pos += prim.size();
    }
  }
  // (b) detach() orphans a thread past its owner's lifetime; (c) explicit
  // lock()/unlock() member calls — mutexes are held via RAII guards
  // (std::lock_guard / std::scoped_lock / std::unique_lock) only, so no
  // early return or exception can leave one held.
  for (const std::string_view member :
       {std::string_view("detach"), std::string_view("lock"),
        std::string_view("unlock")}) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, member, pos)) !=
           std::string::npos) {
      const bool via_dot = pos >= 1 && scrubbed[pos - 1] == '.';
      const bool via_arrow = pos >= 2 && scrubbed[pos - 2] == '-' &&
                             scrubbed[pos - 1] == '>';
      const std::size_t after = skip_ws(scrubbed, pos + member.size());
      const bool is_call = after < scrubbed.size() && scrubbed[after] == '(';
      if ((via_dot || via_arrow) && is_call) {
        const std::string message =
            member == "detach"
                ? "detach() orphans the thread; join via util::TaskPool"
                : "explicit " + std::string(member) +
                      "() call; hold mutexes with RAII guards "
                      "(std::lock_guard/std::scoped_lock)";
        out.push_back({file.path, line_of(scrubbed, pos),
                       "threading-discipline", message});
      }
      pos += member.size();
    }
  }
  // (d) Mutex declarations.  util::TaskPool holds the tree's one mutex;
  // with a single mutex no acquisition-order cycle can exist, so none
  // needs analysing (the TSan CI job still catches double locks at run
  // time).  A second mutex anywhere else is flagged here.
  for (const std::string_view type :
       {std::string_view("mutex"), std::string_view("recursive_mutex"),
        std::string_view("shared_mutex"), std::string_view("timed_mutex"),
        std::string_view("recursive_timed_mutex"),
        std::string_view("shared_timed_mutex")}) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, type, pos)) !=
           std::string::npos) {
      if (pos >= 5 && scrubbed.compare(pos - 5, 5, "std::") == 0 &&
          !is_guard_argument(scrubbed, pos - 5)) {
        out.push_back({file.path, line_of(scrubbed, pos),
                       "threading-discipline",
                       "std::" + std::string(type) +
                           " declared outside util::TaskPool"});
      }
      pos += type.size();
    }
  }
}

// ------------------------------------------------------------- rule P

void check_pipeline_reentrancy(const SourceFile& file,
                               const std::string& scrubbed,
                               std::vector<Finding>& out) {
  for (const std::string_view hook : {std::string_view("on_reading"),
                                      std::string_view("on_cycle_end")}) {
    std::size_t pos = 0;
    while ((pos = find_identifier(scrubbed, hook, pos)) !=
           std::string::npos) {
      std::size_t cur = skip_ws(scrubbed, pos + hook.size());
      pos += hook.size();
      if (cur >= scrubbed.size() || scrubbed[cur] != '(') continue;
      const std::size_t params_end = match_bracket(scrubbed, cur, '(', ')');
      if (params_end == std::string::npos) continue;
      // Skip qualifiers between ')' and the body; stop on ';' (a mere
      // declaration) or '=' (pure virtual / defaulted).
      cur = params_end;
      while (cur < scrubbed.size() && scrubbed[cur] != '{' &&
             scrubbed[cur] != ';' && scrubbed[cur] != '=') {
        ++cur;
      }
      if (cur >= scrubbed.size() || scrubbed[cur] != '{') continue;
      const std::size_t body_end = match_bracket(scrubbed, cur, '{', '}');
      if (body_end == std::string::npos) continue;
      // The hazard: a sink hook driving the transport re-enters the
      // controller mid-cycle (found by inspection of core/pipeline.cpp —
      // dispatch_batch() runs inside the controller's execute loop).
      std::size_t call = cur;
      while ((call = find_identifier(scrubbed, "execute", call)) !=
                 std::string::npos &&
             call < body_end) {
        const std::size_t after = skip_ws(scrubbed, call + 7);
        if (after < scrubbed.size() && scrubbed[after] == '(') {
          out.push_back({file.path, line_of(scrubbed, call),
                         "pipeline-reentrancy",
                         "execute() called from a ReadingSink hook "
                         "(re-enters the transport mid-cycle)"});
        }
        call += 7;
      }
    }
  }
}

}  // namespace

std::vector<Finding> run(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const std::string scrubbed = scrub_comments_and_strings(file.content);
    check_determinism(file, scrubbed, findings);
    check_pragma_once(file, scrubbed, findings);
    check_using_namespace(file, scrubbed, findings);
    check_include_order(file, file.content, findings);
    check_pipeline_reentrancy(file, scrubbed, findings);
    check_threading(file, scrubbed, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace tagwatch::lint
