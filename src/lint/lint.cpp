#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string_view>

#include "lint/call_graph.hpp"
#include "lint/nondet.hpp"
#include "lint/symbol_index.hpp"
#include "lint/taint.hpp"

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

// ------------------------------------------------------- allow() hatch

constexpr std::string_view kAllowMarker = "tagwatch-lint: allow(";

/// Lines (1-based) of the raw file that carry an allow() annotation for
/// `rule`, mapped over both the annotated line and the one below it.
struct AllowIndex {
  // line -> set of rule names allowed on that line.
  std::map<std::size_t, std::set<std::string>> by_line;
  std::size_t annotations = 0;

  // rule -> how many annotations name it (feeds the per-rule budget).
  std::map<std::string, std::size_t> annotations_by_rule;

  explicit AllowIndex(const std::string& raw) {
    std::size_t pos = 0;
    while ((pos = raw.find(kAllowMarker, pos)) != std::string::npos) {
      const std::size_t open = pos + kAllowMarker.size();
      const std::size_t close = raw.find(')', open);
      if (close != std::string::npos) {
        const std::string rule = raw.substr(open, close - open);
        // Only a real rule name is an annotation — this keeps prose like
        // "allow(<rule>)" in documentation from eating the budget.
        const auto& names = RuleEngine::rule_names();
        if (std::find(names.begin(), names.end(), rule) != names.end()) {
          ++annotations;
          ++annotations_by_rule[rule];
          const std::size_t line = line_of(raw, pos);
          by_line[line].insert(rule);
          by_line[line + 1].insert(rule);  // Annotation-above style.
        }
      }
      pos = open;
    }
  }

  bool allows(std::size_t line, const std::string& rule) const {
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) > 0;
  }
};

// ------------------------------------------------------------- rule D

void check_determinism(const SourceFile& file, const std::string& scrubbed,
                       std::vector<Finding>& out) {
  if (!in_journaled_dir(file.path)) return;
  for (const NondetUse& use : scan_nondeterminism(scrubbed)) {
    out.push_back({file.path, line_of(scrubbed, use.pos), "determinism",
                   use.message + " in journaled path"});
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

// ------------------------------------------------------------- rule V

/// The one sanctioned home for raw vector intrinsics: the util::simd
/// kernel module.  Everywhere else SIMD routes through the dispatched
/// util::simd entry points, so the scalar/AVX2 differential tests cover
/// every instruction sequence that can actually run.
bool is_simd_kernel_file(std::string_view path) {
  return path.find("src/util/simd") != std::string_view::npos;
}

void check_simd_discipline(const SourceFile& file, const std::string& scrubbed,
                           std::vector<Finding>& out) {
  if (is_simd_kernel_file(file.path)) return;
  // (a) Raw intrinsic calls and vector register types.
  for (const std::string_view prefix :
       {std::string_view("_mm"), std::string_view("__m128"),
        std::string_view("__m256"), std::string_view("__m512"),
        std::string_view("__builtin_ia32")}) {
    std::size_t pos = 0;
    while ((pos = scrubbed.find(prefix, pos)) != std::string::npos) {
      if (pos == 0 || !is_ident_char(scrubbed[pos - 1])) {
        out.push_back({file.path, line_of(scrubbed, pos), "simd-discipline",
                       "raw vector intrinsic; implement kernels in the "
                       "util::simd module and call its dispatched entry "
                       "points"});
        // One finding per line is enough: jump to the next line.
        pos = scrubbed.find('\n', pos);
        if (pos == std::string::npos) break;
        continue;
      }
      pos += prefix.size();
    }
  }
  // (b) The intrinsics headers themselves (<immintrin.h> and friends).
  std::size_t pos = 0;
  while ((pos = scrubbed.find("intrin.h>", pos)) != std::string::npos) {
    const std::size_t line_start = scrubbed.rfind('\n', pos) + 1;
    const std::size_t inc = scrubbed.find("#include", line_start);
    if (inc != std::string::npos && inc < pos) {
      out.push_back({file.path, line_of(scrubbed, pos), "simd-discipline",
                     "intrinsics header outside the util::simd module"});
    }
    pos += 9;
  }
  // (c) The kernel table is process-wide state that only the program's
  // entry point may repoint: a library call in src/ that did so would undo
  // the caller's pin.  Tests, tools and benches flip it freely for A/B
  // runs.
  if (file.path.rfind("src/", 0) == 0) {
    std::size_t at = 0;
    while ((at = find_identifier(scrubbed, "set_active_isa", at)) !=
           std::string::npos) {
      const std::size_t after = skip_ws(scrubbed, at + 14);
      if (after < scrubbed.size() && scrubbed[after] == '(') {
        out.push_back({file.path, line_of(scrubbed, at), "simd-discipline",
                       "set_active_isa in src/ outside util::simd; pin the "
                       "ISA once in the program's entry point"});
      }
      at += 14;
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

// ------------------------------------------------------------- rule J

/// Enumerators of `enum class <name> { ... }` in `scrubbed`, or empty.
std::vector<std::string> parse_enumerators(const std::string& scrubbed,
                                           std::string_view enum_name) {
  const std::size_t decl = find_identifier(scrubbed, enum_name, 0);
  if (decl == std::string::npos) return {};
  const std::size_t open = scrubbed.find('{', decl);
  if (open == std::string::npos) return {};
  const std::size_t end = match_bracket(scrubbed, open, '{', '}');
  if (end == std::string::npos) return {};
  std::vector<std::string> names;
  std::size_t cur = open + 1;
  while (cur < end - 1) {
    cur = skip_ws(scrubbed, cur);
    if (cur >= end - 1) break;
    if (!is_ident_char(scrubbed[cur])) {
      ++cur;
      continue;
    }
    std::size_t ident_end = cur;
    while (ident_end < end - 1 && is_ident_char(scrubbed[ident_end])) {
      ++ident_end;
    }
    names.emplace_back(scrubbed, cur, ident_end - cur);
    // Skip to the next comma at enum level (past any = expression).
    cur = scrubbed.find(',', ident_end);
    if (cur == std::string::npos || cur > end) break;
    ++cur;
  }
  return names;
}

/// Journal record tags appearing as `<< "T,"` (serializer) in `scrubbed`.
std::set<std::string> serializer_tags(const std::string& scrubbed) {
  std::set<std::string> tags;
  std::size_t pos = 0;
  while ((pos = scrubbed.find("<<", pos)) != std::string::npos) {
    const std::size_t quote = skip_ws(scrubbed, pos + 2);
    // A record tag is a one-letter literal "T," opening a CSV line.
    if (quote + 3 < scrubbed.size() && scrubbed[quote] == '"' &&
        std::isupper(static_cast<unsigned char>(scrubbed[quote + 1])) != 0 &&
        scrubbed[quote + 2] == ',' && scrubbed[quote + 3] == '"') {
      tags.insert(std::string(1, scrubbed[quote + 1]));
    }
    pos += 2;
  }
  return tags;
}

/// Journal record tags the parser handles: `f[0] == "T"`.
std::set<std::string> parser_tags(const std::string& scrubbed) {
  std::set<std::string> tags;
  std::size_t pos = 0;
  while ((pos = scrubbed.find("==", pos)) != std::string::npos) {
    const std::size_t quote = skip_ws(scrubbed, pos + 2);
    if (quote + 2 < scrubbed.size() && scrubbed[quote] == '"' &&
        std::isupper(static_cast<unsigned char>(scrubbed[quote + 1])) != 0 &&
        scrubbed[quote + 2] == '"') {
      tags.insert(std::string(1, scrubbed[quote + 1]));
    }
    pos += 2;
  }
  return tags;
}

const SourceFile* find_file(const std::vector<SourceFile>& files,
                            std::string_view suffix) {
  for (const SourceFile& f : files) {
    if (ends_with(f.path, suffix)) return &f;
  }
  return nullptr;
}

/// Cross-file consistency: adding a ReaderErrorKind enumerator or a journal
/// record tag in one place must not silently skip the other tables.
void check_journal_discipline(const std::vector<SourceFile>& files,
                              std::vector<Finding>& out) {
  const SourceFile* enum_hdr = find_file(files, "llrp/reader_client.hpp");
  const SourceFile* name_src = find_file(files, "llrp/reader_client.cpp");
  const SourceFile* health_hdr = find_file(files, "core/resilience.hpp");
  const SourceFile* inject_src = find_file(files, "llrp/fault_injection.cpp");
  if (enum_hdr != nullptr) {
    const std::string hdr = scrub_comments_and_strings(enum_hdr->content);
    const std::vector<std::string> kinds =
        parse_enumerators(hdr, "ReaderErrorKind");
    const std::size_t enum_line =
        line_of(hdr, find_identifier(hdr, "ReaderErrorKind", 0));
    if (kinds.empty()) {
      out.push_back({enum_hdr->path, 1, "journal-discipline",
                     "cannot parse enum class ReaderErrorKind"});
    }
    for (const std::string& kind : kinds) {
      if (name_src != nullptr) {
        const std::string src = scrub_comments(name_src->content);
        if (src.find("case ReaderErrorKind::" + kind) == std::string::npos) {
          out.push_back({enum_hdr->path, enum_line, "journal-discipline",
                         "ReaderErrorKind::" + kind +
                             " missing from to_string() in " +
                             name_src->path});
        }
        if (src.find("return ReaderErrorKind::" + kind) ==
            std::string::npos) {
          out.push_back(
              {enum_hdr->path, enum_line, "journal-discipline",
               "ReaderErrorKind::" + kind +
                   " missing from reader_error_kind_from_string() in " +
                   name_src->path});
        }
      }
      if (health_hdr != nullptr &&
          health_hdr->content.find("ReaderErrorKind::" + kind) ==
              std::string::npos) {
        out.push_back({enum_hdr->path, enum_line, "journal-discipline",
                       "ReaderErrorKind::" + kind +
                           " not counted by HealthMetrics::count_fault in " +
                           health_hdr->path});
      }
      // The fault injector must be able to produce every error kind, or
      // the chaos harness silently stops covering it (and a journaled X
      // record of that kind could never have come from a drill).
      if (inject_src != nullptr &&
          scrub_comments(inject_src->content)
                  .find("ReaderErrorKind::" + kind) == std::string::npos) {
        out.push_back({enum_hdr->path, enum_line, "journal-discipline",
                       "ReaderErrorKind::" + kind +
                           " never injected by FaultInjectingReaderClient "
                           "in " +
                           inject_src->path});
      }
    }
  }
  // Every CSV journal implementation must keep its serializer and parser
  // record-tag tables symmetric — one-sided tags silently truncate replay.
  for (const char* journal_file :
       {"llrp/reader_journal.cpp", "llrp/fleet_journal.cpp"}) {
    const SourceFile* journal = find_file(files, journal_file);
    if (journal == nullptr) continue;
    const std::string src = scrub_comments(journal->content);
    const std::set<std::string> written = serializer_tags(src);
    const std::set<std::string> parsed = parser_tags(src);
    for (const std::string& tag : written) {
      if (parsed.count(tag) == 0) {
        out.push_back({journal->path, 1, "journal-discipline",
                       "record tag '" + tag +
                           "' is serialized but never parsed"});
      }
    }
    for (const std::string& tag : parsed) {
      if (written.count(tag) == 0) {
        out.push_back({journal->path, 1, "journal-discipline",
                       "record tag '" + tag +
                           "' is parsed but never serialized"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- scrub

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

std::size_t line_of(const std::string& text, std::size_t pos) {
  if (pos > text.size()) pos = text.size();
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

// --------------------------------------------------------------- engine

const std::vector<RuleInfo>& RuleEngine::rules() {
  static const std::vector<RuleInfo> catalog = {
      {"determinism",
       "no wall-clock/entropy/environment reads directly in journaled "
       "directories (src/core, src/sim, src/llrp, src/gen2, src/rf)"},
      {"header-pragma-once", "every header opens with #pragma once"},
      {"header-using-namespace", "no 'using namespace' in headers"},
      {"include-order",
       "own header first, then <system>, then \"project\" includes"},
      {"pipeline-reentrancy",
       "ReadingSink hooks never call execute() (re-enters the transport "
       "mid-cycle)"},
      {"journal-discipline",
       "ReaderErrorKind enumerators and journal record tags stay in sync "
       "across serializer, parser, health digest, and fault injector"},
      {"threading-discipline",
       "raw threads and mutex declarations only inside util::TaskPool; "
       "mutexes held via RAII guards, never explicit lock()/unlock()"},
      {"simd-discipline",
       "raw vector intrinsics and intrinsics headers only inside the "
       "util::simd module, which is also the only code in src/ that "
       "repoints the kernel table"},
      {"determinism-taint",
       "no journaled function reaches a wall-clock/entropy read through "
       "any call chain (interprocedural; util::WallClock is the sanctioned "
       "seam)"},
  };
  return catalog;
}

const std::vector<std::string>& RuleEngine::rule_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const RuleInfo& rule : rules()) out.push_back(rule.name);
    return out;
  }();
  return names;
}

LintReport RuleEngine::run(const std::vector<SourceFile>& files) const {
  LintReport report;
  std::vector<Finding> raw_findings;
  for (const SourceFile& file : files) {
    const std::string scrubbed = scrub_comments_and_strings(file.content);
    check_determinism(file, scrubbed, raw_findings);
    check_pragma_once(file, scrubbed, raw_findings);
    check_using_namespace(file, scrubbed, raw_findings);
    check_include_order(file, file.content, raw_findings);
    check_pipeline_reentrancy(file, scrubbed, raw_findings);
    check_threading(file, scrubbed, raw_findings);
    check_simd_discipline(file, scrubbed, raw_findings);
  }
  check_journal_discipline(files, raw_findings);

  // Whole-tree call-graph rule.
  const SymbolIndex index = build_symbol_index(files);
  const CallGraph graph = build_call_graph(index);
  check_determinism_taint(index, graph, raw_findings);

  // Apply allow() suppressions and count annotations per file.
  std::map<std::string, AllowIndex> allows;
  for (const SourceFile& file : files) {
    const auto [it, inserted] =
        allows.try_emplace(file.path, AllowIndex(file.content));
    if (inserted) {
      report.allow_annotations += it->second.annotations;
      for (const auto& [rule, count] : it->second.annotations_by_rule) {
        report.allow_annotations_by_rule[rule] += count;
      }
    }
  }
  for (Finding& f : raw_findings) {
    const auto it = allows.find(f.file);
    if (it != allows.end() && it->second.allows(f.line, f.rule)) {
      ++report.suppressions_used;
    } else {
      report.findings.push_back(std::move(f));
    }
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

}  // namespace tagwatch::lint
