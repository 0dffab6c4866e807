// tagwatch_lint: project-invariant static analysis.
//
// clang-tidy and cppcheck see one translation unit at a time and speak
// generic C++; the invariants that make Tagwatch's record→replay guarantee
// hold are *project* rules — "no wall clock in a journaled path", "every
// journal record tag round-trips", "sinks never re-enter the transport" —
// that neither tool can express.  This engine checks them at the file/token
// level so they gate CI next to the industry checkers.
//
// Rules (see docs/STATIC_ANALYSIS.md for the catalog and rationale):
//
//   determinism            (D) no wall-clock/entropy/environment reads in
//                              journaled directories (src/core, src/sim,
//                              src/llrp, src/gen2, src/rf)
//   header-pragma-once     (H) every header starts with #pragma once
//   header-using-namespace (H) no `using namespace` in headers
//   include-order          (H) own header first, then <system>, then
//                              "project" includes
//   pipeline-reentrancy    (P) ReadingSink implementations never call
//                              execute() from on_reading/on_cycle_end
//   journal-discipline     (J) ReaderErrorKind enumerators and journal
//                              record tags are handled in serializer,
//                              parser, and health digest alike
//   threading-discipline   (T) raw std::thread/std::jthread/std::async,
//                              detach() and std::*mutex declarations only
//                              inside util::TaskPool's own files (one
//                              mutex in the tree, so no acquisition-order
//                              cycle can exist); mutexes held via RAII
//                              guards, never explicit lock()/unlock()
//   simd-discipline        (V) raw vector intrinsics only inside the
//                              util::simd module
//   determinism-taint      (G) whole-tree call-graph rule: a journaled
//                              function must not *reach* a wall-clock/
//                              entropy read through any chain of calls
//                              (src/util wrappers can no longer launder
//                              nondeterminism in); the WallClock seam is
//                              the one sanctioned boundary
//
// The (G) rule runs on a heuristic symbol index + call graph built over
// the full file set (symbol_index.hpp / call_graph.hpp); its model and
// blind spots are documented in docs/STATIC_ANALYSIS.md.
//
// Escape hatch: a finding on line N is suppressed when line N or N-1
// carries `// tagwatch-lint: allow(<rule>)` — meant to be rare, justified
// in an adjacent comment, and budgeted *per rule* (the self-check test
// pins an exact budget table; unlisted rules get zero).
//
// The engine is deliberately dependency-free (std only) so the lint tool
// builds in seconds on a bare CI runner, and it operates on in-memory
// SourceFile records so every rule is unit-testable on fixture strings.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace tagwatch::lint {

/// One file handed to the engine.  `path` is repo-relative with forward
/// slashes ("src/core/pipeline.cpp") — rules key off it.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One rule violation.
struct Finding {
  std::string file;
  std::size_t line = 0;  ///< 1-based.
  std::string rule;
  std::string message;
};

/// Everything one engine run produced.
struct LintReport {
  std::vector<Finding> findings;  ///< Unsuppressed violations.
  /// Findings silenced by a matching allow() annotation.
  std::size_t suppressions_used = 0;
  /// allow() annotations present in the scanned files (used or not) —
  /// the budget the self-check test enforces.
  std::size_t allow_annotations = 0;
  /// The same count broken down by rule name — the self-check test
  /// enforces a per-rule budget table, so adding a new rule can never
  /// silently dilute an existing rule's budget.
  std::map<std::string, std::size_t> allow_annotations_by_rule;
};

/// One rule's identity and one-line summary (shown by --list-rules and
/// embedded in the SARIF driver block).
struct RuleInfo {
  std::string name;
  std::string summary;
};

/// The rule engine.  Stateless between runs.
class RuleEngine {
 public:
  /// Runs every rule over `files` (per-file rules on each, cross-file
  /// and call-graph rules on the set).  Findings are ordered by
  /// (file, line, rule).
  LintReport run(const std::vector<SourceFile>& files) const;

  /// Stable rule-name list (what allow() accepts).
  static const std::vector<std::string>& rule_names();

  /// Rule catalog with one-line summaries, same order as rule_names().
  static const std::vector<RuleInfo>& rules();
};

// ------------------------------------------------------------ utilities
// Exposed for the engine's own tests; not a public API promise.

/// Blanks comment bodies (preserving newlines) so token rules do not fire
/// on prose.  String literals survive.
std::string scrub_comments(const std::string& text);

/// Blanks comments *and* string/char literal contents.
std::string scrub_comments_and_strings(const std::string& text);

/// 1-based line number of byte offset `pos` in `text`.
std::size_t line_of(const std::string& text, std::size_t pos);

}  // namespace tagwatch::lint
