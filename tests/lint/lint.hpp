// Project-invariant static analysis, run as the tier-1 LintSelfCheck test.
//
// clang-tidy and cppcheck see one translation unit at a time and speak
// generic C++; the invariants that make Tagwatch's record→replay guarantee
// hold are *project* rules — "no wall clock in src/", "sinks never
// re-enter the transport" — that neither tool can express.  This engine
// checks them at the file/token level; tests/test_lint.cpp pins each rule
// on fixture strings and runs every rule over the real tree.
//
// Rules (see docs/STATIC_ANALYSIS.md for the catalog and rationale):
//
//   determinism            (D) no wall-clock/entropy/environment reads
//                              anywhere in src/ except the WallClock seam
//                              (src/util/wall_clock.*), so no helper, call
//                              chain or indirect call can reach a clock
//   header-pragma-once     (H) every header starts with #pragma once
//   header-using-namespace (H) no `using namespace` in headers
//   include-order          (H) own header first, then <system>, then
//                              "project" includes
//   pipeline-reentrancy    (P) ReadingSink implementations never call
//                              execute() from on_reading/on_cycle_end
//   threading-discipline   (T) raw std::thread/std::jthread/std::async,
//                              detach() and std::*mutex declarations only
//                              inside util::TaskPool's own files (one
//                              mutex in the tree, so no acquisition-order
//                              cycle can exist); mutexes held via RAII
//                              guards, never explicit lock()/unlock()
//
// The engine is std-only and operates on in-memory SourceFile records, so
// every rule is unit-testable on fixture strings.
#pragma once

#include <cstddef>
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

/// Runs every rule over each of `files`.  Findings are ordered by
/// (file, line, rule).
std::vector<Finding> run(const std::vector<SourceFile>& files);

}  // namespace tagwatch::lint
