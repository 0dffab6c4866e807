// Whole-tree C++ symbol index — the substrate for cross-file analyses.
//
// A heuristic, token-level parse (std-only, same zero-dependency
// constraint as the rest of src/lint): it discovers function and method
// *definitions* by scanning for `name(params) ... {` at namespace/class
// scope with a scope stack supplying qualification, and records every
// `identifier(` *call site* inside each body.  It is deliberately not a
// compiler:
//
//   - overloads share a name and are merged conservatively downstream;
//   - virtual calls resolve by method name to every same-named method
//     (an over-approximation — safe for taint, noisy only if names
//     collide);
//   - calls through function pointers / std::function are invisible
//     (an under-approximation, documented in docs/STATIC_ANALYSIS.md
//     and pinned by a limitations test);
//   - operator overloads and lambdas are not indexed as definitions
//     (calls inside a lambda body are attributed to the enclosing
//     function, which is the conservative choice for taint).
//
// That trade keeps the indexer a few hundred lines, fast enough to run
// on every file of the tree inside the CI lint budget (< 10 s), and
// wrong only in directions the downstream rules tolerate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace tagwatch::lint {

/// One function or method definition.
struct FunctionDef {
  std::string name;       ///< Simple name ("dispatch").
  /// Best-effort fully qualified name from the enclosing namespace/class
  /// scopes plus any written qualifiers
  /// ("tagwatch::core::ReadingPipeline::dispatch").
  std::string qualified;
  std::string file;            ///< Repo-relative path.
  std::size_t file_index = 0;  ///< Into the files vector handed to build.
  std::size_t line = 0;        ///< 1-based, of the name token.
  std::size_t body_begin = 0;  ///< Offset of '{' in the scrubbed text.
  std::size_t body_end = 0;    ///< One past the matching '}'.
};

/// One call site inside a function body.
struct CallSite {
  std::size_t caller = 0;    ///< Index into SymbolIndex::functions.
  std::string callee_text;   ///< As written, qualifiers kept ("util::f").
  std::string callee_name;   ///< Last component ("f").
  bool member_access = false;  ///< obj.f(...) / ptr->f(...).
  std::size_t pos = 0;       ///< Offset in the scrubbed file.
  std::size_t line = 0;      ///< 1-based.
};

/// The index: definitions, call sites, and the scrubbed text each was
/// found in (comments and string/char literals blanked, offsets stable).
struct SymbolIndex {
  std::vector<FunctionDef> functions;
  std::vector<CallSite> calls;
  /// calls_by_function[f] = indices into `calls`, in body order.
  std::vector<std::vector<std::size_t>> calls_by_function;
  /// scrubbed[file_index] mirrors the input files vector.
  std::vector<std::string> scrubbed;
};

/// Builds the index over `files`.  Deterministic: output order follows
/// input order, then position.
SymbolIndex build_symbol_index(const std::vector<SourceFile>& files);

}  // namespace tagwatch::lint
