// The whole-tree call-graph rule: determinism taint must chase a clock
// read through any chain of src/ helpers into a journaled function (and
// stay quiet when the same helper is only used off-line).  The known
// blind spots of the heuristic symbol index — function pointers, virtual
// dispatch by name — are pinned as tests too, so a future "fix" that
// changes them is loud.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "lint/call_graph.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "lint/symbol_index.hpp"

namespace tagwatch::lint {
namespace {

LintReport run_files(const std::vector<SourceFile>& files) {
  const RuleEngine engine;
  return engine.run(files);
}

std::vector<Finding> findings_of(const LintReport& report,
                                 const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// ------------------------------------------------------- symbol index

TEST(LintSymbolIndex, FindsDefinitionsAndCallSites) {
  const SymbolIndex index = build_symbol_index({
      {"src/util/widget.cpp",
       "namespace tagwatch::util {\n"
       "int helper(int v) { return v + 1; }\n"
       "int Widget::poke() { return helper(2); }\n"
       "}  // namespace tagwatch::util\n"},
  });
  ASSERT_EQ(index.functions.size(), 2u);
  EXPECT_EQ(index.functions[0].name, "helper");
  EXPECT_EQ(index.functions[0].qualified, "tagwatch::util::helper");
  EXPECT_EQ(index.functions[1].name, "poke");
  EXPECT_EQ(index.functions[1].qualified, "tagwatch::util::Widget::poke");
  ASSERT_EQ(index.calls_by_function.size(), 2u);
  ASSERT_EQ(index.calls_by_function[1].size(), 1u);
  EXPECT_EQ(index.calls[index.calls_by_function[1][0]].callee_name, "helper");
}

TEST(LintCallGraph, ResolvesCallsAndBuildsReverseEdges) {
  const SymbolIndex index = build_symbol_index({
      {"src/util/widget.cpp",
       "namespace tagwatch::util {\n"
       "int helper(int v) { return v + 1; }\n"
       "int Widget::poke() { return helper(2); }\n"
       "}  // namespace tagwatch::util\n"},
  });
  const CallGraph graph = build_call_graph(index);
  ASSERT_EQ(graph.edges.size(), 2u);
  ASSERT_EQ(graph.edges[1].size(), 1u);
  EXPECT_EQ(graph.edges[1][0].callee, 0u);
  ASSERT_EQ(graph.reverse[0].size(), 1u);
  EXPECT_EQ(graph.reverse[0][0].callee, 1u);  // Reverse: field is caller.
}

// -------------------------------------------------- determinism-taint

/// The laundering fixture from the acceptance criteria: a journaled
/// scheduler calls a src/util wrapper around system_clock::now().
std::vector<SourceFile> laundering_fixture() {
  return {
      {"src/util/time_helpers.cpp",
       "namespace tagwatch::util {\n"
       "double now_ms() {\n"
       "  return std::chrono::duration<double, std::milli>(\n"
       "      std::chrono::system_clock::now().time_since_epoch()).count();\n"
       "}\n"
       "}  // namespace tagwatch::util\n"},
      {"src/core/rate_scheduler.cpp",
       "namespace tagwatch::core {\n"
       "void RateScheduler::tick() {\n"
       "  last_ms_ = util::now_ms();\n"
       "}\n"
       "}  // namespace tagwatch::core\n"},
  };
}

TEST(LintTaint, JournaledFunctionCallingUtilClockWrapperIsFlagged) {
  const LintReport r = run_files(laundering_fixture());
  const std::vector<Finding> taint = findings_of(r, "determinism-taint");
  ASSERT_EQ(taint.size(), 1u);
  EXPECT_EQ(taint[0].file, "src/core/rate_scheduler.cpp");
  EXPECT_EQ(taint[0].line, 3u);  // The call site, not the clock read.
  // The message names the journaled function, the laundering callee, the
  // full chain, and the concrete source with file:line.
  EXPECT_NE(taint[0].message.find("tagwatch::core::RateScheduler::tick"),
            std::string::npos);
  EXPECT_NE(taint[0].message.find(
                "tagwatch::core::RateScheduler::tick -> "
                "tagwatch::util::now_ms"),
            std::string::npos);
  EXPECT_NE(taint[0].message.find("system_clock"), std::string::npos);
  EXPECT_NE(taint[0].message.find("src/util/time_helpers.cpp:4"),
            std::string::npos);
  // The wrapper itself sits outside the journaled set, so the direct
  // rule stays quiet — the taint rule is what closes this hole.
  EXPECT_TRUE(findings_of(r, "determinism").empty());
}

TEST(LintTaint, SameWrapperUsedOnlyOfflineIsNotFlagged) {
  // tools/ (and tests/, bench/) run off the record→replay path; a clock
  // wrapper consumed only there is fine.
  const LintReport r = run_files({
      laundering_fixture()[0],
      {"tools/print_time.cpp",
       "int main() {\n"
       "  std::printf(\"%f\\n\", tagwatch::util::now_ms());\n"
       "}\n"},
  });
  EXPECT_TRUE(findings_of(r, "determinism-taint").empty());
}

TEST(LintTaint, MultiHopChainIsReportedEndToEnd) {
  const LintReport r = run_files({
      {"src/util/env_budget.cpp",
       "namespace tagwatch::util {\n"
       "double env_scale() {\n"
       "  const char* v = std::getenv(\"TAGWATCH_SCALE\");\n"
       "  return v != nullptr ? 2.0 : 1.0;\n"
       "}\n"
       "double scaled_budget() { return 100.0 * env_scale(); }\n"
       "}  // namespace tagwatch::util\n"},
      {"src/core/planner.cpp",
       "namespace tagwatch::core {\n"
       "double plan_budget() { return util::scaled_budget(); }\n"
       "}  // namespace tagwatch::core\n"},
  });
  const std::vector<Finding> taint = findings_of(r, "determinism-taint");
  ASSERT_EQ(taint.size(), 1u);
  EXPECT_EQ(taint[0].file, "src/core/planner.cpp");
  EXPECT_NE(taint[0].message.find(
                "tagwatch::core::plan_budget -> "
                "tagwatch::util::scaled_budget -> tagwatch::util::env_scale"),
            std::string::npos);
  EXPECT_NE(taint[0].message.find("getenv"), std::string::npos);
}

TEST(LintTaint, SanctionedWallClockSeamIsNeitherSourceNorPropagator) {
  const LintReport r = run_files({
      {"src/util/wall_clock.cpp",
       "namespace tagwatch::util {\n"
       "double SystemWallClock::now_seconds() {\n"
       "  return std::chrono::duration<double>(\n"
       "      std::chrono::system_clock::now().time_since_epoch()).count();\n"
       "}\n"
       "}  // namespace tagwatch::util\n"},
      {"src/core/cycle_timer.cpp",
       "namespace tagwatch::core {\n"
       "double CycleTimer::sample() { return clock_->now_seconds(); }\n"
       "}  // namespace tagwatch::core\n"},
  });
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintTaint, DirectReadInJournaledDirIsTheDirectRulesFinding) {
  // A function that reads the clock *itself* in a journaled dir is rule
  // `determinism`'s finding; the taint rule owns only laundering edges,
  // so the two rules never double-report one defect.
  const LintReport r = run_files({
      {"src/core/bad_direct.cpp",
       "namespace tagwatch::core {\n"
       "double read_clock() {\n"
       "  return std::chrono::duration<double>(\n"
       "      std::chrono::system_clock::now().time_since_epoch()).count();\n"
       "}\n"
       "}  // namespace tagwatch::core\n"},
  });
  EXPECT_FALSE(findings_of(r, "determinism").empty());
  EXPECT_TRUE(findings_of(r, "determinism-taint").empty());
}

TEST(LintTaint, QualifiedCallsPickTheRightOverloadSet) {
  const std::vector<SourceFile> shared = {
      {"src/util/stamp.cpp",
       "namespace tagwatch::diag {\n"
       "long stamp() { return time(nullptr); }\n"
       "}  // namespace tagwatch::diag\n"
       "namespace tagwatch::fmt {\n"
       "long stamp() { return 42; }\n"
       "}  // namespace tagwatch::fmt\n"},
  };
  // Qualified call to the clean namespace: no taint.
  {
    std::vector<SourceFile> files = shared;
    files.push_back({"src/core/uses_clean.cpp",
                     "namespace tagwatch::core {\n"
                     "long tag() { return fmt::stamp(); }\n"
                     "}  // namespace tagwatch::core\n"});
    EXPECT_TRUE(
        findings_of(run_files(files), "determinism-taint").empty());
  }
  // Qualified call to the tainted namespace: flagged.
  {
    std::vector<SourceFile> files = shared;
    files.push_back({"src/core/uses_dirty.cpp",
                     "namespace tagwatch::core {\n"
                     "long tag() { return diag::stamp(); }\n"
                     "}  // namespace tagwatch::core\n"});
    const std::vector<Finding> taint =
        findings_of(run_files(files), "determinism-taint");
    ASSERT_EQ(taint.size(), 1u);
    EXPECT_EQ(taint[0].file, "src/core/uses_dirty.cpp");
    EXPECT_NE(taint[0].message.find("tagwatch::diag::stamp"),
              std::string::npos);
  }
}

TEST(LintTaint, AllowAnnotationSuppressesALaunderingFinding) {
  std::vector<SourceFile> files = laundering_fixture();
  files[1].content =
      "namespace tagwatch::core {\n"
      "void RateScheduler::tick() {\n"
      "  last_ms_ = util::now_ms();"
      "  // tagwatch-lint: allow(determinism-taint)\n"
      "}\n"
      "}  // namespace tagwatch::core\n";
  const LintReport r = run_files(files);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressions_used, 1u);
  ASSERT_EQ(r.allow_annotations_by_rule.count("determinism-taint"), 1u);
  EXPECT_EQ(r.allow_annotations_by_rule.at("determinism-taint"), 1u);
}

// ------------------------------------------- documented blind spots

TEST(LintTaintLimitations, FunctionPointerIndirectionIsInvisible) {
  // Calls through function pointers / std::function never appear in the
  // call graph (documented under-approximation, docs/STATIC_ANALYSIS.md):
  // the indirection below reaches std::rand but produces no finding.
  // If the indexer ever learns to see through this, the docs and this
  // test must change together.
  const LintReport r = run_files({
      {"src/util/jitter.cpp",
       "namespace tagwatch::util {\n"
       "double jitter() { return static_cast<double>(std::rand()); }\n"
       "}  // namespace tagwatch::util\n"},
      {"src/core/indirect.cpp",
       "namespace tagwatch::core {\n"
       "void Poller::run() {\n"
       "  double (*f)() = &util::jitter;\n"
       "  value_ = f();\n"
       "}\n"
       "}  // namespace tagwatch::core\n"},
  });
  EXPECT_TRUE(findings_of(r, "determinism-taint").empty());
}

TEST(LintTaintLimitations, VirtualDispatchResolvesByNameToAllImpls) {
  // Method calls resolve by name to every same-named definition — an
  // over-approximation: the caller below is flagged because *one*
  // now_s() implementation is tainted, even though the runtime object
  // might be the fake.  Safe direction for a determinism gate; renaming
  // the fake's method or sanctioning the impl file is the way out.
  const LintReport r = run_files({
      {"src/util/clock_impls.cpp",
       "namespace tagwatch::util {\n"
       "double FakeClock::now_s() { return 42.0; }\n"
       "double RealClock::now_s() {\n"
       "  return std::chrono::duration<double>(\n"
       "      std::chrono::system_clock::now().time_since_epoch()).count();\n"
       "}\n"
       "}  // namespace tagwatch::util\n"},
      {"src/core/polling.cpp",
       "namespace tagwatch::core {\n"
       "void Ctrl::step() { t_ = clock_->now_s(); }\n"
       "}  // namespace tagwatch::core\n"},
  });
  const std::vector<Finding> taint = findings_of(r, "determinism-taint");
  ASSERT_EQ(taint.size(), 1u);
  EXPECT_NE(taint[0].message.find("tagwatch::util::RealClock::now_s"),
            std::string::npos);
}

// --------------------------------------------------------------- SARIF

TEST(LintSarif, EscapesJsonStringBodies) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(LintSarif, LogCarriesSchemaDriverRulesAndResults) {
  const LintReport r = run_files(laundering_fixture());
  ASSERT_EQ(r.findings.size(), 1u);
  const std::string sarif = to_sarif(r.findings);
  EXPECT_NE(sarif.find("\"$schema\": "
                       "\"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"tagwatch_lint\""), std::string::npos);
  // Every rule appears in the driver block even on a one-finding log.
  for (const RuleInfo& rule : RuleEngine::rules()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + rule.name + "\""),
              std::string::npos);
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"determinism-taint\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/rate_scheduler.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
}

TEST(LintSarif, EmptyRunStillListsTheRuleCatalog) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"determinism-taint\""), std::string::npos);
}

}  // namespace
}  // namespace tagwatch::lint
