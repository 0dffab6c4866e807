// The lint rule engine: every rule must trigger on its negative fixture
// and stay quiet on the conforming one, and the real tree must lint clean
// — which is what turns replay determinism from a convention into a
// machine-checked invariant.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tagwatch::lint {
namespace {

std::vector<Finding> run_one(const std::string& path,
                             const std::string& content) {
  return run({{path, content}});
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&rule](const Finding& f) { return f.rule == rule; });
}

// ------------------------------------------------------- determinism (D)

TEST(LintDeterminism, FlagsWallClockInJournaledPath) {
  const std::vector<Finding> r = run_one(
      "src/core/bad.cpp",
      "#include <chrono>\n"
      "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "determinism");
  EXPECT_EQ(r[0].line, 2u);
}

TEST(LintDeterminism, FlagsEveryForbiddenClockAndEntropySource) {
  for (const char* bad :
       {"std::chrono::system_clock::now()", "std::random_device rd",
        "std::chrono::high_resolution_clock::now()", "time(nullptr)",
        "std::rand()", "srand(7)", "getenv(\"HOME\")", "clock()",
        "clock_gettime(CLOCK_MONOTONIC, &ts)", "timespec_get(&ts, TIME_UTC)",
        "secure_getenv(\"HOME\")", "std::chrono::file_clock::now()",
        "std::chrono::utc_clock::now()", "std::chrono::tai_clock::now()",
        "std::chrono::gps_clock::now()"}) {
    SCOPED_TRACE(bad);
    const std::vector<Finding> r =
        run_one("src/gen2/bad.cpp", std::string("auto v = ") + bad + ";\n");
    EXPECT_TRUE(has_rule(r, "determinism"));
  }
}

TEST(LintDeterminism, FlagsUnseededMersenneTwister) {
  EXPECT_TRUE(has_rule(run_one("src/sim/bad.cpp", "std::mt19937 gen;\n"),
                       "determinism"));
  EXPECT_TRUE(has_rule(run_one("src/sim/bad.cpp", "std::mt19937_64 gen{};\n"),
                       "determinism"));
  EXPECT_TRUE(has_rule(run_one("src/sim/bad.cpp", "std::mt19937 gen();\n"),
                       "determinism"));
}

TEST(LintDeterminism, SeededEngineAndReferencesPass) {
  EXPECT_TRUE(run_one("src/sim/ok.cpp", "std::mt19937 gen(seed);\n")
                  .empty());
  EXPECT_TRUE(run_one("src/sim/ok.cpp", "std::mt19937_64 gen{0x5eed};\n")
                  .empty());
  EXPECT_TRUE(run_one("src/sim/ok.cpp", "void f(std::mt19937& gen);\n")
                  .empty());
}

TEST(LintDeterminism, EverySrcFileOutsideTheWallClockSeamIsInScope) {
  const std::string wall = "auto t = std::chrono::steady_clock::now();\n";
  for (const char* path :
       {"src/core/a.cpp", "src/sim/a.cpp", "src/llrp/a.cpp", "src/gen2/a.cpp",
        "src/rf/a.cpp", "src/util/x.cpp", "src/trace/a.cpp",
        "src/track/a.cpp"}) {
    SCOPED_TRACE(path);
    const std::vector<Finding> r = run_one(path, wall);
    ASSERT_TRUE(has_rule(r, "determinism"));
    EXPECT_NE(r[0].message.find("util::WallClock"),
              std::string::npos);
  }
  // The WallClock seam is the one sanctioned clock read; tools, tests,
  // benches and examples run off the record→replay path.
  for (const char* path :
       {"src/util/wall_clock.cpp", "src/util/wall_clock.hpp", "tools/cli.cpp",
        "tests/test_x.cpp", "bench/bench_x.cpp", "examples/demo.cpp"}) {
    SCOPED_TRACE(path);
    EXPECT_FALSE(has_rule(run_one(path, wall), "determinism"));
  }
}

/// A src/util helper wrapping a clock read, called from src/core.
std::vector<SourceFile> clock_helper_fixture(const std::string& caller_body) {
  return {
      {"src/util/time_helpers.cpp",
       "namespace tagwatch::util {\n"
       "double now_ms() {\n"
       "  return std::chrono::duration<double, std::milli>(\n"
       "      std::chrono::steady_clock::now().time_since_epoch()).count();\n"
       "}\n"
       "}  // namespace tagwatch::util\n"},
      {"src/core/rate_scheduler.cpp",
       "namespace tagwatch::core {\n"
       "void RateScheduler::tick() {\n" +
           caller_body +
           "}\n"
           "}  // namespace tagwatch::core\n"},
  };
}

TEST(LintDeterminism, IndirectCallsCannotHideAClockRead) {
  // However src/core reaches the helper — directly or through a function
  // pointer, std::function or virtual dispatch — the read itself is the
  // finding, so no call-graph blind spot can hide it.
  for (const std::string& body :
       {std::string("  last_ms_ = util::now_ms();\n"),
        std::string("  double (*f)() = &util::now_ms;\n"
                    "  last_ms_ = f();\n")}) {
    SCOPED_TRACE(body);
    const std::vector<Finding> r = run(clock_helper_fixture(body));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].rule, "determinism");
    EXPECT_EQ(r[0].file, "src/util/time_helpers.cpp");
    EXPECT_EQ(r[0].line, 4u);
  }
}

TEST(LintDeterminism, WordBoundariesAndCommentsDoNotTrigger) {
  // advance_time( and clock_-> are not the forbidden identifiers, and
  // prose in comments/strings never counts.
  const std::vector<Finding> r = run_one(
      "src/core/ok.cpp",
      "// steady_clock would be wrong here\n"
      "const char* s = \"system_clock\";\n"
      "void advance_time(int);\n"
      "auto v = clock_->now_seconds();\n");
  EXPECT_TRUE(r.empty());
}

// ----------------------------------------------------- header hygiene (H)

TEST(LintHeaderHygiene, MissingPragmaOnceIsFlagged) {
  const std::vector<Finding> r =
      run_one("src/util/bad.hpp", "#include <vector>\nint x;\n");
  EXPECT_TRUE(has_rule(r, "header-pragma-once"));
}

TEST(LintHeaderHygiene, CommentBeforePragmaOnceIsFine) {
  const std::vector<Finding> r = run_one("src/util/ok.hpp",
                               "// License header prose.\n"
                               "#pragma once\n"
                               "#include <vector>\n");
  EXPECT_TRUE(r.empty());
}

TEST(LintHeaderHygiene, SourcesNeedNoPragmaOnce) {
  EXPECT_TRUE(run_one("src/util/ok.cpp", "int x;\n").empty());
}

TEST(LintHeaderHygiene, UsingNamespaceInHeaderIsFlagged) {
  const std::vector<Finding> r = run_one("src/util/bad.hpp",
                               "#pragma once\nusing namespace std;\n");
  EXPECT_TRUE(has_rule(r, "header-using-namespace"));
}

TEST(LintHeaderHygiene, UsingDeclarationAndCppFilesPass) {
  EXPECT_TRUE(run_one("src/util/ok.hpp",
                      "#pragma once\nusing std::vector;\n")
                  .empty());
  EXPECT_TRUE(
      run_one("tools/ok.cpp", "using namespace tagwatch;\n").empty());
}

TEST(LintIncludeOrder, SystemAfterProjectIsFlagged) {
  const std::vector<Finding> r = run_one("src/core/bad.cpp",
                               "#include \"core/other.hpp\"\n"
                               "#include <vector>\n");
  ASSERT_TRUE(has_rule(r, "include-order"));
  EXPECT_EQ(r[0].line, 2u);
}

TEST(LintIncludeOrder, OwnHeaderThenSystemThenProjectPasses) {
  const std::vector<Finding> r = run_one("src/core/foo.cpp",
                               "#include \"core/foo.hpp\"\n"
                               "#include <vector>\n"
                               "#include \"util/stats.hpp\"\n");
  EXPECT_TRUE(r.empty());
}

TEST(LintIncludeOrder, HeaderUnderTestLeadsInTestFiles) {
  const std::vector<Finding> r = run_one("tests/test_foo.cpp",
                               "#include \"util/foo.hpp\"\n"
                               "#include <gtest/gtest.h>\n"
                               "#include \"util/other.hpp\"\n");
  EXPECT_TRUE(r.empty());
}

// --------------------------------------------------- pipeline safety (P)

TEST(LintPipelineReentrancy, ExecuteInsideSinkHookIsFlagged) {
  const std::vector<Finding> r = run_one(
      "src/core/bad_sink.cpp",
      "bool BadSink::on_reading(const rf::TagReading& r,\n"
      "                         const ReadingContext&) {\n"
      "  client_->execute(spec);\n"
      "  return true;\n"
      "}\n");
  ASSERT_TRUE(has_rule(r, "pipeline-reentrancy"));
  EXPECT_EQ(r[0].line, 3u);
}

TEST(LintPipelineReentrancy, CycleEndHookIsCoveredToo) {
  const std::vector<Finding> r = run_one(
      "tests/bad_sink.cpp",
      "void BadSink::on_cycle_end(const CycleReport&) {\n"
      "  reader.execute(respec);\n"
      "}\n");
  EXPECT_TRUE(has_rule(r, "pipeline-reentrancy"));
}

TEST(LintPipelineReentrancy, ExecuteOutsideHooksAndDeclarationsPass) {
  const std::vector<Finding> r = run_one(
      "src/core/ok.cpp",
      "bool on_reading(const rf::TagReading&, const ReadingContext&) "
      "override;\n"
      "void run() { client_->execute(spec); }\n"
      "bool OkSink::on_reading(const rf::TagReading&,\n"
      "                        const ReadingContext&) {\n"
      "  return executor_.enqueue(r);\n"
      "}\n");
  EXPECT_TRUE(r.empty());
}

// --------------------------------------------- threading-discipline (T)

TEST(LintThreading, FlagsRawStdThreadPrimitives) {
  EXPECT_TRUE(has_rule(run_one("src/core/bad.cpp",
                               "std::thread t([] { work(); });\n"),
                       "threading-discipline"));
  EXPECT_TRUE(has_rule(run_one("src/core/bad.cpp",
                               "std::jthread t([] { work(); });\n"),
                       "threading-discipline"));
  EXPECT_TRUE(has_rule(
      run_one("src/core/bad.cpp",
              "auto f = std::async(std::launch::async, work);\n"),
      "threading-discipline"));
}

TEST(LintThreading, UnqualifiedNamesAreNotFlagged) {
  // `thread` / `async` are ordinary identifiers without the std:: prefix.
  EXPECT_TRUE(run_one("src/core/ok.cpp",
                      "int thread = 0;\nbool async = launch(thread);\n")
                  .empty());
}

TEST(LintThreading, FlagsDetachAndExplicitLockCalls) {
  EXPECT_TRUE(has_rule(run_one("src/core/bad.cpp", "worker.detach();\n"),
                       "threading-discipline"));
  EXPECT_TRUE(has_rule(run_one("src/core/bad.cpp", "mutex_.lock();\n"),
                       "threading-discipline"));
  EXPECT_TRUE(has_rule(run_one("src/core/bad.cpp", "guard->unlock ();\n"),
                       "threading-discipline"));
}

TEST(LintThreading, RaiiGuardsAndNonCallUsesAreNotFlagged) {
  // RAII guards name the lock types, never call lock()/unlock() members.
  EXPECT_TRUE(run_one("src/core/ok.cpp",
                      "std::lock_guard<std::mutex> guard(mutex_);\n"
                      "std::scoped_lock all(a_, b_);\n")
                  .empty());
  // Member *named* lock but not called; free function detach(x).
  EXPECT_TRUE(run_one("src/core/ok.cpp",
                      "auto fn = obj.lock;\ndetach(worker);\n")
                  .empty());
}

TEST(LintThreading, TaskPoolFilesAreExempt) {
  const char* body = "std::thread t([] {});\nmutex_.lock();\n";
  EXPECT_TRUE(run_one("src/util/task_pool.cpp", body).empty());
  // (has_rule, not empty(): the header rules still apply to a
  // fixture .hpp with no #pragma once — only the T rule is exempt.)
  EXPECT_FALSE(has_rule(run_one("src/util/task_pool.hpp", body),
                        "threading-discipline"));
  EXPECT_TRUE(has_rule(run_one("src/util/other.cpp", body),
                       "threading-discipline"));
}

TEST(LintThreading, MutexDeclaredOutsideTaskPoolIsFlagged) {
  const char* member = "class Cache {\n  std::mutex mutex_;\n};\n";
  const std::vector<Finding> r = run_one("src/core/cache.cpp", member);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "threading-discipline");
  EXPECT_EQ(r[0].line, 2u);
  for (const char* type : {"recursive_mutex", "shared_mutex", "timed_mutex"}) {
    SCOPED_TRACE(type);
    const std::string decl = "static std::" + std::string(type) + " m;\n";
    EXPECT_TRUE(has_rule(run_one("src/core/cache.cpp", decl),
                         "threading-discipline"));
  }
}

TEST(LintThreading, MutexInTaskPoolCommentOrStringIsNotFlagged) {
  const char* member = "class TaskPool {\n  std::mutex mutex_;\n};\n";
  EXPECT_TRUE(run_one("src/util/task_pool.cpp", member).empty());
  const char* comment = "// a std::mutex member is flagged\n";
  EXPECT_TRUE(run_one("src/core/cache.cpp", comment).empty());
  const char* literal = "const char* s = \"std::mutex m;\";\n";
  EXPECT_TRUE(run_one("src/core/cache.cpp", literal).empty());
}

// ------------------------------------------------------------- engine

TEST(LintEngine, FindingsAreSortedByFileLineRule) {
  const std::vector<Finding> r = run({
      {"src/core/z.cpp", "#include \"a.hpp\"\n#include <b>\n"},
      {"src/core/a.cpp",
       "auto t = std::chrono::steady_clock::now();\n"
       "auto u = std::chrono::steady_clock::now();\n"},
  });
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].file, "src/core/a.cpp");
  EXPECT_EQ(r[0].line, 1u);
  EXPECT_EQ(r[1].line, 2u);
  EXPECT_EQ(r[2].file, "src/core/z.cpp");
}

// ------------------------------------------------------ tree self-check

#ifdef TAGWATCH_SOURCE_DIR

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every .cpp/.hpp under the five project directories, root-relative.
std::vector<SourceFile> load_tree() {
  namespace fs = std::filesystem;
  const fs::path root = TAGWATCH_SOURCE_DIR;
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tests", "tools", "examples", "bench"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    files.push_back({fs::relative(p, root).generic_string(), slurp(p)});
  }
  return files;
}

TEST(LintSelfCheck, RealTreeLintsClean) {
  const std::vector<SourceFile> files = load_tree();
  ASSERT_GT(files.size(), 100u) << "tree walk found suspiciously few files";
  for (const Finding& f : run(files)) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

#endif  // TAGWATCH_SOURCE_DIR

}  // namespace
}  // namespace tagwatch::lint
