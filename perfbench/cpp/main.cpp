// Whole-cycle Tagwatch benchmark driver.
//
//   tagwatch_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1>
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
// a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tagwatch_perfbench: %s\nusage: tagwatch_perfbench --workload "
               "<paper_turntable|shelf_replay|fleet_conveyor> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) {
    usage("--workload and --seed are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  const std::string out_dir = ".bench_out";
  if (opt.trace) {
    opt.trace_path = out_dir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json";
  }

  perfbench::Result result;
  try {
    if (opt.trace) std::filesystem::create_directories(out_dir);
    result = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tagwatch_perfbench: %s\n", e.what());
    return 3;
  }

  std::fprintf(stderr, "%s seed %llu: %llu timed cycles\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(result.attempted));
  if (opt.trace) {
    std::fprintf(stderr, "  spans written to %s\n", opt.trace_path.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!result.correct) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", result.failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
