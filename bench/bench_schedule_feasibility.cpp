// E7 — Fig. 15/16: schedule feasibility — per-tag IRR with 2/40 and 5/40
// targets pinned via the configuration file (isolating Phase II from the
// assessment, exactly as §7.2 does).
//
// For each case the harness prints the per-tag Phase II IRR under three
// modes: read-all, Tagwatch (greedy set-cover bitmasks), and the naive
// rate-adaptive solution (target EPCs as bitmasks).
//
// Paper shape targets (Fig. 15, 2/40): read-all ≈ 13 Hz; Tagwatch lifts the
// targets ~3.6× (to ≈47 Hz) while the rest fall ~0; naive gives ~1.8×.
// Fig. 16 (5/40): Tagwatch still ~2.2×, a couple of non-targets are
// collaterally covered, and naive drops below read-all.
//
// Paper band (exit 1 outside it): Tagwatch's target mean beats read-all's
// in both cases, and naive's falls below read-all's at 5/40.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace tagwatch;
using bench::Testbed;

namespace {

struct CaseResult {
  std::map<std::size_t, double> irr_by_tag;  // tag index -> Hz
};

/// Mean per-target Phase II IRR (Hz) of each mode in one case.
struct TargetMeans {
  double read_all = 0.0;
  double tagwatch = 0.0;
  double naive = 0.0;
};

CaseResult run_case(std::size_t n_targets, core::ScheduleMode mode,
                    std::uint64_t seed) {
  Testbed bed(40, 0, seed);  // nothing actually moves: targets are pinned
  core::TagwatchConfig cfg;
  cfg.mode = mode;
  // Pin the first n_targets tags (by world order) as "concerned" targets.
  for (std::size_t i = 0; i < n_targets; ++i) {
    cfg.pinned_targets.push_back(bed.world.tags()[i].epc);
  }
  // Raise the fallback threshold so pinning 5/40 still schedules.
  cfg.mobile_fraction_threshold = 0.5;
  core::TagwatchController ctl(cfg, bed.reader());

  const auto reports = ctl.run_cycles(10);
  CaseResult result;
  double secs = 0.0;
  std::map<util::Epc, double> reads;
  for (std::size_t c = 4; c < reports.size(); ++c) {
    secs += util::to_seconds(reports[c].phase2_duration);
    for (const auto& [epc, count] : reports[c].phase2_counts) {
      reads[epc] += static_cast<double>(count);
    }
  }
  for (std::size_t i = 0; i < bed.world.tags().size(); ++i) {
    result.irr_by_tag[i] = reads[bed.world.tags()[i].epc] / secs;
  }
  return result;
}

TargetMeans print_case(std::size_t n_targets, std::uint64_t seed,
                       bench::BenchReport& report) {
  std::printf("---- %zu targets out of 40 tags ----\n", n_targets);
  const CaseResult all =
      run_case(n_targets, core::ScheduleMode::kReadAll, seed);
  const CaseResult tw =
      run_case(n_targets, core::ScheduleMode::kGreedyCover, seed);
  const CaseResult nv =
      run_case(n_targets, core::ScheduleMode::kNaiveEpcMasks, seed);

  std::printf("%5s  %9s  %9s  %9s   %s\n", "tag", "read-all", "tagwatch",
              "naive", "role");
  double sum_all = 0.0, sum_tw = 0.0, sum_nv = 0.0;
  std::size_t collateral = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const bool target = i < n_targets;
    const bool interesting = target || tw.irr_by_tag.at(i) > 0.5;
    if (target) {
      sum_all += all.irr_by_tag.at(i);
      sum_tw += tw.irr_by_tag.at(i);
      sum_nv += nv.irr_by_tag.at(i);
    } else if (tw.irr_by_tag.at(i) > 0.5) {
      ++collateral;
    }
    if (interesting) {
      std::printf("%5zu  %9.2f  %9.2f  %9.2f   %s\n", i + 1,
                  all.irr_by_tag.at(i), tw.irr_by_tag.at(i),
                  nv.irr_by_tag.at(i),
                  target ? "target" : "collateral (covered by a bitmask)");
    }
  }
  const double n = static_cast<double>(n_targets);
  std::printf("target means: read-all %.2f Hz, tagwatch %.2f Hz (%+.0f%%), "
              "naive %.2f Hz (%+.0f%%)\n",
              sum_all / n, sum_tw / n,
              (sum_tw / sum_all - 1.0) * 100.0, sum_nv / n,
              (sum_nv / sum_all - 1.0) * 100.0);
  std::printf("collaterally covered non-targets: %zu\n\n", collateral);

  std::string label = "_";
  label += std::to_string(n_targets);
  label += "_of_40";
  report.add("readall_target_mean" + label, sum_all / n, "hz");
  report.add("tagwatch_target_mean" + label, sum_tw / n, "hz");
  report.add("naive_target_mean" + label, sum_nv / n, "hz");
  report.add("collateral_nontargets" + label,
             static_cast<double>(collateral), "count");
  return {sum_all / n, sum_tw / n, sum_nv / n};
}

}  // namespace

int main() {
  std::printf("E7 / Fig. 15-16 — schedule feasibility (targets pinned via "
              "config; Phase II IRR only)\n\n");
  bench::BenchReport report("schedule_feasibility", /*seed=*/501);
  const TargetMeans two = print_case(2, 501, report);   // Fig. 15
  const TargetMeans five = print_case(5, 502, report);  // Fig. 16
  std::printf("paper: 2/40 -> +261%% (13->47 Hz) for Tagwatch, +83%% naive;\n"
              "       5/40 -> +120%% for Tagwatch, naive below read-all.\n");
  std::printf("wrote %s\n", report.write().c_str());
  if (!(two.tagwatch > two.read_all && five.tagwatch > five.read_all &&
        five.naive < five.read_all)) {
    std::printf("FAIL: Tagwatch's target mean must beat read-all at 2/40 and "
                "5/40, and naive's must fall below read-all at 5/40\n");
    return 1;
  }
  return 0;
}
