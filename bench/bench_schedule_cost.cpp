// E8 — Fig. 17: scheduling cost — the extra latency Tagwatch inserts
// between the last Phase I reading and the first Phase II reading
// (motion assessment + bitmask selection + Select delivery).
//
// The harness runs many cycles, slices the inter-phase gap per cycle, and
// prints its CDF plus the wall-clock compute time of assessment+set-cover.
//
// Paper shape targets: ≤4 ms extra in 50% of cycles, ≤6 ms in 90% —
// negligible against the 5 s cycle.  (Our gap additionally includes the
// Select air time and the round start-up, which the paper's reader hides
// inside its own Phase II start; the compute-only column is the direct
// comparison.)
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace tagwatch;
using bench::Testbed;

int main() {
  // Population: 60 tags, 3 movers.  Enough cycles for a stable CDF; the
  // paper slices 50,000 cycles, we use 400 (the distribution stabilizes
  // after a few dozen).
  constexpr std::size_t kCycles = 400;
  Testbed bed(60, 3, 801);
  core::TagwatchConfig cfg;
  cfg.phase2_duration = util::msec(500);  // short cycles: more samples
  core::TagwatchController ctl(cfg, bed.reader());

  std::vector<double> gap_ms;
  std::vector<double> compute_ms;
  for (std::size_t c = 0; c < kCycles; ++c) {
    const core::CycleReport r = ctl.run_cycle();
    if (c < 10 || r.read_all_fallback) continue;  // warm-up / fallback
    if (r.interphase_gap) {
      gap_ms.push_back(util::to_millis(*r.interphase_gap));
    }
    compute_ms.push_back(r.schedule_compute_ms);
  }

  std::printf("E8 / Fig. 17 — scheduling cost over %zu selective cycles\n\n",
              gap_ms.size());
  std::printf("assessment + set-cover compute (wall clock):\n");
  std::printf("  P50 = %.3f ms   P90 = %.3f ms   P99 = %.3f ms\n\n",
              util::percentile(compute_ms, 0.5),
              util::percentile(compute_ms, 0.9),
              util::percentile(compute_ms, 0.99));

  std::printf("inter-phase gap (last Phase I read -> first Phase II read),\n"
              "including Select air time and round start-up:\n");
  std::printf("%10s  %s\n", "gap (ms)", "CDF");
  for (const auto& point : util::empirical_cdf(gap_ms, 12)) {
    std::printf("%10.2f  %.2f\n", point.value, point.cumulative_fraction);
  }
  std::printf("\n  P50 = %.2f ms   P90 = %.2f ms\n",
              util::percentile(gap_ms, 0.5), util::percentile(gap_ms, 0.9));
  std::printf("\npaper: <= 4 ms at P50, <= 6 ms at P90 for the "
              "compute-induced slice of the gap.\n");

  bench::BenchReport report("schedule_cost", /*seed=*/801);
  report.add("compute_p50", util::percentile(compute_ms, 0.5), "ms");
  report.add("compute_p90", util::percentile(compute_ms, 0.9), "ms");
  report.add("compute_p99", util::percentile(compute_ms, 0.99), "ms");
  report.add("gap_p50", util::percentile(gap_ms, 0.5), "ms");
  report.add("gap_p90", util::percentile(gap_ms, 0.9), "ms");
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
