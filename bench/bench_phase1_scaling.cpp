// Phase-I ingestion scaling — the ParallelAssessor engine across thread
// counts.
//
// Measures the full Phase-I ingestion path as the controller drives it:
// readings flow through a ReadingPipeline into the assessor sink one batch
// per window (dispatch_batch()), a window opens, every reading is
// ingested, the window is assessed.  The engine promises identical output
// for any thread count, so the threads = 1 run is the in-bench reference:
// any divergence from it aborts the run, so a speedup can never be bought
// with a wrong answer.
//
// Headline metric: ingest_speedup_at_4_threads (4 threads vs 1) on the
// 4,096-tag scene.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/parallel_assessor.hpp"
#include "core/pipeline.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

using namespace tagwatch;

namespace {

constexpr std::size_t kWindows = 2;
constexpr std::size_t kReadingsPerTag = 16;  // Per window, over 4 ant × 16 ch.
constexpr int kReps = 3;

/// One window's synthetic inventory: kReadingsPerTag reads per tag in a
/// shuffled tag order, spread over 4 antennas and 16 channels.
std::vector<std::vector<rf::TagReading>> make_windows(std::size_t n_tags,
                                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::Epc> epcs;
  epcs.reserve(n_tags);
  for (std::size_t i = 0; i < n_tags; ++i) {
    epcs.push_back(util::Epc::from_serial(i + 1));
  }
  std::vector<std::vector<rf::TagReading>> windows(kWindows);
  util::SimTime t = util::msec(1);
  for (auto& window : windows) {
    window.reserve(n_tags * kReadingsPerTag);
    for (std::size_t pass = 0; pass < kReadingsPerTag; ++pass) {
      for (std::size_t i = 0; i < n_tags; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_u64(0, n_tags - 1));
        t += util::usec(3);
        rf::TagReading r;
        r.epc = epcs[pick];
        r.antenna = static_cast<rf::AntennaId>(1 + (pass % 4));
        r.channel = (pick + pass) % 16;
        r.phase_rad = rng.uniform(0.0, 6.283185307179586);
        r.rssi_dbm = rng.uniform(-70.0, -40.0);
        r.timestamp = t;
        window.push_back(r);
      }
    }
  }
  return windows;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void require_equal(const std::vector<core::TagAssessment>& reference,
                   const std::vector<core::TagAssessment>& got) {
  if (got.size() != reference.size()) {
    std::fprintf(stderr, "FATAL: assessment count diverged (%zu vs %zu)\n",
                 got.size(), reference.size());
    std::abort();
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!(got[i].epc == reference[i].epc) ||
        got[i].window_readings != reference[i].window_readings ||
        got[i].moving_votes != reference[i].moving_votes ||
        got[i].mobile != reference[i].mobile) {
      std::fprintf(stderr, "FATAL: assessment %zu diverged for %s\n", i,
                   reference[i].epc.to_hex().c_str());
      std::abort();
    }
  }
}

/// Runs the engine once; returns elapsed seconds.  With `reference`
/// empty it captures the per-window assessments into it, otherwise it
/// requires equality with them.
double run_engine(const std::vector<std::vector<rf::TagReading>>& windows,
                  std::size_t threads,
                  std::vector<std::vector<core::TagAssessment>>& reference) {
  const bool capture = reference.empty();
  core::ParallelAssessor assessor({}, threads);
  core::ReadingPipeline pipeline;
  pipeline.add_sink(std::make_shared<core::ParallelAssessorSink>(assessor));
  const double t0 = now_seconds();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    assessor.begin_window();
    pipeline.dispatch_batch(windows[w], {0, core::ReadPhase::kPhase1});
    const auto& result = assessor.assess(windows[w].back().timestamp);
    if (capture) {
      reference.push_back(result);
    } else {
      require_equal(reference[w], result);
    }
  }
  return now_seconds() - t0;
}

}  // namespace

int main() {
  std::printf("Phase-I ingestion scaling — batched ParallelAssessor vs "
              "thread count\n");
  std::printf("(%zu windows, %zu readings/tag/window; min of %d reps; "
              "output equal to threads = 1 asserted)\n\n",
              kWindows, kReadingsPerTag, kReps);
  std::printf("%8s  %10s  %12s  %8s\n", "tags", "threads", "engine ms",
              "speedup");

  bench::BenchReport report("phase1_scaling", /*seed=*/4096);
  for (const std::size_t n_tags : {std::size_t{256}, std::size_t{1024},
                                   std::size_t{4096}}) {
    const auto windows = make_windows(n_tags, 4096 + n_tags);
    // Filled by the first threads = 1 run; every later run must match it.
    std::vector<std::vector<core::TagAssessment>> reference;
    double one_thread_best = 0.0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      double engine_best = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        engine_best = std::min(engine_best,
                               run_engine(windows, threads, reference));
      }
      if (threads == 1) one_thread_best = engine_best;
      const double speedup = one_thread_best / engine_best;
      std::printf("%8zu  %10zu  %12.2f  %7.2fx\n", n_tags, threads,
                  engine_best * 1e3, speedup);
      const std::string key =
          std::to_string(n_tags) + "_t" + std::to_string(threads);
      report.add("engine_ms_" + key, engine_best * 1e3, "ms");
      report.add("speedup_" + key, speedup, "ratio");
    }
  }

  // The headline: 4 threads vs 1 on the 4,096-tag scene.
  report.add("ingest_speedup_at_4_threads",
             report.value_of("speedup_4096_t4"), "ratio");
  std::printf("\ningest_speedup_at_4_threads (4096 tags): %.2fx\n",
              report.value_of("ingest_speedup_at_4_threads"));
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
