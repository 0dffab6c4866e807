// Reading-rate metrics for upper applications.
//
// Surveillance applications reason about per-tag sampling rates ("is this
// tag being read often enough to track it?").  IrrMonitor maintains a
// sliding-window count of readings per tag and reports instantaneous IRRs,
// the quantity all of the paper's evaluation figures are built on.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "gen2/reader.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::core {

/// Sliding-window individual-reading-rate monitor.
class IrrMonitor {
 public:
  /// `window`: averaging horizon for the rate estimate.
  explicit IrrMonitor(util::SimDuration window = util::sec(10));

  /// Records one reading (any phase).
  void record(const rf::TagReading& reading);

  /// Readings of `epc` within [now − window, now] divided by the window,
  /// in Hz.  Unknown tags report 0.
  double irr_hz(const util::Epc& epc, util::SimTime now) const;

  /// Number of readings of `epc` currently inside the window.
  std::size_t count_in_window(const util::Epc& epc, util::SimTime now) const;

  /// Per-tag IRR snapshot, sorted by descending rate, ties by EPC.
  std::vector<std::pair<util::Epc, double>> snapshot(util::SimTime now) const;

  /// Tags with any reading in the window.
  std::size_t active_tags(util::SimTime now) const;

  /// Drops per-tag state for tags whose newest reading predates the
  /// window at `now` (memory reclamation for long-running deployments).
  std::size_t prune(util::SimTime now);

  util::SimDuration window() const noexcept { return window_; }

 private:
  /// Removes timestamps older than now − window from one tag's deque.
  void trim(std::deque<util::SimTime>& times, util::SimTime now) const;

  util::SimDuration window_;
  std::unordered_map<util::Epc, std::deque<util::SimTime>> readings_;
};

/// One cycle's contribution to the pipeline metrics.
struct CycleMetrics {
  std::size_t cycle_index = 0;
  std::uint64_t phase1_readings = 0;
  std::uint64_t phase2_readings = 0;
  std::size_t scene = 0;
  std::size_t targets = 0;
  bool read_all_fallback = false;
  bool degraded_mode = false;          ///< Ran in the degraded read-all state.
  std::uint64_t execute_failures = 0;  ///< Errored executes this cycle.
  std::uint64_t retries = 0;           ///< Re-issued executes this cycle.
};

/// Aggregate view returned by PipelineMetrics::snapshot().
struct PipelineMetricsSnapshot {
  std::uint64_t cycles = 0;
  std::uint64_t read_all_cycles = 0;
  std::uint64_t degraded_cycles = 0;
  std::uint64_t phase1_readings = 0;
  std::uint64_t phase2_readings = 0;
  /// Cumulative controller health (faults, retries, backoff, degraded-mode
  /// transitions) as of the last finished cycle.
  HealthMetrics health;
  /// Gen2 slot accounting summed over every cycle's ExecutionReports.
  gen2::RoundStats slot_totals;
  double mean_scene = 0.0;
  double mean_targets = 0.0;
  /// Mean inter-phase gap over cycles that reported one, in milliseconds.
  double mean_interphase_gap_ms = 0.0;
  /// Per-cycle breakdown, in cycle order.
  std::vector<CycleMetrics> per_cycle;
  /// Per-sink delivery accounting of the observed pipeline (empty unless
  /// observe() was called).  Every sink sees every reading, so each sink's
  /// delivered + dropped equals phase1_readings + phase2_readings.
  std::vector<SinkStats> sinks;

  std::uint64_t readings_total() const noexcept {
    return phase1_readings + phase2_readings;
  }
};

/// A metrics sink: aggregates per-cycle reading counts, round/slot stats
/// from the cycle's ExecutionReports, and — when bound with observe() —
/// the pipeline's own per-sink dispatch accounting, exposing one
/// snapshot() for tools and benches.
class PipelineMetrics final : public ReadingSink {
 public:
  std::string_view name() const override { return "metrics"; }

  bool on_reading(const rf::TagReading& reading,
                  const ReadingContext& context) override;
  void on_cycle_end(const CycleReport& report) override;

  /// Binds the pipeline whose per-sink stats snapshots embed.  `pipeline`
  /// must outlive this sink.
  void observe(const ReadingPipeline& pipeline) { pipeline_ = &pipeline; }

  PipelineMetricsSnapshot snapshot() const;

 private:
  const ReadingPipeline* pipeline_ = nullptr;
  std::uint64_t phase1_readings_ = 0;
  std::uint64_t phase2_readings_ = 0;
  std::uint64_t read_all_cycles_ = 0;
  std::uint64_t degraded_cycles_ = 0;
  HealthMetrics health_;
  gen2::RoundStats slot_totals_;
  double scene_sum_ = 0.0;
  double target_sum_ = 0.0;
  double gap_ms_sum_ = 0.0;
  std::uint64_t gap_cycles_ = 0;
  std::vector<CycleMetrics> per_cycle_;
  CycleMetrics current_;
};

}  // namespace tagwatch::core
