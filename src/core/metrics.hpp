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

}  // namespace tagwatch::core
