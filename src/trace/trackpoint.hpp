// TrackPoint-style warehouse workload (paper §2.4, Fig. 3–4).
//
// The paper motivates rate-adaptive reading with a 4-hour trace from a
// conveyor gate: 527 tags, 367,536 readings, where parked packages near the
// gate hog the channel (tag #271 was read 90,000 times while moving tags
// got fewer than 5 reads each).  This generator reproduces the *mechanism*:
// a Poisson stream of conveyor tags transiting the read zone quickly, plus
// a rotating population of parked tags that linger for many minutes.
#pragma once

#include <unordered_map>
#include <vector>

#include "gen2/reader.hpp"
#include "util/epc.hpp"

namespace tagwatch::trace {

/// Scenario knobs (defaults approximate the paper's gate).
struct TrackPointScenario {
  util::SimDuration duration = util::sec(4 * 3600);  ///< 4 hours.
  /// Conveyor arrivals per minute (Poisson); ~2/min gives ≈480 transits/4 h.
  double conveyor_arrivals_per_min = 2.0;
  /// Conveyor speed and read-zone length: transit time = length / speed.
  double conveyor_speed_mps = 1.0;
  double read_zone_m = 4.0;
  /// Parked tags present at any moment, each dwelling uniformly in
  /// [min, max] before being replaced by a new one.
  std::size_t parked_slots = 12;
  util::SimDuration parked_dwell_min = util::sec(300);
  util::SimDuration parked_dwell_max = util::sec(2400);
  /// Reader profile.
  gen2::LinkParams link = gen2::LinkParams::max_throughput();
  gen2::ReaderConfig reader = {};
  std::uint64_t seed = 42;
};

/// Per-tag summary of the generated trace.
struct TraceTagRecord {
  util::Epc epc;
  std::size_t readings = 0;
  bool conveyor = false;  ///< true: transited on the conveyor; false: parked.
};

/// Whole-trace summary.
struct TraceResult {
  std::size_t total_readings = 0;
  std::size_t total_tags = 0;
  std::vector<TraceTagRecord> per_tag;  ///< Readings desc, ties by EPC.
  std::vector<std::size_t> readings_per_minute;     ///< Fig. 3's time series.
  /// Max tags simultaneously on the conveyor in any one second.
  std::size_t peak_concurrent_movers = 0;
};

/// Runs the scenario through the Gen2 simulator and summarizes the trace.
TraceResult generate_trackpoint_trace(const TrackPointScenario& scenario);

/// Fraction of tags read more than `threshold` times (Fig. 4's statistic).
double fraction_read_over(const TraceResult& result, std::size_t threshold);

}  // namespace tagwatch::trace
