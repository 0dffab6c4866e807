// Controller-side resilience against a faulty reader transport.
//
// execute() can now fail (llrp::ReaderError); this header defines how the
// controller responds: a bounded-exponential-backoff retry policy (time
// charged onto the reader clock so recorded runs replay exactly), a
// per-cycle watchdog budget, and a degradation state machine — after K
// consecutive Phase-II failures the controller falls back to the paper's
// read-all baseline cycle, returning to rate-adaptive mode after M healthy
// cycles.  Everything it does is counted in HealthMetrics.
#pragma once

#include <cstdint>

#include "llrp/reader_client.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::core {

/// Bounded exponential backoff with deterministic jitter.  All waits are
/// charged to the reader clock via ReaderClient::advance(), so they are
/// journaled and replay bit-exactly.
struct RetryPolicy {
  /// Total attempts per ROSpec (1 = no retries).
  std::size_t max_attempts = 3;
  util::SimDuration initial_backoff = util::msec(20);
  double backoff_multiplier = 2.0;
  util::SimDuration max_backoff = util::msec(640);
  /// Each wait is scaled by a uniform factor in [1-j, 1+j], drawn from a
  /// seeded RNG (deterministic — replay makes identical draws).
  double jitter_fraction = 0.1;
  std::uint64_t jitter_seed = 0x0b0f;
};

/// Degradation / recovery knobs.
struct ResilienceConfig {
  RetryPolicy retry;
  /// K: consecutive cycles whose Phase II exhausted retries before the
  /// controller drops to the read-all baseline cycle.
  std::size_t degrade_after_failures = 3;
  /// M: consecutive healthy cycles in degraded mode before rate-adaptive
  /// reading resumes.
  std::size_t restore_after_healthy = 3;
  /// Per-cycle reader-clock budget: once a cycle has consumed this much
  /// time (retries and backoff included), Phase II stops scheduling more
  /// work and the cycle ends.  Zero disables the watchdog.
  util::SimDuration cycle_watchdog_budget{0};
};

/// Fleet-level view of one reader's availability (core::FleetHealth).
enum class ReaderState {
  kHealthy,    ///< Normal TDM participation.
  kSuspect,    ///< Elevated error rate; still runs every cycle.
  kDown,       ///< Declared failed; skipped except for periodic probes.
  kProbation,  ///< A probe succeeded; earning its way back to Healthy.
};

inline const char* to_string(ReaderState state) {
  switch (state) {
    case ReaderState::kHealthy: return "healthy";
    case ReaderState::kSuspect: return "suspect";
    case ReaderState::kDown: return "down";
    case ReaderState::kProbation: return "probation";
  }
  return "unknown";
}

/// Fleet failure-detection / takeover knobs (consumed by core::FleetHealth
/// and FleetController; the per-reader retry machinery above is separate
/// and still lives in TagwatchConfig::resilience).
struct FleetResilienceConfig {
  /// Consecutive blackout cycles (errored executes and zero readings)
  /// before a Healthy reader is marked Suspect, then Down.
  std::size_t suspect_after_failures = 2;
  std::size_t down_after_failures = 3;
  /// Sliding window (in run cycles) of the error-rate detector: when the
  /// window is full and at least error_rate_threshold of it saw errored
  /// executes, the reader is marked Suspect even without blackouts.
  std::size_t error_window = 8;
  double error_rate_threshold = 0.5;
  /// While Down, the reader still runs one probe cycle out of every
  /// probe_period fleet cycles (1 = probe every cycle, never skip).
  std::size_t probe_period = 2;
  /// Clean probe cycles required to climb from Probation back to Healthy.
  std::size_t probation_cycles = 2;
  /// Radius cap for a survivor's zone during takeover, meters.  Zero means
  /// "twice the survivor's own original radius" (the power budget: a COTS
  /// reader can roughly double its footprint before regulatory limits).
  double takeover_radius_budget_m = 0.0;
  /// Fixed radius expansion used by TakeoverPolicy::kStaticNeighbor.
  double static_expand_m = 1.0;
  /// Capacity of the bounded orphaned-EPC re-cover queue; overflow is
  /// dropped and counted (RecoverStats::dropped).
  std::size_t recover_queue_capacity = 1024;
  /// Fleet watchdog: a reader cycle consuming more sim time than this
  /// counts as a failed cycle for its state machine.  Also stamped into
  /// per-reader controllers whose own cycle_watchdog_budget is unset, so
  /// a wedged reader cannot stall the whole TDM rotation.  Zero disables.
  util::SimDuration reader_cycle_budget{0};
};

/// Cumulative controller health counters, snapshotted into every
/// CycleReport and read live through TagwatchController::health().
struct HealthMetrics {
  // Transport faults observed, by kind.
  std::uint64_t timeouts = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t partial_reports = 0;
  std::uint64_t antenna_losses = 0;

  std::uint64_t retries = 0;  ///< Re-issued executes (after backoff).
  std::uint64_t giveups = 0;  ///< ROSpecs abandoned after max_attempts.
  util::SimDuration backoff_total{0};  ///< Reader time spent backing off.

  std::uint64_t salvaged_readings = 0;  ///< Readings kept from failures.
  std::uint64_t partial_salvages = 0;   ///< Failed executes that yielded any.

  std::uint64_t degraded_entries = 0;  ///< Adaptive → read-all transitions.
  std::uint64_t degraded_exits = 0;    ///< Read-all → adaptive transitions.
  std::uint64_t degraded_cycles = 0;   ///< Cycles run in degraded mode.
  std::uint64_t watchdog_trips = 0;    ///< Cycles cut short by the budget.
  std::size_t quarantined_antennas = 0;

  std::uint64_t faults_total() const noexcept {
    return timeouts + disconnects + protocol_errors + partial_reports +
           antenna_losses;
  }

  void count_fault(llrp::ReaderErrorKind kind) {
    switch (kind) {
      case llrp::ReaderErrorKind::kTimeout: ++timeouts; break;
      case llrp::ReaderErrorKind::kDisconnected: ++disconnects; break;
      case llrp::ReaderErrorKind::kProtocolError: ++protocol_errors; break;
      case llrp::ReaderErrorKind::kPartialReport: ++partial_reports; break;
      case llrp::ReaderErrorKind::kAntennaLost: ++antenna_losses; break;
    }
  }
};

}  // namespace tagwatch::core
