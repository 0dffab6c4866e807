// FleetController: N rate-adaptive readers over one scene.
//
// Real deployments tile a warehouse with readers whose antenna fields
// overlap at the zone seams.  Running one TagwatchController per reader is
// not enough: the same tag answers two readers within milliseconds (double
// delivery to the application), movers drift from one zone into the next
// (somebody must notice the handoff), and — the part Gen2 was designed
// for — the readers can coordinate *through the tags' session flags*
// instead of re-reading each other's population.
//
// FleetController owns one TagwatchController per reader and runs their
// cycles in a fixed time-division order on the shared clock.  Each
// controller keeps its private pipeline (assessor training, history); a
// tap sink copies its readings out, the fleet deduplicates them across
// readers, detects zone handoffs, and dispatches what survives to the
// fleet-level ReadingPipeline with per-reader source attribution.  Every
// cycle is journaled (llrp::FleetJournal) so record→replay runs can be
// compared by digest.
//
// Session policies (how readers share Gen2 flag state; arXiv 0904.2441
// studies the reliability side of this):
//   kIndependent — every reader re-arms its session before each round: the
//     classic single-reader discipline, readers invisible to each other.
//   kShared — all readers inventory one session with re-arming off: a tag
//     ACKed by any reader stays B for everyone until the flag decays, so
//     the fleet reads the population once per decay window.
//   kPerReader — reader k inventories session k mod 4 with re-arming off:
//     up to four *independent* sessions over the same tags, the k-session
//     redundancy scheme whose missed-read probability falls as p^k.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/tagwatch.hpp"
#include "llrp/fleet_journal.hpp"
#include "sim/world.hpp"

namespace tagwatch::core {

/// How the fleet assigns Gen2 sessions and targets to its readers.
enum class SessionPolicy {
  kIndependent,  ///< Per-round re-arm; readers don't share flag state.
  kShared,       ///< One session, no re-arm: read-once-per-decay-window.
  kPerReader,    ///< Session k%4 per reader, no re-arm: k-session redundancy.
};

const char* to_string(SessionPolicy policy);
SessionPolicy session_policy_from_string(std::string_view name);

/// How the fleet re-covers a Down reader's orphaned zone.
enum class TakeoverPolicy {
  kNone,            ///< Nobody expands; the zone stays dark until recovery.
  kStaticNeighbor,  ///< Nearest survivors widen by a fixed static_expand_m.
  kAdaptive,        ///< Survivors widen exactly far enough to reach the
                    ///< orphaned zone (budget-capped) and pin the re-cover
                    ///< queue as extra Phase II targets.
};

const char* to_string(TakeoverPolicy policy);
TakeoverPolicy takeover_policy_from_string(std::string_view name);

/// Accounting of the bounded orphaned-EPC re-cover queue.
struct RecoverStats {
  std::uint64_t enqueued = 0;   ///< Orphans admitted to the queue.
  std::uint64_t dropped = 0;    ///< Orphans rejected: queue at capacity.
  std::uint64_t recovered = 0;  ///< Orphans delivered again and retired.
  std::size_t pending = 0;      ///< Currently queued.
};

/// One reader in the fleet: its transport and the zone it covers.  The
/// zone is bookkeeping for attribution/handoff; RF-level coverage lives in
/// the backend (gen2::ReaderConfig::coverage for the simulator).
struct FleetReaderSpec {
  llrp::ReaderClient* client = nullptr;  ///< Non-owning; must outlive fleet.
  sim::Zone zone;
};

/// Fleet configuration.
struct FleetConfig {
  /// Template for every per-reader controller.  The fleet overrides
  /// session/target/re-arm per its policy and stamps source_id = reader
  /// index; everything else (assessor, scheduler, resilience) applies
  /// to each reader as given.
  TagwatchConfig controller;
  SessionPolicy policy = SessionPolicy::kIndependent;
  /// The session kShared inventories (and the base the journal records).
  gen2::Session shared_session = gen2::Session::kS2;
  /// Two sightings of one EPC by *different* readers within this window
  /// count as one reading (the second is suppressed as a cross-reader
  /// duplicate).  Same-reader repeats are never deduplicated — repeated
  /// reading is the product, not an artifact.
  util::SimDuration dedup_window = util::msec(500);
  /// How orphaned zones are re-covered when a reader goes Down.
  TakeoverPolicy takeover = TakeoverPolicy::kAdaptive;
  /// Failure-detection thresholds, probe cadence, takeover budgets.
  FleetResilienceConfig resilience;
};

/// One reader's slice of a fleet cycle.
struct FleetReaderCycle {
  std::size_t reader = 0;
  std::string zone;
  CycleReport report;          ///< The underlying controller's report.
  std::size_t delivered = 0;   ///< Readings dispatched after dedup.
  std::size_t duplicates = 0;  ///< Readings suppressed as cross-reader dups.
  ReaderState state = ReaderState::kHealthy;  ///< State after this cycle.
  bool skipped = false;      ///< Down and not probed: the reader did not run.
  bool probe = false;        ///< This run was a Down reader's probe cycle.
  bool over_budget = false;  ///< Cycle exceeded the fleet watchdog budget.
  /// Cumulative per-reader controller health — surfaced at fleet level so
  /// callers never have to reach into controller(k) (skipped cycles carry
  /// the last snapshot; CycleReport::health is default there).
  HealthMetrics health;
};

/// What happened in one fleet cycle (all readers, in TDM order).
struct FleetCycleReport {
  std::size_t cycle_index = 0;
  std::vector<FleetReaderCycle> readers;
  std::size_t readings_total = 0;    ///< Before dedup.
  std::size_t delivered_total = 0;   ///< After dedup.
  std::size_t duplicates_total = 0;  ///< Suppressed cross-reader dups.
  std::vector<llrp::FleetHandoffRecord> handoffs;
  /// Fault-tolerance events of this cycle (also journaled as D/T/R).
  std::vector<llrp::FleetDownRecord> downs;
  std::vector<llrp::FleetTakeoverRecord> takeovers;
  std::vector<llrp::FleetRecoverRecord> recoveries;
  /// Re-cover queue accounting at cycle end (cumulative counters).
  RecoverStats recover;

  /// Fraction of this cycle's readings suppressed as cross-reader
  /// duplicates — the headline overlap-coordination metric (0 when the
  /// cycle produced no readings).
  double cross_reader_dup_ratio() const {
    return readings_total == 0
               ? 0.0
               : static_cast<double>(duplicates_total) /
                     static_cast<double>(readings_total);
  }
};

/// Per-reader availability state machine: aggregates each run cycle's
/// outcome (blackout? errored? over budget?) into the Healthy → Suspect →
/// Down → Probation → Healthy lifecycle.  Pure bookkeeping over counters —
/// no clocks, no entropy — so record and replay runs walk identical state
/// sequences.
///
/// Detection: a *failed* cycle (errored executes and zero readings, or a
/// watchdog overrun) bumps a consecutive-failure counter; suspect_after
/// of them mark the reader Suspect, down_after mark it Down.  A sliding
/// error-rate window catches flaky-but-alive readers (errored cycles that
/// still produce readings): a full window at or above the threshold marks
/// Suspect without ever blacking out.  Down readers are skipped except for
/// one probe cycle every probe_period fleet cycles; a clean probe starts
/// Probation, probation_cycles clean cycles restore Healthy.
class FleetHealth {
 public:
  /// What a single observe() did to the reader's state.
  enum class Transition {
    kNone,
    kWentSuspect,
    kWentDown,
    kRecovered,  ///< Probation served: back to Healthy.
  };

  FleetHealth(std::size_t readers, FleetResilienceConfig config);

  /// Whether the reader should run this fleet cycle (false: Down and not
  /// yet due for a probe — the caller must record the skip).
  bool should_run(std::size_t reader) const;

  /// Records a cycle the reader did not run (Down, skipped).
  void observe_skip(std::size_t reader);

  /// Feeds one run cycle's outcome and advances the state machine.
  /// `failed`: blackout or watchdog overrun; `errored`: any execute error.
  Transition observe(std::size_t reader, bool failed, bool errored);

  ReaderState state(std::size_t reader) const {
    return entries_.at(reader).state;
  }
  std::size_t consecutive_failures(std::size_t reader) const {
    return entries_.at(reader).consecutive_failures;
  }
  /// Fleet cycles the reader has spent not Healthy since it went Down.
  std::size_t down_cycles(std::size_t reader) const {
    return entries_.at(reader).down_cycles;
  }
  std::size_t down_count() const;  ///< Readers currently Down/Probation.

 private:
  struct Entry {
    ReaderState state = ReaderState::kHealthy;
    std::size_t consecutive_failures = 0;
    std::size_t healthy_streak = 0;  ///< Clean probes while in Probation.
    std::size_t skip_count = 0;      ///< Cycles skipped since last probe.
    std::size_t down_cycles = 0;     ///< Cycles spent not Healthy.
    // Error-rate ring over the last error_window run cycles.
    std::vector<char> window;
    std::size_t window_pos = 0;
    std::size_t window_filled = 0;
    std::size_t window_errors = 0;
  };

  /// True when the entry's error window is full and at/above threshold.
  bool rate_high(const Entry& e) const;
  void push_window(Entry& e, bool errored);

  FleetResilienceConfig config_;
  std::vector<Entry> entries_;
};

/// N coordinated rate-adaptive readers over one scene.
class FleetController {
 public:
  /// `readers` must be non-empty with non-null clients.  The third
  /// parameter is ignored: ownership is keyed by EPC, so no world is
  /// needed.  It remains only for callers that still pass one.
  FleetController(FleetConfig config, std::vector<FleetReaderSpec> readers,
                  const sim::World* /*ignored*/ = nullptr);

  /// Runs one cycle on every reader, in fixed TDM order, and reports.
  FleetCycleReport run_cycle();
  std::vector<FleetCycleReport> run_cycles(std::size_t n);

  /// The fleet-level delivery pipeline (deduped readings, per-reader
  /// source_id attribution).  Applications hang their sinks here.
  ReadingPipeline& pipeline() noexcept { return pipeline_; }

  /// The per-reader controller (diagnostics/tests).
  TagwatchController& controller(std::size_t reader);

  /// The fleet activity journal, appended every cycle.
  const llrp::FleetJournal& journal() const noexcept { return journal_; }

  const FleetConfig& config() const noexcept { return config_; }

  /// The Gen2 session the fleet's policy assigns to `reader`.
  gen2::Session reader_session(std::size_t reader) const;

  /// The fleet health state machine (per-reader availability states).
  const FleetHealth& health() const noexcept { return health_; }

  /// Re-cover queue accounting (cumulative).
  RecoverStats recover_stats() const;

  /// The zone currently covered by `reader` — original, or expanded while
  /// it holds a takeover grant.
  const sim::Zone& reader_zone(std::size_t reader) const {
    return readers_.at(reader).spec.zone;
  }

 private:
  class TapSink;

  struct ReaderSlot {
    FleetReaderSpec spec;
    sim::Zone original_zone;  ///< spec.zone as given (pre-takeover).
    std::unique_ptr<TagwatchController> controller;
    std::shared_ptr<TapSink> tap;
  };

  /// The fleet's one per-EPC record: the reader whose delivered reading
  /// of the tag came last, and when.  Dedup windows, handoffs (a delivery
  /// by another reader) and a Down reader's orphan set all read it.
  struct LastSeen {
    std::size_t reader = 0;
    util::SimTime at{0};
  };

  /// One active zone expansion: `to` covers for the Down reader `from`.
  struct TakeoverGrant {
    std::size_t from = 0;
    std::size_t to = 0;
    double radius_m = 0.0;  ///< The survivor's granted coverage radius.
  };

  /// Declares `reader` Down: journals orphans into the re-cover queue and
  /// expands survivor zones per the takeover policy.
  void on_reader_down(std::size_t reader, FleetCycleReport& fleet);
  /// Restores zones granted for `reader` and journals the recovery.
  void on_reader_recovered(std::size_t reader, FleetCycleReport& fleet);
  /// Re-applies `reader`'s coverage from its original zone plus any
  /// takeover grants it still holds (max radius wins).
  void refresh_coverage(std::size_t reader);
  /// Pushes the current re-cover queue into every adaptive survivor's
  /// extra-target list (scene-gated Phase II pinning).
  void refresh_extra_targets();
  /// Survivors eligible to take over for `down`, nearest-first (ties by
  /// index), at most two.
  std::vector<std::size_t> takeover_neighbors(std::size_t down) const;

  FleetConfig config_;
  std::vector<ReaderSlot> readers_;
  ReadingPipeline pipeline_;
  llrp::FleetJournal journal_;
  std::unordered_map<util::Epc, LastSeen> last_seen_;
  std::size_t cycle_counter_ = 0;
  FleetHealth health_;
  std::vector<TakeoverGrant> grants_;
  /// Bounded set of orphaned EPCs awaiting a post-takeover sighting.
  std::unordered_set<util::Epc> recover_set_;
  RecoverStats recover_stats_;
};

}  // namespace tagwatch::core
