// The Tagwatch controller: the two-phase rate-adaptive reading loop.
//
// Tagwatch is a middle layer between the reader (via an LLRP client) and
// upper applications (Fig. 5).  Each cycle:
//
//   Phase I  — inventory ALL tags briefly; assess each tag's motion state
//              from its backscatter phase (ParallelAssessor, fed through
//              the pipeline one batch per inventory round).
//   Phase II — cover the target tags (assessed-mobile ∪ user-pinned) with
//              Select bitmasks chosen by greedy set cover, then read only
//              that subpopulation intensively for the rest of the cycle.
//
// Every reading from both phases flows through the ReadingPipeline — an
// ordered fan-out to the assessor (immobility-model training), the history
// database, the application sink, and any attached telemetry — which is
// what makes state transitions converge within about one cycle (§4.3).
//
// The controller drives the reader exclusively through the abstract
// llrp::ReaderClient transport: the simulator, a journal replay, or (in
// the future) a physical LLRP reader all plug in behind it.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/history.hpp"
#include "core/incremental_planner.hpp"
#include "core/parallel_assessor.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "core/setcover.hpp"
#include "llrp/reader_client.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "util/wall_clock.hpp"

namespace tagwatch::core {

/// How Phase II schedules its reading.
enum class ScheduleMode {
  kGreedyCover,    ///< Tagwatch: greedy set-cover bitmasks (the paper).
  kNaiveEpcMasks,  ///< Baseline: one full-EPC bitmask per target.
  kReadAll,        ///< Baseline: no selection — keep inventorying everything.
};

/// Cross-cycle Phase-II planning policy (under ScheduleMode::kGreedyCover).
struct PlannerConfig {
  /// Keep the candidate structure alive across cycles and apply per-cycle
  /// scene/target deltas instead of rebuilding the BitmaskIndex + greedy
  /// cover from scratch.  Plans are bit-identical either way (enforced by
  /// differential tests).  Incremental planning is the default at every
  /// scene size, the paper's 40–200 tags included; `false` selects the
  /// from-scratch planner, the reference the differential tests compare
  /// against.
  bool incremental = true;
  /// Delta fraction of the scene (arrivals + departures + target flips,
  /// over scene size) above which the incremental planner rebuilds its
  /// structure from scratch instead of patching it.
  double churn_threshold = 0.15;
  /// Worker threads of Phase-II candidate generation: BitmaskIndex
  /// candidate sweeps and incremental-planner rebuilds shard across a
  /// shared pool of this size.  Any value produces bit-identical plans
  /// and journal digests (enforced by differential tests); raising it
  /// only buys planning throughput on large scenes.
  std::size_t threads = 1;
};

/// Controller configuration (paper §6 "parameter choice" defaults).
struct TagwatchConfig {
  AssessorConfig assessor = {};
  /// Worker threads (and shards) of the Phase-I ingestion engine.  Any
  /// value produces bit-identical cycles, assessments and journal digests
  /// (enforced by differential tests); raising it only buys ingestion
  /// throughput on large scenes.
  std::size_t assessor_threads = 1;
  /// Cost model used by the scheduler's relative-gain formula; fit it on
  /// measurements (bench_irr_model) or take the paper's values.
  InventoryCostModel cost_model = InventoryCostModel::paper_fit();
  ScheduleMode mode = ScheduleMode::kGreedyCover;
  /// Gain-evaluation strategy of the greedy cover under kGreedyCover.
  /// kLazy is the large-scene fast path; kDense the full-rescan reference.
  /// Both produce identical plans (enforced by differential tests).
  GreedyEvaluation greedy_evaluation = GreedyEvaluation::kLazy;
  /// Fixed Phase II length (paper: 5 seconds).
  util::SimDuration phase2_duration = util::sec(5);
  /// Optional per-cycle override of the Phase II length, consulted after
  /// assessment with the cycle's target count and the scene size — the
  /// paper's "upper applications can adjust the length of Phase II
  /// according to their requirements" hook.  Return values are clamped to
  /// [100 ms, 60 s].  nullptr: use phase2_duration unchanged.
  std::function<util::SimDuration(std::size_t targets, std::size_t scene)>
      phase2_policy;
  /// Cross-cycle planner policy (kGreedyCover only; other modes and the
  /// degraded/read-all paths never consult it).
  PlannerConfig planner;
  /// Above this mobile fraction, selective reading stops paying off and the
  /// controller falls back to reading everything (§3 "Scope").
  double mobile_fraction_threshold = 0.20;
  /// Inventory rounds per antenna in Phase I ("read all tags once").
  std::size_t phase1_rounds_per_antenna = 1;
  /// User-pinned "concerned" tags: always scheduled in Phase II (§5).
  std::vector<util::Epc> pinned_targets;
  gen2::Session session = gen2::Session::kS1;
  /// Inventoried-flag value unfiltered rounds target when rearm_session
  /// is false (re-armed rounds always query A).
  gen2::InvFlag query_target = gen2::InvFlag::kA;
  /// Open every unfiltered round with a match-all Select re-arming the
  /// session flag (the classic single-reader discipline).  Fleet
  /// controllers coordinating readers through shared session state set
  /// this false so one reader's ACKs stay visible to the others.
  bool rearm_session = true;
  /// Reader identity stamped into every ReadingContext this controller
  /// dispatches (index into the fleet's reader list; 0 standalone).
  std::size_t source_id = 0;
  /// Initial Q for Phase I rounds (Phase II rounds derive Q from the
  /// scheduled bitmask's expected coverage).
  std::uint8_t phase1_initial_q = 4;
  /// Set the Gen2 Truncate bit on Phase II Selects: selected tags reply
  /// only the EPC bits after the bitmask, shortening every successful slot
  /// (an extension; the paper reads full EPCs).
  bool use_truncation = false;
  /// Account the real scheduling compute time on the simulation clock so
  /// the inter-phase gap (Fig. 17) includes it.
  bool charge_compute_time = true;
  /// How the controller survives a faulty transport: retry/backoff policy,
  /// degraded read-all fallback, per-cycle watchdog budget.
  ResilienceConfig resilience;
  /// Host clock for schedule-compute timing (Fig. 17) and, via the
  /// pipeline, per-sink dispatch latency.  nullptr: the steady_clock-backed
  /// util::WallClock::system().  Non-owning; must outlive the controller.
  util::WallClock* wall_clock = nullptr;
};

/// What happened in one cycle.
struct CycleReport {
  std::size_t cycle_index = 0;
  /// EPCs read during Phase I (the scene snapshot used for scheduling).
  std::vector<util::Epc> scene;
  /// Assessed-mobile EPCs.
  std::vector<util::Epc> mobile;
  /// Scheduled targets (mobile ∪ pinned∩scene).
  std::vector<util::Epc> targets;
  /// The Phase II plan (empty selections under kReadAll or fallback).
  Schedule schedule;
  /// True when Phase II read everything (no targets, fraction above
  /// threshold, or kReadAll mode).
  bool read_all_fallback = false;
  /// True when the schedule came from the persistent cross-cycle planner
  /// (config.planner.incremental under kGreedyCover).
  bool planner_incremental = false;
  /// With planner_incremental: true when this cycle's delta exceeded the
  /// churn threshold (or the planner had no prior state) and the candidate
  /// structure was rebuilt from scratch rather than patched.
  bool planner_rebuild = false;
  std::size_t phase1_readings = 0;
  std::size_t phase2_readings = 0;
  util::SimDuration phase1_duration{0};
  util::SimDuration phase2_duration{0};
  /// Wall-clock time spent on assessment + bitmask scheduling (Fig. 17's
  /// "extra time cost"), in milliseconds.
  double schedule_compute_ms = 0.0;
  /// Gap between the last Phase I reading and the first Phase II reading
  /// on the simulation clock (Fig. 17's measured quantity).
  std::optional<util::SimDuration> interphase_gap;
  /// Per-tag Phase II reading counts (IRR = count / phase2 duration).
  std::unordered_map<util::Epc, std::size_t> phase2_counts;
  /// Gen2 slot accounting summed over every ROSpec the cycle executed
  /// (both phases) — the raw material for efficiency telemetry.
  gen2::RoundStats slot_totals;

  // ----------------------------------------------- resilience telemetry
  /// True when the cycle ran in the degraded read-all state (entered after
  /// K consecutive Phase-II failures; distinct from read_all_fallback,
  /// which selective cycles can also set for scheduling reasons).
  bool degraded_mode = false;
  /// True when the per-cycle watchdog budget cut Phase II short.
  bool watchdog_tripped = false;
  std::size_t execute_failures = 0;  ///< Errored execute attempts.
  std::size_t retries = 0;           ///< Re-issued executes.
  std::size_t salvaged_readings = 0; ///< Readings kept from failures.
  util::SimDuration backoff_time{0}; ///< Reader time spent backing off.
  /// Antenna indexes quarantined out of ROSpec construction (cumulative).
  std::vector<std::size_t> quarantined_antennas;
  /// Cumulative controller health counters at cycle end.
  HealthMetrics health;
};

class PipelineMetrics;  // core/metrics.hpp

/// The rate-adaptive reading controller.
class TagwatchController {
 public:
  /// `client` must outlive the controller.  Any ReaderClient backend works:
  /// the simulator, a recording decorator, or a journal replay.
  TagwatchController(TagwatchConfig config, llrp::ReaderClient& client);

  /// Runs one full cycle (Phase I + Phase II) and reports it.
  CycleReport run_cycle();

  /// Runs `n` cycles, returning every report.
  std::vector<CycleReport> run_cycles(std::size_t n);

  /// Delivery of every reading (both phases) to the upper application —
  /// sugar for installing a CallbackSink named "app" in the pipeline.
  /// Passing nullptr removes it.
  void set_read_listener(gen2::ReadCallback listener);

  /// The delivery pipeline.  Built-in sinks "assessor" and "history" are
  /// registered at construction; applications append their own (telemetry,
  /// databases, trackers) without touching the control flow.
  ReadingPipeline& pipeline() noexcept { return pipeline_; }
  const ReadingPipeline& pipeline() const noexcept { return pipeline_; }

  const HistoryDatabase& history() const noexcept { return history_; }
  ParallelAssessor& assessor() noexcept { return assessor_; }
  const TagwatchConfig& config() const noexcept { return config_; }
  llrp::ReaderClient& client() noexcept { return *client_; }
  util::SimTime now() const noexcept { return client_->now(); }

  /// Arms a one-shot session re-arm: the next cycle's Phase I opens with a
  /// match-all Select resetting the session flag to A even when
  /// config().rearm_session is false.  Zone takeover uses it — tags
  /// inherited from a failed reader can still hold B flags (S2/S3 survive
  /// power gaps), and a no-rearm policy would otherwise never read them.
  void arm_session_rearm_once() noexcept { rearm_once_ = true; }

  /// Extra always-scheduled Phase II targets, beyond
  /// config().pinned_targets — the fleet's re-cover queue during zone
  /// takeover.  Replaces the previous set; like pinned targets, only EPCs
  /// present in the cycle's scene are actually scheduled.
  void set_extra_targets(std::vector<util::Epc> targets) {
    extra_targets_ = std::move(targets);
  }

  /// Cumulative resilience counters (faults, retries, backoff, degraded
  /// transitions) since construction.
  const HealthMetrics& health() const noexcept { return health_; }
  /// True while the controller runs the read-all baseline because of
  /// transport failures.
  bool degraded() const noexcept { return degraded_; }
  /// Antenna indexes excluded from ROSpec construction after kAntennaLost.
  const std::set<std::size_t>& quarantined_antennas() const noexcept {
    return quarantined_;
  }

  /// The persistent cross-cycle planner, or nullptr when
  /// config().planner.incremental is off or no selective cycle has run
  /// yet (it is constructed lazily on first use).
  const IncrementalPlanner* incremental_planner() const noexcept {
    return incremental_planner_.get();
  }

 private:
  /// Updates the report's per-phase counters for every reading in the
  /// batch, then pushes the whole batch through the pipeline in one
  /// dispatch_batch() call.
  void deliver_batch(const std::vector<rf::TagReading>& readings,
                     CycleReport& report, ReadPhase phase);
  llrp::ROSpec make_read_all_rospec(util::SimDuration duration) const;
  void run_phase2_selected(const Schedule& schedule, util::SimTime t_end,
                           util::SimTime watchdog_deadline,
                           CycleReport& report, bool& phase2_failed);
  /// Executes `spec` under the retry policy: errored attempts salvage
  /// their partial readings, charge jittered exponential backoff onto the
  /// reader clock, quarantine lost antennas (re-issuing the spec without
  /// them), and stop at the watchdog deadline.  `gave_up` reports whether
  /// the spec was ultimately abandoned.
  llrp::ExecutionResult execute_resilient(llrp::ROSpec spec,
                                          util::SimTime watchdog_deadline,
                                          CycleReport& report, bool& gave_up);
  /// Antenna indexes not quarantined, in order.
  std::vector<std::size_t> healthy_antennas() const;
  /// Removes quarantined antennas from every AISpec (expanding empty
  /// "all antennas" lists first).  Returns false when nothing healthy
  /// remains to drive.
  bool strip_quarantined(llrp::ROSpec& spec) const;
  /// Feeds the Phase-II outcome to the degradation state machine.
  void update_degradation(bool phase2_failed);

  TagwatchConfig config_;
  llrp::ReaderClient* client_;
  ParallelAssessor assessor_;
  HistoryDatabase history_;
  ReadingPipeline pipeline_;
  std::size_t cycle_counter_ = 0;
  /// Timestamp of the first Phase II reading of the running cycle.
  std::optional<util::SimTime> first_read_;
  /// One-shot Phase-I session re-arm (see arm_session_rearm_once()).
  bool rearm_once_ = false;
  /// Scene-gated extra Phase II targets (see set_extra_targets()).
  std::vector<util::Epc> extra_targets_;
  /// Lazily-built persistent Phase II planner (planner.incremental).
  std::unique_ptr<IncrementalPlanner> incremental_planner_;
  /// Lazily-built candidate-generation pool (planner.threads > 1);
  /// nullptr means the serial path.
  std::unique_ptr<util::TaskPool> planning_pool_;

  // ------------------------------------------------- resilience state
  HealthMetrics health_;
  util::Rng jitter_rng_;
  std::set<std::size_t> quarantined_;
  bool degraded_ = false;
  std::size_t consecutive_phase2_failures_ = 0;
  std::size_t healthy_streak_ = 0;
};

/// Attaches a PipelineMetrics sink to the controller's pipeline (bound to
/// observe the pipeline's per-sink stats) and returns it.  Defined in
/// metrics-aware code to keep this header light.
std::shared_ptr<PipelineMetrics> attach_metrics(TagwatchController& controller);

}  // namespace tagwatch::core
