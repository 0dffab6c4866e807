#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/bitmask.hpp"
#include "core/fleet.hpp"
#include "core/incremental_planner.hpp"
#include "core/setcover.hpp"
#include "core/tagwatch.hpp"
#include "llrp/fault_injection.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "trace.hpp"
#include "util/circular.hpp"
#include "util/task_pool.hpp"

namespace perfbench {
namespace {

using namespace tagwatch;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------- workload sizes
// A run derives a few scenes from its seed and rotates passes over them,
// so its figures average over several scenes.  A run repeats whole
// rotations until --seconds of timed cycles have accumulated, so every run
// times well over 100 cycles.  Air-time outcomes of a scene are taken from
// its first pass: every later pass of that scene must reproduce them.
constexpr std::size_t kTurntableScenes = 16;
constexpr std::size_t kShelfScenes = 3;  // Each one is a recording.
constexpr std::size_t kFleetScenes = 4;
// Host-time percentiles and rates are medians over blocks of whole
// rotations (every scene timed once, so every block does the same work)
// holding at least this many timed cycles, so a burst of load from outside
// the process moves one block, not the whole run.
constexpr std::size_t kBlock = 100;
constexpr std::size_t kTurntableTags = 200;
constexpr std::size_t kTurntableMovers = 10;  // 5%
constexpr std::size_t kTurntableCycles = 20;
constexpr std::size_t kShelfTags = 1000;
constexpr std::size_t kShelfMovers = 50;  // 5%
constexpr std::size_t kShelfCycles = 40;  // Recorded after warm-up.
constexpr std::size_t kFleetReaders = 4;
constexpr std::size_t kFleetShelfTagsPerZone = 40;
constexpr std::size_t kFleetWarmupCycles = 2;
constexpr std::size_t kFleetCycles = 40;
constexpr std::size_t kFleetOutageReader = 1;
constexpr std::size_t kMaxWarmup = 16;
// Cycles written to the Chrome trace file (self times use every span); a
// whole run's spans would make a file trace viewers cannot open.
constexpr std::size_t kTraceFileCycles = 200;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::uint64_t scene_seed(std::uint64_t seed, std::size_t scene) {
  return seed * 16 + scene;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------ ground truth
/// The bench's own list of movers and when each is in the scene.  The
/// assessor is never asked who moves; its verdicts are scored against this.
struct Truth {
  struct Mover {
    util::Epc epc;
    util::SimTime arrives{0};
    std::optional<util::SimTime> departs;
  };
  std::vector<Mover> movers;
  std::unordered_set<util::Epc> epcs;

  void add(const sim::SimTag& tag) {
    movers.push_back({tag.epc, tag.arrives, tag.departs});
    epcs.insert(tag.epc);
  }
  bool is_mover(const util::Epc& epc) const { return epcs.contains(epc); }

  /// Mover-microseconds of presence inside [from, to).
  std::int64_t present_us(util::SimTime from, util::SimTime to) const {
    std::int64_t total = 0;
    for (const Mover& m : movers) {
      const util::SimTime a = std::max(from, m.arrives);
      const util::SimTime b = m.departs ? std::min(to, *m.departs) : to;
      if (b > a) total += (b - a).count();
    }
    return total;
  }
};

// --------------------------------------------------------- air-time tally
/// Outcomes on the simulated clock and counts.  With compute time kept off
/// the reader clock they depend only on the seed, so every pass of a run
/// must reproduce them exactly.
struct AirTally {
  std::uint64_t mover_p2_reads = 0;
  std::int64_t mover_p2_present_us = 0;
  std::int64_t mover_timeline_present_us = 0;
  std::uint64_t cycles = 0;  ///< Timed host cycles (fleet cycles count once).
  std::uint64_t reader_cycles = 0;
  std::uint64_t failed_reader_cycles = 0;
  std::uint64_t false_mobile = 0;
  std::uint64_t missed_movers = 0;
  std::uint64_t slots = 0;
  std::uint64_t success_slots = 0;
  std::int64_t phase1_air_us = 0;
  std::uint64_t planned = 0;
  std::uint64_t selections = 0;
  std::uint64_t covered = 0;
  std::uint64_t targets = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t readings_total = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t down_cycles = 0;

  friend bool operator==(const AirTally&, const AirTally&) = default;
  AirTally& operator+=(const AirTally& o) {
    mover_p2_reads += o.mover_p2_reads;
    mover_p2_present_us += o.mover_p2_present_us;
    mover_timeline_present_us += o.mover_timeline_present_us;
    cycles += o.cycles;
    reader_cycles += o.reader_cycles;
    failed_reader_cycles += o.failed_reader_cycles;
    false_mobile += o.false_mobile;
    missed_movers += o.missed_movers;
    slots += o.slots;
    success_slots += o.success_slots;
    phase1_air_us += o.phase1_air_us;
    planned += o.planned;
    selections += o.selections;
    covered += o.covered;
    targets += o.targets;
    rebuilds += o.rebuilds;
    readings_total += o.readings_total;
    duplicates += o.duplicates;
    handoffs += o.handoffs;
    down_cycles += o.down_cycles;
    return *this;
  }
};

/// Scores one reader-cycle that started at `start` on the reader clock.
void observe(const core::CycleReport& r, util::SimTime start,
             std::uint64_t giveups_before, const Truth& truth,
             AirTally& air) {
  const util::SimTime p2_start = start + r.phase1_duration;
  air.mover_p2_present_us +=
      truth.present_us(p2_start, p2_start + r.phase2_duration);
  for (const auto& [epc, count] : r.phase2_counts) {
    if (truth.is_mover(epc)) air.mover_p2_reads += count;
  }
  ++air.reader_cycles;
  const bool failed = r.execute_failures > 0 ||
                      r.health.giveups > giveups_before ||
                      r.watchdog_tripped || r.degraded_mode;
  air.failed_reader_cycles += failed ? 1U : 0U;
  const std::unordered_set<util::Epc> mobile(r.mobile.begin(),
                                             r.mobile.end());
  for (const util::Epc& epc : r.mobile) {
    air.false_mobile += truth.is_mover(epc) ? 0U : 1U;
  }
  for (const util::Epc& epc : r.scene) {
    if (truth.is_mover(epc) && !mobile.contains(epc)) ++air.missed_movers;
  }
  air.slots += r.slot_totals.slots;
  air.success_slots += r.slot_totals.success_slots;
  air.phase1_air_us += r.phase1_duration.count();
  if (r.read_all_fallback) return;

  ++air.planned;
  air.selections += r.schedule.selections.size();
  air.covered += r.schedule.covered_union.count();
  air.targets += r.targets.size();
  air.rebuilds += !r.planner_incremental || r.planner_rebuild ? 1U : 0U;
  // The plan must cover every target it was made for.
  check(r.schedule.covered_union.size() == r.scene.size(),
        "cycle " + std::to_string(r.cycle_index) +
            ": covered_union is not indexed by the scene");
  for (const util::Epc& target : r.targets) {
    const auto it = std::lower_bound(r.scene.begin(), r.scene.end(), target);
    check(it != r.scene.end() && *it == target &&
              r.schedule.covered_union.test(
                  static_cast<std::size_t>(it - r.scene.begin())),
          "cycle " + std::to_string(r.cycle_index) +
              ": Phase-II plan leaves a target uncovered");
  }
}

bool same_schedule(const core::Schedule& a, const core::Schedule& b) {
  if (a.selections.size() != b.selections.size() ||
      a.estimated_cost_s != b.estimated_cost_s ||
      a.used_naive_fallback != b.used_naive_fallback ||
      !(a.covered_union == b.covered_union)) {
    return false;
  }
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    if (!(a.selections[i].bitmask == b.selections[i].bitmask) ||
        a.selections[i].covered_total != b.selections[i].covered_total ||
        a.selections[i].covered_targets != b.selections[i].covered_targets) {
      return false;
    }
  }
  return true;
}

/// A replayed cycle must reproduce the recorded one.
void check_same_cycle(const core::CycleReport& got,
                      const core::CycleReport& want) {
  const std::string at = "replayed cycle " + std::to_string(want.cycle_index);
  check(same_schedule(got.schedule, want.schedule) &&
            got.read_all_fallback == want.read_all_fallback,
        at + ": schedule differs from the recording");
  check(got.phase2_counts == want.phase2_counts,
        at + ": phase2_counts differ from the recording");
  check(got.phase1_duration == want.phase1_duration &&
            got.phase2_duration == want.phase2_duration,
        at + ": phase durations differ from the recording");
}

std::vector<util::Epc> sorted(std::vector<util::Epc> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------- host tally
struct HostTally {
  std::vector<double> cycle_ms;
  std::vector<double> plan_ms;  ///< Per reader-cycle.
  double seconds = 0.0;
  /// cycle_ms / plan_ms sizes at the end of each whole rotation.
  std::vector<std::pair<std::size_t, std::size_t>> rotations;
};

struct StateTally {
  std::size_t history_tags = 0;
  std::size_t planner_live_rows = 0;
  std::size_t fleet_journal_entries = 0;
  std::size_t journal_entries = 0;
  std::size_t journal_cycles = 0;
};

void add_controller_state(const core::TagwatchController& ctl,
                          StateTally& state) {
  state.history_tags += ctl.history().tag_count();
  if (const core::IncrementalPlanner* p = ctl.incremental_planner()) {
    state.planner_live_rows += p->stats().live_rows;
  }
}

// ------------------------------------------------------- tracing helpers
struct SinkTotals {
  double assessor_s = 0.0;
  double history_s = 0.0;
  double other_s = 0.0;
  std::uint64_t readings = 0;
  std::uint64_t batches = 0;

  double total_s() const { return assessor_s + history_s + other_s; }
  SinkTotals& operator+=(const SinkTotals& o) {
    assessor_s += o.assessor_s;
    history_s += o.history_s;
    other_s += o.other_s;
    readings += o.readings;
    batches += o.batches;
    return *this;
  }
  SinkTotals operator-(const SinkTotals& o) const {
    return {assessor_s - o.assessor_s, history_s - o.history_s,
            other_s - o.other_s, readings - o.readings, batches - o.batches};
  }
};

SinkTotals sink_totals(const core::ReadingPipeline& pipeline) {
  SinkTotals t;
  t.readings = pipeline.dispatched_total();
  for (const core::SinkStats& s : pipeline.stats()) {
    if (s.name == "assessor") {
      t.assessor_s += s.dispatch_seconds;
      t.batches += s.batches;
    } else if (s.name == "history") {
      t.history_s += s.dispatch_seconds;
    } else {
      t.other_s += s.dispatch_seconds;
    }
  }
  return t;
}

/// Re-plans each planned cycle's (scene, targets) through the planner's
/// public API with the controller's planner settings, timing it and
/// checking it reproduces the controller's plan.  An incremental shadow
/// must see every cycle the controller planned, warm-up included.
class ShadowPlanner {
 public:
  explicit ShadowPlanner(const core::TagwatchConfig& config)
      : config_(config),
        pool_(config.planner.threads > 1
                  ? std::make_unique<util::TaskPool>(config.planner.threads)
                  : nullptr) {
    if (config.planner.incremental) {
      incremental_ = std::make_unique<core::IncrementalPlanner>(
          config.cost_model, config.planner.churn_threshold, pool_.get());
    }
  }

  /// Host nanoseconds of the re-plan (0 for read-all cycles).
  std::int64_t replan(const core::CycleReport& r) {
    if (r.read_all_fallback) return 0;
    const auto t0 = Clock::now();
    core::Schedule plan;
    if (incremental_) {
      plan = incremental_->plan_cycle(r.scene, r.targets);
    } else {
      const core::BitmaskIndex index(r.scene);
      const core::GreedyCoverScheduler scheduler(config_.cost_model,
                                                 config_.greedy_evaluation);
      plan = scheduler.plan(index, index.bitmap_of(r.targets), pool_.get());
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    check(same_schedule(plan, r.schedule),
          "cycle " + std::to_string(r.cycle_index) +
              ": shadow re-plan differs from the controller's plan");
    return ns;
  }

 private:
  core::TagwatchConfig config_;
  std::unique_ptr<util::TaskPool> pool_;
  std::unique_ptr<core::IncrementalPlanner> incremental_;
};

/// Per-layer counters gathered over traced cycles.
struct TraceTally {
  std::uint64_t cycles = 0;
  double root_ns = 0.0;
  SinkTotals sinks;
  std::uint64_t sim_slots = 0;  ///< Slots of cycles with a simulator behind.
};

/// Everything the benchmark attaches to one reader while tracing: the
/// outermost execute() decorator, the controller pipeline it reads stat
/// deltas from, and the shadow planner.
class ReaderProbe {
 public:
  ReaderProbe(std::size_t reader, TracingReaderClient& outer,
              const core::TagwatchConfig& config)
      : shadow(config), reader_(reader), outer_(&outer) {
    outer_->on_execute = [this] { mark(); };
  }
  ReaderProbe(const ReaderProbe&) = delete;
  ReaderProbe& operator=(const ReaderProbe&) = delete;

  ShadowPlanner shadow;

  void attach(const core::ReadingPipeline& pipeline) {
    pipeline_ = &pipeline;
  }

  void begin_cycle() {
    last_ = sink_totals(*pipeline_);
    cycle_start_ = last_;
  }

  /// Closes the cycle's pipeline accounting into `tally`.
  void end_cycle(TraceTally& tally) {
    mark();
    tally.sinks += last_ - cycle_start_;
  }

  /// Host time window start of this reader's cycle (its first execute),
  /// or -1 when it did not run.
  std::int64_t first_start_ns(const Tracer& tracer) const {
    return outer_->executed.empty()
               ? -1
               : tracer.spans()[outer_->executed.front()].start_ns;
  }

  /// Rebuilds this reader-cycle's pipeline, assessment and planning spans
  /// under `root`, in the host-time gaps after its execute() spans where
  /// that work ran (bounded by `window_end_ns`), and tags every execute
  /// span with its phase.
  void rebuild(Tracer& tracer, std::uint32_t root, const core::CycleReport& r,
               std::int64_t plan_ns, std::int64_t window_end_ns) {
    std::vector<std::uint32_t>& execs = outer_->executed;
    std::vector<Span>& spans = tracer.spans();
    if (execs.empty()) return;
    const std::int64_t phase1_end_us =
        spans[execs.front()].sim_start_us + r.phase1_duration.count();
    for (std::size_t j = execs.front(); j < spans.size(); ++j) {
      Span& s = spans[j];
      if (s.sim_start_us >= 0 && s.reader == reader_) {
        s.phase = s.sim_start_us < phase1_end_us ? 1 : 2;
      }
    }
    const auto sched_ns =
        static_cast<std::int64_t>(std::llround(r.schedule_compute_ms * 1e6));
    const std::int64_t assess_ns = std::max<std::int64_t>(0, sched_ns - plan_ns);
    after_ns_.resize(execs.size(), 0);
    for (std::size_t i = 0; i < execs.size(); ++i) {
      const std::int64_t next = i + 1 < execs.size()
                                    ? spans[execs[i + 1]].start_ns
                                    : window_end_ns;
      std::int64_t cursor = spans[execs[i]].end_ns;
      const auto place = [&](Layer layer, std::int64_t ns) {
        const std::int64_t end = std::min(cursor + ns, next);
        if (end > cursor) tracer.add(layer, root, reader_, cursor, end);
        cursor = std::max(cursor, end);
      };
      place(Layer::kPipeline, after_ns_[i]);
      const bool last_phase1 =
          spans[execs[i]].phase == 1 &&
          (i + 1 == execs.size() || spans[execs[i + 1]].phase == 2);
      if (last_phase1) {
        place(Layer::kAssessor, assess_ns);
        place(Layer::kPlanner, std::min(plan_ns, sched_ns));
      }
    }
    execs.clear();
    after_ns_.clear();
  }

 private:
  /// Charges the pipeline work since the last mark to the execute() that
  /// preceded it.
  void mark() {
    const SinkTotals now = sink_totals(*pipeline_);
    const std::size_t n = outer_->executed.size();
    if (n > 0) {
      after_ns_.resize(n, 0);
      after_ns_.back() += static_cast<std::int64_t>(
          std::llround((now.total_s() - last_.total_s()) * 1e9));
    }
    last_ = now;
  }

  std::size_t reader_;
  TracingReaderClient* outer_;
  const core::ReadingPipeline* pipeline_ = nullptr;
  SinkTotals last_;
  SinkTotals cycle_start_;
  std::vector<std::int64_t> after_ns_;
};

// ------------------------------------------------------------------- runs
struct RunData {
  RunData(std::size_t scenes, bool traced_run)
      : air_by_scene(scenes), trace_run(traced_run) {}

  std::vector<double> setup_s;
  HostTally host;    ///< Untraced timed cycles.
  HostTally traced;  ///< Traced timed cycles (trace runs only).
  std::vector<std::optional<AirTally>> air_by_scene;
  StateTally state;  ///< Largest end-of-pass state seen.
  Tracer tracer;
  TraceTally trace;
  std::uint64_t attempted = 0;
  bool trace_run = false;
  bool journal_replayed = false;
  bool journal_recorded = false;

  std::size_t scene_of(std::size_t pass) const {
    return pass % air_by_scene.size();
  }
  /// Trace runs alternate whole rotations untraced and traced, so both
  /// kinds cover every scene equally.
  bool is_traced(std::size_t pass) const {
    return trace_run && (pass / air_by_scene.size()) % 2 == 1;
  }
  /// Marks the end of a pass; a whole untraced rotation closes a block
  /// candidate for the host-time statistics.
  void end_pass(std::size_t pass) {
    if ((pass + 1) % air_by_scene.size() == 0 && !is_traced(pass)) {
      host.rotations.emplace_back(host.cycle_ms.size(), host.plan_ms.size());
    }
  }

  bool done(std::size_t passes, double seconds) const {
    const std::size_t rotation = air_by_scene.size() * (trace_run ? 2 : 1);
    return passes > 0 && passes % rotation == 0 &&
           host.seconds + traced.seconds >= seconds;
  }

  /// Keeps a scene's first air-time outcome; later passes must match it.
  void record_air(std::size_t scene, const AirTally& pass) {
    std::optional<AirTally>& first = air_by_scene[scene];
    if (!first) {
      first = pass;
      return;
    }
    check(*first == pass,
          "air-time outcome differs between passes of the same scene");
  }

  /// The air-time outcome summed over the run's scenes.
  AirTally air() const {
    AirTally total;
    for (const std::optional<AirTally>& a : air_by_scene) total += a.value();
    return total;
  }

  void record_state(const StateTally& s) {
    state.history_tags = std::max(state.history_tags, s.history_tags);
    state.planner_live_rows =
        std::max(state.planner_live_rows, s.planner_live_rows);
    state.fleet_journal_entries =
        std::max(state.fleet_journal_entries, s.fleet_journal_entries);
    state.journal_entries += s.journal_entries;
    state.journal_cycles += s.journal_cycles;
  }
};

/// Times one run_cycle() of a single-reader controller.  A traced cycle
/// gets a root span, its layer spans and a shadow re-plan.
core::CycleReport timed_cycle(RunData& run, core::TagwatchController& ctl,
                              ReaderProbe* probe) {
  Tracer& tracer = run.tracer;
  std::uint32_t root = kNoSpan;
  if (probe != nullptr) {
    probe->begin_cycle();
    tracer.cycle = static_cast<std::uint32_t>(run.attempted);
    tracer.enabled = true;
    root = tracer.open(Layer::kController, 0);
  }
  const auto t0 = Clock::now();
  core::CycleReport r = ctl.run_cycle();
  const double ms = ms_since(t0);
  ++run.attempted;
  HostTally& host = probe != nullptr ? run.traced : run.host;
  host.cycle_ms.push_back(ms);
  host.plan_ms.push_back(r.schedule_compute_ms);
  host.seconds += ms / 1e3;
  if (probe != nullptr) {
    tracer.close(root);
    tracer.enabled = false;
    probe->end_cycle(run.trace);
    const std::int64_t plan_ns = probe->shadow.replan(r);
    // A copy: rebuilding appends spans and may reallocate the store.
    const Span span = tracer.spans()[root];
    probe->rebuild(tracer, root, r, plan_ns, span.end_ns);
    ++run.trace.cycles;
    run.trace.root_ns += static_cast<double>(span.end_ns - span.start_ns);
  }
  return r;
}

/// Warm-up ends once assessment has converged: the cycle read selectively
/// (untrained models flag every tag mobile, which forces read-all cycles)
/// and its assessed-mobile set repeats the previous cycle's.
class Convergence {
 public:
  /// Feeds one cycle; true once converged (or the warm-up cap is reached).
  bool done(const core::CycleReport& r) {
    std::vector<util::Epc> mobile = sorted(r.mobile);
    const bool same = !r.read_all_fallback && mobile == previous_;
    previous_ = std::move(mobile);
    return same || ++cycles_ >= kMaxWarmup;
  }

 private:
  std::vector<util::Epc> previous_;
  std::size_t cycles_ = 0;
};

/// Runs untimed cycles until assessment converges.
void warm_up(core::TagwatchController& ctl, ReaderProbe* probe) {
  Convergence convergence;
  for (;;) {
    const core::CycleReport r = ctl.run_cycle();
    if (probe != nullptr) probe->shadow.replan(r);
    if (convergence.done(r)) return;
  }
}

// --------------------------------------------------------- single reader
/// The §7.3 testbed: four antennas at (±5 m, ±5 m), one channel, tags in a
/// 6 m square.
struct TestbedScene {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, -5, 0}, 8.0},
                                    {3, {-5, 5, 0}, 8.0},
                                    {4, {5, 5, 0}, 8.0}};
  Truth truth;
  std::optional<llrp::SimReaderClient> sim;

  enum class Movers { kTurntable, kPickedItems };

  TestbedScene(std::size_t n_tags, std::size_t n_movers, Movers layout,
               std::uint64_t seed) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      sim::SimTag tag;
      tag.epc = util::Epc::random(rng);
      if (i < n_movers && layout == Movers::kTurntable) {
        // The E9 turntable: 20 cm radius, 0.7 m/s tangential speed.
        tag.motion = std::make_shared<sim::CircularTrack>(
            util::Vec3{0.5, 0.5, 0.0}, 0.2, 0.7,
            rng.uniform(0.0, util::kTwoPi));
      } else if (i < n_movers) {
        // Items being handled at random spots along the shelves.
        tag.motion = std::make_shared<sim::CircularTrack>(
            util::Vec3{rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), 0.5},
            0.15, 0.5, rng.uniform(0.0, util::kTwoPi));
      } else {
        tag.motion = std::make_shared<sim::StaticMotion>(util::Vec3{
            rng.uniform(-3, 3), rng.uniform(-3, 3),
            layout == Movers::kTurntable
                ? 0.0
                : 0.4 * static_cast<double>(rng.below(3))});
      }
      tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      if (i < n_movers) truth.add(tag);
      world.add_tag(std::move(tag));
    }
    sim.emplace(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                gen2::ReaderConfig{}, world, channel, antennas, seed + 1);
  }
};

core::TagwatchConfig turntable_config() {
  core::TagwatchConfig cfg;  // Paper defaults: Phase II 5 s, greedy cover.
  cfg.charge_compute_time = false;
  return cfg;
}

core::TagwatchConfig shelf_config() {
  // The documented large-scene configuration.
  core::TagwatchConfig cfg;
  cfg.planner.incremental = true;
  cfg.planner.threads = 2;
  cfg.assessor_threads = 2;
  cfg.charge_compute_time = false;
  return cfg;
}

void run_turntable(const Options& opt, RunData& run) {
  const core::TagwatchConfig cfg = turntable_config();
  for (std::size_t pass = 0; !run.done(pass, opt.seconds); ++pass) {
    const bool traced = run.is_traced(pass);
    const auto t0 = Clock::now();
    TestbedScene scene(kTurntableTags, kTurntableMovers,
                       TestbedScene::Movers::kTurntable,
                       scene_seed(opt.seed, run.scene_of(pass)));
    std::optional<TracingReaderClient> tap;
    if (traced) tap.emplace(*scene.sim, run.tracer, Layer::kReader, 0);
    llrp::ReaderClient& client =
        traced ? static_cast<llrp::ReaderClient&>(*tap) : *scene.sim;
    core::TagwatchController ctl(cfg, client);
    std::optional<ReaderProbe> probe;
    if (traced) {
      probe.emplace(0, *tap, cfg);
      probe->attach(ctl.pipeline());
    }
    ReaderProbe* p = probe ? &*probe : nullptr;
    warm_up(ctl, p);
    if (!traced) run.setup_s.push_back(ms_since(t0) / 1e3);

    AirTally air;
    const util::SimTime start = client.now();
    std::uint64_t giveups = ctl.health().giveups;
    for (std::size_t c = 0; c < kTurntableCycles; ++c) {
      const util::SimTime cycle_start = client.now();
      const core::CycleReport r = timed_cycle(run, ctl, p);
      check(client.now() == cycle_start + r.phase1_duration + r.phase2_duration,
            "reader clock moved outside Phase I and Phase II");
      observe(r, cycle_start, giveups, scene.truth, air);
      if (traced) run.trace.sim_slots += r.slot_totals.slots;
      giveups = r.health.giveups;
      ++air.cycles;
    }
    air.mover_timeline_present_us = scene.truth.present_us(start, client.now());
    run.record_air(run.scene_of(pass), air);
    StateTally state;
    add_controller_state(ctl, state);
    run.record_state(state);
    run.end_pass(pass);
  }
}

/// One simulator recording of the shelf scene: warm-up plus the cycles the
/// replay passes time.
struct ShelfRecording {
  llrp::ReaderJournal journal;
  std::vector<core::CycleReport> reports;  ///< Every recorded cycle.
  std::vector<util::SimTime> starts;       ///< Reader clock at each start.
  std::size_t warmup = 0;
  Truth truth;
};

ShelfRecording record_shelf(std::uint64_t seed) {
  const core::TagwatchConfig cfg = shelf_config();
  ShelfRecording rec;
  TestbedScene scene(kShelfTags, kShelfMovers,
                     TestbedScene::Movers::kPickedItems, seed);
  llrp::RecordingReaderClient recorder(*scene.sim);
  core::TagwatchController ctl(cfg, recorder);
  Convergence convergence;
  do {
    rec.starts.push_back(recorder.now());
    rec.reports.push_back(ctl.run_cycle());
  } while (!convergence.done(rec.reports.back()));
  rec.warmup = rec.reports.size();
  for (std::size_t c = 0; c < kShelfCycles; ++c) {
    rec.starts.push_back(recorder.now());
    rec.reports.push_back(ctl.run_cycle());
  }
  rec.journal = recorder.take_journal();
  rec.truth = std::move(scene.truth);
  return rec;
}

/// Air-time tally of the timed (post-warm-up) cycles of a shelf run.
AirTally shelf_air(const ShelfRecording& rec,
                   const std::vector<core::CycleReport>& reports,
                   util::SimTime end) {
  AirTally air;
  std::uint64_t giveups = reports[rec.warmup - 1].health.giveups;
  for (std::size_t c = rec.warmup; c < reports.size(); ++c) {
    observe(reports[c], rec.starts[c], giveups, rec.truth, air);
    giveups = reports[c].health.giveups;
    ++air.cycles;
  }
  air.mover_timeline_present_us =
      rec.truth.present_us(rec.starts[rec.warmup], end);
  return air;
}

/// Re-records a strict replay of `rec` untimed: it must give back the
/// recorded cycles and journal.
void verify_shelf_replay(const ShelfRecording& rec) {
  llrp::ReplayReaderClient replay(rec.journal);
  llrp::RecordingReaderClient recorder(replay);
  core::TagwatchController ctl(shelf_config(), recorder);
  for (const core::CycleReport& want : rec.reports) {
    check_same_cycle(ctl.run_cycle(), want);
  }
  check(replay.remaining() == 0, "replay left journal entries unread");
  // Only the capability header names the replay backend; every entry must
  // match.
  llrp::ReaderJournal again = recorder.take_journal();
  again.capabilities = rec.journal.capabilities;
  check(llrp::journal_digest(again) == llrp::journal_digest(rec.journal),
        "journal_digest of the replayed run differs from the recording");
}

void run_shelf(const Options& opt, RunData& run) {
  const core::TagwatchConfig cfg = shelf_config();
  run.journal_replayed = true;
  std::vector<ShelfRecording> recs;
  for (std::size_t i = 0; i < kShelfScenes; ++i) {
    const auto t0 = Clock::now();
    recs.push_back(record_shelf(scene_seed(opt.seed, i)));
    run.setup_s.push_back(ms_since(t0) / 1e3);
    verify_shelf_replay(recs.back());
  }

  for (std::size_t pass = 0; !run.done(pass, opt.seconds); ++pass) {
    const bool traced = run.is_traced(pass);
    const ShelfRecording& rec = recs[run.scene_of(pass)];
    llrp::ReplayReaderClient replay(rec.journal);
    std::optional<TracingReaderClient> tap;
    if (traced) tap.emplace(replay, run.tracer, Layer::kJournal, 0);
    llrp::ReaderClient& client =
        traced ? static_cast<llrp::ReaderClient&>(*tap) : replay;
    core::TagwatchController ctl(cfg, client);
    std::optional<ReaderProbe> probe;
    if (traced) {
      probe.emplace(0, *tap, cfg);
      probe->attach(ctl.pipeline());
    }
    ReaderProbe* p = probe ? &*probe : nullptr;
    std::vector<core::CycleReport> reports;
    reports.reserve(rec.reports.size());
    for (std::size_t c = 0; c < rec.warmup; ++c) {
      reports.push_back(ctl.run_cycle());
      if (p != nullptr) p->shadow.replan(reports.back());
      check_same_cycle(reports.back(), rec.reports[c]);
    }
    for (std::size_t c = rec.warmup; c < rec.reports.size(); ++c) {
      reports.push_back(timed_cycle(run, ctl, p));
      check_same_cycle(reports.back(), rec.reports[c]);
    }
    run.record_air(run.scene_of(pass), shelf_air(rec, reports, replay.now()));
    StateTally state;
    add_controller_state(ctl, state);
    state.journal_entries = rec.journal.size();
    state.journal_cycles = rec.reports.size();
    run.record_state(state);
    run.end_pass(pass);
  }
}

// ------------------------------------------------------------------ fleet
/// Four TDM readers along a strip of static shelves, crossed by conveyor
/// parcels.  Every reader is journaled; reader 1 suffers an outage.
struct FleetScene {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::shared_ptr<gen2::TagFlagField> field =
      std::make_shared<gen2::TagFlagField>(
          gen2::SessionTiming::spec_default());
  Truth truth;
  std::vector<std::unique_ptr<llrp::SimReaderClient>> sims;
  std::unique_ptr<llrp::FaultInjectingReaderClient> injector;
  std::vector<std::unique_ptr<TracingReaderClient>> reader_taps;
  std::vector<std::unique_ptr<llrp::RecordingReaderClient>> recorders;
  std::vector<std::unique_ptr<TracingReaderClient>> journal_taps;
  std::vector<core::FleetReaderSpec> specs;

  static constexpr double kPitch = 4.0;   // Zone spacing (m).
  static constexpr double kRadius = 3.0;  // Zone radius; seams overlap.
  static constexpr double kBeltSpeed = 1.0;   // m/s
  static constexpr double kParcelGapS = 1.0;  // Arrival spacing.
  static constexpr double kHorizonS = 400.0;  // Last parcel arrival.

  FleetScene(std::uint64_t seed, Tracer* tracer) {
    util::Rng rng(seed);
    const double strip_end = static_cast<double>(kFleetReaders - 1) * kPitch;
    for (std::size_t i = 0; i < kFleetReaders * kFleetShelfTagsPerZone;
         ++i) {
      sim::SimTag tag;
      tag.epc = util::Epc::random(rng);
      tag.motion = std::make_shared<sim::StaticMotion>(util::Vec3{
          rng.uniform(-1.5, strip_end + 1.5), rng.uniform(-1.5, 1.5), 0.0});
      tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(tag));
    }
    // Parcels ride the belt the whole length of the strip, entering and
    // leaving the scene at its ends.
    const double travel = strip_end + 2.0 * kRadius;
    for (double t = 0.0; t < kHorizonS; t += kParcelGapS) {
      const double arrive_s = t + rng.uniform(0.0, kParcelGapS / 2.0);
      sim::SimTag tag;
      tag.epc = util::Epc::random(rng);
      tag.arrives = util::from_seconds(arrive_s);
      tag.departs = util::from_seconds(arrive_s + travel / kBeltSpeed);
      tag.motion = std::make_shared<sim::LinearConveyor>(
          util::Vec3{-kRadius, rng.uniform(-0.8, 0.8), 0.5},
          util::Vec3{kBeltSpeed, 0, 0}, tag.arrives, travel);
      tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      truth.add(tag);
      world.add_tag(std::move(tag));
    }

    for (std::size_t r = 0; r < kFleetReaders; ++r) {
      const double cx = static_cast<double>(r) * kPitch;
      sim::Zone zone{"zone-" + std::to_string(r), {cx, 0, 0}, kRadius};
      gen2::ReaderConfig rc;
      rc.coverage = zone;
      sims.push_back(std::make_unique<llrp::SimReaderClient>(
          gen2::LinkTiming(gen2::LinkParams::paper_testbed()), rc, world,
          channel, std::vector<rf::Antenna>{{1, {cx, 0, 2}, 8.0}},
          seed + 10 + r, field));
      llrp::ReaderClient* client = sims.back().get();
      if (r == kFleetOutageReader) {
        llrp::FaultPlan plan;
        plan.seed = seed + 99;
        plan.outages.push_back({util::sec(60), util::sec(150)});
        injector =
            std::make_unique<llrp::FaultInjectingReaderClient>(*client, plan);
        client = injector.get();
      }
      if (tracer != nullptr) {
        reader_taps.push_back(std::make_unique<TracingReaderClient>(
            *client, *tracer, Layer::kReader, r));
        client = reader_taps.back().get();
      }
      recorders.push_back(
          std::make_unique<llrp::RecordingReaderClient>(*client));
      client = recorders.back().get();
      if (tracer != nullptr) {
        journal_taps.push_back(std::make_unique<TracingReaderClient>(
            *client, *tracer, Layer::kJournal, r));
        client = journal_taps.back().get();
      }
      specs.push_back({client, zone});
    }
  }
};

core::FleetConfig fleet_config() {
  core::FleetConfig cfg;
  cfg.controller.phase2_duration = util::sec(1);
  cfg.controller.planner.incremental = true;
  cfg.controller.charge_compute_time = false;
  cfg.takeover = core::TakeoverPolicy::kAdaptive;
  return cfg;
}

/// Replays the recorded per-reader journals through a fresh fleet and
/// checks it reproduces the recorded fleet journal.
void check_fleet_replay(const FleetScene& scene,
                        const core::FleetController& recorded,
                        std::size_t cycles) {
  std::vector<std::unique_ptr<llrp::ReplayReaderClient>> replays;
  std::vector<core::FleetReaderSpec> specs;
  for (std::size_t r = 0; r < kFleetReaders; ++r) {
    replays.push_back(std::make_unique<llrp::ReplayReaderClient>(
        scene.recorders[r]->journal()));
    specs.push_back({replays.back().get(), scene.specs[r].zone});
  }
  core::FleetController fleet(fleet_config(), specs, nullptr);
  for (std::size_t c = 0; c < cycles; ++c) fleet.run_cycle();
  check(llrp::fleet_journal_digest(fleet.journal()) ==
            llrp::fleet_journal_digest(recorded.journal()),
        "replayed per-reader journals give a different fleet_journal_digest");
}

void run_fleet(const Options& opt, RunData& run) {
  const core::FleetConfig cfg = fleet_config();
  run.journal_recorded = true;
  std::vector<std::uint64_t> digests(kFleetScenes, 0);
  for (std::size_t pass = 0; !run.done(pass, opt.seconds); ++pass) {
    const bool traced = run.is_traced(pass);
    const std::size_t scene_index = run.scene_of(pass);
    const auto t0 = Clock::now();
    FleetScene scene(scene_seed(opt.seed, scene_index),
                     traced ? &run.tracer : nullptr);
    core::FleetController fleet(cfg, scene.specs, &scene.world);
    std::vector<std::unique_ptr<ReaderProbe>> probes;
    if (traced) {
      for (std::size_t r = 0; r < kFleetReaders; ++r) {
        probes.push_back(std::make_unique<ReaderProbe>(
            r, *scene.journal_taps[r], fleet.controller(r).config()));
        probes.back()->attach(fleet.controller(r).pipeline());
      }
    }
    const auto replan_all = [&](const core::FleetCycleReport& fr,
                                std::vector<std::int64_t>* plan_ns) {
      for (const core::FleetReaderCycle& row : fr.readers) {
        if (row.skipped || probes.empty()) continue;
        const std::int64_t ns = probes[row.reader]->shadow.replan(row.report);
        if (plan_ns != nullptr) (*plan_ns)[row.reader] = ns;
      }
    };
    for (std::size_t c = 0; c < kFleetWarmupCycles; ++c) {
      replan_all(fleet.run_cycle(), nullptr);
    }
    if (!traced) run.setup_s.push_back(ms_since(t0) / 1e3);

    AirTally air;
    std::vector<std::uint64_t> giveups(kFleetReaders, 0);
    for (std::size_t r = 0; r < kFleetReaders; ++r) {
      giveups[r] = fleet.controller(r).health().giveups;
    }
    const util::SimTime start = scene.world.now();
    for (std::size_t c = 0; c < kFleetCycles; ++c) {
      Tracer& tracer = run.tracer;
      std::uint32_t root = kNoSpan;
      if (traced) {
        for (auto& p : probes) p->begin_cycle();
        tracer.cycle = static_cast<std::uint32_t>(run.attempted);
        tracer.enabled = true;
        root = tracer.open(Layer::kFleet, 0);
      }
      util::SimTime t = scene.world.now();
      const auto c0 = Clock::now();
      const core::FleetCycleReport fr = fleet.run_cycle();
      const double ms = ms_since(c0);
      ++run.attempted;
      HostTally& host = traced ? run.traced : run.host;
      host.cycle_ms.push_back(ms);
      host.seconds += ms / 1e3;
      for (const core::FleetReaderCycle& row : fr.readers) {
        if (!row.skipped) host.plan_ms.push_back(row.report.schedule_compute_ms);
      }

      if (traced) {
        tracer.close(root);
        tracer.enabled = false;
        std::vector<std::int64_t> plan_ns(kFleetReaders, 0);
        replan_all(fr, &plan_ns);
        // A copy: rebuilding appends spans and may reallocate the store.
        const Span span = tracer.spans()[root];
        // Each reader's work ends where the next reader's first execute
        // starts (TDM order), the last one's at the fleet cycle's end.
        std::vector<std::int64_t> window_end(kFleetReaders, span.end_ns);
        std::int64_t next_start = span.end_ns;
        for (std::size_t r = kFleetReaders; r-- > 0;) {
          window_end[r] = next_start;
          const std::int64_t s = probes[r]->first_start_ns(tracer);
          if (s >= 0) next_start = s;
        }
        for (const core::FleetReaderCycle& row : fr.readers) {
          probes[row.reader]->end_cycle(run.trace);
          probes[row.reader]->rebuild(tracer, root, row.report,
                                      plan_ns[row.reader],
                                      window_end[row.reader]);
          if (!row.skipped) run.trace.sim_slots += row.report.slot_totals.slots;
        }
        ++run.trace.cycles;
        run.trace.root_ns += static_cast<double>(span.end_ns - span.start_ns);
      }

      for (const core::FleetReaderCycle& row : fr.readers) {
        if (row.skipped || row.state == core::ReaderState::kDown) {
          ++air.down_cycles;
        }
        if (row.skipped) continue;
        observe(row.report, t, giveups[row.reader], scene.truth, air);
        giveups[row.reader] = row.report.health.giveups;
        t += row.report.phase1_duration + row.report.phase2_duration;
      }
      check(t == scene.world.now(),
            "fleet clock moved outside the readers' Phase I and Phase II");
      air.readings_total += fr.readings_total;
      air.duplicates += fr.duplicates_total;
      air.handoffs += fr.handoffs.size();
      ++air.cycles;
    }
    check(scene.world.now() < util::from_seconds(FleetScene::kHorizonS),
          "fleet pass outran the parcel schedule");
    air.mover_timeline_present_us =
        scene.truth.present_us(start, scene.world.now());
    run.record_air(scene_index, air);
    const std::uint64_t digest = llrp::fleet_journal_digest(fleet.journal());
    if (pass < kFleetScenes) {
      check_fleet_replay(scene, fleet, kFleetWarmupCycles + kFleetCycles);
      digests[scene_index] = digest;
    }
    check(digest == digests[scene_index],
          "fleet_journal_digest differs between passes of the same scene");

    StateTally state;
    for (std::size_t r = 0; r < kFleetReaders; ++r) {
      add_controller_state(fleet.controller(r), state);
      state.journal_entries += scene.recorders[r]->journal().size();
    }
    state.fleet_journal_entries = fleet.journal().size();
    state.journal_cycles = kFleetWarmupCycles + kFleetCycles;
    run.record_state(state);
    run.end_pass(pass);
  }
}

// ---------------------------------------------------------------- metrics
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Median over blocks of `stat(cycle_ms block, plan_ms block)`.  Blocks
/// are runs of whole rotations holding at least kBlock cycles; rotations
/// left over at the end join the last block.
template <typename Stat>
double block_median(const HostTally& h, Stat stat) {
  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  std::pair<std::size_t, std::size_t> from{0, 0};
  for (const auto& end : h.rotations) {
    if (end.first - from.first >= kBlock) {
      cuts.push_back(end);
      from = end;
    }
  }
  if (cuts.empty()) {
    cuts.emplace_back(h.cycle_ms.size(), h.plan_ms.size());
  } else {
    cuts.back() = {h.cycle_ms.size(), h.plan_ms.size()};
  }
  std::vector<double> values;
  from = {0, 0};
  for (const auto& to : cuts) {
    const auto slice = [](const std::vector<double>& v, std::size_t a,
                          std::size_t b) {
      return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(a),
                                 v.begin() + static_cast<std::ptrdiff_t>(b));
    };
    values.push_back(stat(slice(h.cycle_ms, from.first, to.first),
                          slice(h.plan_ms, from.second, to.second)));
    from = to;
  }
  return percentile(values, 0.5);
}

std::vector<Metric> end_to_end(const RunData& run) {
  const AirTally air = run.air();
  const HostTally& h = run.host;
  const auto cycles = [&](double q) {
    return block_median(h, [q](const std::vector<double>& c,
                               const std::vector<double>&) {
      return percentile(c, q);
    });
  };
  const auto plans = [&](double q) {
    return block_median(h, [q](const std::vector<double>&,
                               const std::vector<double>& p) {
      return percentile(p, q);
    });
  };
  const double cycles_per_s =
      block_median(h, [](const std::vector<double>& c,
                         const std::vector<double>&) {
        double ms = 0.0;
        for (const double x : c) ms += x;
        return ratio(static_cast<double>(c.size()), ms / 1e3);
      });
  return {
      {"setup_s", percentile(run.setup_s, 0.5), "s"},
      {"cycles_per_s", cycles_per_s, "1/s"},
      {"cycle_ms_p50", cycles(0.5), "ms"},
      {"cycle_ms_p90", cycles(0.9), "ms"},
      {"plan_ms_p50", plans(0.5), "ms"},
      {"plan_ms_p90", plans(0.9), "ms"},
      {"mover_irr_hz",
       ratio(static_cast<double>(air.mover_p2_reads),
             static_cast<double>(air.mover_p2_present_us) / 1e6),
       "Hz"},
      {"mover_cycle_irr_hz",
       ratio(static_cast<double>(air.mover_p2_reads),
             static_cast<double>(air.mover_timeline_present_us) / 1e6),
       "Hz"},
      {"ok_cycle_ratio",
       1.0 - ratio(static_cast<double>(air.failed_reader_cycles),
                   static_cast<double>(air.reader_cycles)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const RunData& run) {
  const AirTally air = run.air();
  const TraceTally& tr = run.trace;
  const Tracer::SelfTimes self = run.tracer.self_times();
  const auto n = static_cast<double>(tr.cycles);
  const auto layer_ms = [&](Layer layer) {
    return ratio(self.layer_ns[static_cast<std::size_t>(layer)] / 1e6, n);
  };
  double self_sum_ns = 0.0;
  for (const double ns : self.layer_ns) self_sum_ns += ns;
  const double reader_ns = self.layer_ns[static_cast<std::size_t>(Layer::kReader)];
  const double journal_ms = layer_ms(Layer::kJournal);
  const double traced_cps =
      ratio(static_cast<double>(run.traced.cycle_ms.size()), run.traced.seconds);
  const double untraced_cps =
      ratio(static_cast<double>(run.host.cycle_ms.size()), run.host.seconds);
  const auto per_reader_cycle = [&](std::uint64_t count) {
    return ratio(static_cast<double>(count),
                 static_cast<double>(air.reader_cycles));
  };
  return {
      {"reader.phase1_ms", ratio(self.reader_phase_ns[1] / 1e6, n), "ms"},
      {"reader.phase2_ms", ratio(self.reader_phase_ns[2] / 1e6, n), "ms"},
      {"reader.share", ratio(reader_ns, tr.root_ns), "ratio"},
      {"reader.host_ns_per_slot",
       ratio(reader_ns, static_cast<double>(tr.sim_slots)), "ns"},
      {"reader.success_slot_ratio",
       ratio(static_cast<double>(air.success_slots),
             static_cast<double>(air.slots)),
       "ratio"},
      {"air.phase1_s",
       ratio(static_cast<double>(air.phase1_air_us) / 1e6,
             static_cast<double>(air.reader_cycles)),
       "s"},
      {"journal.replay_ms", run.journal_replayed ? journal_ms : 0.0, "ms"},
      {"journal.record_ms", run.journal_recorded ? journal_ms : 0.0, "ms"},
      {"journal.entries_per_cycle",
       ratio(static_cast<double>(run.state.journal_entries),
             static_cast<double>(run.state.journal_cycles)),
       "count"},
      {"pipeline.assessor_ms", ratio(tr.sinks.assessor_s * 1e3, n), "ms"},
      {"pipeline.history_ms", ratio(tr.sinks.history_s * 1e3, n), "ms"},
      {"pipeline.other_ms", ratio(tr.sinks.other_s * 1e3, n), "ms"},
      {"pipeline.us_per_reading",
       ratio(tr.sinks.total_s() * 1e6, static_cast<double>(tr.sinks.readings)),
       "us"},
      {"pipeline.batches_per_cycle",
       ratio(static_cast<double>(tr.sinks.batches), n), "count"},
      {"assessor.assess_ms", layer_ms(Layer::kAssessor), "ms"},
      {"assessor.false_mobile", per_reader_cycle(air.false_mobile), "count"},
      {"assessor.missed_movers", per_reader_cycle(air.missed_movers), "count"},
      {"planner.plan_ms", layer_ms(Layer::kPlanner), "ms"},
      {"planner.selections",
       ratio(static_cast<double>(air.selections),
             static_cast<double>(air.planned)),
       "count"},
      {"planner.collateral_ratio",
       ratio(static_cast<double>(air.covered), static_cast<double>(air.targets)),
       "ratio"},
      {"planner.rebuild_ratio",
       ratio(static_cast<double>(air.rebuilds),
             static_cast<double>(air.planned)),
       "ratio"},
      {"controller.self_ms", layer_ms(Layer::kController), "ms"},
      {"fleet.self_ms", layer_ms(Layer::kFleet), "ms"},
      {"fleet.dup_ratio",
       ratio(static_cast<double>(air.duplicates),
             static_cast<double>(air.readings_total)),
       "ratio"},
      {"fleet.handoffs_per_cycle",
       ratio(static_cast<double>(air.handoffs), static_cast<double>(air.cycles)),
       "count"},
      {"fleet.down_cycles", static_cast<double>(air.down_cycles), "count"},
      {"state.history_tags", static_cast<double>(run.state.history_tags),
       "count"},
      {"state.planner_live_rows",
       static_cast<double>(run.state.planner_live_rows), "count"},
      {"state.fleet_journal_entries",
       static_cast<double>(run.state.fleet_journal_entries), "count"},
      {"trace.cycle_ms", ratio(tr.root_ns / 1e6, n), "ms"},
      {"trace.self_sum_ms", ratio(self_sum_ns / 1e6, n), "ms"},
      {"trace.untraced_cycle_ms",
       ratio(run.host.seconds * 1e3,
             static_cast<double>(run.host.cycle_ms.size())),
       "ms"},
      {"trace.cycles_per_s", traced_cps, "1/s"},
      {"trace.untraced_cycles_per_s", untraced_cps, "1/s"},
      {"trace.overhead_ratio", 1.0 - ratio(traced_cps, untraced_cps), "ratio"},
  };
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_turntable",
                                              "shelf_replay", "fleet_conveyor"};
  return names;
}

Result run_workload(const Options& options) {
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  const std::size_t scenes = options.workload == "paper_turntable"
                                 ? kTurntableScenes
                             : options.workload == "shelf_replay"
                                 ? kShelfScenes
                                 : kFleetScenes;
  RunData run(scenes, options.trace);
  Result result;
  try {
    if (options.workload == "paper_turntable") {
      run_turntable(options, run);
    } else if (options.workload == "shelf_replay") {
      run_shelf(options, run);
    } else {
      run_fleet(options, run);
    }
  } catch (const CheckFailure& e) {
    result.correct = false;
    result.failure = e.what();
  } catch (const std::exception& e) {
    // The program under test threw (a strict replay diverging, say).
    result.correct = false;
    result.failed = 1;
    result.failure = e.what();
  }
  result.attempted = run.attempted;
  if (!result.correct) return result;
  if (options.trace) {
    run.tracer.write_chrome_trace(options.trace_path, kTraceFileCycles);
    result.metrics = per_layer(run);
  } else {
    result.metrics = end_to_end(run);
  }
  return result;
}

}  // namespace perfbench
