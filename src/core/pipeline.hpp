// The reading delivery pipeline: composable consumers of tag readings.
//
// Fig. 5 shows every reading from both phases flowing upward to several
// consumers at once — the application, the history database, the assessor's
// immobility-model training, telemetry.  ReadingPipeline makes that fan-out
// explicit: an ordered list of ReadingSinks, each with its own delivery,
// drop, and dispatch-latency accounting, so observability is no longer
// interleaved with the controller's control flow.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rf/measurement.hpp"
#include "util/wall_clock.hpp"

namespace tagwatch::core {

struct CycleReport;  // core/tagwatch.hpp
class HistoryDatabase;
class ParallelAssessor;

/// Which controller phase produced a reading.
enum class ReadPhase {
  kPhase1,  ///< Inventory-everything assessment phase.
  kPhase2,  ///< Selective (or fallback read-all) intensive phase.
};

/// Delivery metadata accompanying every reading.
struct ReadingContext {
  std::size_t cycle_index = 0;
  ReadPhase phase = ReadPhase::kPhase1;
  /// Which reader produced the reading (index into the fleet's reader
  /// list; 0 for single-reader deployments).  Sinks and the pipeline's
  /// accounting attribute per source, so one slow zone shows up as that
  /// zone, not as an aggregate.
  std::size_t source_id = 0;
  /// True when the reading retired an entry of the fleet's re-cover queue:
  /// a tag orphaned by a Down reader, now re-covered by a survivor's
  /// expanded zone.  Accounted per sink in SinkStats::recovered.
  bool recovered = false;
};

/// One consumer of the reading stream.
class ReadingSink {
 public:
  virtual ~ReadingSink() = default;

  /// Stable identifier; unique within a pipeline (set_sink replaces by it).
  virtual std::string_view name() const = 0;

  /// Handles one reading.  Return false to count it as dropped by this
  /// sink (delivery continues to the remaining sinks either way).
  virtual bool on_reading(const rf::TagReading& reading,
                          const ReadingContext& context) = 0;

  /// End-of-cycle notification with the finished report (schedule, slot
  /// totals, fallback flag...).  Default: ignore.
  virtual void on_cycle_end(const CycleReport& report) { (void)report; }
};

/// Per-(sink, source) delivery accounting.  Single-reader pipelines only
/// ever populate source 0, so their stats() snapshot looks exactly as it
/// did before sources existed; fleet pipelines get one row per sink per
/// reader that actually dispatched through it.
struct SinkStats {
  std::string name;
  /// The ReadingContext::source_id this row accounts for.
  std::size_t source_id = 0;
  std::uint64_t delivered = 0;  ///< Readings the sink accepted.
  std::uint64_t dropped = 0;    ///< Readings the sink declined or threw on.
  /// Delivered readings flagged ReadingContext::recovered — orphans of a
  /// Down reader re-covered through zone takeover.
  std::uint64_t recovered = 0;
  /// Calls on which the sink threw — on_reading throws (each also counted
  /// in `dropped`) plus on_cycle_end throws.  A throwing sink is isolated:
  /// delivery continues to the remaining sinks and the cycle never crashes.
  std::uint64_t exceptions = 0;
  /// Timed delivery calls: one per non-empty dispatch_batch().
  /// dispatch_seconds accrues one clock-pair per batch, so
  /// `dispatch_seconds / batches` is the exact per-call cost under a
  /// FakeWallClock.
  std::uint64_t batches = 0;
  double dispatch_seconds = 0;  ///< Host wall time spent inside the sink.

  /// Mean per-reading dispatch cost in microseconds (0 when idle).
  double mean_dispatch_us() const {
    const std::uint64_t n = delivered + dropped;
    return n == 0 ? 0.0 : dispatch_seconds * 1e6 / static_cast<double>(n);
  }
};

/// Ordered fan-out of the reading stream to sinks, with accounting.
class ReadingPipeline {
 public:
  /// Appends a sink (delivery order == registration order).
  void add_sink(std::shared_ptr<ReadingSink> sink);

  /// Host clock used for per-sink dispatch timing.  Defaults to the
  /// steady_clock-backed system clock; tests inject a FakeWallClock to
  /// make latency accounting exact.  `clock` must outlive the pipeline.
  void set_wall_clock(util::WallClock& clock) { clock_ = &clock; }

  /// Replaces the sink with the same name, or appends if none matches.
  void set_sink(std::shared_ptr<ReadingSink> sink);

  /// Removes the named sink; returns whether one was found.
  bool remove_sink(std::string_view name);

  /// The named sink, or nullptr.
  ReadingSink* find(std::string_view name);

  std::size_t sink_count() const noexcept { return entries_.size(); }

  /// Delivers a whole batch sink-by-sink (sink A sees the full batch
  /// before sink B sees any of it — sinks are independent consumers, so
  /// per-reading interleaving is not observable).  Accounting is exact
  /// per reading (delivered/dropped/exceptions), but the wall clock is
  /// read once per sink per batch, not once per sink per reading.  A
  /// sink that throws loses that reading only: delivery continues to the
  /// remaining readings and sinks, and the cycle survives.
  void dispatch_batch(const std::vector<rf::TagReading>& readings,
                      const ReadingContext& context);

  /// Forwards the cycle-end notification to every sink.
  void end_cycle(const CycleReport& report);

  /// Readings pushed through the pipeline so far (all phases).
  std::uint64_t dispatched_total() const noexcept { return dispatched_; }

  /// Accounting snapshot: one row per (sink, source) pair, sinks in
  /// delivery order, sources in first-seen order within each sink.
  /// Single-source pipelines get exactly one row per sink (source 0).
  std::vector<SinkStats> stats() const;

 private:
  struct Entry {
    std::shared_ptr<ReadingSink> sink;
    /// Per-source accounting rows; [0] always exists (cycle-end exception
    /// accounting and single-reader dispatch land there).
    std::vector<SinkStats> stats;
  };
  /// The entry's accounting row for `source_id`, created on first use.
  static SinkStats& stats_slot(Entry& entry, std::size_t source_id);

  std::vector<Entry> entries_;
  std::uint64_t dispatched_ = 0;
  util::WallClock* clock_ = &util::WallClock::system();
};

// ------------------------------------------------------- built-in sinks

/// Application delivery: wraps a plain callback (the classic listener).
class CallbackSink final : public ReadingSink {
 public:
  using Callback = std::function<void(const rf::TagReading&)>;

  CallbackSink(std::string name, Callback callback)
      : name_(std::move(name)), callback_(std::move(callback)) {}

  std::string_view name() const override { return name_; }
  bool on_reading(const rf::TagReading& reading,
                  const ReadingContext& context) override {
    (void)context;
    if (!callback_) return false;
    callback_(reading);
    return true;
  }

 private:
  std::string name_;
  Callback callback_;
};

/// Records every reading into a HistoryDatabase.
class HistorySink final : public ReadingSink {
 public:
  /// `history` must outlive the sink.
  explicit HistorySink(HistoryDatabase& history) : history_(&history) {}

  std::string_view name() const override { return "history"; }
  bool on_reading(const rf::TagReading& reading,
                  const ReadingContext& context) override;

 private:
  HistoryDatabase* history_;
};

/// Feeds every reading to the motion assessor (immobility-model training —
/// Phase II readings continuing to train is what makes state transitions
/// converge within about one cycle, §4.3).  Named "assessor".
class ParallelAssessorSink final : public ReadingSink {
 public:
  /// `assessor` must outlive the sink.
  explicit ParallelAssessorSink(ParallelAssessor& assessor)
      : assessor_(&assessor) {}

  std::string_view name() const override { return "assessor"; }
  bool on_reading(const rf::TagReading& reading,
                  const ReadingContext& context) override;

 private:
  ParallelAssessor* assessor_;
};

}  // namespace tagwatch::core
