// In-memory span tracing for the whole-cycle benchmark.
//
// Spans are recorded from the benchmark's own code only, around the calls
// it makes into each layer's public functions:
//
//   * TracingReaderClient wraps a llrp::ReaderClient and times execute()
//     (the reader layer around the simulator, the journal layer around a
//     recording or replay client);
//   * pipeline, assessment and planning spans are rebuilt after each
//     cycle from ReadingPipeline per-sink stat deltas,
//     CycleReport::schedule_compute_ms and a shadow re-plan, and placed in
//     the host-time gaps between the execute() spans where that work ran.
//
// Each timed cycle gets one root span; every layer span of that cycle is
// its descendant.  A layer's self time is its spans' durations minus the
// part covered by their child spans, so the self times of one cycle sum to
// the root span's duration exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "llrp/reader_client.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kController,  ///< TagwatchController glue (single-reader cycle root).
  kFleet,       ///< FleetController (fleet cycle root).
  kReader,      ///< gen2 + rf + sim behind SimReaderClient.
  kJournal,     ///< Recording / replay clients.
  kPipeline,    ///< ReadingPipeline and its sinks.
  kAssessor,    ///< Motion assessment.
  kPlanner,     ///< Phase-II bitmask planning.
};
inline constexpr std::size_t kLayerCount = 7;
const char* layer_name(Layer layer);

inline constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

struct Span {
  std::uint32_t parent = kNoSpan;
  Layer layer = Layer::kController;
  std::uint8_t phase = 0;    ///< 1 or 2 for execute() spans, else 0.
  std::uint16_t reader = 0;  ///< Fleet reader index (0 standalone).
  std::uint32_t cycle = 0;   ///< Timed-cycle index within the run.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t sim_start_us = -1;  ///< Reader clock at execute() start.
};

/// Append-only span store.  Single-threaded: only the thread driving the
/// controllers records spans.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Whether decorators record; off during set-up and untimed cycles.
  bool enabled = false;
  std::uint32_t cycle = 0;

  /// Opens a span under the innermost open one (or as a root).
  std::uint32_t open(Layer layer, std::size_t reader,
                     std::int64_t sim_start_us = -1);
  void close(std::uint32_t id);
  /// Records an already-finished span under `parent`.
  std::uint32_t add(Layer layer, std::uint32_t parent, std::size_t reader,
                    std::int64_t start_ns, std::int64_t end_ns);

  std::vector<Span>& spans() noexcept { return spans_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per layer, summed over every span, in nanoseconds.
  /// Execute spans of the reader layer are split by phase into
  /// reader_phase_ns.
  struct SelfTimes {
    std::array<double, kLayerCount> layer_ns{};
    std::array<double, 3> reader_phase_ns{};
  };
  SelfTimes self_times() const;

  /// Writes the spans of the first `max_cycles` root spans (and their
  /// descendants) as Chrome trace-event JSON: "X" events on one thread, so
  /// a cycle span visually nests its layer spans.
  void write_chrome_trace(const std::string& path,
                          std::size_t max_cycles) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// ReaderClient decorator timing execute() into a Tracer.  When the tracer
/// is disabled it forwards without touching the clock.
class TracingReaderClient final : public tagwatch::llrp::ReaderClient {
 public:
  TracingReaderClient(tagwatch::llrp::ReaderClient& inner, Tracer& tracer,
                      Layer layer, std::size_t reader)
      : inner_(&inner), tracer_(&tracer), layer_(layer), reader_(reader) {}

  /// Called (while tracing) at the start of every execute(), before its
  /// span opens: the point where the previous execute's pipeline delivery
  /// has finished.
  std::function<void()> on_execute;
  /// Ids of the execute() spans this client recorded, in order.
  std::vector<std::uint32_t> executed;

  tagwatch::llrp::ExecutionResult execute(
      const tagwatch::llrp::ROSpec& spec) override;
  tagwatch::util::SimTime now() const override { return inner_->now(); }
  void set_read_listener(tagwatch::gen2::ReadCallback listener) override {
    inner_->set_read_listener(std::move(listener));
  }
  tagwatch::llrp::ReaderCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  void advance(tagwatch::util::SimDuration d) override { inner_->advance(d); }
  bool set_coverage_zone(const tagwatch::sim::Zone& zone) override {
    return inner_->set_coverage_zone(zone);
  }

 private:
  tagwatch::llrp::ReaderClient* inner_;
  Tracer* tracer_;
  Layer layer_;
  std::size_t reader_;
};

}  // namespace perfbench
