// Injectable host-clock hook.
//
// Everything on the *simulation* timeline runs on util::SimTime and is
// deterministic by construction.  A few places legitimately measure *host*
// wall time — per-sink dispatch latency in the reading pipeline, the
// scheduler's compute time (Fig. 17) — as telemetry that never reaches the
// simulated clock or a journal, and no other file in src/ may
// read a raw std::chrono clock (lint rule `determinism`, checked by the
// LintSelfCheck test).
// WallClock is the seam: production code uses the steady_clock-backed
// system() singleton, tests inject a FakeWallClock and assert latency
// accounting exactly.
#pragma once

namespace tagwatch::util {

/// Monotonic host-time source, in fractional seconds from an arbitrary
/// epoch.  Implementations must be monotonic but need not be steady in
/// rate (fakes advance manually).
class WallClock {
 public:
  WallClock() = default;
  WallClock(const WallClock&) = delete;
  WallClock& operator=(const WallClock&) = delete;
  virtual ~WallClock() = default;

  /// Current host time in seconds.
  virtual double now_seconds() = 0;

  /// The process-wide default clock (std::chrono::steady_clock).
  static WallClock& system();
};

/// Manually-driven clock for tests.  Each now_seconds() call returns the
/// current time, then advances it by `auto_step` — so a code path that
/// brackets a region with two reads observes exactly `auto_step` seconds
/// per region, making latency accounting assertable to the last digit.
class FakeWallClock final : public WallClock {
 public:
  explicit FakeWallClock(double auto_step = 0.0) : auto_step_(auto_step) {}

  double now_seconds() override {
    const double t = now_;
    now_ += auto_step_;
    return t;
  }

  /// Moves the clock forward without a read.
  void advance(double seconds) { now_ += seconds; }

  /// The time the next now_seconds() call will return.
  double peek() const { return now_; }

 private:
  double now_ = 0.0;
  double auto_step_ = 0.0;
};

}  // namespace tagwatch::util
