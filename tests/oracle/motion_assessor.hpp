// Test oracle: the serial, one-detector-per-tag Phase-I motion assessor.
//
// The controller runs core::ParallelAssessor.  This class is the readable
// reference it must match bit for bit: one MotionDetector per tag (any
// DetectorKind) behind an unordered_map, fed one reading at a time.  It
// also implements the §4.3 "reading exceptions" policy: state for tags
// that leave the field for a long time is dropped; unknown tags are
// admitted (and initially presumed mobile) on their first reading.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/detectors.hpp"
#include "core/parallel_assessor.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::oracle {

/// Serial Phase-I motion assessor (same window protocol as
/// core::ParallelAssessor: begin_window / ingest / assess).
class MotionAssessor {
 public:
  explicit MotionAssessor(core::AssessorConfig config = {});

  /// Opens an assessment window; call at the start of each Phase I.
  /// O(1): vote counters are invalidated by bumping the window epoch, not
  /// by walking every tracked tag.
  void begin_window();

  /// Feeds one reading (from either phase): updates that tag's detector.
  /// Readings between begin_window/assess contribute votes; readings at
  /// other times only train the models (§4.3 "when do we learn").
  void ingest(const rf::TagReading& reading);

  /// Ends the window: returns per-tag assessments for tags read in the
  /// window and evicts tags unseen since `now - forget_after`.
  ///
  /// Idempotent per window: the first call after begin_window() computes
  /// the result (and applies eviction once); later calls — including via
  /// mobile_tags() — return the cached result unchanged, regardless of
  /// `now`, until the next begin_window().  The reference stays valid
  /// until the next begin_window()/assess() call.
  const std::vector<core::TagAssessment>& assess(util::SimTime now);

  /// EPCs assessed mobile in the last window (convenience over assess()).
  std::vector<util::Epc> mobile_tags(util::SimTime now);

  /// Tags currently tracked (have detector state).
  std::size_t tracked_count() const noexcept { return tags_.size(); }

  /// The detector for a tag, or nullptr.
  const core::MotionDetector* detector_for(const util::Epc& epc) const;

  const core::AssessorConfig& config() const noexcept { return config_; }

 private:
  struct TagState {
    std::unique_ptr<core::MotionDetector> detector;
    util::SimTime last_seen{0};
    /// Which window the counters below belong to; counters from an older
    /// epoch are stale and reset lazily on the next in-window reading.
    std::uint64_t window_epoch = 0;
    std::size_t window_readings = 0;
    std::size_t moving_votes = 0;
  };

  core::AssessorConfig config_;
  bool window_open_ = false;
  /// Current window identity; 0 means "no window opened yet" (TagState
  /// epochs start at 0 and the first open window is epoch 1).
  std::uint64_t window_epoch_ = 0;
  /// Result of the last closed window, replayed by repeat assess() calls.
  std::vector<core::TagAssessment> last_window_;
  std::unordered_map<util::Epc, TagState> tags_;
};

}  // namespace tagwatch::oracle
