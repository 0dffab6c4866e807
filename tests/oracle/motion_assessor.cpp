#include "oracle/motion_assessor.hpp"

#include <algorithm>

namespace tagwatch::oracle {

MotionAssessor::MotionAssessor(core::AssessorConfig config)
    : config_(std::move(config)) {}

void MotionAssessor::begin_window() {
  window_open_ = true;
  ++window_epoch_;
  last_window_.clear();
}

void MotionAssessor::ingest(const rf::TagReading& reading) {
  auto it = tags_.find(reading.epc);
  if (it == tags_.end()) {
    TagState state;
    state.detector =
        core::make_detector(config_.detector_kind, config_.detector);
    it = tags_.emplace(reading.epc, std::move(state)).first;
  }
  TagState& state = it->second;
  const core::MotionVerdict verdict = state.detector->update(reading);
  state.last_seen = reading.timestamp;
  if (window_open_) {
    if (state.window_epoch != window_epoch_) {
      // First reading of this tag in the current window: its counters
      // still belong to an earlier window — reset them now instead of
      // walking every tracked tag in begin_window().
      state.window_epoch = window_epoch_;
      state.window_readings = 0;
      state.moving_votes = 0;
    }
    ++state.window_readings;
    if (verdict == core::MotionVerdict::kMoving) ++state.moving_votes;
  }
}

const std::vector<core::TagAssessment>& MotionAssessor::assess(
    util::SimTime now) {
  if (!window_open_) {
    // The window is already closed: replay its cached result instead of
    // re-applying forget_after eviction at a later `now` (which would
    // silently drop tags the window did assess).
    return last_window_;
  }
  window_open_ = false;
  std::vector<core::TagAssessment> out;
  for (auto it = tags_.begin(); it != tags_.end();) {
    TagState& state = it->second;
    if (now - state.last_seen > config_.forget_after) {
      // §4.3: a tag gone for a long while has its models removed; if it
      // returns it is treated as new (and initially presumed mobile).
      it = tags_.erase(it);
      continue;
    }
    // Counters from an older epoch mean the tag was not read this window.
    if (state.window_epoch == window_epoch_ && state.window_readings > 0) {
      core::TagAssessment a;
      a.epc = it->first;
      a.window_readings = state.window_readings;
      a.moving_votes = state.moving_votes;
      a.mobile = state.moving_votes >= config_.mobile_vote_threshold;
      out.push_back(std::move(a));
    }
    ++it;
  }
  std::sort(out.begin(), out.end(),
            [](const core::TagAssessment& a, const core::TagAssessment& b) {
              return a.epc < b.epc;
            });
  last_window_ = std::move(out);
  return last_window_;
}

std::vector<util::Epc> MotionAssessor::mobile_tags(util::SimTime now) {
  std::vector<util::Epc> mobile;
  for (const core::TagAssessment& a : assess(now)) {
    if (a.mobile) mobile.push_back(a.epc);
  }
  return mobile;
}

const core::MotionDetector* MotionAssessor::detector_for(
    const util::Epc& epc) const {
  const auto it = tags_.find(epc);
  return it == tags_.end() ? nullptr : it->second.detector.get();
}

}  // namespace tagwatch::oracle
