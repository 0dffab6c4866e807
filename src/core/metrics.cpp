#include "core/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/tagwatch.hpp"

namespace tagwatch::core {

IrrMonitor::IrrMonitor(util::SimDuration window) : window_(window) {
  if (window <= util::SimDuration::zero()) {
    throw std::invalid_argument("IrrMonitor: window must be positive");
  }
}

void IrrMonitor::record(const rf::TagReading& reading) {
  auto& times = readings_[reading.epc];
  times.push_back(reading.timestamp);
  trim(times, reading.timestamp);
}

void IrrMonitor::trim(std::deque<util::SimTime>& times,
                      util::SimTime now) const {
  const util::SimTime cutoff =
      now >= util::SimTime{0} + window_ ? now - window_ : util::SimTime{0};
  while (!times.empty() && times.front() < cutoff) times.pop_front();
}

std::size_t IrrMonitor::count_in_window(const util::Epc& epc,
                                        util::SimTime now) const {
  const auto it = readings_.find(epc);
  if (it == readings_.end()) return 0;
  const util::SimTime cutoff =
      now >= util::SimTime{0} + window_ ? now - window_ : util::SimTime{0};
  return static_cast<std::size_t>(std::count_if(
      it->second.begin(), it->second.end(),
      [cutoff, now](util::SimTime t) { return t >= cutoff && t <= now; }));
}

double IrrMonitor::irr_hz(const util::Epc& epc, util::SimTime now) const {
  return static_cast<double>(count_in_window(epc, now)) /
         util::to_seconds(window_);
}

std::vector<std::pair<util::Epc, double>> IrrMonitor::snapshot(
    util::SimTime now) const {
  std::vector<std::pair<util::Epc, double>> out;
  out.reserve(readings_.size());
  for (const auto& [epc, times] : readings_) {
    (void)times;
    const double rate = irr_hz(epc, now);
    if (rate > 0.0) out.emplace_back(epc, rate);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::size_t IrrMonitor::active_tags(util::SimTime now) const {
  std::size_t active = 0;
  for (const auto& [epc, times] : readings_) {
    (void)times;
    if (count_in_window(epc, now) > 0) ++active;
  }
  return active;
}

std::size_t IrrMonitor::prune(util::SimTime now) {
  const util::SimTime cutoff =
      now >= util::SimTime{0} + window_ ? now - window_ : util::SimTime{0};
  std::size_t pruned = 0;
  for (auto it = readings_.begin(); it != readings_.end();) {
    if (it->second.empty() || it->second.back() < cutoff) {
      it = readings_.erase(it);
      ++pruned;
    } else {
      ++it;
    }
  }
  return pruned;
}

bool PipelineMetrics::on_reading(const rf::TagReading& reading,
                                 const ReadingContext& context) {
  (void)reading;
  if (context.phase == ReadPhase::kPhase2) {
    ++phase2_readings_;
    ++current_.phase2_readings;
  } else {
    ++phase1_readings_;
    ++current_.phase1_readings;
  }
  return true;
}

void PipelineMetrics::on_cycle_end(const CycleReport& report) {
  current_.cycle_index = report.cycle_index;
  current_.scene = report.scene.size();
  current_.targets = report.targets.size();
  current_.read_all_fallback = report.read_all_fallback;
  current_.degraded_mode = report.degraded_mode;
  current_.execute_failures = report.execute_failures;
  current_.retries = report.retries;
  if (report.read_all_fallback) ++read_all_cycles_;
  if (report.degraded_mode) ++degraded_cycles_;
  health_ = report.health;
  slot_totals_ += report.slot_totals;
  scene_sum_ += static_cast<double>(report.scene.size());
  target_sum_ += static_cast<double>(report.targets.size());
  if (report.interphase_gap) {
    gap_ms_sum_ += util::to_millis(*report.interphase_gap);
    ++gap_cycles_;
  }
  per_cycle_.push_back(current_);
  current_ = CycleMetrics{};
}

PipelineMetricsSnapshot PipelineMetrics::snapshot() const {
  PipelineMetricsSnapshot snap;
  snap.cycles = per_cycle_.size();
  snap.read_all_cycles = read_all_cycles_;
  snap.degraded_cycles = degraded_cycles_;
  snap.health = health_;
  snap.phase1_readings = phase1_readings_;
  snap.phase2_readings = phase2_readings_;
  snap.slot_totals = slot_totals_;
  if (!per_cycle_.empty()) {
    const double n = static_cast<double>(per_cycle_.size());
    snap.mean_scene = scene_sum_ / n;
    snap.mean_targets = target_sum_ / n;
  }
  if (gap_cycles_ > 0) {
    snap.mean_interphase_gap_ms =
        gap_ms_sum_ / static_cast<double>(gap_cycles_);
  }
  snap.per_cycle = per_cycle_;
  if (pipeline_ != nullptr) snap.sinks = pipeline_->stats();
  return snap;
}

}  // namespace tagwatch::core
