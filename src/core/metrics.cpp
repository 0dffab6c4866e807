#include "core/metrics.hpp"

#include <algorithm>
#include <stdexcept>

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

}  // namespace tagwatch::core
