#include "core/history.hpp"

#include <algorithm>

namespace tagwatch::core {

void HistoryDatabase::record(const rf::TagReading& reading) {
  auto [it, inserted] = tags_.try_emplace(reading.epc);
  TagHistory& h = it->second;
  if (inserted) h.first_seen = reading.timestamp;
  h.last_seen = reading.timestamp;
  ++h.total_readings;
  ++total_;
  h.recent.push_back(reading);
  while (h.recent.size() > retain_per_tag_) h.recent.pop_front();
}

const TagHistory* HistoryDatabase::find(const util::Epc& epc) const {
  const auto it = tags_.find(epc);
  return it == tags_.end() ? nullptr : &it->second;
}

std::vector<util::Epc> HistoryDatabase::seen_since(util::SimTime since) const {
  std::vector<util::Epc> out;
  for (const auto& [epc, h] : tags_) {
    if (h.last_seen >= since) out.push_back(epc);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t HistoryDatabase::evict_older_than(util::SimTime before) {
  std::size_t evicted = 0;
  for (auto it = tags_.begin(); it != tags_.end();) {
    if (it->second.last_seen < before) {
      it = tags_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

std::vector<rf::TagReading> HistoryDatabase::readings_in(
    const util::Epc& epc, util::SimTime from, util::SimTime to) const {
  std::vector<rf::TagReading> out;
  const TagHistory* h = find(epc);
  if (!h) return out;
  for (const auto& r : h->recent) {
    if (r.timestamp >= from && r.timestamp < to) out.push_back(r);
  }
  return out;
}

}  // namespace tagwatch::core
