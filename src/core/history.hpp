// History database of tag readings (paper Fig. 5: all readings from both
// phases are delivered upward and contribute to the history).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::core {

/// Per-tag reading history.
struct TagHistory {
  std::size_t total_readings = 0;
  util::SimTime first_seen{0};
  util::SimTime last_seen{0};
  /// Most recent readings, capped at the database's retention limit.
  std::deque<rf::TagReading> recent;
};

/// Bounded-memory store of recent readings for every tag seen.
class HistoryDatabase {
 public:
  /// Keeps at most `retain_per_tag` recent readings per tag.
  explicit HistoryDatabase(std::size_t retain_per_tag = 256)
      : retain_per_tag_(retain_per_tag) {}

  void record(const rf::TagReading& reading);

  const TagHistory* find(const util::Epc& epc) const;
  std::size_t tag_count() const noexcept { return tags_.size(); }
  std::size_t total_readings() const noexcept { return total_; }

  /// EPCs seen at or after `since` — the "current scene" snapshot — in
  /// EPC order.
  std::vector<util::Epc> seen_since(util::SimTime since) const;

  /// Drops tags last seen before `before` (memory reclamation, §4.3).
  std::size_t evict_older_than(util::SimTime before);

  /// Readings of one tag within [from, to), oldest first (empty if the
  /// window has already been evicted from the ring).
  std::vector<rf::TagReading> readings_in(const util::Epc& epc,
                                          util::SimTime from,
                                          util::SimTime to) const;

 private:
  std::size_t retain_per_tag_;
  std::size_t total_ = 0;
  std::unordered_map<util::Epc, TagHistory> tags_;
};

}  // namespace tagwatch::core
