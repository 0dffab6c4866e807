#include "core/pipeline.hpp"

#include <stdexcept>

#include "core/history.hpp"
#include "core/parallel_assessor.hpp"

namespace tagwatch::core {

void ReadingPipeline::add_sink(std::shared_ptr<ReadingSink> sink) {
  if (!sink) throw std::invalid_argument("ReadingPipeline: null sink");
  if (find(sink->name()) != nullptr) {
    throw std::invalid_argument("ReadingPipeline: duplicate sink '" +
                                std::string(sink->name()) + "'");
  }
  Entry entry;
  entry.stats.emplace_back();
  entry.stats.back().name = std::string(sink->name());
  entry.sink = std::move(sink);
  entries_.push_back(std::move(entry));
}

SinkStats& ReadingPipeline::stats_slot(Entry& entry, std::size_t source_id) {
  for (SinkStats& s : entry.stats) {
    if (s.source_id == source_id) return s;
  }
  SinkStats row;
  row.name = entry.stats.front().name;
  row.source_id = source_id;
  entry.stats.push_back(std::move(row));
  return entry.stats.back();
}

void ReadingPipeline::set_sink(std::shared_ptr<ReadingSink> sink) {
  if (!sink) throw std::invalid_argument("ReadingPipeline: null sink");
  for (Entry& entry : entries_) {
    if (entry.sink->name() == sink->name()) {
      // Keep the slot (and its accumulated stats) — only the sink changes.
      entry.sink = std::move(sink);
      return;
    }
  }
  add_sink(std::move(sink));
}

bool ReadingPipeline::remove_sink(std::string_view name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->sink->name() == name) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

ReadingSink* ReadingPipeline::find(std::string_view name) {
  for (Entry& entry : entries_) {
    if (entry.sink->name() == name) return entry.sink.get();
  }
  return nullptr;
}

void ReadingPipeline::dispatch_batch(
    const std::vector<rf::TagReading>& readings,
    const ReadingContext& context) {
  if (readings.empty()) return;
  dispatched_ += readings.size();
  for (Entry& entry : entries_) {
    SinkStats& stats = stats_slot(entry, context.source_id);
    const double t0 = clock_->now_seconds();
    for (const rf::TagReading& reading : readings) {
      bool accepted = false;
      try {
        accepted = entry.sink->on_reading(reading, context);
      } catch (const std::exception&) {
        // A misbehaving sink loses its own reading, never anyone else's:
        // delivery continues to the remaining sinks and the cycle survives.
        ++stats.exceptions;
      }
      if (accepted) {
        ++stats.delivered;
      } else {
        ++stats.dropped;
      }
    }
    stats.dispatch_seconds += clock_->now_seconds() - t0;
    ++stats.batches;
  }
}

void ReadingPipeline::end_cycle(const CycleReport& report) {
  for (Entry& entry : entries_) {
    try {
      entry.sink->on_cycle_end(report);
    } catch (const std::exception&) {
      // Cycle-end isn't attributable to any one source: account to row 0.
      ++entry.stats.front().exceptions;
    }
  }
}

std::vector<SinkStats> ReadingPipeline::stats() const {
  std::vector<SinkStats> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.insert(out.end(), entry.stats.begin(), entry.stats.end());
  }
  return out;
}

bool HistorySink::on_reading(const rf::TagReading& reading,
                             const ReadingContext& context) {
  (void)context;
  history_->record(reading);
  return true;
}

bool ParallelAssessorSink::on_reading(const rf::TagReading& reading,
                                      const ReadingContext& context) {
  (void)context;
  assessor_->ingest(reading);
  return true;
}

}  // namespace tagwatch::core
