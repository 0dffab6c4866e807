#include "llrp/replay_reader_client.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace tagwatch::llrp {

namespace {

[[noreturn]] void diverged(std::size_t index, const std::string& what) {
  throw std::runtime_error("ReplayReaderClient: entry " +
                           std::to_string(index) + ": " + what);
}

}  // namespace

ReplayReaderClient::ReplayReaderClient(ReaderJournal journal)
    : journal_(std::move(journal)) {
  // Start the clock where the recording did (first execute's start time).
  for (const JournalEntry& e : journal_.entries()) {
    if (e.kind == JournalEntry::Kind::kExecute) {
      now_ = e.start;
      break;
    }
  }
}

const JournalEntry& ReplayReaderClient::take(JournalEntry::Kind expected) {
  if (cursor_ >= journal_.size()) {
    diverged(cursor_, "journal exhausted (recorded run was shorter)");
  }
  const JournalEntry& entry = journal_.entries()[cursor_];
  if (entry.kind != expected) {
    diverged(cursor_, expected == JournalEntry::Kind::kExecute
                          ? "execute() issued where an advance was recorded"
                          : "advance() issued where an execute was recorded");
  }
  ++cursor_;
  return entry;
}

ExecutionResult ReplayReaderClient::execute(const ROSpec& spec) {
  const std::size_t rospec_index = execute_count_++;
  const JournalEntry& entry = take(JournalEntry::Kind::kExecute);
  const std::uint64_t digest = rospec_digest(spec);
  if (digest != entry.digest) {
    char digests[64];
    std::snprintf(digests, sizeof(digests), "issued %016llx, recorded %016llx",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(entry.digest));
    diverged(cursor_ - 1,
             "ROSpec #" + std::to_string(rospec_index) +
                 " diverges from the recorded operation (" + digests +
                 ") — the controller under replay is making different "
                 "scheduling decisions than the recorded one");
  }
  now_ = entry.start + entry.report.duration;
  if (listener_) {
    for (const rf::TagReading& r : entry.report.readings) listener_(r);
  }
  return entry.result();
}

ReaderCapabilities ReplayReaderClient::capabilities() const {
  ReaderCapabilities caps = journal_.capabilities;
  caps.model = "replay(" + caps.model + ")";
  caps.live = false;
  return caps;
}

void ReplayReaderClient::advance(util::SimDuration /*d*/) {
  now_ += take(JournalEntry::Kind::kAdvance).advance;
}

}  // namespace tagwatch::llrp
