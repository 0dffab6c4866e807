// ReplayReaderClient: replays a ReaderJournal deterministically.
//
// No simulator, no hardware: each execute() call pops the next recorded
// operation, verifies the issued ROSpec matches the recorded one, streams
// the recorded readings to the listener, and moves the clock
// to the recorded end time.  advance() likewise consumes the recorded
// charge, *ignoring* the caller-supplied amount, so the clock follows the
// journal whatever compute charge the recording controller used.
#pragma once

#include "llrp/reader_client.hpp"
#include "llrp/reader_journal.hpp"

namespace tagwatch::llrp {

/// Replays a recorded reader session.
class ReplayReaderClient final : public ReaderClient {
 public:
  /// Replay is strict: execute() and advance() throw std::runtime_error
  /// when the controller under replay diverges from the journal (different
  /// ROSpec digest, execute where an advance was recorded, or running past
  /// the end).
  explicit ReplayReaderClient(ReaderJournal journal);

  /// Returns the recorded result — recorded transport errors replay too,
  /// so a controller's retry/degradation decisions reproduce exactly.
  ExecutionResult execute(const ROSpec& spec) override;
  util::SimTime now() const override { return now_; }
  void set_read_listener(gen2::ReadCallback listener) override {
    listener_ = std::move(listener);
  }
  ReaderCapabilities capabilities() const override;

  /// Consumes the recorded advance (the argument is intentionally unused —
  /// see file comment).  The next recorded operation must be an advance.
  void advance(util::SimDuration d) override;

  /// Journal entries not yet replayed.
  std::size_t remaining() const noexcept {
    return journal_.size() - cursor_;
  }

 private:
  const JournalEntry& take(JournalEntry::Kind expected);

  ReaderJournal journal_;
  std::size_t cursor_ = 0;
  std::size_t execute_count_ = 0;  ///< ROSpec index for divergence messages.
  util::SimTime now_{0};
  gen2::ReadCallback listener_;
};

}  // namespace tagwatch::llrp
