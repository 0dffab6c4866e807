// ReaderJournal: a persistent trace of every operation a ReaderClient ran.
//
// RecordingReaderClient appends one entry per execute()/advance() call;
// ReplayReaderClient consumes the entries in order to reproduce a captured
// run without the simulator (or hardware) behind it.  The CSV form is
// line-oriented and exact: timestamps are integral microseconds and floats
// are printed with round-trip precision, so a save/load cycle is lossless
// and replayed runs are bit-for-bit identical to the recording.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llrp/reader_client.hpp"

namespace tagwatch::llrp {

/// Stable 64-bit digest of a ROSpec (FNV-1a over its canonical XML form).
/// Replay uses it to verify the controller under test is issuing the same
/// reader operations the recorded controller did.
std::uint64_t rospec_digest(const ROSpec& spec);

class ReaderJournal;

/// Stable 64-bit digest of a whole journal (FNV-1a over its canonical CSV
/// form) — the quantity a record→replay round trip must preserve exactly.
/// tagwatch_sim prints it next to every recording so two runs can be
/// compared without diffing the traces.
std::uint64_t journal_digest(const ReaderJournal& journal);

/// One journaled client operation.
struct JournalEntry {
  enum class Kind {
    kExecute,  ///< One execute(ROSpec) call and everything it returned.
    kAdvance,  ///< One advance(d) call (modeled compute or backoff).
  };
  Kind kind = Kind::kExecute;

  // kExecute fields.
  std::uint64_t digest = 0;    ///< rospec_digest of the executed spec.
  util::SimTime start{0};      ///< Reader clock when the call began.
  ExecutionReport report;      ///< Everything the call returned.
  /// Transport failure the call reported, if any (faulty runs journal
  /// their errors so replay reproduces them bit-exactly).
  std::optional<ReaderError> error;

  // kAdvance field.
  util::SimDuration advance{0};

  /// The execute()'s report + error reassembled as the client returned it.
  ExecutionResult result() const { return ExecutionResult{report, error}; }
};

/// In-memory journal of one reader-client run, with CSV persistence.
class ReaderJournal {
 public:
  void push(JournalEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<JournalEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Capabilities of the backend that produced the journal; replay reports
  /// these so the controller builds identical ROSpecs (antenna cycling!).
  ReaderCapabilities capabilities;

  /// Renders the journal as CSV (stable formatting, round-trips exactly
  /// with from_csv).
  std::string to_csv() const;

  /// Parses CSV produced by to_csv.  Throws std::invalid_argument with a
  /// line-context message on malformed input.
  static ReaderJournal from_csv(std::string_view csv);

  /// File convenience wrappers.  Throw std::runtime_error on I/O failure.
  void save(const std::string& path) const;
  static ReaderJournal load(const std::string& path);

 private:
  std::vector<JournalEntry> entries_;
};

}  // namespace tagwatch::llrp
