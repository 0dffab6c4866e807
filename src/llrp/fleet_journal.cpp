#include "llrp/fleet_journal.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/bitstring.hpp"

namespace tagwatch::llrp {

namespace {

constexpr const char* kHeader = "# tagwatch-fleet-journal v1";

/// Splits one CSV line into fields (no quoting: fields never contain ',').
std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields.emplace_back(line.substr(pos));
      break;
    }
    fields.emplace_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return fields;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("FleetJournal: line " + std::to_string(line_no) +
                              ": " + what);
}

std::int64_t parse_int(const std::string& s, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    if (used != s.size()) fail(line_no, "trailing garbage in '" + s + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(line_no, "expected integer, got '" + s + "'");
  } catch (const std::out_of_range&) {
    fail(line_no, "integer out of range: '" + s + "'");
  }
}

/// A std::size_t field.  Negative input is rejected rather than cast: it
/// would wrap to 2^64-k, and to_csv(from_csv(x)) would no longer equal x.
std::size_t parse_count(const std::string& s, std::size_t line_no) {
  const std::int64_t v = parse_int(s, line_no);
  if (v < 0) fail(line_no, "expected non-negative count, got '" + s + "'");
  return static_cast<std::size_t>(v);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// CSV fields never contain ',' or '\n'; free-form text is flattened.
std::string sanitize_field(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

}  // namespace

std::uint64_t fleet_journal_digest(const FleetJournal& journal) {
  return fnv1a(journal.to_csv());
}

std::string FleetJournal::to_csv() const {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "S," << setup.readers << ',' << sanitize_field(setup.policy) << ','
      << gen2::to_string(setup.session) << ',' << setup.dedup_window.count()
      << '\n';
  for (const FleetJournalEntry& e : entries_) {
    switch (e.kind) {
      case FleetJournalEntry::Kind::kHandoff:
        out << "H," << e.handoff.epc.to_binary() << ','
            << e.handoff.from_reader << ',' << e.handoff.to_reader << ','
            << e.handoff.at.count() << '\n';
        break;
      case FleetJournalEntry::Kind::kDown:
        out << "D," << e.down.cycle << ',' << e.down.reader << ','
            << sanitize_field(e.down.zone) << ','
            << e.down.consecutive_failures << '\n';
        break;
      case FleetJournalEntry::Kind::kTakeover:
        out << "T," << e.takeover.cycle << ',' << e.takeover.from_reader
            << ',' << e.takeover.to_reader << ',' << e.takeover.radius_mm
            << '\n';
        break;
      case FleetJournalEntry::Kind::kRecover:
        out << "R," << e.recover.cycle << ',' << e.recover.reader << ','
            << e.recover.down_for_cycles << '\n';
        break;
      case FleetJournalEntry::Kind::kCycle: {
        const FleetCycleRecord& c = e.cycle;
        out << "F," << c.cycle << ',' << c.reader << ','
            << sanitize_field(c.zone) << ',' << c.phase1_readings << ','
            << c.phase2_readings << ',' << c.delivered << ',' << c.duplicates
            << '\n';
        break;
      }
    }
  }
  return out.str();
}

FleetJournal FleetJournal::from_csv(std::string_view csv) {
  FleetJournal journal;
  std::istringstream in{std::string(csv)};
  std::string line;
  std::size_t line_no = 0;
  bool saw_setup = false;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1) {
      if (line != kHeader) fail(line_no, "missing journal header");
      continue;
    }
    const std::vector<std::string> f = split_fields(line);
    if (f[0] == "S") {
      if (f.size() != 5) fail(line_no, "setup line needs 5 fields");
      if (saw_setup) fail(line_no, "duplicate setup line");
      journal.setup.readers = parse_count(f[1], line_no);
      journal.setup.policy = f[2];
      try {
        journal.setup.session = gen2::session_from_string(f[3]);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      journal.setup.dedup_window = util::SimDuration(parse_int(f[4], line_no));
      saw_setup = true;
    } else if (f[0] == "F") {
      if (f.size() != 8) fail(line_no, "cycle line needs 8 fields");
      FleetCycleRecord c;
      c.cycle = parse_count(f[1], line_no);
      c.reader = parse_count(f[2], line_no);
      c.zone = f[3];
      c.phase1_readings = parse_count(f[4], line_no);
      c.phase2_readings = parse_count(f[5], line_no);
      c.delivered = parse_count(f[6], line_no);
      c.duplicates = parse_count(f[7], line_no);
      journal.push_cycle(std::move(c));
    } else if (f[0] == "H") {
      if (f.size() != 5) fail(line_no, "handoff line needs 5 fields");
      FleetHandoffRecord h;
      try {
        h.epc = util::Epc(util::BitString::from_binary(f[1]));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      h.from_reader = parse_count(f[2], line_no);
      h.to_reader = parse_count(f[3], line_no);
      h.at = util::SimTime(parse_int(f[4], line_no));
      journal.push_handoff(std::move(h));
    } else if (f[0] == "D") {
      if (f.size() != 5) fail(line_no, "down line needs 5 fields");
      FleetDownRecord d;
      d.cycle = parse_count(f[1], line_no);
      d.reader = parse_count(f[2], line_no);
      d.zone = f[3];
      d.consecutive_failures = parse_count(f[4], line_no);
      journal.push_down(std::move(d));
    } else if (f[0] == "T") {
      if (f.size() != 5) fail(line_no, "takeover line needs 5 fields");
      FleetTakeoverRecord t;
      t.cycle = parse_count(f[1], line_no);
      t.from_reader = parse_count(f[2], line_no);
      t.to_reader = parse_count(f[3], line_no);
      t.radius_mm = parse_int(f[4], line_no);
      journal.push_takeover(t);
    } else if (f[0] == "R") {
      if (f.size() != 4) fail(line_no, "recover line needs 4 fields");
      FleetRecoverRecord r;
      r.cycle = parse_count(f[1], line_no);
      r.reader = parse_count(f[2], line_no);
      r.down_for_cycles = parse_count(f[3], line_no);
      journal.push_recover(r);
    } else {
      fail(line_no, "unknown record kind '" + f[0] + "'");
    }
  }
  if (!saw_setup && !journal.entries_.empty()) {
    fail(line_no, "journal has records but no setup line");
  }
  return journal;
}

void FleetJournal::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("FleetJournal: cannot open " + path);
  out << to_csv();
  if (!out) throw std::runtime_error("FleetJournal: write failed: " + path);
}

FleetJournal FleetJournal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("FleetJournal: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_csv(buf.str());
}

}  // namespace tagwatch::llrp
