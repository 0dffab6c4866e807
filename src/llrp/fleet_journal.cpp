#include "llrp/fleet_journal.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "llrp/journal_codec.hpp"
#include "util/bitstring.hpp"

namespace tagwatch::llrp {

namespace {

using journal_codec::sanitize_field;

constexpr const char* kHeader = "# tagwatch-fleet-journal v1";

}  // namespace

std::uint64_t fleet_journal_digest(const FleetJournal& journal) {
  return journal_codec::fnv1a(journal.to_csv());
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
    const journal_codec::LineParser p("FleetJournal", line_no);
    if (line_no == 1) {
      if (line != kHeader) p.fail("missing journal header");
      continue;
    }
    const std::vector<std::string> f = journal_codec::split_fields(line);
    if (f[0] == "S") {
      if (f.size() != 5) p.fail("setup line needs 5 fields");
      if (saw_setup) p.fail("duplicate setup line");
      journal.setup.readers = p.count(f[1]);
      journal.setup.policy = p.text(f[2]);
      try {
        journal.setup.session = gen2::session_from_string(f[3]);
      } catch (const std::invalid_argument& e) {
        p.fail(e.what());
      }
      if (f[3] != gen2::to_string(journal.setup.session)) {
        p.fail("expected session S0..S3, got '" + f[3] + "'");
      }
      journal.setup.dedup_window = util::SimDuration(p.integer(f[4]));
      saw_setup = true;
    } else if (f[0] == "F") {
      if (f.size() != 8) p.fail("cycle line needs 8 fields");
      FleetCycleRecord c;
      c.cycle = p.count(f[1]);
      c.reader = p.count(f[2]);
      c.zone = p.text(f[3]);
      c.phase1_readings = p.count(f[4]);
      c.phase2_readings = p.count(f[5]);
      c.delivered = p.count(f[6]);
      c.duplicates = p.count(f[7]);
      journal.push_cycle(std::move(c));
    } else if (f[0] == "H") {
      if (f.size() != 5) p.fail("handoff line needs 5 fields");
      FleetHandoffRecord h;
      try {
        h.epc = util::Epc(util::BitString::from_binary(f[1]));
      } catch (const std::invalid_argument& e) {
        p.fail(e.what());
      }
      h.from_reader = p.count(f[2]);
      h.to_reader = p.count(f[3]);
      h.at = util::SimTime(p.integer(f[4]));
      journal.push_handoff(std::move(h));
    } else if (f[0] == "D") {
      if (f.size() != 5) p.fail("down line needs 5 fields");
      FleetDownRecord d;
      d.cycle = p.count(f[1]);
      d.reader = p.count(f[2]);
      d.zone = p.text(f[3]);
      d.consecutive_failures = p.count(f[4]);
      journal.push_down(std::move(d));
    } else if (f[0] == "T") {
      if (f.size() != 5) p.fail("takeover line needs 5 fields");
      FleetTakeoverRecord t;
      t.cycle = p.count(f[1]);
      t.from_reader = p.count(f[2]);
      t.to_reader = p.count(f[3]);
      t.radius_mm = p.integer(f[4]);
      journal.push_takeover(t);
    } else if (f[0] == "R") {
      if (f.size() != 4) p.fail("recover line needs 4 fields");
      FleetRecoverRecord r;
      r.cycle = p.count(f[1]);
      r.reader = p.count(f[2]);
      r.down_for_cycles = p.count(f[3]);
      journal.push_recover(r);
    } else {
      p.fail("unknown record kind '" + f[0] + "'");
    }
  }
  if (!saw_setup && !journal.entries_.empty()) {
    journal_codec::LineParser("FleetJournal", line_no)
        .fail("journal has records but no setup line");
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
