#include "llrp/rospec_xml.hpp"

#include <sstream>

namespace tagwatch::llrp {

namespace {

void write_filter(std::ostringstream& out, const C1G2Filter& f) {
  out << "    <C1G2Filter bank=\"" << static_cast<int>(f.bank)
      << "\" pointer=\"" << f.pointer << "\"";
  if (f.truncate) out << " truncate=\"1\"";
  out << ">\n"
      << "      <Mask>" << f.mask.to_binary_string() << "</Mask>\n"
      << "    </C1G2Filter>\n";
}

void write_aispec(std::ostringstream& out, const AISpec& spec) {
  out << "  <AISpec session=\"" << static_cast<int>(spec.session)
      << "\" initialQ=\"" << static_cast<int>(spec.initial_q) << "\"";
  // Fleet extensions: emitted only when non-default so the canonical XML
  // (and therefore every stored rospec/journal digest) of classic specs is
  // byte-identical to what pre-fleet builds produced.
  if (spec.target != gen2::InvFlag::kA) {
    out << " target=\"" << gen2::to_string(spec.target) << "\"";
  }
  if (!spec.rearm_session) out << " rearm=\"0\"";
  out << ">\n";
  out << "    <Antennas>";
  for (std::size_t i = 0; i < spec.antenna_indexes.size(); ++i) {
    if (i) out << ',';
    out << spec.antenna_indexes[i];
  }
  out << "</Antennas>\n";
  for (const auto& f : spec.filters) write_filter(out, f);
  if (spec.stop.kind == AiSpecStopTrigger::Kind::kDuration) {
    out << "    <StopTrigger kind=\"duration\" ms=\""
        << util::to_millis(spec.stop.duration) << "\"/>\n";
  } else {
    out << "    <StopTrigger kind=\"rounds\" rounds=\"" << spec.stop.rounds
        << "\"/>\n";
  }
  out << "  </AISpec>\n";
}

}  // namespace

std::string to_xml(const ROSpec& spec) {
  std::ostringstream out;
  out << "<ROSpec id=\"" << spec.id << "\" priority=\""
      << static_cast<int>(spec.priority) << "\" loops=\"" << spec.loops
      << "\">\n";
  for (const auto& ai : spec.ai_specs) write_aispec(out, ai);
  out << "</ROSpec>\n";
  return out.str();
}

}  // namespace tagwatch::llrp
