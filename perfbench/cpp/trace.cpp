#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kController: return "controller";
    case Layer::kFleet: return "fleet";
    case Layer::kReader: return "reader";
    case Layer::kJournal: return "journal";
    case Layer::kPipeline: return "pipeline";
    case Layer::kAssessor: return "assessor";
    case Layer::kPlanner: return "planner";
  }
  return "?";
}

std::uint32_t Tracer::open(Layer layer, std::size_t reader,
                           std::int64_t sim_start_us) {
  Span s;
  s.parent = stack_.empty() ? kNoSpan : stack_.back();
  s.layer = layer;
  s.reader = static_cast<std::uint16_t>(reader);
  s.cycle = cycle;
  s.sim_start_us = sim_start_us;
  s.start_ns = now_ns();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("perfbench: unbalanced span close");
  }
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

std::uint32_t Tracer::add(Layer layer, std::uint32_t parent,
                          std::size_t reader, std::int64_t start_ns,
                          std::int64_t end_ns) {
  Span s;
  s.parent = parent;
  s.layer = layer;
  s.reader = static_cast<std::uint16_t>(reader);
  s.cycle = cycle;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

Tracer::SelfTimes Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) {
      self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out.layer_ns[static_cast<std::size_t>(s.layer)] += self[i];
    if (s.layer == Layer::kReader) out.reader_phase_ns[s.phase] += self[i];
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                std::size_t max_cycles) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("perfbench: cannot write " + path);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  // A cycle's spans are all recorded before the next cycle's root opens.
  std::size_t roots = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == kNoSpan && ++roots > max_cycles) break;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"cycle\":%u,\"reader\":%u,\"phase\":%u}}",
                 i == 0 ? "" : ",\n", layer_name(s.layer),
                 layer_name(s.layer), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNoSpan ? -1LL
                                     : static_cast<long long>(s.parent),
                 s.cycle, static_cast<unsigned>(s.reader),
                 static_cast<unsigned>(s.phase));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: cannot finish " + path);
  }
}

tagwatch::llrp::ExecutionResult TracingReaderClient::execute(
    const tagwatch::llrp::ROSpec& spec) {
  if (!tracer_->enabled) return inner_->execute(spec);
  if (on_execute) on_execute();
  const std::uint32_t id =
      tracer_->open(layer_, reader_, inner_->now().count());
  tagwatch::llrp::ExecutionResult result = inner_->execute(spec);
  tracer_->close(id);
  executed.push_back(id);
  return result;
}

}  // namespace perfbench
