#include "sim/world.hpp"

#include <stdexcept>

namespace tagwatch::sim {

std::size_t World::add_tag(SimTag tag) {
  if (!tag.motion) throw std::invalid_argument("World::add_tag: null motion");
  if (index_.contains(tag.epc)) {
    throw std::invalid_argument("World::add_tag: duplicate EPC " +
                                tag.epc.to_hex());
  }
  const std::size_t idx = tags_.size();
  index_.emplace(tag.epc, idx);
  tags_.push_back(std::move(tag));
  return idx;
}

void World::add_reflector(SimReflector reflector) {
  if (!reflector.motion) {
    throw std::invalid_argument("World::add_reflector: null motion");
  }
  reflectors_.push_back(std::move(reflector));
}

bool World::remove_tag(const util::Epc& epc) {
  const auto it = index_.find(epc);
  if (it == index_.end()) return false;
  const std::size_t idx = it->second;
  index_.erase(it);
  departures_.push_back({epc, now_});
  tags_.erase(tags_.begin() + static_cast<std::ptrdiff_t>(idx));
  // Reindex the tail.
  for (std::size_t i = idx; i < tags_.size(); ++i) {
    index_[tags_[i].epc] = i;
  }
  ++structure_epoch_;  // Every index past idx just shifted.
  return true;
}

bool World::set_tag_motion(const util::Epc& epc,
                           std::shared_ptr<const MotionModel> motion) {
  if (!motion) {
    throw std::invalid_argument("World::set_tag_motion: null motion");
  }
  const auto it = index_.find(epc);
  if (it == index_.end()) return false;
  tags_[it->second].motion = std::move(motion);
  ++mobility_epoch_;  // Indexes are untouched; only the mover set moved.
  return true;
}

std::optional<std::size_t> World::find_tag(const util::Epc& epc) const {
  const auto it = index_.find(epc);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool World::tag_present(std::size_t i, util::SimTime t) const {
  return is_present(tags_.at(i), t);
}

std::vector<rf::Reflector> World::reflectors_at(util::SimTime t) const {
  std::vector<rf::Reflector> out;
  out.reserve(reflectors_.size());
  for (const auto& r : reflectors_) {
    out.push_back({r.motion->position(t), r.reflection_coefficient});
  }
  return out;
}

void World::advance(util::SimDuration dt) {
  if (dt < util::SimDuration::zero()) {
    throw std::invalid_argument("World::advance: negative dt");
  }
  now_ += dt;
}

void World::advance_to(util::SimTime t) {
  if (t > now_) now_ = t;
}

}  // namespace tagwatch::sim
