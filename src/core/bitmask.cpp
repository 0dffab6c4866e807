#include "core/bitmask.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/task_pool.hpp"

namespace tagwatch::core {

namespace {

/// Row indices into one output vector, keyed by their coverage's hash, so
/// each new row's coverage is hashed once: the probe's hash is the key.
using RowSet = std::unordered_multimap<std::size_t, std::size_t>;

/// True when `seen` holds a row of `rows` whose coverage equals `cover`
/// (whose hash is `h`).
bool has_coverage(const RowSet& seen,
                  const std::vector<BitmaskCandidate>& rows,
                  const util::IndicatorBitmap& cover, std::size_t h) {
  const auto [lo, hi] = seen.equal_range(h);
  return std::any_of(lo, hi, [&](const auto& entry) {
    return rows[entry.second].coverage == cover;
  });
}

}  // namespace

std::string Bitmask::to_string() const {
  return "S(" + mask.to_binary_string() + ", " + std::to_string(pointer) +
         ", " + std::to_string(mask.size()) + ")";
}

BitmaskIndex::BitmaskIndex(std::vector<util::Epc> scene)
    : scene_(std::move(scene)) {
  if (scene_.empty()) throw std::invalid_argument("BitmaskIndex: empty scene");
  std::sort(scene_.begin(), scene_.end());
  scene_.erase(std::unique(scene_.begin(), scene_.end()), scene_.end());

  epc_bits_ = scene_.front().size();
  for (const auto& epc : scene_) {
    if (epc.size() != epc_bits_) {
      throw std::invalid_argument("BitmaskIndex: mixed EPC lengths");
    }
  }
  position_.reserve(scene_.size());
  for (std::size_t i = 0; i < scene_.size(); ++i) {
    position_.emplace(scene_[i], i);
  }

  ones_.assign(epc_bits_, util::IndicatorBitmap(scene_.size()));
  zeros_.assign(epc_bits_, util::IndicatorBitmap(scene_.size()));
  for (std::size_t i = 0; i < scene_.size(); ++i) {
    for (std::size_t b = 0; b < epc_bits_; ++b) {
      (scene_[i].bits().bit(b) ? ones_[b] : zeros_[b]).set(i);
    }
  }
}

util::IndicatorBitmap BitmaskIndex::bitmap_of(
    const std::vector<util::Epc>& subset) const {
  util::IndicatorBitmap out(scene_.size());
  for (const auto& epc : subset) {
    const auto it = position_.find(epc);
    if (it != position_.end()) out.set(it->second);
  }
  return out;
}

std::vector<util::Epc> BitmaskIndex::epcs_of(
    const util::IndicatorBitmap& bitmap) const {
  if (bitmap.size() != scene_.size()) {
    throw std::invalid_argument("BitmaskIndex::epcs_of: bitmap size");
  }
  std::vector<util::Epc> out;
  for (std::size_t i = 0; i < scene_.size(); ++i) {
    if (bitmap.test(i)) out.push_back(scene_[i]);
  }
  return out;
}

std::vector<BitmaskCandidate> BitmaskIndex::candidates_for(
    const util::IndicatorBitmap& targets, util::TaskPool* pool) const {
  if (targets.size() != scene_.size()) {
    throw std::invalid_argument("BitmaskIndex::candidates_for: bitmap size");
  }
  std::vector<std::size_t> target_list;
  target_list.reserve(targets.count());
  for (std::size_t t = 0; t < scene_.size(); ++t) {
    if (targets.test(t)) target_list.push_back(t);
  }

  // One contiguous target chunk per executor, each keeping the first
  // bitmask seen for every coverage among its own rows.
  const std::size_t threads = pool != nullptr ? pool->thread_count() : 1;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(threads, target_list.size()));
  std::vector<std::vector<BitmaskCandidate>> parts(chunks);
  std::vector<RowSet> seen(chunks);
  const auto sweep = [&](std::size_t k) {
    std::vector<BitmaskCandidate>& out = parts[k];
    util::IndicatorBitmap cover(scene_.size());
    const std::size_t end = (k + 1) * target_list.size() / chunks;
    for (std::size_t j = k * target_list.size() / chunks; j < end; ++j) {
      const util::BitString& anchor = scene_[target_list[j]].bits();
      for (std::size_t p = 0; p < epc_bits_; ++p) {
        // Start from all tags and narrow to the anchor's bit at each
        // position the mask extends over.
        cover.fill();
        for (std::size_t l = 1; p + l <= epc_bits_; ++l) {
          const std::size_t b = p + l - 1;
          cover.and_with(anchor.bit(b) ? ones_[b] : zeros_[b]);
          const std::size_t h = cover.hash();
          if (!has_coverage(seen[k], out, cover, h)) {
            BitmaskCandidate cand;
            cand.bitmask.pointer = static_cast<std::uint32_t>(p);
            cand.bitmask.mask = anchor.substring(p, l);
            cand.coverage = cover;
            cand.targets_covered = cover.and_count(targets);
            out.push_back(std::move(cand));
            seen[k].emplace(h, out.size() - 1);
          }
          if (cover.count() <= 1) break;
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->run(chunks, sweep);
  } else {
    sweep(0);
  }

  // Append the later chunks to the first through its dedupe set.  The
  // first coverage seen in chunk order wins: a coverage's first row in the
  // earliest chunk that has it is its first row in target order.
  std::vector<BitmaskCandidate>& out = parts.front();
  for (std::size_t k = 1; k < chunks; ++k) {
    for (auto& cand : parts[k]) {
      const std::size_t h = cand.coverage.hash();
      if (has_coverage(seen.front(), out, cand.coverage, h)) continue;
      out.push_back(std::move(cand));
      seen.front().emplace(h, out.size() - 1);
    }
  }
  return std::move(out);
}

}  // namespace tagwatch::core
