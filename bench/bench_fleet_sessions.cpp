// k-session redundancy harness: missed-read probability vs session count.
//
// Reproduces the redundant-reader reliability curve of arXiv 0904.2441: a
// tag that is temporarily blocked (detuned/occluded, §4.3 "reading
// exceptions") misses one inventory pass with probability p, but k passes
// run in k *distinct* Gen2 sessions are independent Bernoulli trials — the
// tag escapes all of them with probability p^k.  The fleet substrate makes
// this concrete: k readers share one TagFlagField over one scene, reader r
// inventories session S(r) without re-arming, and a tag is "read" when any
// reader ACKs it.
//
// Expected shape: missed_ratio(k) falls geometrically, ~p^k — the monotone
// reliability gain the per-reader session policy buys.
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "gen2/flag_field.hpp"
#include "gen2/reader.hpp"
#include "util/circular.hpp"

using namespace tagwatch;

namespace {

constexpr std::size_t kTags = 200;
constexpr double kBlockProbability = 0.3;

/// One trial: k readers over a fresh blocked population, one inventory
/// pass per reader in its own session.  Returns the missed fraction.
double run_trial(std::size_t k_sessions, std::uint64_t seed) {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  const std::vector<rf::Antenna> antennas{{1, {0, 0, 2}, 8.0}};
  util::Rng rng(seed);
  for (std::size_t i = 0; i < kTags; ++i) {
    sim::SimTag t;
    t.epc = util::Epc::from_serial(i + 1);
    t.motion = std::make_shared<sim::StaticMotion>(
        util::Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2), 0});
    t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
    t.block_probability = kBlockProbability;
    world.add_tag(std::move(t));
  }

  // One shared flag field: the k passes touch disjoint sessions, so no
  // pass disturbs another — the fleet's kPerReader discipline.
  auto field =
      std::make_shared<gen2::TagFlagField>(gen2::SessionTiming::spec_default());
  std::set<std::string> read;
  for (std::size_t pass = 0; pass < k_sessions; ++pass) {
    gen2::Gen2Reader reader(gen2::LinkTiming(gen2::LinkParams::max_throughput()),
                            gen2::ReaderConfig{}, world, channel, antennas,
                            util::Rng(seed + 100 + pass), field);
    gen2::QueryCommand q;
    q.session = static_cast<gen2::Session>(pass % 4);
    q.target = gen2::InvFlag::kA;
    reader.run_inventory_round(
        q, [&read](const rf::TagReading& r) { read.insert(r.epc.to_hex()); });
  }
  return 1.0 - static_cast<double>(read.size()) / static_cast<double>(kTags);
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 20441;
  constexpr std::size_t kTrials = 8;

  std::printf("k-session redundancy — missed-read ratio vs session count\n"
              "(%zu tags, block probability %.0f%%, %zu trials per point; "
              "predicted: p^k)\n\n",
              kTags, kBlockProbability * 100.0, kTrials);
  std::printf("%2s  %12s  %12s\n", "k", "missed", "predicted");

  bench::BenchReport report("fleet_sessions", kSeed);
  std::vector<double> missed;
  for (std::size_t k = 1; k <= 4; ++k) {
    double sum = 0.0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      sum += run_trial(k, kSeed + 1000 * t + k);
    }
    const double ratio = sum / static_cast<double>(kTrials);
    missed.push_back(ratio);
    const double predicted = std::pow(kBlockProbability, static_cast<double>(k));
    std::printf("%2zu  %11.2f%%  %11.2f%%\n", k, ratio * 100.0,
                predicted * 100.0);
    report.add("missed_ratio_k" + std::to_string(k), ratio, "ratio");
  }

  // The headline: adding sessions must never make reliability worse.
  bool monotone = true;
  for (std::size_t i = 1; i < missed.size(); ++i) {
    if (missed[i] > missed[i - 1]) monotone = false;
  }
  report.add("monotone_reliability_gain", monotone ? 1.0 : 0.0, "bool");
  report.add("reliability_gain_k4",
             missed[3] > 0.0 ? missed[0] / missed[3]
                             : missed[0] / (0.5 / (kTags * kTrials)),
             "ratio");

  std::printf("\nexpected: geometric decay, missed(k) ~ %.1f^k; monotone "
              "non-increasing (headline: monotone_reliability_gain).\n",
              kBlockProbability);
  std::printf("wrote %s\n", report.write().c_str());
  return monotone ? 0 : 1;
}
