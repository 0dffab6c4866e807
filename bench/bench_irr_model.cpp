// E2 — Fig. 2: empirical IRR vs population size, against the theoretical
// model C(n) = τ0 + n·e·τ̄·ln n (Eqn. 5–6).
//
// Sweeps n = 1..40 tags over several initial-Q settings with frequency
// hopping across the 16-channel 920–926 MHz plan, measures the mean IRR
// per setting, least-squares fits (τ0, τ̄), and prints the measured and
// model curves side by side.
//
// Paper shape targets: IRR is purely decreasing, dropping ~84% from n=1 to
// n≈40 (63 Hz → 12 Hz on their hardware); the model tracks the measurement
// trend; Q-adaptive is insensitive to the initial Q.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_report.hpp"
#include "core/rate_model.hpp"
#include "gen2/reader.hpp"
#include "util/circular.hpp"
#include "util/stats.hpp"

using namespace tagwatch;

namespace {

/// Measures the mean inventory-round duration for n tags (dual-target,
/// `rounds` rounds after one warm-up round).
util::SimDuration mean_round_duration(
    std::size_t n, std::uint8_t initial_q, std::size_t rounds,
    std::uint64_t seed,
    gen2::AntiCollisionPolicy policy = gen2::AntiCollisionPolicy::kQAdaptive) {
  sim::World world;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    sim::SimTag t;
    t.epc = util::Epc::random(rng);
    t.motion = std::make_shared<sim::StaticMotion>(
        util::Vec3{rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0});
    t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
    world.add_tag(std::move(t));
  }
  rf::RfChannel channel(rf::ChannelPlan::china_920_926());
  gen2::ReaderConfig rcfg;
  rcfg.policy = policy;
  gen2::Gen2Reader reader(gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
                          rcfg, world, channel, {{1, {0, 0, 2}, 8.0}},
                          util::Rng(seed + 1));
  gen2::InvFlag target = gen2::InvFlag::kA;
  util::SimDuration total{0};
  for (std::size_t r = 0; r < rounds + 1; ++r) {
    gen2::QueryCommand q;
    q.q = initial_q;
    q.target = target;
    target = target == gen2::InvFlag::kA ? gen2::InvFlag::kB
                                         : gen2::InvFlag::kA;
    const auto stats = reader.run_inventory_round(q, nullptr);
    if (r > 0) total += stats.duration;  // skip warm-up round
  }
  return total / rounds;
}

}  // namespace

int main() {
  constexpr std::size_t kRepeatRounds = 50;  // paper: 50 repetitions
  const std::vector<std::uint8_t> initial_qs{1, 2, 4, 6};
  const std::vector<std::size_t> ns{1,  2,  4,  6,  8,  10, 12, 15,
                                    18, 21, 24, 27, 30, 33, 36, 40};

  std::printf("E2 / Fig. 2 — IRR vs number of tags (ImpinJ-style Q-adaptive "
              "reader, 16 channels 920-926 MHz)\n\n");

  // Measure per (n, Q); also gather the fit samples.
  std::vector<std::size_t> fit_ns;
  std::vector<util::SimDuration> fit_durations;
  std::vector<std::vector<double>> irr(initial_qs.size());
  for (std::size_t qi = 0; qi < initial_qs.size(); ++qi) {
    for (const std::size_t n : ns) {
      const util::SimDuration d = mean_round_duration(
          n, initial_qs[qi], kRepeatRounds, 1000 + 31 * n + qi);
      irr[qi].push_back(1.0 / util::to_seconds(d));
      fit_ns.push_back(n);
      fit_durations.push_back(d);
    }
  }

  const auto fitted = core::InventoryCostModel::fit(fit_ns, fit_durations);
  std::printf("least-squares fit:  tau0 = %.2f ms   taubar = %.3f ms   "
              "(R^2 = %.3f)\n",
              fitted.tau0_seconds() * 1e3, fitted.taubar_seconds() * 1e3,
              fitted.fit_r_squared());
  std::printf("paper's hardware fit: tau0 = 19 ms, taubar = 0.18 ms\n\n");

  std::printf("%4s  %8s  %8s  %8s  %8s  %8s  %10s\n", "n", "Q0=1", "Q0=2",
              "Q0=4", "Q0=6", "tree", "model(Hz)");
  // The last column is an extra baseline: binary tree splitting (the TDMA
  // family of §8) — same order as Q-adaptive, confirming the paper's point
  // that better anti-collision buys little.
  irr.emplace_back();
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const util::SimDuration tree = mean_round_duration(
        ns[i], 4, kRepeatRounds, 77000 + ns[i],
        gen2::AntiCollisionPolicy::kBinaryTree);
    irr.back().push_back(1.0 / util::to_seconds(tree));
    std::printf("%4zu", ns[i]);
    for (const std::vector<double>& column : irr) {
      std::printf("  %8.2f", column[i]);
    }
    std::printf("  %10.2f\n", fitted.irr_hz(ns[i]));
  }

  const double drop = 1.0 - irr[2].back() / irr[2].front();
  std::printf("\nIRR drop from n=1 to n=40 (Q0=4): %.0f%%   (paper: ~84%%)\n",
              drop * 100.0);

  bench::BenchReport report("irr_model", /*seed=*/1000);
  report.add("fit_tau0", fitted.tau0_seconds() * 1e3, "ms");
  report.add("fit_taubar", fitted.taubar_seconds() * 1e3, "ms");
  report.add("fit_r_squared", fitted.fit_r_squared(), "ratio");
  report.add("irr_n1_q4", irr[2].front(), "hz");
  report.add("irr_n40_q4", irr[2].back(), "hz");
  report.add("irr_drop_n1_to_n40", drop, "ratio");
  std::printf("wrote %s\n", report.write().c_str());

  // Paper band (ctest paper_irr_model): the Fig. 2 shape above.
  bool decreasing = true;
  for (const std::vector<double>& column : irr) {
    for (std::size_t i = 1; i < column.size(); ++i) {
      decreasing = decreasing && column[i] < column[i - 1];
    }
  }
  if (!decreasing || fitted.fit_r_squared() < 0.95 || drop < 0.70) {
    std::printf("FAIL: IRR must fall strictly in n in every column (%s), "
                "with fit R^2 %.3f >= 0.95 and Q0=4 drop %.2f >= 0.70\n",
                decreasing ? "yes" : "no", fitted.fit_r_squared(), drop);
    return 1;
  }
  return 0;
}
