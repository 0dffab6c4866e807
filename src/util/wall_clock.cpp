#include "util/wall_clock.hpp"

#include <chrono>

namespace tagwatch::util {

namespace {

/// The one place in the library that reads a raw std::chrono clock: rule
/// `determinism` exempts src/util/wall_clock.* and nothing else in src/
/// (see docs/STATIC_ANALYSIS.md).
class SystemWallClock final : public WallClock {
 public:
  double now_seconds() override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace

WallClock& WallClock::system() {
  static SystemWallClock clock;
  return clock;
}

}  // namespace tagwatch::util
