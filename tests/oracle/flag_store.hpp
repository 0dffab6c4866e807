// Test oracle: the EPC-keyed Gen2 flag store.
//
// The reader keeps protocol flags in the dense, index-keyed
// gen2::TagFlagField mirror.  This map is the readable reference that
// mirror is validated against: operator[] default-constructs the power-up
// state (SL deasserted, all sessions A), which is what a tag entering the
// field presents.
#pragma once

#include <unordered_map>

#include "gen2/commands.hpp"
#include "gen2/tag_runtime.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::oracle {

/// Flag store for the whole population, keyed by EPC.
class FlagStore {
 public:
  gen2::TagFlags& operator[](const util::Epc& epc) { return flags_[epc]; }

  const gen2::TagFlags* find(const util::Epc& epc) const {
    const auto it = flags_.find(epc);
    return it == flags_.end() ? nullptr : &it->second;
  }

  /// Broadcasts a Select to every tag in `epcs`.
  template <typename EpcRange>
  void broadcast_select(const gen2::SelectCommand& cmd,
                        const EpcRange& epcs) {
    for (const auto& epc : epcs) {
      gen2::apply_select_action(cmd, gen2::select_matches(cmd, epc),
                                (*this)[epc]);
    }
  }

  /// Timed broadcast: stamps decay deadlines per `timing`.
  template <typename EpcRange>
  void broadcast_select(const gen2::SelectCommand& cmd, const EpcRange& epcs,
                        util::SimTime now,
                        const gen2::SessionTiming& timing) {
    for (const auto& epc : epcs) {
      gen2::apply_select_action(cmd, gen2::select_matches(cmd, epc),
                                (*this)[epc], now, timing);
    }
  }

 private:
  std::unordered_map<util::Epc, gen2::TagFlags> flags_;
};

}  // namespace tagwatch::oracle
