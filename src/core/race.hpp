// race.hpp — the bookkeeping of a race between bitwise-identical choices.
//
// Two of a plan's choices are raced on its live runs rather than decided
// up front: the execution strategy and the walk order of a serial plan's
// single-RHS solves (DESIGN.md §13). The lane-kernel table is not raced:
// it is fixed per process (§14). The candidates of each race are bitwise
// identical, so exploring is invisible to callers. Each candidate runs
// `budget` timed epochs in turn; the best epoch is its time (best-of is
// robust to one-off scheduler noise), and the fastest candidate wins, the
// earliest keeping a tie.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace pdx::core {

/// One candidate of a race: the best time it measured.
template <class Choice>
struct RaceTiming {
  Choice choice{};
  double best_us = 0.0;  ///< best normalized epoch time, microseconds
  int epochs = 0;        ///< epochs this choice was timed
};

/// A race's record, as the plans report it in their telemetry.
template <class Choice>
struct RaceState {
  bool calibrated = false;     ///< a winner is locked in
  bool cache_hit = false;      ///< the winner came from the TuningCache
  int exploration_epochs = 0;  ///< timed epochs spent exploring
  /// The candidates in the order they explore (empty on a cache hit).
  std::vector<RaceTiming<Choice>> timings;
};

template <class Choice>
class Race {
 public:
  /// `choices` explore in the given order; the first keeps a tie and is
  /// the choice whenever no race ran. Must not be empty.
  explicit Race(std::vector<Choice> choices)
      : choices_(std::move(choices)), winner_(choices_.front()) {}

  /// Arm with a per-choice epoch budget. Non-positive budgets leave the
  /// race disarmed.
  void arm(int budget) {
    if (budget <= 0) return;
    budget_ = budget;
    active_ = true;
    state_.timings.clear();
    for (const Choice c : choices_) {
      state_.timings.push_back(RaceTiming<Choice>{c});
    }
  }
  /// Lock in `winner` without racing — a TuningCache hit.
  void adopt(Choice winner) noexcept {
    active_ = false;
    winner_ = winner;
    state_.calibrated = true;
    state_.cache_hit = true;
  }
  bool active() const noexcept { return active_; }
  /// The choice the next raced epoch should run (the winner once none
  /// is raced).
  Choice candidate() const noexcept {
    return active_ ? choices_[idx_] : winner_;
  }
  /// Record one raced epoch's normalized time; advances the candidate
  /// after its budget and locks in the winner when every candidate has
  /// spent its own. Returns true exactly once, at lock-in.
  bool note_epoch(double us) noexcept {
    if (!active_) return false;
    RaceTiming<Choice>& t = state_.timings[idx_];
    if (t.epochs == 0 || us < t.best_us) t.best_us = us;
    ++t.epochs;
    ++state_.exploration_epochs;
    if (++epoch_ < budget_) return false;
    epoch_ = 0;
    if (++idx_ < choices_.size()) return false;
    for (std::size_t i = 1; i < choices_.size(); ++i) {
      if (state_.timings[i].best_us < state_.timings[best_].best_us) best_ = i;
    }
    winner_ = choices_[best_];
    active_ = false;
    state_.calibrated = true;
    return true;
  }
  Choice winner() const noexcept { return winner_; }
  /// The winner's entry in state().timings once a race locked in (not
  /// after adopt(), which records no timings).
  std::size_t winner_index() const noexcept { return best_; }
  const RaceState<Choice>& state() const noexcept { return state_; }

 private:
  std::vector<Choice> choices_;
  bool active_ = false;
  int budget_ = 0;
  int epoch_ = 0;
  std::size_t idx_ = 0;
  std::size_t best_ = 0;
  Choice winner_;
  RaceState<Choice> state_;
};

}  // namespace pdx::core
