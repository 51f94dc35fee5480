// race.hpp — the bookkeeping of a two-candidate race.
//
// Two of a plan's choices are raced on its live runs rather than decided
// up front: the scalar-vs-vector lane-kernel table (DESIGN.md §14) and
// the walk order of a serial plan's single-RHS solves (§13). Both
// candidates of each are bitwise identical, so exploring is invisible to
// callers. Each candidate runs `budget` timed epochs in turn; the best
// epoch is its time (best-of is robust to one-off scheduler noise), and
// the faster candidate wins, the first keeping a tie.
#pragma once

#include <cstddef>
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
class PairRace {
 public:
  /// `first` explores first, keeps a tie, and is the choice whenever no
  /// race ran.
  PairRace(Choice first, Choice second) noexcept
      : first_(first), second_(second), winner_(first) {}

  /// Arm with a per-choice epoch budget. Non-positive budgets leave the
  /// race disarmed.
  void arm(int epochs_per_choice) {
    if (epochs_per_choice <= 0) return;
    budget_ = epochs_per_choice;
    active_ = true;
    state_.timings = {RaceTiming<Choice>{first_},
                      RaceTiming<Choice>{second_}};
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
    return active_ ? state_.timings[idx_].choice : winner_;
  }
  /// Record one raced epoch's normalized time; advances the candidate
  /// after its budget and locks in the winner when both have spent
  /// theirs. Returns true exactly once, at lock-in.
  bool note_epoch(double us) noexcept {
    if (!active_) return false;
    RaceTiming<Choice>& t = state_.timings[idx_];
    if (t.epochs == 0 || us < t.best_us) t.best_us = us;
    ++t.epochs;
    ++state_.exploration_epochs;
    if (++epoch_ < budget_) return false;
    epoch_ = 0;
    if (++idx_ < state_.timings.size()) return false;
    const bool second = state_.timings[1].best_us < state_.timings[0].best_us;
    winner_ = state_.timings[second ? 1 : 0].choice;
    active_ = false;
    state_.calibrated = true;
    return true;
  }
  Choice winner() const noexcept { return winner_; }
  const RaceState<Choice>& state() const noexcept { return state_; }

 private:
  Choice first_, second_;
  bool active_ = false;
  int budget_ = 0;
  int epoch_ = 0;
  std::size_t idx_ = 0;
  Choice winner_;
  RaceState<Choice> state_;
};

}  // namespace pdx::core
