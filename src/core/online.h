// online.h — iterative online placement tuning.
//
// The paper positions its tool as "the first step towards a more dynamic
// approach ... potentially allows for online profiling and control"
// (Sec. III). This module implements that extension: instead of sweeping
// all 2^n configurations offline, the tuner starts from all-DDR and
// adjusts the placement between iterations of the running application —
// observe one iteration's time, greedily move (or evict) the group with
// the best expected marginal gain per HBM byte, keep the move only if the
// next observed iteration confirms it. Converges in O(n^2) iterations
// instead of O(2^n) runs and respects the per-tier capacity budgets
// throughout. On a k-tier machine candidate moves cover every
// (group, other tier) pair; for k = 2 the search is exactly the original
// HBM flip sequence.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "core/config_space.h"
#include "simmem/simulator.h"
#include "workloads/workload.h"

namespace hmpt::tuner {

/// One step of the tuning trajectory.
struct OnlineStep {
  int iteration = 0;
  ConfigMask mask = 0;        ///< placement after the step
  ConfigMask tried_mask = 0;  ///< placement measured this step
  double observed_time = 0.0;
  int moved_group = -1;       ///< group moved this step (-1: none)
  int to_tier = 0;            ///< tier the group moved to (PoolKind value)
  bool kept = false;          ///< move survived its confirmation run
};

struct OnlineTunerOptions {
  /// Per-tier capacity caps indexed by tier (PoolKind value), as
  /// resolved_caps() returns them; <= 0 entries and tiers beyond the
  /// vector are unlimited.
  std::vector<double> tier_budget_bytes;
  /// Relative improvement a trial move must show to be kept.
  double keep_threshold = 1e-3;
  /// Stop after this many consecutive rejected trials.
  int patience = 3;
  int max_iterations = 200;
  /// Observer fired once with the first (all-DDR) observation, before any
  /// trial steps; may be empty.
  std::function<void(double)> on_baseline;
  /// Observer fired after each trial run (the strategy layer's progress
  /// hook); may be empty.
  std::function<void(const OnlineStep&)> on_step;
};

struct OnlineResult {
  ConfigMask final_mask = 0;
  double final_time = 0.0;
  double baseline_time = 0.0;  ///< first (all-DDR) observation
  double speedup = 0.0;
  int iterations_used = 0;
  std::vector<OnlineStep> trajectory;
};

class OnlineTuner {
 public:
  OnlineTuner(sim::MachineSimulator& sim, sim::ExecutionContext ctx,
              OnlineTunerOptions options = {});

  /// Tune `workload` online: each "iteration" costs one measured run of
  /// the workload's trace under the current placement.
  OnlineResult tune(const workloads::Workload& workload,
                    const ConfigSpace& space);

 private:
  /// One measured run of `mask`. `visits` counts prior observations per
  /// mask (sparse — the greedy search touches O(iterations) of the 2^n
  /// masks): the i-th observation of a mask draws noise stream (mask, i),
  /// matching the i-th repetition of an exhaustive sweep over the same
  /// configuration (the simulator's determinism guarantee).
  double observe(const sim::PhaseTrace& trace, const ConfigSpace& space,
                 ConfigMask mask,
                 std::unordered_map<ConfigMask, std::uint32_t>& visits);

  sim::MachineSimulator* sim_;
  sim::ExecutionContext ctx_;
  OnlineTunerOptions options_;
};

}  // namespace hmpt::tuner
