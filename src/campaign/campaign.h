// campaign.h — the engine that runs a scenario fleet.
//
// Takes the expanded scenario list of a ScenarioMatrix and executes each
// scenario through the Session facade on a freshly-built platform
// simulator, with
//   * scenario-level concurrency (common/ThreadPool; each scenario owns
//     its simulator, so scenarios are independent),
//   * a resumable on-disk OutcomeStore — with `resume` set, scenarios
//     whose fingerprint is already stored load instead of executing —
//     written through a pipelined group commit (one fsync per batch of
//     finished scenarios, overlapped with the next ones' execution),
//   * keep-going vs fail-fast error policy.
// Results come back in scenario order whatever the concurrency, so
// aggregation (runs.csv, ranked summaries) is deterministic and a resumed
// campaign reproduces its artefacts byte-for-byte.
//
// Scaling beyond one process: shard_scenarios (scenario.h) deals the
// campaign into disjoint slices, each run by its own CampaignRunner with
// its own store, and merge.h reassembles the stores losslessly.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/outcome_store.h"
#include "campaign/scenario.h"
#include "core/strategy.h"

namespace hmpt::campaign {

struct CampaignOptions {
  std::string output_dir = "campaign-out";  ///< store + aggregate artefacts
  /// On-disk outcome store layout (see outcome_store.h): one file per
  /// scenario (dir, the default) or one append-only packed log for
  /// fleet-scale campaigns. Stored bytes are identical either way, and
  /// hmpt_merge converts between formats losslessly.
  StoreFormat store_format = StoreFormat::Dir;
  bool resume = false;  ///< skip scenarios already in the store
  /// Record failed scenarios and keep running (exit status reports them);
  /// false = fail fast, first error aborts the campaign.
  bool keep_going = false;
  /// Concurrent scenarios (1 = serial, 0 = all hardware threads), the
  /// campaign's one level of parallelism: each scenario tunes serially.
  int scenario_jobs = 1;
};

struct ScenarioRun {
  enum class Status {
    Executed,  ///< ran and was stored
    Cached,    ///< loaded from the store (--resume hit)
    Failed,    ///< threw; error holds the message (keep-going only)
  };

  Scenario scenario;             ///< what ran
  /// Content address captured when the scenario ran. Aggregation and
  /// manifests use this stored string, never a recomputed hash, so a
  /// recorded-profile file changing on disk after the run cannot re-key
  /// a finished scenario. Empty only for hand-built results (aggregation
  /// then falls back to recomputing).
  std::string fingerprint;
  /// Failed until set: a hand-built run with no outcome never counts as
  /// having one.
  Status status = Status::Failed;
  tuner::TuningOutcome outcome;  ///< valid for Executed/Cached
  std::string error;             ///< valid for Failed
  /// Wall time of execution plus the store append (0 otherwise); the
  /// batch fsync that makes the outcome durable is charged to the
  /// campaign wall time, not here.
  double seconds = 0.0;
};

/// The status's artefact spelling ("executed"/"cached"/"failed").
const char* to_string(ScenarioRun::Status status);

/// The run's content address: the fingerprint captured when it ran,
/// recomputed only for hand-built results that never went through a
/// runner or merge.
std::string fingerprint_of(const ScenarioRun& run);

/// Everything a campaign run (or a shard merge) produced, in scenario
/// order whatever the concurrency — aggregation over it is deterministic.
struct CampaignResult {
  std::vector<ScenarioRun> runs;  ///< scenario order
  int executed = 0;               ///< ran fresh and were stored
  int cached = 0;                 ///< served from the outcome store
  int failed = 0;                 ///< recorded failures (keep-going)
  double seconds = 0.0;           ///< campaign wall time

  /// True when no scenario failed.
  bool ok() const { return failed == 0; }
};

/// Progress hook: fired (serialised, from any worker) when a scenario
/// finishes. `index` is the position in the scenario list.
using ScenarioCallback =
    std::function<void(std::size_t index, const ScenarioRun& run)>;

class CampaignRunner {
 public:
  /// Validates the options (job counts); opening the underlying store
  /// writes nothing until the first outcome is saved.
  explicit CampaignRunner(CampaignOptions options);

  /// The options this runner was built with.
  const CampaignOptions& options() const { return options_; }
  /// The outcome store under options().output_dir.
  const OutcomeStore& store() const { return store_; }

  /// Run the scenario list: each scenario loads from the store on a
  /// `resume` hit, or executes and is appended to the store by its
  /// worker. One committer thread makes the appended outcomes durable,
  /// syncing a batch at a time; `on_scenario` fires for an executed
  /// scenario only after its outcome is durable, and run() returns (or
  /// throws) only after the final sync. Under keep_going an error fails
  /// its scenario with the error's own message (a failed sync, every run
  /// of its batch); otherwise it is rethrown.
  CampaignResult run(const std::vector<Scenario>& scenarios,
                     const ScenarioCallback& on_scenario = {}) const;

  /// Execute one scenario end to end: build the platform, resolve the
  /// workload by name, tune through a serial Session. Public so
  /// single-scenario callers (tests, tools) share the exact campaign
  /// execution path.
  static tuner::TuningOutcome execute(const Scenario& scenario);

 private:
  CampaignOptions options_;
  OutcomeStore store_;
};

}  // namespace hmpt::campaign
