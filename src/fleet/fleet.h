// fleet.h — distributed campaign dispatch with work stealing.
//
// One command — `hmpt_campaign --fleet N`, whose workers default to the
// same binary — runs a whole sharded campaign: the dispatcher expands the
// scenario matrix once, writes it to a plan file, deals the
// fingerprint-sorted scenarios round-robin into N shard workers (each an
// `hmpt_campaign --plan ... --assign ... --progress-manifest` child
// process on its own outcome store), and tracks per-scenario completion
// by tailing each worker's shard.manifest.json. Past a configurable
// straggler threshold — or immediately when a worker dies — unfinished
// fingerprints are re-dealt to idle workers (work stealing). Duplicate
// execution is deliberately possible and deliberately harmless: the
// outcome store is content-addressed with first-write-wins byte-compare
// semantics, and the merge verifies that every overlapping copy holds
// identical bytes. When every scenario is complete the dispatcher stops
// surviving children, runs the standard merge/cross-validation path
// in-process, and the artefacts (runs.csv, summary.json, merged store)
// are byte-identical to a single-process run of the same campaign —
// determinism invariant 8, proven by tests/fleet_test.cpp and the
// fleet-smoke CI job rather than asserted in prose.
//
// Workers are local child processes by default; `exec_template` is the
// seam for ssh/job-array launch (the rendered worker command is
// substituted for {cmd}, the 1-based worker index for {index}) and
// `sync_template` the seam for pulling remote stores back before the
// merge ({dir} and {index} substituted).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/merge.h"

namespace hmpt::fleet {

struct FleetOptions {
  /// Shard workers (N >= 1). Each owns <output_dir>/shard-<i>.
  int workers = 2;
  /// Merged artefacts + per-worker stores + fleet scratch files.
  std::string output_dir = "fleet-out";
  /// Store layout of every worker store and of the merged store.
  campaign::StoreFormat store_format = campaign::StoreFormat::Dir;
  /// The hmpt_campaign binary workers run (required).
  std::string worker_bin;
  /// Launch seam: empty = fork/exec worker_bin directly; otherwise the
  /// template is rendered ({cmd} = shell-quoted worker command, {index}
  /// = worker index) and run via /bin/sh -c — "ssh host{index} {cmd}"
  /// turns the local fleet into an ssh fleet.
  std::string exec_template;
  /// Store-sync seam, run per worker after the last child exits and
  /// before the merge ({dir} = worker store directory, {index} = worker
  /// index). Empty = stores are local, nothing to sync.
  std::string sync_template;
  /// Steal from a live worker only after it has made no observable
  /// progress for this long (seconds). <= 0 steals aggressively (any
  /// poll may re-deal); dead workers are always stolen from immediately.
  double straggler_after_s = 30.0;
  /// Manifest poll / scheduling interval in seconds.
  double poll_interval_s = 0.2;
  /// Launch cap per fingerprint (first deal included): a scenario whose
  /// runs keep dying is not re-dealt forever, it fails the fleet.
  int max_deals = 3;
  /// Per-worker --jobs (concurrent scenarios inside one worker).
  int worker_jobs = 1;
  /// Forwarded as --keep-going; also makes the dispatcher treat a worker
  /// exiting nonzero as a death to be stolen from rather than a fleet
  /// abort.
  bool keep_going = false;
};

/// What the dispatcher did, for logs, tests and the metrics registry.
struct FleetStats {
  std::string campaign;        ///< campaign fingerprint
  int scenarios = 0;           ///< full campaign size
  int workers = 0;             ///< shard workers (options.workers)
  int launches = 0;            ///< child processes spawned, all generations
  int steals = 0;              ///< fingerprints re-dealt away from a worker
  int worker_deaths = 0;       ///< children that died or failed
  campaign::MergeStats merge;  ///< the in-process merge's counters
};

/// One tolerant read of a worker's shard.manifest.json. A fleet tails
/// manifests other processes rewrite (and, behind sync seams, other
/// *hosts* rewrite without rename atomicity), so a torn or half-synced
/// read is an expected transient: it is retried briefly and then
/// reported as Damaged — never an exception, and never evidence that a
/// scenario failed. Only a manifest that parses is evidence of anything.
struct ManifestTail {
  enum class State {
    Ok,       ///< manifest parsed; `manifest` is valid
    Missing,  ///< no manifest file (worker store not created yet)
    Damaged,  ///< unreadable/torn after every retry — treat as "no news"
  };
  State state = State::Missing;
  campaign::ShardManifest manifest;  ///< valid only when state == Ok
};

/// Read a shard manifest, retrying `retries` times (sleeping
/// `retry_sleep_s` between reads) when the bytes do not parse.
ManifestTail tail_manifest(const std::string& store_dir, int retries = 4,
                           double retry_sleep_s = 0.02);

/// Assignment files: one fingerprint per line, the exact scenario set a
/// worker generation runs (`hmpt_campaign --assign`). Atomic write.
void save_assignment(const std::string& path,
                     const std::vector<std::string>& fingerprints);
std::vector<std::string> load_assignment(const std::string& path);

/// Progress hook: human-readable dispatcher events (launches, steals,
/// deaths, completion) for the driving tool to print.
using FleetLog = std::function<void(const std::string&)>;

/// Run the campaign as a fleet: deal, launch, tail, steal, merge.
/// Returns the campaign-ordered merged result (statuses Cached/Failed,
/// exactly like merge_shards), from which the standard aggregation
/// reproduces the unsharded artefacts byte for byte. Throws hmpt::Error
/// when the fleet cannot complete the campaign (a worker failed under
/// fail-fast, the per-fingerprint deal cap was exhausted, a sync command
/// failed, or the final merge found conflicting bytes).
campaign::CampaignResult run_fleet(
    const std::vector<campaign::Scenario>& scenarios,
    const FleetOptions& options, FleetStats* stats = nullptr,
    const FleetLog& log = {});

}  // namespace hmpt::fleet
