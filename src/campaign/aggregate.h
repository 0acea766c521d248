// aggregate.h — campaign-wide views of a finished CampaignResult.
//
// Artefacts per campaign, split by stability. runs.csv and summary.json
// are derived *deterministically* from the per-scenario outcomes — the
// same bytes whether the campaign ran cold, resumed, or as N merged
// shards — while everything execution-dependent (statuses, wall times)
// lives in status.json, which is expected to differ between runs:
//   * runs.csv      one row per scenario with the headline numbers
//                   (machine-readable, matrix order),
//   * summary.json  campaign fingerprint + totals + per-scenario records
//                   (scenario, speedup, recorded error) — deterministic,
//   * status.json   executed/cached counts, per-run status and wall
//                   times — the volatile run log,
//   * a ranked text table (common/table) for the terminal, best speedup
//                   first.
#pragma once

#include <string>

#include "campaign/campaign.h"
#include "common/json.h"
#include "common/table.h"

namespace hmpt::campaign {

/// A scenario's budget_gb cell: its HBM budget, then ";tier:gb" for each
/// per-tier budget (runs.csv, the plan listing and the HTML report).
std::string budget_text(const Scenario& s);

/// The planned-scenario listing shared by --dry-run and the pre-run plan
/// printout (one row per scenario, matrix order).
Table plan_table(const std::vector<Scenario>& scenarios);

/// One row per scenario with an outcome (Executed/Cached), matrix order.
/// Deliberately excludes run status and timings: those vary between a
/// cold and a resumed campaign, and runs.csv must not.
Table runs_table(const CampaignResult& result);

/// Scenarios with outcomes (Executed/Cached) ranked by speedup, best
/// first, ties broken by label for determinism — the ordering shared by
/// the terminal ranking and the HTML report. Pointers into `result`.
std::vector<const ScenarioRun*> ranked_runs(const CampaignResult& result);

/// Scenarios with outcomes ranked by speedup, best first (ties broken by
/// label for determinism).
Table ranked_table(const CampaignResult& result);

/// Campaign fingerprint + totals + per-scenario records. Deterministic:
/// contains nothing that depends on *how* the outcomes were obtained
/// (cold, resumed or merged from shards), so a merged campaign's
/// summary.json is byte-identical to the unsharded run's. Failures appear
/// with their recorded error message.
Json summary_json(const CampaignResult& result);

/// The volatile run log: executed/cached/failed counts, campaign
/// wall time, and per-run status + seconds. Deliberately separate from
/// summary.json so the deterministic artefacts stay comparable across
/// resume and shard merges.
Json status_json(const CampaignResult& result);

/// Write runs.csv, summary.json and status.json under `output_dir`;
/// returns the paths written. Per-scenario outcome JSONs are already in
/// the store.
std::vector<std::string> write_artifacts(const CampaignResult& result,
                                         const std::string& output_dir);

}  // namespace hmpt::campaign
