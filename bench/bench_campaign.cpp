// bench_campaign — scenarios/sec of the campaign engine and the resume
// hit-rate of its outcome store.
//
// Runs a fixed scenario matrix (paper workloads × platforms × all three
// strategies) several ways and reports each as a throughput:
//
//   cold        empty store, every scenario executes and is persisted
//   resume      same campaign again with resume: every scenario must load
//               from the store (hit-rate 1.0; anything less is a
//               fingerprint instability bug)
//   shard-cold  the same campaign as 3 disjoint --shard slices, each into
//               its own store with a manifest
//   merge       hmpt_merge's engine unioning the 3 shard stores; the
//               merged runs.csv/summary.json must match the unsharded
//               cold run byte-for-byte
//
// Results go to stdout (CSV + table) and to a JSON file (default
// BENCH_campaign.json) so CI can accumulate the trajectory.
//
//   bench_campaign [--quick] [--jobs N] [--json FILE]
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/merge.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace {

using namespace hmpt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void usage_exit(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--quick] [--jobs N] [--json FILE]\n"
            << "  --jobs N  concurrent scenarios (N >= 0; 0 = all hardware\n"
            << "            threads)\n";
  std::exit(1);
}

int parse_jobs(const char* argv0, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0 ||
      value > INT_MAX) {
    std::cerr << "--jobs: not a count >= 0: '" << text << "'\n";
    usage_exit(argv0);
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int jobs = 0;  // 0 = all hardware threads
  std::string json_path = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--jobs" && i + 1 < argc)
      jobs = parse_jobs(argv[0], argv[++i]);
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else usage_exit(argv[0]);
  }

  campaign::ScenarioMatrix matrix;
  for (const char* name : quick
           ? std::vector<const char*>{"mg", "bt"}
           : std::vector<const char*>{"mg", "bt", "lu", "sp", "kwave"})
    matrix.workloads.push_back(campaign::parse_workload_spec(name));
  matrix.platforms = {"xeon-max", "spr-cxl"};
  matrix.strategies = {"exhaustive", "estimator", "online"};
  matrix.repetitions = quick ? 1 : 3;
  const auto scenarios = matrix.expand();

  bench::print_header("BENCH campaign throughput",
                      "scenario-matrix engine + resumable outcome store");
  std::cout << "scenarios: " << scenarios.size()
            << ", scenario jobs: " << jobs << " (0 = "
            << ThreadPool::hardware_jobs() << " hardware threads)\n";

  campaign::CampaignOptions options;
  options.output_dir =
      (std::filesystem::temp_directory_path() / "hmpt_bench_campaign")
          .string();
  options.scenario_jobs = jobs;
  std::filesystem::remove_all(options.output_dir);

  struct Phase {
    std::string name;
    double seconds = 0.0;
    double scenarios_per_sec = 0.0;
    int executed = 0;
    int cached = 0;
  };
  std::vector<Phase> phases;

  const auto timed = [&](const std::string& name,
                         const campaign::CampaignOptions& opts) {
    const campaign::CampaignRunner runner(opts);
    const auto start = Clock::now();
    const auto result = runner.run(scenarios);
    Phase phase;
    phase.name = name;
    phase.seconds = seconds_since(start);
    phase.scenarios_per_sec =
        static_cast<double>(scenarios.size()) / phase.seconds;
    phase.executed = result.executed;
    phase.cached = result.cached;
    phases.push_back(phase);
    return result;
  };

  const auto cold = timed("cold", options);
  auto resume_options = options;
  resume_options.resume = true;
  const auto warm = timed("resume", resume_options);

  const double hit_rate =
      static_cast<double>(warm.cached) /
      static_cast<double>(scenarios.size());

  // Shard-and-merge: the same campaign as three disjoint slices, each
  // executing into its own store with a shard manifest, then merged.
  const int kShards = 3;
  std::vector<std::string> shard_dirs;
  {
    const auto start = Clock::now();
    Phase phase;
    phase.name = "shard-cold";
    for (int i = 1; i <= kShards; ++i) {
      campaign::CampaignOptions shard_options = options;
      shard_options.output_dir =
          options.output_dir + "-shard" + std::to_string(i);
      std::filesystem::remove_all(shard_options.output_dir);
      const campaign::ShardSpec spec{i, kShards};
      const auto result = campaign::CampaignRunner(shard_options)
                              .run(campaign::shard_scenarios(scenarios, spec));
      campaign::make_manifest(scenarios, spec, result)
          .save(shard_options.output_dir);
      phase.executed += result.executed;
      shard_dirs.push_back(shard_options.output_dir);
    }
    phase.seconds = seconds_since(start);
    phase.scenarios_per_sec =
        static_cast<double>(scenarios.size()) / phase.seconds;
    phases.push_back(phase);
  }
  const std::string merged_dir = options.output_dir + "-merged";
  std::filesystem::remove_all(merged_dir);
  const auto merge_start = Clock::now();
  campaign::MergeStats merge_stats;
  const auto merged =
      campaign::merge_shards(shard_dirs, merged_dir, &merge_stats);
  {
    Phase phase;
    phase.name = "merge";
    phase.seconds = seconds_since(merge_start);
    phase.scenarios_per_sec =
        static_cast<double>(scenarios.size()) / phase.seconds;
    phase.cached = merged.cached;
    phases.push_back(phase);
  }
  // The whole point of the merge: artefacts identical to the unsharded run.
  const bool merged_matches_cold =
      campaign::runs_table(merged).to_csv() ==
          campaign::runs_table(cold).to_csv() &&
      campaign::summary_json(merged).dump() ==
          campaign::summary_json(cold).dump();

  Table table({"phase", "scenarios/s", "seconds", "executed", "cached"});
  for (const auto& phase : phases)
    table.add_row({phase.name, cell(phase.scenarios_per_sec, 1),
                   cell(phase.seconds, 4), std::to_string(phase.executed),
                   std::to_string(phase.cached)});
  bench::print_csv_block("campaign_throughput", table);
  std::cout << table.to_text();
  std::cout << "\nresume hit-rate: " << cell(hit_rate, 3)
            << " (1.000 = every scenario served from the store)\n";
  std::cout << "merged == unsharded artefacts: "
            << (merged_matches_cold ? "yes" : "NO — MERGE BUG") << " ("
            << merge_stats.outcomes_merged << " outcome files from "
            << merge_stats.shards << " shards)\n";

  JsonObject doc;
  doc["bench"] = Json(std::string("campaign"));
  doc["scenarios"] = Json(static_cast<int>(scenarios.size()));
  doc["jobs"] = Json(jobs);
  doc["quick"] = Json(quick);
  doc["resume_hit_rate"] = Json(hit_rate);
  doc["shards"] = Json(kShards);
  doc["merged_matches_cold"] = Json(merged_matches_cold);
  JsonArray phase_array;
  for (const auto& phase : phases) {
    JsonObject p;
    p["name"] = Json(phase.name);
    p["seconds"] = Json(phase.seconds);
    p["scenarios_per_sec"] = Json(phase.scenarios_per_sec);
    p["executed"] = Json(phase.executed);
    p["cached"] = Json(phase.cached);
    phase_array.push_back(Json(std::move(p)));
  }
  doc["phases"] = Json(std::move(phase_array));
  std::ofstream os(json_path);
  if (!os.good()) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  os << Json(std::move(doc)).dump();
  std::cout << "wrote " << json_path << "\n";

  return (hit_rate == 1.0 && merged_matches_cold) ? 0 : 1;
}
