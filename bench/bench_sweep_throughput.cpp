// bench_sweep_throughput — configs/sec of the 2^n measurement campaign.
//
// The sweep is the hot path every strategy, bench and CLI run sits on;
// this harness tracks how fast the engine drives it on the paper
// workloads (k-Wave and NPB Multi-Grid) across four engine settings:
//
//   serial-seed        faithful re-run of the original engine loop: one
//                      full trace timing per repetition, per configuration
//   serial             rep-hoisted engine, jobs=1, no memoization
//   memoized           jobs=1 + per-phase Gray-order timing cache
//   parallel           jobs=hardware, no memoization
//   parallel-memoized  jobs=hardware + per-worker timing caches
//
// Every variant must produce a bit-identical SweepResult (the simulator's
// per-(mask, repetition) noise streams are order-independent); the harness
// verifies that before reporting. Results go to stdout (CSV + table) and
// to a JSON file (default BENCH_sweep.json) so CI can accumulate the
// throughput trajectory.
//
//   bench_sweep_throughput [--quick] [--jobs N] [--json FILE]
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"

namespace {

using namespace hmpt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The original engine loop, kept as the throughput baseline: re-times the
/// full trace for every repetition of every configuration and re-derives
/// the trace per configuration, exactly like the seed ExperimentRunner.
tuner::SweepResult seed_sweep(sim::MachineSimulator& sim,
                              const workloads::Workload& workload,
                              const tuner::ConfigSpace& space,
                              sim::ExecutionContext ctx, int reps) {
  tuner::SweepResult sweep;
  sweep.num_groups = space.num_groups();
  sweep.configs.resize(space.size());

  const auto measure = [&](tuner::ConfigMask mask, double baseline_time) {
    const auto trace = workload.trace();
    const auto placement = space.placement(mask);
    RunningStats stats;
    for (int rep = 0; rep < reps; ++rep)
      stats.add(sim.measure_trace(trace, placement, ctx,
                                  {mask, static_cast<std::uint64_t>(rep)}));
    tuner::ConfigResult result;
    result.mask = mask;
    result.mean_time = stats.mean();
    result.stddev_time = stats.stddev();
    result.speedup =
        baseline_time > 0.0 ? baseline_time / stats.mean() : 1.0;
    result.hbm_usage = space.hbm_usage(mask);
    result.hbm_density = tuner::hbm_access_fraction(trace, placement);
    result.groups_in_hbm = space.popcount(mask);
    return result;
  };

  tuner::ConfigResult baseline = measure(0, 0.0);
  baseline.speedup = 1.0;
  sweep.baseline_time = baseline.mean_time;
  sweep.configs[0] = baseline;
  for (const tuner::ConfigMask mask : space.gray_masks()) {
    if (mask == 0) continue;
    sweep.configs[mask] = measure(mask, sweep.baseline_time);
  }
  return sweep;
}

/// Measured times must agree bit-for-bit across variants; hbm_density is
/// summed in a different (still exact) order by the seed loop, so it gets
/// a tolerance.
bool sweeps_identical(const tuner::SweepResult& a,
                      const tuner::SweepResult& b) {
  if (a.configs.size() != b.configs.size()) return false;
  if (a.baseline_time != b.baseline_time) return false;
  for (std::size_t i = 0; i < a.configs.size(); ++i) {
    const auto& x = a.configs[i];
    const auto& y = b.configs[i];
    if (x.mask != y.mask || x.mean_time != y.mean_time ||
        x.stddev_time != y.stddev_time || x.speedup != y.speedup)
      return false;
    const double density_gap = x.hbm_density - y.hbm_density;
    if (density_gap > 1e-12 || density_gap < -1e-12) return false;
  }
  return true;
}

struct VariantResult {
  std::string name;
  int jobs = 1;
  double configs_per_sec = 0.0;
  double speedup_vs_seed = 1.0;
};

struct WorkloadResult {
  std::string name;
  int groups = 0;
  std::size_t configs = 0;
  bool identical = true;
  std::vector<VariantResult> variants;
};

[[noreturn]] void usage_exit(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--quick] [--jobs N] [--json FILE]\n"
            << "  --jobs N  worker threads for the parallel variants\n"
            << "            (N >= 0; 0 = all hardware threads)\n";
  std::exit(1);
}

/// Strict numeric parsing, matching hmpt_analyze's flag validation.
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
  using namespace hmpt;

  bool quick = false;
  int jobs = 0;  // 0 = all hardware threads
  std::string json_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--jobs" && i + 1 < argc)
      jobs = parse_jobs(argv[0], argv[++i]);
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else usage_exit(argv[0]);
  }
  const int parallel_jobs = jobs == 0 ? ThreadPool::hardware_jobs() : jobs;
  const double min_seconds = quick ? 0.1 : 1.0;
  constexpr int kReps = 3;
  constexpr double kSigma = 0.02;  // realistic run-to-run noise

  bench::print_header("BENCH sweep throughput",
                      "parallel + memoized measurement campaign");
  std::cout << "hardware threads: " << ThreadPool::hardware_jobs()
            << ", parallel variants use jobs=" << parallel_jobs
            << ", repetitions=" << kReps << "\n";

  sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                  sim::default_spr_hbm_calibration(),
                                  {kSigma, 42});

  std::vector<workloads::AppInfo> apps;
  apps.push_back(workloads::make_kwave_model(simulator));
  apps.push_back(workloads::make_mg_model(simulator));

  Table table({"workload", "variant", "jobs", "configs/s", "vs seed"});
  std::vector<WorkloadResult> results;

  for (const auto& app : apps) {
    tuner::ConfigSpace space([&] {
      std::vector<double> bytes;
      for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
      return bytes;
    }());

    WorkloadResult wr;
    wr.name = app.workload->name();
    wr.groups = space.num_groups();
    wr.configs = space.size();

    const tuner::SweepResult reference =
        seed_sweep(simulator, *app.workload, space, app.context, kReps);

    struct Variant {
      const char* name;
      int jobs;
      bool memoize;
      bool seed_path;
    };
    const std::vector<Variant> variants = {
        {"serial-seed", 1, false, true},
        {"serial", 1, false, false},
        {"memoized", 1, true, false},
        {"parallel", parallel_jobs, false, false},
        {"parallel-memoized", parallel_jobs, true, false},
    };

    double seed_rate = 0.0;
    for (const auto& variant : variants) {
      tuner::ExperimentOptions options;
      options.repetitions = kReps;
      options.jobs = variant.jobs;
      options.memoize = variant.memoize;
      tuner::ExperimentRunner runner(simulator, app.context, options);

      // Correctness first: every engine variant must reproduce the seed
      // reference (comparing seed to itself would prove nothing).
      if (!variant.seed_path &&
          !sweeps_identical(reference, runner.sweep(*app.workload, space))) {
        wr.identical = false;
        std::cerr << "FAIL: " << wr.name << " variant " << variant.name
                  << " diverged from the reference sweep\n";
      }

      // Then throughput: whole sweeps until the clock says enough.
      int sweeps = 0;
      const auto start = Clock::now();
      double elapsed = 0.0;
      do {
        if (variant.seed_path) {
          seed_sweep(simulator, *app.workload, space, app.context, kReps);
        } else {
          runner.sweep(*app.workload, space);
        }
        ++sweeps;
        elapsed = seconds_since(start);
      } while (elapsed < min_seconds);

      VariantResult vr;
      vr.name = variant.name;
      vr.jobs = variant.jobs;
      vr.configs_per_sec =
          static_cast<double>(sweeps) * static_cast<double>(space.size()) /
          elapsed;
      if (variant.seed_path) seed_rate = vr.configs_per_sec;
      vr.speedup_vs_seed =
          seed_rate > 0.0 ? vr.configs_per_sec / seed_rate : 1.0;
      wr.variants.push_back(vr);

      table.add_row({wr.name, vr.name, std::to_string(vr.jobs),
                     cell(vr.configs_per_sec, 0),
                     cell(vr.speedup_vs_seed, 2) + "x"});
    }
    results.push_back(std::move(wr));
  }

  bench::print_csv_block("sweep_throughput", table);
  std::cout << table.to_text();

  bool all_identical = true;
  for (const auto& wr : results) all_identical = all_identical && wr.identical;
  std::cout << "\nall variants bit-identical to the reference sweep: "
            << (all_identical ? "yes" : "NO") << "\n";

  std::ofstream json(json_path);
  if (!json.good()) {
    std::cerr << "cannot write " << json_path << "\n";
    return 2;
  }
  json << "{\n"
       << "  \"bench\": \"sweep_throughput\",\n"
       << "  \"hardware_threads\": " << ThreadPool::hardware_jobs() << ",\n"
       << "  \"parallel_jobs\": " << parallel_jobs << ",\n"
       << "  \"repetitions\": " << kReps << ",\n"
       << "  \"noise_sigma\": " << kSigma << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"identical_results\": " << (all_identical ? "true" : "false")
       << ",\n"
       << "  \"workloads\": [\n";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const auto& wr = results[w];
    json << "    {\n"
         << "      \"name\": \"" << wr.name << "\",\n"
         << "      \"groups\": " << wr.groups << ",\n"
         << "      \"configs\": " << wr.configs << ",\n"
         << "      \"variants\": [\n";
    for (std::size_t v = 0; v < wr.variants.size(); ++v) {
      const auto& vr = wr.variants[v];
      json << "        {\"name\": \"" << vr.name << "\", \"jobs\": "
           << vr.jobs << ", \"configs_per_sec\": " << vr.configs_per_sec
           << ", \"speedup_vs_seed\": " << vr.speedup_vs_seed << "}"
           << (v + 1 < wr.variants.size() ? "," : "") << "\n";
    }
    json << "      ]\n    }" << (w + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "throughput JSON written to " << json_path << "\n";

  return all_identical ? 0 : 2;
}
