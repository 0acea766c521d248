#include "campaign/campaign.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "campaign/platforms.h"
#include "common/error.h"
#include "common/thread_name.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pipelined group commit behind CampaignRunner::run. Workers append
/// each executed scenario's outcome to the store and hand the run over;
/// one committer thread loops: it takes every run handed over so far,
/// syncs the store once for all of them, and only then finishes them.
/// A batch is whatever arrived while the previous sync ran, so its size
/// follows the fsync latency with no setting, and the fsync overlaps the
/// next scenarios' execution. Progress callbacks — and with them shard
/// manifests and fleet progress — never advance past an outcome that is
/// not durable.
class GroupCommit {
 public:
  using Finish = std::function<void(std::size_t, ScenarioRun&&)>;

  GroupCommit(const OutcomeStore& store, bool keep_going, Finish finish)
      : store_(store),
        keep_going_(keep_going),
        finish_(std::move(finish)),
        thread_([this] { loop(); }) {}
  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;
  /// Joins, so an exception unwinding run() still waits for the
  /// committer, which first syncs and finishes what it was handed.
  ~GroupCommit() { join(); }

  /// Hand over an executed run whose outcome was appended to the store.
  void submit(std::size_t index, ScenarioRun&& run) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.emplace_back(index, std::move(run));
    }
    wake_.notify_one();
  }

  /// True once a commit failed without keep_going: the campaign stops,
  /// so workers start no further scenarios.
  bool failed() const { return failed_.load(); }

  /// The final sync and join; rethrows the committer's first error.
  void close() {
    join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  using Batch = std::vector<std::pair<std::size_t, ScenarioRun>>;

  void join() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    set_current_thread_name("hmpt-commit");
    Batch batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return closing_ || !pending_.empty(); });
        if (pending_.empty()) return;  // closing, and everything drained
        batch.swap(pending_);
      }
      // After a fail-fast error nothing more is synced or finished: the
      // campaign is throwing, and those outcomes are not durable.
      if (!error_) commit(batch);
      batch.clear();
    }
  }

  void commit(Batch& batch) {
    std::string sync_error;
    try {
      obs::TraceSpan span("campaign", "commit");
      span.arg_number("runs", static_cast<std::uint64_t>(batch.size()));
      store_.sync();
    } catch (const std::exception& e) {
      if (!keep_going_) return fail(std::current_exception());
      sync_error = e.what();
    }
    try {
      for (auto& [index, run] : batch) {
        if (!sync_error.empty()) {
          // Appended but never durable: recorded as failed, so a later
          // --resume re-executes it.
          run.status = ScenarioRun::Status::Failed;
          run.error = sync_error;
          run.outcome = {};
        }
        finish_(index, std::move(run));
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void fail(std::exception_ptr error) {
    error_ = std::move(error);
    failed_.store(true);
  }

  const OutcomeStore& store_;
  const bool keep_going_;
  const Finish finish_;
  std::mutex mutex_;
  std::condition_variable wake_;
  Batch pending_;         ///< handed over, not yet taken by the committer
  bool closing_ = false;  ///< run() is done handing over
  std::exception_ptr error_;  ///< committer-owned until the join
  std::atomic<bool> failed_{false};
  std::thread thread_;  ///< last: starts once every member above exists
};

}  // namespace

const char* to_string(ScenarioRun::Status status) {
  switch (status) {
    case ScenarioRun::Status::Executed: return "executed";
    case ScenarioRun::Status::Cached: return "cached";
    case ScenarioRun::Status::Failed: return "failed";
  }
  return "?";
}

std::string fingerprint_of(const ScenarioRun& run) {
  return run.fingerprint.empty() ? run.scenario.fingerprint()
                                 : run.fingerprint;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)),
      store_(options_.output_dir, options_.store_format) {
  HMPT_REQUIRE(options_.scenario_jobs >= 0,
               "scenario_jobs must be >= 0 (0 = all hardware threads)");
}

tuner::TuningOutcome CampaignRunner::execute(const Scenario& scenario) {
  auto simulator = make_platform(scenario.platform);
  const auto resolved = WorkloadRegistry::instance().create(
      scenario.workload, simulator);

  // Tier sanity (tier count within the platform, budgets within the
  // searched tiers) is enforced by Session::run for every entry point.
  auto session = tuner::Session::on(simulator)
                     .workload(resolved.workload)
                     .strategy(scenario.strategy)
                     .tiers(scenario.tiers)
                     .repetitions(scenario.repetitions)
                     .budget_gb(scenario.budget_gb)
                     .top_k(scenario.top_k)
                     .jobs(1);
  if (resolved.context.has_value()) session.context(*resolved.context);
  for (const auto& [tier, gb] : scenario.tier_budgets_gb)
    session.tier_budget_gb(tier, gb);
  return session.run();
}

CampaignResult CampaignRunner::run(const std::vector<Scenario>& scenarios,
                                   const ScenarioCallback& on_scenario) const {
  CampaignResult result;
  result.runs.resize(scenarios.size());
  const auto campaign_start = Clock::now();

  std::mutex mutex;  // guards the counters and the progress callback
  const auto finish = [&](std::size_t i, ScenarioRun&& run) {
    std::lock_guard<std::mutex> lock(mutex);
    switch (run.status) {
      case ScenarioRun::Status::Executed: ++result.executed; break;
      case ScenarioRun::Status::Cached: ++result.cached; break;
      case ScenarioRun::Status::Failed: ++result.failed; break;
    }
    result.runs[i] = std::move(run);
    if (on_scenario) on_scenario(i, result.runs[i]);
  };
  GroupCommit commit(store_, options_.keep_going, finish);

  const auto run_one = [&](std::size_t i) {
    if (commit.failed()) return;
    ScenarioRun run;
    run.scenario = scenarios[i];
    run.fingerprint = run.scenario.fingerprint();

    // The whole scenario — cache probe, execution, store append — as one
    // span; the closing args record how it ended. Purely observational:
    // disarmed this is four no-op calls, and armed it touches nothing
    // the outcome or the artefacts derive from.
    obs::TraceSpan span("campaign", "scenario");
    span.arg("fingerprint", run.fingerprint);
    span.arg("label", run.scenario.label());
    static obs::Counter& scenarios_finished =
        obs::metrics().counter("campaign.scenarios");
    scenarios_finished.add();

    try {
      if (options_.resume) {
        if (auto cached = store_.load(run.scenario)) {
          run.status = ScenarioRun::Status::Cached;
          run.outcome = std::move(*cached);
          span.arg("status", "cached");
          finish(i, std::move(run));
          return;
        }
      }
      const auto start = Clock::now();
      auto outcome = execute(run.scenario);
      store_.append(run.scenario, outcome);
      run.seconds = seconds_since(start);
      run.outcome = std::move(outcome);
      run.status = ScenarioRun::Status::Executed;
      span.arg("status", "executed");
      commit.submit(i, std::move(run));  // finished once durable
      return;
    } catch (const std::exception& e) {
      if (!options_.keep_going) throw;  // the pool rethrows to the caller
      run.status = ScenarioRun::Status::Failed;
      run.error = e.what();
      span.arg("status", "failed");
    }
    finish(i, std::move(run));
  };

  parallel_for(options_.scenario_jobs, scenarios.size(), run_one);
  commit.close();

  result.seconds = seconds_since(campaign_start);
  return result;
}

}  // namespace hmpt::campaign
