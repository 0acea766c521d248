// hmptbench — the measuring half of the hmpt benchmark; run.py drives it.
//
//   hmptbench --workload NAME --inputs DIR --work DIR --seconds S
//             --trace 0|1 --hmptd PATH [--trace-out FILE]
//
// The inputs are campaign files run.py generates from a seed; this binary
// only reads them. It calls the program's public functions directly, and
// prints one JSON document on stdout holding what it measured, unreduced:
//
//   series    name -> per-round (or per-call) values; run.py takes the
//             median,
//   latency   name -> {"window": W, "samples": [...]}; run.py takes the
//             median over fixed windows of W samples of the p50 and of
//             the tail percentile,
//   values    name -> one exact value,
//   identity  [{"name", "a", "b"}]: files that must be byte-identical,
//   checks    [{"name", "ok", "detail"}]: other correctness conditions,
//   attempted / failed: operations tried and failed or refused.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// walks every layer on the same inputs, timing each call into it, with
// the program's Chrome-trace recorder armed, and drives an hmptd child
// over its socket for the service layer; the trace goes to --trace-out.
// Errors go to stderr; stdout carries only the document.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/outcome_store.h"
#include "campaign/platforms.h"
#include "campaign/scenario.h"
#include "campaign/workload_registry.h"
#include "common/error.h"
#include "common/json.h"
#include "core/outcome_io.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/report.h"
#include "service/protocol.h"
#include "service/socket.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace hmpt;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::OutcomeStore;
using campaign::Scenario;
using campaign::ScenarioRun;
using campaign::StoreFormat;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::string inputs;
  std::string work;
  double seconds = 10.0;
  bool trace = false;
  std::string hmptd;
  std::string trace_out;
};

// ------------------------------------------------------------- the report

struct Report {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::pair<std::size_t, std::vector<double>>> latency;
  std::map<std::string, double> values;
  JsonArray identity;
  JsonArray checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value) {
    series[name].push_back(value);
  }
  void add_all(const std::string& name, const std::vector<double>& values) {
    auto& into = series[name];
    into.insert(into.end(), values.begin(), values.end());
  }
  void add_latency(const std::string& name, std::size_t window,
                   const std::vector<double>& samples) {
    auto& entry = latency[name];
    entry.first = window;
    entry.second.insert(entry.second.end(), samples.begin(), samples.end());
  }
  void same_bytes(const std::string& name, const std::string& a,
                  const std::string& b) {
    JsonObject pair;
    pair["name"] = Json(name);
    pair["a"] = Json(a);
    pair["b"] = Json(b);
    identity.emplace_back(std::move(pair));
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    JsonObject entry;
    entry["name"] = Json(name);
    entry["ok"] = Json(ok);
    entry["detail"] = Json(detail);
    checks.emplace_back(std::move(entry));
  }

  std::string dump() const {
    const auto numbers = [](const std::vector<double>& values) {
      JsonArray array;
      for (double v : values) array.emplace_back(v);
      return Json(std::move(array));
    };
    JsonObject doc;
    JsonObject s;
    for (const auto& [name, values] : series) s[name] = numbers(values);
    doc["series"] = Json(std::move(s));
    JsonObject l;
    for (const auto& [name, entry] : latency) {
      JsonObject one;
      one["window"] = Json(static_cast<std::uint64_t>(entry.first));
      one["samples"] = numbers(entry.second);
      l[name] = Json(std::move(one));
    }
    doc["latency"] = Json(std::move(l));
    JsonObject v;
    for (const auto& [name, value] : values) v[name] = Json(value);
    doc["values"] = Json(std::move(v));
    doc["identity"] = Json(identity);
    doc["checks"] = Json(checks);
    doc["attempted"] = Json(attempted);
    doc["failed"] = Json(failed);
    return Json(std::move(doc)).dump(-1);
  }
};

// ------------------------------------------------------------ file helpers

void write_file(const std::string& path, const std::string& bytes) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  HMPT_REQUIRE(out.good(), "cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HMPT_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Total size of the regular files under `path`.
std::uint64_t tree_bytes(const std::string& path) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// Remove `path`, then flush the filesystem, so the metadata of the
/// removal is not written back during the timed work that follows (every
/// outcome save waits on an fsync).
void remove_and_settle(const std::string& path) {
  fs::remove_all(path);
  const int fd = ::open(fs::path(path).parent_path().c_str(), O_RDONLY);
  HMPT_REQUIRE(fd >= 0, "cannot open the parent of " + path);
  ::syncfs(fd);
  ::close(fd);
}

/// Peak resident set (VmHWM) of this process, in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  raise("no VmHWM in /proc/self/status");
}

double median(std::vector<double> values) {
  HMPT_REQUIRE(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Short serial steps timed in milliseconds (set-up, artefact writing)
/// cost more on some CPUs than on others: on a small virtual machine the
/// CPU that takes the disk's interrupts was up to 30% slower. So that
/// a run's median does not depend on where the scheduler first put the
/// process, each repetition of such a step runs on the next CPU this
/// process may use, in turn; -1 (no pinning) where the mask is unknown.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
  int next() {
    return cpus_.empty() ? -1 : cpus_[next_++ % cpus_.size()];
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Runs the calling thread on one CPU until destroyed, then restores its
/// previous mask. Threads started meanwhile inherit the single CPU, so it
/// only wraps steps that start none. With cpu < 0, or where the mask
/// cannot be changed, the step runs unpinned.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    if (cpu < 0 || ::sched_getaffinity(0, sizeof saved_, &saved_) != 0)
      return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedTo() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ----------------------------------------------------------------- inputs

/// The scenario list of every *.campaign file under `dir` (sorted by
/// name), expanded and fingerprinted, deduplicated by fingerprint.
std::vector<Scenario> load_campaigns(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".campaign")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  HMPT_REQUIRE(!files.empty(), "no .campaign files in " + dir);
  std::vector<Scenario> scenarios;
  std::set<std::string> seen;
  for (const auto& file : files)
    for (auto& scenario : campaign::ScenarioMatrix::load(file).expand())
      if (seen.insert(scenario.fingerprint()).second)
        scenarios.push_back(std::move(scenario));
  return scenarios;
}

// ----------------------------------------------------------- batch passes

struct Pass {
  CampaignResult result;
  double wall = 0.0;
  std::vector<double> scenario_ms;  ///< ScenarioRun::seconds, scenario order
};

Pass timed_pass(const CampaignRunner& runner,
                const std::vector<Scenario>& scenarios) {
  Pass pass;
  const auto start = Clock::now();
  pass.result = runner.run(scenarios);
  pass.wall = since(start);
  for (const auto& run : pass.result.runs)
    pass.scenario_ms.push_back(run.seconds * 1e3);
  return pass;
}

std::uint64_t configs_measured(const CampaignResult& result) {
  std::uint64_t total = 0;
  for (const auto& run : result.runs)
    total += static_cast<std::uint64_t>(run.outcome.configs_measured);
  return total;
}

/// What `hmpt_campaign --report` writes after a pass.
double write_outputs(const CampaignResult& result, const std::string& dir) {
  const auto start = Clock::now();
  campaign::write_artifacts(result, dir);
  report::write_report(result, dir);
  return since(start);
}

struct BatchSpec {
  StoreFormat format = StoreFormat::Dir;
  int jobs = 1;
  /// Cold passes per latency window. A window always starts at a pass's
  /// first scenario: the packed store's save time grows along the pass, so
  /// a window that straddled two passes would cover a different stretch of
  /// that growth from round to round.
  std::size_t window_rounds = 1;
  int resume_repeats = 1;  ///< --resume passes per round
};

BatchSpec batch_spec(const std::string& workload) {
  // One 504-scenario pass is a window (p97.5: 12.6 samples beyond). A
  // resume pass takes a seventh of the cold one, so it runs five times a
  // round.
  if (workload == "campaign-packed") return {StoreFormat::Packed, 1, 1, 5};
  // 32 scenarios a round: four rounds make a window.
  if (workload == "tune-k3") return {StoreFormat::Dir, 2, 4, 1};
  raise("unknown workload: " + workload);
}

CampaignOptions pass_options(const BatchSpec& spec, const std::string& dir,
                             int jobs) {
  CampaignOptions options;
  options.output_dir = dir;
  options.store_format = spec.format;
  options.scenario_jobs = jobs;
  return options;
}

/// Set-up and artefact writing take milliseconds, and on a shared host
/// some of those calls take half as long again as the rest. A round
/// repeats each this many times and keeps their mean, so that the median
/// over rounds moves smoothly with the share of stalled calls instead of
/// jumping from one kind of call to the other.
constexpr int kRepeats = 5;

struct Round {
  double setup_s = 0.0;  ///< mean of kRepeats
  Pass cold;
  CampaignResult resumed;  ///< the last --resume pass
  std::vector<double> resume_s;
  std::size_t resume_misses = 0;  ///< over every --resume pass
  double artifacts_s = 0.0;  ///< mean of kRepeats
};

/// One full round: set-up (matrix load, expansion and fingerprinting,
/// store open), a cold pass, the --resume passes, then artefacts + report
/// (into `dir`, then again into fresh directories under it).
Round batch_round(const Options& options, const BatchSpec& spec,
                  const std::string& dir, CpuRotation& cpus) {
  Round round;
  std::vector<Scenario> scenarios;
  std::optional<CampaignRunner> cold;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const PinnedTo pin(cpus.next());
    const auto setup = Clock::now();
    scenarios = load_campaigns(options.inputs);
    cold.emplace(pass_options(spec, dir, spec.jobs));
    round.setup_s += since(setup) / kRepeats;
  }
  round.cold = timed_pass(*cold, scenarios);
  auto resume_options = pass_options(spec, dir, spec.jobs);
  resume_options.resume = true;
  for (int rep = 0; rep < spec.resume_repeats; ++rep) {
    const auto resume = Clock::now();
    CampaignRunner warm(resume_options);
    round.resumed = warm.run(scenarios);
    round.resume_s.push_back(since(resume));
    round.resume_misses += round.resumed.runs.size() -
                           static_cast<std::size_t>(round.resumed.cached);
  }
  for (int rep = 0; rep < kRepeats; ++rep) {
    const PinnedTo pin(cpus.next());
    round.artifacts_s += write_outputs(
        round.resumed,
        rep == 0 ? dir : dir + "/again-" + std::to_string(rep)) / kRepeats;
  }
  return round;
}

/// Compare two stores record by record (payload bytes).
bool same_payloads(const std::string& a, StoreFormat fa, const std::string& b,
                   StoreFormat fb) {
  return OutcomeStore(a, fa).load_all_payloads() ==
         OutcomeStore(b, fb).load_all_payloads();
}

/// Round 0: warm-up plus the correctness gates, untimed.
void batch_gates(const Options& options, const BatchSpec& spec,
                 CpuRotation& cpus, Report& out) {
  const std::string dir = options.work + "/gate/run";
  const Round round = batch_round(options, spec, dir, cpus);
  const std::size_t n = round.cold.result.runs.size();
  out.check("resume_hit_ratio_is_1", round.resume_misses == 0,
            std::to_string(round.resume_misses) + " of " +
                std::to_string(n * static_cast<std::size_t>(
                                       spec.resume_repeats)) +
                " resumed scenarios missed the store");
  const std::string cold_dir = options.work + "/gate/cold";
  write_outputs(round.cold.result, cold_dir);
  for (const char* file : {"runs.csv", "summary.json"})
    out.same_bytes(std::string("resume_vs_cold/") + file,
                   cold_dir + "/" + file, dir + "/" + file);

  const auto scenarios = load_campaigns(options.inputs);
  if (spec.format == StoreFormat::Packed) {
    // The same inputs through the dir store: artefacts and every stored
    // record must match.
    const std::string ref = options.work + "/gate/dir-store";
    auto options_dir = pass_options(spec, ref, spec.jobs);
    options_dir.store_format = StoreFormat::Dir;
    const auto result = CampaignRunner(options_dir).run(scenarios);
    write_outputs(result, ref);
    for (const char* file : {"runs.csv", "summary.json", "report/index.html"})
      out.same_bytes(std::string("packed_vs_dir/") + file,
                     ref + "/" + file, cold_dir + "/" + file);
    out.check("packed_vs_dir/payloads",
              same_payloads(dir, StoreFormat::Packed, ref, StoreFormat::Dir),
              "every stored record byte-identical across store formats");
    fs::remove_all(ref + "/outcomes");
  }
  if (spec.jobs > 1) {
    // A serial in-process reference on the same inputs.
    const std::string ref = options.work + "/gate/serial";
    const auto result =
        CampaignRunner(pass_options(spec, ref, 1)).run(scenarios);
    campaign::write_artifacts(result, ref);
    for (const char* file : {"runs.csv", "summary.json"})
      out.same_bytes(std::string("parallel_vs_serial/") + file,
                     ref + "/" + file, cold_dir + "/" + file);
    fs::remove_all(ref + "/outcomes");
  }
  // Keep the artefacts for the byte comparisons, drop the bulky store.
  fs::remove_all(dir + "/outcomes");
  fs::remove(dir + "/outcomes.log");
  fs::remove(dir + "/outcomes.idx");
}

void batch_end_to_end(const Options& options, Report& out) {
  const BatchSpec spec = batch_spec(options.workload);
  CpuRotation cpus;
  batch_gates(options, spec, cpus, out);

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  std::size_t rounds = 0;
  std::size_t n = 0;
  std::uint64_t store_bytes = 0;
  while (rounds < 2 * spec.window_rounds || Clock::now() < deadline) {
    const std::string dir = options.work + "/round";
    remove_and_settle(dir);
    const Round round = batch_round(options, spec, dir, cpus);
    n = round.cold.result.runs.size();
    const double count = static_cast<double>(n);
    if (rounds == 0)
      store_bytes = spec.format == StoreFormat::Packed
                        ? fs::file_size(dir + "/outcomes.log") +
                              fs::file_size(dir + "/outcomes.idx")
                        : tree_bytes(dir + "/outcomes");
    out.add("setup_s", round.setup_s);
    out.add("cold_scenarios_per_s", count / round.cold.wall);
    for (const double seconds : round.resume_s)
      out.add("resume_scenarios_per_s", count / seconds);
    out.add("configs_per_s",
            static_cast<double>(configs_measured(round.cold.result)) /
                round.cold.wall);
    out.add("artifacts_s", round.artifacts_s);
    out.add_latency("scenario_ms", spec.window_rounds * n,
                    round.cold.scenario_ms);
    out.attempted += (1 + static_cast<std::uint64_t>(spec.resume_repeats)) * n;
    out.failed += static_cast<std::uint64_t>(round.cold.result.failed) +
                  round.resume_misses;
    ++rounds;
    fs::remove_all(dir);
  }
  out.values["store_bytes_per_scenario"] =
      static_cast<double>(store_bytes) / static_cast<double>(n);
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.values["rounds"] = static_cast<double>(rounds);
}

// ----------------------------------------------------------- the daemon

/// A spawned child process with its output in a log file; killed and
/// reaped on destruction if still running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char*> args;
    for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) raise("cannot start " + argv[0]);
  }
  ~Child() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    wait();
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool exited() {
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
    return pid_ <= 0;
  }
  /// Reap; returns the raw wait status.
  int wait() {
    int status = 0;
    while (pid_ > 0 && waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection: a request line out, its response line back.
class Client {
 public:
  explicit Client(const service::Endpoint& endpoint)
      : socket_(service::connect_to(endpoint)), reader_(socket_.fd()) {}

  service::ServerMessage call(const std::string& line) {
    HMPT_REQUIRE(socket_.send_all(line), "lost the daemon connection");
    std::string reply;
    HMPT_REQUIRE(reader_.next(reply) == service::LineReader::Status::Line,
                 "daemon closed the connection");
    return service::parse_server_message(reply);
  }

 private:
  service::Socket socket_;
  service::LineReader reader_;
};

std::string op_line(service::Op op) {
  service::Request request;
  request.op = op;
  return request.to_line();
}

std::string submit_line(const Scenario& scenario) {
  service::Request request;
  request.op = service::Op::Submit;
  request.scenario = scenario;
  return request.to_line();
}

std::string result_line(const std::string& fingerprint) {
  service::Request request;
  request.op = service::Op::Result;
  request.fingerprint = fingerprint;
  request.wait = true;
  return request.to_line();
}

/// hmptd as the traced run drives it: 2 workers, a journal, a fresh
/// store. start() returns once the daemon answers a ping.
struct Daemon {
  std::string dir;
  service::Endpoint endpoint;
  std::unique_ptr<Child> child;

  void start(const Options& options, const std::string& where) {
    dir = where;
    remove_and_settle(dir);
    fs::create_directories(dir);
    endpoint.unix_path = dir + "/d.sock";
    const auto begin = Clock::now();
    child = std::make_unique<Child>(
        std::vector<std::string>{options.hmptd, "--socket", endpoint.unix_path,
                                 "--workers", "2", "--store", dir + "/store",
                                 "--journal", dir + "/journal", "--quiet"},
        dir + "/hmptd.log");
    const std::string ping = op_line(service::Op::Ping);
    for (;;) {
      try {
        Client client(endpoint);
        if (client.call(ping).ok) return;
      } catch (const std::exception&) {
      }
      if (child->exited()) raise("hmptd exited early; see " + dir + "/hmptd.log");
      if (since(begin) > 30.0) raise("hmptd did not answer ping in 30 s");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  void stop() {
    Client(endpoint).call(op_line(service::Op::Shutdown));
    const int status = child->wait();
    HMPT_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "hmptd did not shut down cleanly");
  }
  std::string outcome_path(const std::string& fingerprint) const {
    return dir + "/store/outcomes/" + fingerprint + ".json";
  }
};

/// Joins every thread of a vector, on the way out of a scope too.
struct JoinAll {
  std::vector<std::thread>& threads;
  ~JoinAll() { join(); }
  void join() const {
    for (auto& thread : threads)
      if (thread.joinable()) thread.join();
  }
};

/// One submit: a scenario and its content address.
struct Request {
  Scenario scenario;
  std::string fingerprint;
};

/// One completed request as a client saw it.
struct Completion {
  std::size_t index = 0;
  bool ok = false;
  std::string state;        ///< admission state in the submit ack
  double ack_us = 0.0;      ///< submit sent to its ack (journal fsync incl.)
  double wait_ms = 0.0;     ///< ack to the result
  std::string outcome;      ///< outcome JSON, only for kept requests
};

/// Closed loop: `clients` connections each submit the next request, wait
/// for its result, and go again until the list is done. The outcomes of
/// the requests in `keep` are kept.
std::vector<Completion> closed_loop(const service::Endpoint& endpoint,
                                    const std::vector<Request>& requests,
                                    int clients,
                                    const std::set<std::size_t>& keep) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::vector<Completion> done;
  std::string error;
  std::vector<std::thread> threads;
  const JoinAll join_all{threads};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      try {
        Client client(endpoint);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= requests.size()) return;
          const auto& request = requests[i];
          Completion completion;
          completion.index = i;
          const auto sent = Clock::now();
          const auto ack = [&] {
            obs::TraceSpan span("bench", "service.submit");
            return client.call(submit_line(request.scenario));
          }();
          completion.ack_us = since(sent) * 1e6;
          completion.ok = ack.ok;
          if (ack.ok) {
            completion.state =
                ack.body.at("jobs").as_array().front().string_or("state", "");
            const auto acked = Clock::now();
            const auto result = [&] {
              obs::TraceSpan span("bench", "service.result");
              return client.call(result_line(request.fingerprint));
            }();
            completion.wait_ms = since(acked) * 1e3;
            completion.ok = result.ok;
            if (result.ok && keep.count(i))
              completion.outcome = result.body.at("outcome").dump();
          }
          std::lock_guard<std::mutex> lock(mutex);
          done.push_back(std::move(completion));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex);
        error = e.what();
      }
    });
  }
  join_all.join();
  HMPT_REQUIRE(error.empty(), "client: " + error);
  return done;
}

struct ServiceStats {
  double queue_depth_p50 = 0.0;
  double busy_fraction = 0.0;
  double cache_hit_ratio = 0.0;
};

ServiceStats fetch_stats(const service::Endpoint& endpoint) {
  const auto reply = Client(endpoint).call(op_line(service::Op::Stats));
  HMPT_REQUIRE(reply.ok, "stats refused: " + reply.error);
  ServiceStats stats;
  stats.queue_depth_p50 = reply.body.at("queue_depth").number_or("p50", 0.0);
  stats.busy_fraction =
      reply.body.at("utilization").number_or("busy_fraction", 0.0);
  // Submits answered without execution: finished earlier in this process
  // (scheduler.cache_hits) or found in the store at admission.
  const Json& counters = reply.body.at("metrics").at("counters");
  const double hits = counters.number_or("scheduler.cache_hits", 0.0) +
                      reply.body.at("cache").number_or("store_hits", 0.0);
  const double submits = counters.number_or("scheduler.submits", 0.0);
  stats.cache_hit_ratio = submits > 0 ? hits / submits : 0.0;
  return stats;
}

/// Closed-loop client connections of the service probe.
constexpr int kClients = 4;

// ------------------------------------------------------------ traced run

/// Per-call timings of every layer a scenario passes through, taken by
/// calling each module's public function in turn (the same sequence as
/// CampaignRunner::execute + OutcomeStore::save), each inside a "bench"
/// span so the trace shows the split.
struct LayerWalk {
  CampaignResult result;
  std::vector<double> platform_us, workload_us, session_us, serialise_us,
      outcome_bytes, save_us, load_us;
  std::uint64_t configs = 0;
  std::uint64_t timer_hits = 0;
  std::uint64_t timer_misses = 0;
  std::size_t loaded = 0;
};

double us_since(Clock::time_point start) { return since(start) * 1e6; }

LayerWalk walk_layers(const std::vector<Scenario>& scenarios,
                      const std::string& dir, StoreFormat format) {
  LayerWalk walk;
  const OutcomeStore store(dir, format);
  auto& hits = obs::metrics().counter("timer.hits");
  auto& misses = obs::metrics().counter("timer.misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  for (const auto& scenario : scenarios) {
    obs::TraceSpan span("bench", "scenario");
    ScenarioRun run;
    run.scenario = scenario;
    run.fingerprint = scenario.fingerprint();
    run.status = ScenarioRun::Status::Executed;

    auto start = Clock::now();
    auto simulator = [&] {
      obs::TraceSpan layer("bench", "platform.build");
      return campaign::make_platform(scenario.platform);
    }();
    walk.platform_us.push_back(us_since(start));

    start = Clock::now();
    const auto resolved = [&] {
      obs::TraceSpan layer("bench", "workload.build");
      return campaign::WorkloadRegistry::instance().create(scenario.workload,
                                                           simulator);
    }();
    walk.workload_us.push_back(us_since(start));

    start = Clock::now();
    {
      obs::TraceSpan layer("bench", "core.session_run");
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
      run.outcome = session.run();
    }
    walk.session_us.push_back(us_since(start));
    walk.configs += static_cast<std::uint64_t>(run.outcome.configs_measured);

    start = Clock::now();
    std::size_t bytes = 0;
    {
      obs::TraceSpan layer("bench", "outcome.serialise");
      bytes = tuner::outcome_to_json(run.outcome).dump().size();
    }
    walk.serialise_us.push_back(us_since(start));
    walk.outcome_bytes.push_back(static_cast<double>(bytes));

    start = Clock::now();
    {
      obs::TraceSpan layer("bench", "store.save");
      store.save(scenario, run.outcome);
    }
    walk.save_us.push_back(us_since(start));
    walk.result.runs.push_back(std::move(run));
    ++walk.result.executed;
  }
  for (const auto& scenario : scenarios) {
    const auto start = Clock::now();
    obs::TraceSpan layer("bench", "store.load");
    walk.loaded += store.load(scenario).has_value();
    walk.load_us.push_back(us_since(start));
  }
  walk.timer_hits = hits.value() - hits_before;
  walk.timer_misses = misses.value() - misses_before;
  return walk;
}

/// The service layer's numbers from a closed loop's completions and the
/// daemon's `stats`.
void add_service(const std::vector<Completion>& done,
                 const ServiceStats& stats, Report& out) {
  for (const auto& c : done) {
    out.add("service.submit_ack_us", c.ack_us);
    out.add("service.result_wait_ms", c.wait_ms);
    out.attempted += 1;
    out.failed += c.ok ? 0 : 1;
  }
  out.values["service.queue_depth_p50"] = stats.queue_depth_p50;
  out.values["service.busy_fraction"] = stats.busy_fraction;
  out.values["service.cache_hit_ratio"] = stats.cache_hit_ratio;
}

void add_walk(const LayerWalk& walk, std::size_t jobs, double configs_per_s,
              Report& out) {
  out.add_all("platform.build_us", walk.platform_us);
  out.add_all("workload.build_us", walk.workload_us);
  out.add_all("core.session_run_us", walk.session_us);
  out.add_all("outcome.serialise_us", walk.serialise_us);
  out.add_all("outcome.bytes", walk.outcome_bytes);
  out.add_all("store.load_us", walk.load_us);
  out.add_latency("store.save_us", walk.save_us.size(), walk.save_us);
  const std::size_t decile = std::max<std::size_t>(1, walk.save_us.size() / 10);
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < decile; ++i) {
    first += walk.save_us[i];
    last += walk.save_us[walk.save_us.size() - 1 - i];
  }
  out.values["store.save_growth"] = last / first;
  out.values["store.hit_ratio"] = static_cast<double>(walk.loaded) /
                                  static_cast<double>(walk.save_us.size());
  out.values["core.configs_measured"] = static_cast<double>(walk.configs);
  double session_s = 0.0;
  for (double us : walk.session_us) session_s += us / 1e6;
  const double serial = static_cast<double>(walk.configs) / session_s;
  out.values["core.serial_configs_per_s"] = serial;
  out.values["common.pool_efficiency"] =
      configs_per_s / (static_cast<double>(jobs) * serial);
  out.values["simmem.timer_hit_ratio"] =
      static_cast<double>(walk.timer_hits) /
      static_cast<double>(walk.timer_hits + walk.timer_misses);
  out.values["simmem.timer_lookups"] =
      static_cast<double>(walk.timer_hits + walk.timer_misses);
  out.attempted += 2 * walk.save_us.size();
  out.failed += walk.save_us.size() - walk.loaded;
}

/// Aggregation and report rendering over the walk's result, three times.
void time_aggregate(const CampaignResult& result, const std::string& dir,
                    Report& out) {
  std::size_t bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = Clock::now();
    {
      obs::TraceSpan span("bench", "aggregate");
      campaign::write_artifacts(result, dir);
    }
    out.add("aggregate.ms", since(start) * 1e3);
    start = Clock::now();
    {
      obs::TraceSpan span("bench", "report.render");
      bytes = report::render_report_html(result).size();
    }
    out.add("report.render_ms", since(start) * 1e3);
  }
  out.values["report.bytes"] = static_cast<double>(bytes);
}

/// Untraced and traced runs of the same pass, alternating, until about
/// `seconds` are spent; the last traced pass stays recorded. Returns the
/// untraced passes' median configs/s.
double overhead_pairs(const std::vector<Scenario>& scenarios,
                      const BatchSpec& spec, const std::string& work,
                      double seconds, Report& out) {
  auto& recorder = obs::TraceRecorder::instance();
  const auto begin = Clock::now();
  std::vector<double> rates;
  for (int pair = 0;; ++pair) {
    const std::string dir = work + "/pair";
    remove_and_settle(dir);
    const auto plain =
        timed_pass(CampaignRunner(pass_options(spec, dir, spec.jobs)),
                   scenarios);
    rates.push_back(static_cast<double>(configs_measured(plain.result)) /
                    plain.wall);
    remove_and_settle(dir);
    recorder.start();
    const auto traced =
        timed_pass(CampaignRunner(pass_options(spec, dir, spec.jobs)),
                   scenarios);
    fs::remove_all(dir);
    out.add("trace.overhead_share", traced.wall / plain.wall - 1.0);
    const double per_pair = since(begin) / (pair + 1);
    if (since(begin) + per_pair > seconds) break;
    recorder.stop_and_render();  // discard: only the last pass is kept
  }
  return median(rates);
}

/// Identity of the walk (the layers called one by one) with the campaign
/// runner's own artefacts on the same inputs.
void walk_gate(const CampaignResult& walked, const CampaignResult& runner,
               const std::string& work, Report& out) {
  const std::string a = work + "/gate/walk";
  const std::string b = work + "/gate/runner";
  campaign::write_artifacts(walked, a);
  campaign::write_artifacts(runner, b);
  for (const char* file : {"runs.csv", "summary.json"})
    out.same_bytes(std::string("layer_walk_vs_runner/") + file,
                   b + "/" + file, a + "/" + file);
}

void batch_traced(const Options& options, Report& out) {
  const BatchSpec spec = batch_spec(options.workload);
  std::vector<Scenario> scenarios;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    scenarios = load_campaigns(options.inputs);
    out.add("campaign.expand_ms", since(start) * 1e3);
  }
  // Warm-up, and the runner's reference for the walk's identity gate.
  const std::string ref = options.work + "/reference";
  const auto reference = CampaignRunner(pass_options(spec, ref, spec.jobs))
                             .run(scenarios);
  fs::remove_all(ref);

  const double configs_per_s = overhead_pairs(
      scenarios, spec, options.work, options.seconds * 0.4, out);
  const std::string dir = options.work + "/walk";
  const auto walk = walk_layers(scenarios, dir, spec.format);
  add_walk(walk, static_cast<std::size_t>(spec.jobs), configs_per_s, out);
  time_aggregate(walk.result, dir, out);
  walk_gate(walk.result, reference, options.work, out);
  fs::remove_all(dir);

  // The service layer on this workload's scenarios: the first ones
  // submitted to hmptd, then submitted again (store hits). Every 8th
  // outcome is compared with the walk's, on the wire and as stored bytes.
  const std::size_t count = std::min<std::size_t>(scenarios.size(), 64);
  std::vector<Request> requests;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < count; ++i)
      requests.push_back({scenarios[i], scenarios[i].fingerprint()});
  std::set<std::size_t> keep;
  for (std::size_t i = 0; i < count; i += 8) keep.insert(i);
  Daemon daemon;
  daemon.start(options, options.work + "/daemon");
  const auto done = closed_loop(daemon.endpoint, requests, kClients, keep);
  add_service(done, fetch_stats(daemon.endpoint), out);
  daemon.stop();
  std::size_t cached = 0;
  for (const auto& c : done) {
    cached += c.index >= count && c.state == "cached";
    if (c.outcome.empty()) continue;
    const auto& run = walk.result.runs[c.index];
    const std::string base = options.work + "/gate/" + run.fingerprint;
    write_file(base + ".daemon.json", c.outcome);
    write_file(base + ".walk.json", tuner::outcome_to_json(run.outcome).dump());
    out.same_bytes("daemon_vs_walk/" + run.fingerprint, base + ".walk.json",
                   base + ".daemon.json");
    write_file(base + ".stored.json",
               read_file(daemon.outcome_path(run.fingerprint)));
    write_file(base + ".payload.json",
               OutcomeStore::make_payload(run.scenario, run.outcome));
    out.same_bytes("daemon_store_vs_walk/" + run.fingerprint,
                   base + ".payload.json", base + ".stored.json");
  }
  out.check("daemon_resubmits_are_store_hits", cached == count,
            std::to_string(cached) + " of " + std::to_string(count) +
                " resubmits answered from the store");
  fs::remove_all(daemon.dir);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--inputs") options.inputs = value;
    else if (flag == "--work") options.work = value;
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--hmptd") options.hmptd = value;
    else if (flag == "--trace-out") options.trace_out = value;
    else raise("unknown flag " + flag);
  }
  HMPT_REQUIRE(!options.workload.empty() && !options.inputs.empty() &&
                   !options.work.empty() && !options.hmptd.empty(),
               "usage: hmptbench --workload W --inputs DIR --work DIR "
               "--seconds S --trace 0|1 --hmptd PATH [--trace-out FILE]");
  HMPT_REQUIRE(!options.trace || !options.trace_out.empty(),
               "--trace 1 needs --trace-out");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    service::ignore_sigpipe();
    const Options options = parse_options(argc, argv);
    fs::create_directories(options.work);
    Report out;
    if (options.trace) {
      batch_traced(options, out);
      obs::TraceRecorder::instance().stop_and_write(options.trace_out);
    } else {
      batch_end_to_end(options, out);
    }
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hmptbench: " << e.what() << "\n";
    return 3;
  }
}
