// Tests for the campaign engine: workload registry, scenario matrix +
// fingerprints, outcome JSON round trips, the on-disk outcome store in
// both layouts (one-file-per-outcome dir and packed append-only log,
// including torn-tail crash recovery), the resumable CampaignRunner and
// the static HTML report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/platforms.h"
#include "core/outcome_io.h"
#include "core/session.h"
#include "report/report.h"
#include "workloads/app_models.h"
#include "workloads/trace_io.h"

namespace hmpt::campaign {
namespace {

namespace fs = std::filesystem;

/// Outcomes compare equal iff their (lossless) serialisations agree.
std::string json_of(const tuner::TuningOutcome& outcome) {
  return tuner::outcome_to_json(outcome).dump(-1);
}

std::string file_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return bytes.str();
}

/// A fresh store directory per test, removed on scope exit.
class StoreDir {
 public:
  explicit StoreDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~StoreDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------- workload specs

TEST(WorkloadSpecTest, ParsesAndCanonicalises) {
  const auto bare = parse_workload_spec("mg");
  EXPECT_EQ(bare.name, "mg");
  EXPECT_TRUE(bare.params.empty());
  EXPECT_EQ(bare.to_string(), "mg");

  // Parameter order does not matter: to_string() sorts keys, so both
  // spellings fingerprint (and dedup) identically.
  const auto a = parse_workload_spec("stream:iterations=4,array_gb=2");
  const auto b = parse_workload_spec("stream:array_gb=2,iterations=4");
  EXPECT_EQ(a.to_string(), "stream:array_gb=2,iterations=4");
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_workload_spec(""), Error);
  EXPECT_THROW(parse_workload_spec(":a=1"), Error);
  EXPECT_THROW(parse_workload_spec("stream:array_gb"), Error);
  EXPECT_THROW(parse_workload_spec("stream:=2"), Error);
  EXPECT_THROW(parse_workload_spec("stream:a=1,a=2"), Error);
}

// -------------------------------------------------------------- registry

TEST(WorkloadRegistryTest, KnowsTheBuiltIns) {
  const auto names = WorkloadRegistry::instance().names();
  for (const char* expected :
       {"mg", "bt", "lu", "sp", "ua", "is", "kwave", "stream",
        "pointer-chase", "random-sum", "recorded"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(WorkloadRegistryTest, ConstructsParameterisedWorkloads) {
  auto sim = sim::MachineSimulator::paper_platform();
  const auto stream = WorkloadRegistry::instance().create(
      "stream", sim, {{"array_gb", "2"}, {"iterations", "4"}});
  ASSERT_NE(stream.workload, nullptr);
  EXPECT_EQ(stream.workload->num_groups(), 3);
  EXPECT_DOUBLE_EQ(stream.workload->total_bytes(), 3 * 2.0 * GB);

  // Paper app models carry their calibrated execution context.
  const auto mg = WorkloadRegistry::instance().create("mg", sim);
  EXPECT_TRUE(mg.context.has_value());
  EXPECT_EQ(mg.workload->name(), "NPB: Multi-Grid");
}

TEST(WorkloadRegistryTest, RejectsUnknownNamesAndParameters) {
  auto sim = sim::MachineSimulator::paper_platform();
  auto& registry = WorkloadRegistry::instance();
  EXPECT_THROW(registry.create("frobnicate", sim), Error);
  EXPECT_THROW(registry.create("stream", sim, {{"arraygb", "2"}}), Error);
  EXPECT_THROW(registry.create("stream", sim, {{"array_gb", "abc"}}), Error);
  EXPECT_THROW(registry.create("mg", sim, {{"scale", "-1"}}), Error);
  EXPECT_THROW(registry.create("recorded", sim), Error);  // needs path
}

TEST(WorkloadRegistryTest, RecordedWorkloadReplaysAProfileByName) {
  auto sim = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(sim);
  const std::string path =
      (fs::temp_directory_path() / "hmpt_registry_replay.profile").string();
  workloads::save_workload(path, *app.workload);

  const auto replayed = WorkloadRegistry::instance().create(
      "recorded", sim, {{"path", path}});
  ASSERT_NE(replayed.workload, nullptr);
  // The replay is lossless: re-serialising the replayed workload
  // reproduces the profile text byte-for-byte.
  EXPECT_EQ(workloads::serialize_workload(*replayed.workload),
            workloads::serialize_workload(*app.workload));

  // And tuning the replayed workload gives the same outcome as tuning
  // the profile parsed in-process (same groups, same trace, same noise
  // streams; profile names are sanitised, so compare recorded to
  // recorded, not to the pre-sanitisation model).
  const auto tune = [&](const workloads::Workload& w) {
    auto simulator = sim::MachineSimulator::paper_platform();
    return tuner::Session::on(simulator)
        .workload(w)
        .strategy("estimator")
        .run();
  };
  const auto parsed = workloads::parse_workload(
      workloads::serialize_workload(*app.workload));
  EXPECT_EQ(json_of(tune(*replayed.workload)), json_of(tune(parsed)));
  std::remove(path.c_str());
}

// ------------------------------------------------------------- platforms

TEST(PlatformTest, CanonicalisesAliases) {
  EXPECT_EQ(canonical_platform("spr"), "xeon-max");
  EXPECT_EQ(canonical_platform("xeon-max"), "xeon-max");
  EXPECT_EQ(canonical_platform("spr1"), "xeon-max-1s");
  EXPECT_TRUE(is_platform("spr-cxl"));
  EXPECT_FALSE(is_platform("frobnicate"));
  EXPECT_THROW(canonical_platform("frobnicate"), Error);
  EXPECT_EQ(make_platform("spr-cxl").machine().num_memory_tiers(), 3);
}

// ----------------------------------------------------------- fingerprints

TEST(ScenarioTest, FingerprintIsStableAndContentAddressed) {
  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "exhaustive";

  const std::string base = s.fingerprint();
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, s.fingerprint());  // deterministic

  // Every semantic field invalidates the fingerprint...
  for (const auto& mutate : std::vector<std::function<void(Scenario&)>>{
           [](Scenario& x) { x.workload = parse_workload_spec("mg:scale=2"); },
           [](Scenario& x) { x.platform = "spr-cxl"; },
           [](Scenario& x) { x.strategy = "online"; },
           [](Scenario& x) { x.tiers = 2; },
           [](Scenario& x) { x.budget_gb = 16.0; },
           [](Scenario& x) { x.tier_budgets_gb = {{1, 32.0}}; },
           [](Scenario& x) { x.repetitions = 5; },
           [](Scenario& x) { x.top_k = 7; }}) {
    Scenario changed = s;
    mutate(changed);
    EXPECT_NE(changed.fingerprint(), base) << changed.canonical();
  }

  // ...and tier-budget declaration order does not (canonical() sorts).
  Scenario two_budgets = s;
  two_budgets.tier_budgets_gb = {{2, 64.0}, {1, 32.0}};
  Scenario sorted = s;
  sorted.tier_budgets_gb = {{1, 32.0}, {2, 64.0}};
  EXPECT_EQ(two_budgets.fingerprint(), sorted.fingerprint());
}

TEST(ScenarioTest, RecordedProfileContentsAreFingerprinted) {
  // A recorded workload is the *contents* of its profile: re-recording
  // the file must invalidate the cached scenario even though the path
  // (and so the spec text) is unchanged.
  const std::string path =
      (fs::temp_directory_path() / "hmpt_fp_profile.profile").string();
  Scenario s;
  s.workload = parse_workload_spec("recorded:path=" + path);
  s.platform = "xeon-max";
  s.strategy = "estimator";

  auto sim = sim::MachineSimulator::paper_platform();
  workloads::save_workload(path, *workloads::make_mg_model(sim).workload);
  const std::string fp_mg = s.fingerprint();
  EXPECT_EQ(fp_mg, s.fingerprint());  // stable while the file is stable

  workloads::save_workload(path, *workloads::make_bt_model(sim).workload);
  EXPECT_NE(s.fingerprint(), fp_mg);  // contents changed -> cache miss

  std::remove(path.c_str());
  const std::string fp_missing = s.fingerprint();  // planning never throws
  EXPECT_NE(fp_missing, fp_mg);
  EXPECT_EQ(fp_missing, s.fingerprint());
}

TEST(ScenarioTest, JsonRoundTrips) {
  Scenario s;
  s.workload = parse_workload_spec("stream:array_gb=2");
  s.platform = "spr-cxl";
  s.strategy = "estimator";
  s.tiers = 3;
  s.budget_gb = 16.0;
  s.tier_budgets_gb = {{2, 64.0}};
  s.repetitions = 2;
  s.top_k = 5;
  const Scenario back = Scenario::from_json(s.to_json());
  EXPECT_EQ(back.canonical(), s.canonical());
  EXPECT_EQ(back.fingerprint(), s.fingerprint());
}

// ----------------------------------------------------------------- matrix

TEST(ScenarioMatrixTest, ExpandsTheCrossProductAndDedups) {
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg"),
                      parse_workload_spec("kwave")};
  // "spr" is an alias of "xeon-max": the duplicate platform must fold.
  matrix.platforms = {"xeon-max", "spr", "spr-cxl"};
  matrix.strategies = {"exhaustive", "online"};
  const auto scenarios = matrix.expand();
  EXPECT_EQ(scenarios.size(), 2u * 2u * 2u);
  for (const auto& s : scenarios)
    EXPECT_TRUE(s.platform == "xeon-max" || s.platform == "spr-cxl");
}

TEST(ScenarioMatrixTest, ValidatesEveryAxis) {
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"exhaustive"};
  EXPECT_EQ(matrix.expand().size(), 1u);  // the valid baseline

  auto broken = matrix;
  broken.workloads = {parse_workload_spec("frobnicate")};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.platforms = {"frobnicate"};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.strategies = {"frobnicate"};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.tiers = {1};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.budgets_gb = {-1.0};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.repetitions = 0;
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.workloads.clear();
  EXPECT_THROW(broken.expand(), Error);
}

TEST(ScenarioMatrixTest, ParsesTheCampaignFileFormat) {
  const auto matrix = ScenarioMatrix::parse(
      "# nightly sweep\n"
      "workload mg\n"
      "workload stream:array_gb=2,iterations=4   # small STREAM\n"
      "platform xeon-max\n"
      "platform spr-cxl\n"
      "strategy exhaustive\n"
      "strategy estimator\n"
      "\n"
      "tiers 0\n"
      "budget-gb 0\n"
      "budget-gb 16\n"
      "tier-budget-gb 2:64\n"
      "reps 2\n"
      "top-k 4\n");
  EXPECT_EQ(matrix.workloads.size(), 2u);
  EXPECT_EQ(matrix.platforms.size(), 2u);
  EXPECT_EQ(matrix.strategies.size(), 2u);
  EXPECT_EQ(matrix.budgets_gb.size(), 2u);
  ASSERT_EQ(matrix.tier_budgets_gb.size(), 1u);
  EXPECT_EQ(matrix.tier_budgets_gb[0].first, 2);
  EXPECT_EQ(matrix.repetitions, 2);
  EXPECT_EQ(matrix.top_k, 4);
  EXPECT_EQ(matrix.expand().size(), 2u * 2u * 2u * 2u);

  // '#' only comments at line start or after whitespace: a '#' inside a
  // value (e.g. a profile path) is data.
  const auto hashed = ScenarioMatrix::parse(
      "workload recorded:path=/data/run#3.profile  # re-recorded\n");
  ASSERT_EQ(hashed.workloads.size(), 1u);
  EXPECT_EQ(hashed.workloads[0].params.at("path"), "/data/run#3.profile");

  EXPECT_THROW(ScenarioMatrix::parse("frobnicate mg\n"), Error);
  EXPECT_THROW(ScenarioMatrix::parse("workload\n"), Error);
  EXPECT_THROW(ScenarioMatrix::parse("reps two\n"), Error);
  EXPECT_THROW(ScenarioMatrix::parse("workload mg extra\n"), Error);
  EXPECT_THROW(ScenarioMatrix::load("/nonexistent/file.campaign"), Error);
}

/// The Error text a callable raises; empty when it does not throw.
std::string error_text_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioMatrixTest, MalformedNumbersFailWithLineNumberedErrors) {
  // Partial consumption, overflow and non-finite spellings each used to
  // slip through the std::stoi/std::stod family (or crash it); all must
  // now raise one structured error naming the line and the bad token.
  const auto tiers = error_text_of([] {
    ScenarioMatrix::parse("workload mg\ntiers 2x\n");
  });
  EXPECT_NE(tiers.find("line 2"), std::string::npos) << tiers;
  EXPECT_NE(tiers.find("not an integer: '2x'"), std::string::npos) << tiers;

  const auto budget = error_text_of([] {
    ScenarioMatrix::parse("budget-gb inf\n");
  });
  EXPECT_NE(budget.find("line 1"), std::string::npos) << budget;
  EXPECT_NE(budget.find("not a finite number: 'inf'"), std::string::npos)
      << budget;

  EXPECT_NE(error_text_of([] { ScenarioMatrix::parse("budget-gb nan\n"); })
                .find("not a finite number"),
            std::string::npos);
  EXPECT_NE(error_text_of([] { ScenarioMatrix::parse("budget-gb 1e999\n"); })
                .find("not a finite number"),
            std::string::npos);
  EXPECT_NE(error_text_of([] {
              ScenarioMatrix::parse("reps 99999999999999999999\n");
            }).find("not an integer"),
            std::string::npos);
  EXPECT_NE(error_text_of([] { ScenarioMatrix::parse("top-k 3.5\n"); })
                .find("not an integer"),
            std::string::npos);
  EXPECT_NE(error_text_of([] {
              ScenarioMatrix::parse("tier-budget-gb 2:4x\n");
            }).find("not a finite number"),
            std::string::npos);
}

// ------------------------------------------- matrix flags == file lines

using MatrixFlags = std::vector<std::pair<std::string, std::string>>;

/// One row per campaign-file directive: two values, each different from
/// the baseline "workload mg" campaign and from each other.
struct DirectiveRow {
  std::string directive;
  std::string first;
  std::string second;
};

const std::vector<DirectiveRow>& every_directive() {
  static const std::vector<DirectiveRow> rows = {
      {"workload", "kwave", "stream:array_gb=1,iterations=2"},
      {"platform", "spr-cxl", "xeon-max-1s"},
      {"strategy", "online", "estimator"},
      {"tiers", "2", "3"},
      {"budget-gb", "16", "0.5"},
      {"tier-budget-gb", "2:64", "1:8"},
      {"reps", "2", "5"},
      {"top-k", "4", "6"},
  };
  return rows;
}

std::vector<std::string> fingerprints_of(const ScenarioMatrix& matrix) {
  std::vector<std::string> out;
  for (const auto& s : matrix.expand()) out.push_back(s.fingerprint());
  return out;
}

/// declare() with the campaign file holding `text`.
ScenarioMatrix declare_with_file(const StoreDir& dir, const std::string& text,
                                 const MatrixFlags& flags) {
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/matrix.campaign";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return ScenarioMatrix::declare(path, flags);
}

TEST(MatrixFlagsTest, EveryDirectiveIsAFlagWithTheFileLinesMeaning) {
  StoreDir dir("hmpt_matrix_flags");
  const MatrixFlags base_flags = {{"--workload", "mg"}};
  const auto baseline = fingerprints_of(ScenarioMatrix::declare("", base_flags));
  EXPECT_EQ(ScenarioMatrix::declare("", base_flags).platforms,
            std::vector<std::string>{"xeon-max"});
  EXPECT_EQ(ScenarioMatrix::declare("", base_flags).strategies,
            std::vector<std::string>{"exhaustive"});

  for (const auto& row : every_directive()) {
    const std::string flag = "--" + row.directive;
    EXPECT_TRUE(ScenarioMatrix::is_flag(flag)) << flag;
    EXPECT_FALSE(ScenarioMatrix::is_flag(row.directive)) << row.directive;

    // A flag and the equivalent file line declare the same scenarios in
    // the same order, so the same campaign.
    MatrixFlags flags = base_flags;
    flags.emplace_back(flag, row.first);
    const auto from_flags = ScenarioMatrix::declare("", flags);
    const auto from_file = declare_with_file(
        dir, "workload mg\n" + row.directive + " " + row.first + "\n", {});
    const auto fps = fingerprints_of(from_flags);
    EXPECT_EQ(fps, fingerprints_of(from_file)) << flag;
    EXPECT_EQ(campaign_fingerprint(from_flags.expand()),
              campaign_fingerprint(from_file.expand()))
        << flag;
    EXPECT_NE(fps, baseline) << flag << " changed nothing";

    // Flags apply after the file: they append to its axes and override
    // its single-valued reps/top-k — exactly as if they were further
    // lines at the end of the file.
    const std::string file_text = "workload mg\n" + row.directive + " " +
                                  row.first + "\n";
    const auto mixed = declare_with_file(dir, file_text,
                                         {{flag, row.second}});
    const auto as_lines = declare_with_file(
        dir, file_text + row.directive + " " + row.second + "\n", {});
    EXPECT_EQ(fingerprints_of(mixed), fingerprints_of(as_lines)) << flag;
    EXPECT_EQ(campaign_fingerprint(mixed.expand()),
              campaign_fingerprint(as_lines.expand()))
        << flag;
  }

  // The axes, spelled out: file values first, flag values after.
  const auto mixed = declare_with_file(
      dir,
      "workload mg\nplatform spr-cxl\nstrategy online\ntiers 2\n"
      "budget-gb 16\ntier-budget-gb 2:64\nreps 2\ntop-k 4\n",
      {{"--workload", "kwave"}, {"--platform", "xeon-max"},
       {"--strategy", "estimator"}, {"--tiers", "3"}, {"--budget-gb", "0.5"},
       {"--tier-budget-gb", "1:8"}, {"--reps", "5"}, {"--top-k", "6"}});
  ASSERT_EQ(mixed.workloads.size(), 2u);
  EXPECT_EQ(mixed.workloads[0].name, "mg");
  EXPECT_EQ(mixed.workloads[1].name, "kwave");
  EXPECT_EQ(mixed.platforms, (std::vector<std::string>{"spr-cxl", "xeon-max"}));
  EXPECT_EQ(mixed.strategies,
            (std::vector<std::string>{"online", "estimator"}));
  EXPECT_EQ(mixed.tiers, (std::vector<int>{2, 3}));
  EXPECT_EQ(mixed.budgets_gb, (std::vector<double>{16.0, 0.5}));
  EXPECT_EQ(mixed.tier_budgets_gb,
            (std::vector<std::pair<int, double>>{{2, 64.0}, {1, 8.0}}));
  EXPECT_EQ(mixed.repetitions, 5);
  EXPECT_EQ(mixed.top_k, 6);

  for (const std::string not_a_flag : {"--out", "--", "-tiers", "tiers", ""})
    EXPECT_FALSE(ScenarioMatrix::is_flag(not_a_flag)) << not_a_flag;
}

TEST(MatrixFlagsTest, MalformedValuesNameTheFlagAndTheToken) {
  struct Bad {
    std::string directive;
    std::string value;
    std::string message;
  };
  const std::vector<Bad> bad = {
      {"tiers", "2x", "not an integer: '2x'"},
      {"reps", "2x", "not an integer: '2x'"},
      {"top-k", "3.5", "not an integer: '3.5'"},
      {"budget-gb", "inf", "not a finite number: 'inf'"},
      {"budget-gb", "1e999", "not a finite number: '1e999'"},
      {"tier-budget-gb", "2x:64", "not an integer: '2x'"},
      {"tier-budget-gb", "2:inf", "not a finite number: 'inf'"},
      {"tier-budget-gb", "64", "expects tier:gb"},
      {"workload", "mg:scale", "scale"},
  };
  for (const auto& b : bad) {
    const std::string flag = "--" + b.directive;
    const auto as_flag = error_text_of([&] {
      ScenarioMatrix::declare("", {{"--workload", "mg"}, {flag, b.value}});
    });
    EXPECT_NE(as_flag.find(flag + ": "), std::string::npos) << as_flag;
    EXPECT_NE(as_flag.find(b.message), std::string::npos) << as_flag;

    const auto as_line = error_text_of([&] {
      ScenarioMatrix::parse("workload mg\n" + b.directive + " " + b.value +
                            "\n");
    });
    EXPECT_NE(as_line.find("campaign file line 2: " + b.directive),
              std::string::npos)
        << as_line;
    EXPECT_NE(as_line.find(b.message), std::string::npos) << as_line;
  }
  EXPECT_THROW(ScenarioMatrix().apply("frobnicate", "1"), Error);
}

TEST(WorkloadRegistryTest, MalformedParametersNameTheOffendingKey) {
  auto sim = sim::MachineSimulator::paper_platform();
  auto& registry = WorkloadRegistry::instance();

  // strtod used to accept "2x" (partial consumption) and "inf"/"nan"
  // (non-finite array sizes); now every spelling fails with an error
  // naming the parameter so a campaign author can find the typo.
  const auto partial = error_text_of([&] {
    registry.create("stream", sim, {{"array_gb", "2x"}});
  });
  EXPECT_NE(partial.find("'array_gb'"), std::string::npos) << partial;
  EXPECT_NE(partial.find("not a finite number: '2x'"), std::string::npos)
      << partial;

  for (const char* bad : {"inf", "-inf", "nan", "1e999", ""})
    EXPECT_NE(error_text_of([&] {
                registry.create("stream", sim, {{"array_gb", bad}});
              }).find("not a finite number"),
              std::string::npos)
        << bad;

  const auto fractional = error_text_of([&] {
    registry.create("stream", sim, {{"iterations", "3.5"}});
  });
  EXPECT_NE(fractional.find("'iterations'"), std::string::npos) << fractional;
  EXPECT_NE(fractional.find("not an integer: '3.5'"), std::string::npos)
      << fractional;
}

// ---------------------------------------------------- outcome round trips

TEST(OutcomeIoTest, OutcomeJsonRoundTripsForEveryStrategy) {
  auto sim = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(sim);
  for (const char* strategy : {"exhaustive", "online", "estimator"}) {
    auto simulator = sim::MachineSimulator::paper_platform();
    const auto outcome = tuner::Session::on(simulator)
                             .workload(app.workload)
                             .context(app.context)
                             .strategy(strategy)
                             .run();
    const auto back = tuner::outcome_from_json(
        Json::parse(tuner::outcome_to_json(outcome).dump()));
    EXPECT_EQ(json_of(back), json_of(outcome)) << strategy;
    // The parsed outcome is a working TuningOutcome, not just a blob: the
    // human-readable report regenerates identically.
    EXPECT_EQ(back.to_text(), outcome.to_text()) << strategy;
    EXPECT_EQ(back.sweep.has_value(), std::string(strategy) == "exhaustive");
  }
}

// ------------------------------------------------------------------ store

TEST(OutcomeStoreTest, SavesLoadsAndInvalidates) {
  StoreDir dir("hmpt_store_test");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  EXPECT_FALSE(store.contains(s));
  EXPECT_EQ(store.load(s), std::nullopt);

  const auto outcome = CampaignRunner::execute(s);
  store.save(s, outcome);
  EXPECT_TRUE(store.contains(s));
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));

  // A different scenario misses even though one outcome is stored.
  Scenario other = s;
  other.repetitions = 2;
  EXPECT_FALSE(store.contains(other));

  // A corrupt file (truncation, interference) is quarantined to
  // <fingerprint>.json.corrupt and reads as a miss — the scenario
  // re-executes instead of the campaign aborting.
  {
    std::ofstream os(store.path_for(s));
    os << "{ not json";
  }
  EXPECT_EQ(store.load(s), std::nullopt);
  EXPECT_FALSE(store.contains(s));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(s) + ".corrupt"));

  // The quarantined fingerprint is writable again: a clean save restores
  // it, and the quarantine file does not shadow the healthy one.
  store.save(s, outcome);
  const auto healed = store.load(s);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(json_of(*healed), json_of(outcome));
}

TEST(OutcomeStoreTest, SaveQuarantinesDamagedExistingFile) {
  StoreDir dir("hmpt_store_damaged_save");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  const auto outcome = CampaignRunner::execute(s);

  // A damaged file already sits at the fingerprint's path (e.g. a torn
  // external copy). save() must quarantine it and publish the honest
  // outcome instead of reporting a determinism conflict.
  std::filesystem::create_directories(
      std::filesystem::path(dir.path()) / "outcomes");
  {
    std::ofstream os(store.path_for(s));
    os << "truncated";
  }
  store.save(s, outcome);
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(s) + ".corrupt"));

  // A *well-formed* conflicting outcome is still a loud failure.
  auto conflicting = outcome;
  conflicting.speedup += 1.0;
  EXPECT_THROW(store.save(s, conflicting), Error);
}

TEST(OutcomeStoreTest, LoadsByFingerprintAlone) {
  StoreDir dir("hmpt_store_by_fp");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  EXPECT_EQ(store.load_by_fingerprint(s.fingerprint()), std::nullopt);

  const auto outcome = CampaignRunner::execute(s);
  store.save(s, outcome);
  const auto loaded = store.load_by_fingerprint(s.fingerprint());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
}

TEST(OutcomeStoreTest, ConcurrentIdenticalSavesBothSucceed) {
  StoreDir dir("hmpt_store_race");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  const auto outcome = CampaignRunner::execute(s);

  // Two writers racing the same fingerprint with the same bytes: the
  // loser of the atomic publish must notice the winner wrote identical
  // content and return silently (daemon workers + a concurrent batch run
  // share stores this way).
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t)
    writers.emplace_back([&] {
      try {
        store.save(s, outcome);
      } catch (const Error&) {
        ++failures;
      }
    });
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(failures.load(), 0);
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
}

TEST(OutcomeStoreTest, ConflictingSaveForSameFingerprintThrows) {
  StoreDir dir("hmpt_store_conflict");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  const auto outcome = CampaignRunner::execute(s);
  store.save(s, outcome);

  // Same fingerprint, different bytes: a silent overwrite (or silent
  // drop) would poison the cache, so this must fail loudly.
  auto tampered = outcome;
  tampered.speedup += 1.0;
  EXPECT_THROW(store.save(s, tampered), Error);
  // The first write survives untouched.
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
}

// ------------------------------------------------------------ packed store

class PackedStoreTest : public ::testing::Test {
 protected:
  static Scenario scenario_with_reps(int reps) {
    Scenario s;
    s.workload = parse_workload_spec("mg");
    s.platform = "xeon-max";
    s.strategy = "estimator";
    s.repetitions = reps;
    return s;
  }
  static std::uintmax_t log_size(const std::string& dir) {
    return fs::file_size(fs::path(dir) / "outcomes.log");
  }
  /// Start offset of every record in a packed log, plus its end.
  static std::vector<std::uintmax_t> record_boundaries(
      const std::string& dir) {
    std::ifstream log(fs::path(dir) / "outcomes.log", std::ios::binary);
    std::vector<std::uintmax_t> boundaries{0};
    std::string magic, fingerprint;
    std::uintmax_t payload = 0;
    while (log >> magic >> fingerprint >> payload) {
      log.ignore(1);  // the header's '\n'
      log.seekg(static_cast<std::streamoff>(payload + 1), std::ios::cur);
      boundaries.push_back(static_cast<std::uintmax_t>(log.tellg()));
    }
    return boundaries;
  }
};

TEST_F(PackedStoreTest, SavesLoadsAndMatchesTheDirFormatRecordForRecord) {
  StoreDir dir("hmpt_packed_basic");
  StoreDir twin("hmpt_packed_basic_twin");
  const OutcomeStore packed(dir.path(), StoreFormat::Packed);
  const OutcomeStore plain(twin.path(), StoreFormat::Dir);
  EXPECT_EQ(packed.format(), StoreFormat::Packed);

  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  EXPECT_FALSE(packed.contains(s1));
  EXPECT_EQ(packed.load(s1), std::nullopt);

  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);
  for (const auto* store : {&packed, &plain}) {
    store->save(s1, o1);
    store->save(s2, o2);
  }
  EXPECT_TRUE(packed.contains(s1));
  EXPECT_TRUE(packed.contains(s2));
  const auto loaded = packed.load_by_fingerprint(s1.fingerprint());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(o1));

  // The payload bytes — the merge/report currency — are format-
  // independent: both stores hold the identical record set.
  EXPECT_EQ(packed.load_all_payloads(), plain.load_all_payloads());
  ASSERT_EQ(packed.load_all_payloads().size(), 2u);

  // Identical re-save is a silent no-op: no appended record.
  const auto size_before = log_size(dir.path());
  packed.save(s1, o1);
  EXPECT_EQ(log_size(dir.path()), size_before);

  // Conflicting bytes for a stored fingerprint fail loudly, first write
  // wins.
  auto tampered = o1;
  tampered.speedup += 1.0;
  EXPECT_THROW(packed.save(s1, tampered), Error);
  EXPECT_EQ(json_of(*packed.load(s1)), json_of(o1));

  // path_for is a dir-format concept; the packed store refuses it.
  EXPECT_THROW(packed.path_for(s1), Error);
}

TEST_F(PackedStoreTest, DetectsFormatsAndRefusesAMismatchedOpen) {
  StoreDir dir("hmpt_packed_detect");
  // No store yet: nothing to detect, open_existing falls back to dir.
  EXPECT_EQ(detect_store_format(dir.path()), std::nullopt);
  EXPECT_EQ(OutcomeStore::open_existing(dir.path()).format(),
            StoreFormat::Dir);

  const auto s = scenario_with_reps(1);
  {
    const OutcomeStore packed(dir.path(), StoreFormat::Packed);
    packed.save(s, CampaignRunner::execute(s));
  }
  EXPECT_EQ(detect_store_format(dir.path()), StoreFormat::Packed);
  // open_existing picks the on-disk format; an explicit wrong format is
  // refused with a pointer at --store-format instead of a second store
  // silently growing next to the first.
  EXPECT_TRUE(OutcomeStore::open_existing(dir.path()).contains(s));
  EXPECT_THROW(OutcomeStore(dir.path(), StoreFormat::Dir), Error);

  StoreDir plain_dir("hmpt_dir_detect");
  {
    const OutcomeStore plain(plain_dir.path(), StoreFormat::Dir);
    plain.save(s, CampaignRunner::execute(s));
  }
  EXPECT_EQ(detect_store_format(plain_dir.path()), StoreFormat::Dir);
  EXPECT_TRUE(OutcomeStore::open_existing(plain_dir.path()).contains(s));
  EXPECT_THROW(OutcomeStore(plain_dir.path(), StoreFormat::Packed), Error);

  EXPECT_EQ(store_format_from("dir"), StoreFormat::Dir);
  EXPECT_EQ(store_format_from("packed"), StoreFormat::Packed);
  EXPECT_THROW(store_format_from("sqlite"), Error);
}

TEST_F(PackedStoreTest, TornTailIsSkippedOnLoadAndRepairedByReexecution) {
  StoreDir dir("hmpt_packed_torn");
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);

  std::uintmax_t size_after_first = 0;
  {
    const OutcomeStore store(dir.path(), StoreFormat::Packed);
    store.save(s1, o1);
    size_after_first = log_size(dir.path());
    store.save(s2, o2);
  }

  // Crash mid-append: the second record's frame is half on disk. A
  // reader must keep every record before the tear and treat the torn
  // fingerprint as a miss — never abort, never trust garbage.
  fs::resize_file(fs::path(dir.path()) / "outcomes.log",
                  size_after_first + 17);
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_TRUE(store.contains(s1));
    EXPECT_FALSE(store.contains(s2));
    EXPECT_EQ(json_of(*store.load(s1)), json_of(o1));
    EXPECT_EQ(store.load(s2), std::nullopt);
    ASSERT_EQ(store.load_all_payloads().size(), 1u);

    // Re-execution (what --resume does for a missing fingerprint) repairs
    // the store: the torn bytes are truncated away and the record lands
    // whole.
    store.save(s2, o2);
    EXPECT_EQ(json_of(*store.load(s2)), json_of(o2));
  }
  // The repaired log parses cleanly from scratch, index or not.
  const OutcomeStore reread = OutcomeStore::open_existing(dir.path());
  EXPECT_EQ(reread.load_all_payloads().size(), 2u);
  EXPECT_EQ(json_of(*reread.load(s1)), json_of(o1));

  // Power loss during a campaign: the log keeps a prefix of its records,
  // cut at a record boundary or inside a record, while the (unsynced)
  // index may still describe records past the cut. --resume must
  // re-execute exactly the lost scenarios, and the artefacts must come
  // out byte-identical to an uninterrupted run.
  StoreDir whole("hmpt_packed_cut_whole");
  std::vector<Scenario> scenario_list;
  for (int reps = 1; reps <= 6; ++reps)
    scenario_list.push_back(scenario_with_reps(reps));
  CampaignOptions options;
  options.output_dir = whole.path();
  options.store_format = StoreFormat::Packed;
  const auto cold = CampaignRunner(options).run(scenario_list);
  ASSERT_EQ(cold.executed, static_cast<int>(scenario_list.size()));
  write_artifacts(cold, whole.path());
  const std::string runs_csv =
      file_bytes(fs::path(whole.path()) / "runs.csv");
  const std::string summary =
      file_bytes(fs::path(whole.path()) / "summary.json");

  // Serial, so record k holds scenario k.
  const auto boundaries = record_boundaries(whole.path());
  ASSERT_EQ(boundaries.size(), scenario_list.size() + 1);
  ASSERT_EQ(boundaries.back(), log_size(whole.path()));

  // Cuts across the last four records: at each record boundary, and
  // inside each record's header, payload and trailing newline.
  std::vector<std::uintmax_t> cuts;
  for (std::size_t k = scenario_list.size() - 4; k < scenario_list.size();
       ++k) {
    cuts.push_back(boundaries[k]);
    cuts.push_back(boundaries[k] + 10);
    cuts.push_back((boundaries[k] + boundaries[k + 1]) / 2);
    cuts.push_back(boundaries[k + 1] - 1);
  }
  cuts.push_back(boundaries.back());

  for (const auto cut : cuts) {
    SCOPED_TRACE("log cut at byte " + std::to_string(cut));
    StoreDir crashed("hmpt_packed_cut");
    fs::create_directories(crashed.path());
    for (const char* name : {"outcomes.log", "outcomes.idx"})
      fs::copy_file(fs::path(whole.path()) / name,
                    fs::path(crashed.path()) / name);
    fs::resize_file(fs::path(crashed.path()) / "outcomes.log", cut);

    CampaignOptions resume = options;
    resume.output_dir = crashed.path();
    resume.resume = true;
    const auto resumed = CampaignRunner(resume).run(scenario_list);
    ASSERT_TRUE(resumed.ok());
    for (std::size_t k = 0; k < scenario_list.size(); ++k) {
      const bool lost = boundaries[k + 1] > cut;
      EXPECT_EQ(resumed.runs[k].status, lost ? ScenarioRun::Status::Executed
                                             : ScenarioRun::Status::Cached)
          << "scenario " << k;
    }
    write_artifacts(resumed, crashed.path());
    EXPECT_EQ(file_bytes(fs::path(crashed.path()) / "runs.csv"), runs_csv);
    EXPECT_EQ(file_bytes(fs::path(crashed.path()) / "summary.json"),
              summary);
    // The torn bytes were cut away and the lost records re-appended in
    // order: the repaired log is the uninterrupted one.
    EXPECT_EQ(file_bytes(fs::path(crashed.path()) / "outcomes.log"),
              file_bytes(fs::path(whole.path()) / "outcomes.log"));
  }
}

TEST_F(PackedStoreTest, CorruptOrMissingIndexNeverChangesAnswers) {
  StoreDir dir("hmpt_packed_idx");
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);
  {
    const OutcomeStore store(dir.path(), StoreFormat::Packed);
    store.save(s1, o1);
    store.save(s2, o2);
  }
  const auto idx = fs::path(dir.path()) / "outcomes.idx";
  ASSERT_TRUE(fs::exists(idx));

  // The index is a disposable cache; garbage in it must be ignored in
  // favour of a log scan.
  {
    std::ofstream os(idx, std::ios::binary);
    os << "zzzz not an index\n";
  }
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_EQ(json_of(*store.load(s1)), json_of(o1));
    EXPECT_EQ(json_of(*store.load(s2)), json_of(o2));
  }

  // An index pointing at the wrong offset is caught by per-record
  // verification and answered from a rescan, not by returning the wrong
  // scenario's bytes.
  {
    std::ofstream os(idx, std::ios::binary);
    os << s2.fingerprint() << " 0 10\n";
  }
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_EQ(json_of(*store.load(s2)), json_of(o2));
  }

  // Deleting it entirely is also fine; the next save writes a fresh one.
  fs::remove(idx);
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_EQ(store.load_all_payloads().size(), 2u);
    const auto s3 = scenario_with_reps(3);
    store.save(s3, CampaignRunner::execute(s3));
    EXPECT_TRUE(fs::exists(idx));
    EXPECT_EQ(store.load_all_payloads().size(), 3u);
  }
}

TEST_F(PackedStoreTest, DamagedRecordIsSupersededNotConflicting) {
  StoreDir dir("hmpt_packed_damaged");
  const auto s = scenario_with_reps(1);
  const auto o = CampaignRunner::execute(s);

  // A frame-intact record whose payload is garbage (the packed analogue
  // of the dir store's quarantined file): loads miss, and a clean save
  // appends the honest record instead of raising a determinism conflict.
  fs::create_directories(dir.path());
  {
    std::ofstream os(fs::path(dir.path()) / "outcomes.log",
                     std::ios::binary);
    os << "hmpt1 " << s.fingerprint() << " 9\nnot json!\n";
  }
  const OutcomeStore store = OutcomeStore::open_existing(dir.path());
  EXPECT_EQ(store.load(s), std::nullopt);
  EXPECT_TRUE(store.load_all_payloads().empty());

  store.save(s, o);
  EXPECT_EQ(json_of(*store.load(s)), json_of(o));
  ASSERT_EQ(store.load_all_payloads().size(), 1u);

  // A *well-formed* conflicting outcome is still a loud failure.
  auto conflicting = o;
  conflicting.speedup += 1.0;
  EXPECT_THROW(store.save(s, conflicting), Error);
}

// Two OutcomeStore instances on one packed directory each own a backend,
// an open log and a cache — the same as two processes sharing the store.
// Each writer catches up with what the other appended since its last
// append instead of rescanning the log.

TEST_F(PackedStoreTest, InterleavedWritersLoadCompletelyFromEither) {
  StoreDir dir("hmpt_packed_two_writers");
  const OutcomeStore a(dir.path(), StoreFormat::Packed);
  const OutcomeStore b(dir.path(), StoreFormat::Packed);
  std::vector<Scenario> scenario_list;
  std::vector<tuner::TuningOutcome> outcomes;
  for (int reps = 1; reps <= 6; ++reps) {
    scenario_list.push_back(scenario_with_reps(reps));
    outcomes.push_back(CampaignRunner::execute(scenario_list.back()));
  }
  b.save(scenario_list[0], outcomes[0]);
  // a's batch is still open (appended, not synced) when b appends behind
  // it and indexes its own record: b's index must not skip a's record,
  // or a reader primed from the index would miss it.
  a.append(scenario_list[1], outcomes[1]);
  b.save(scenario_list[2], outcomes[2]);
  EXPECT_TRUE(
      OutcomeStore::open_existing(dir.path()).contains(scenario_list[1]));
  a.sync();
  for (std::size_t k = 3; k < scenario_list.size(); ++k)
    (k % 2 == 0 ? b : a).save(scenario_list[k], outcomes[k]);
  const OutcomeStore fresh = OutcomeStore::open_existing(dir.path());
  for (const auto* store : {&a, &b, &fresh}) {
    ASSERT_EQ(store->load_all_payloads().size(), scenario_list.size());
    for (std::size_t k = 0; k < scenario_list.size(); ++k)
      EXPECT_EQ(json_of(*store->load(scenario_list[k])),
                json_of(outcomes[k]));
  }
  // Every record landed exactly once, and whatever index the writers
  // left primes a reader to the complete set.
  EXPECT_EQ(record_boundaries(dir.path()).size(), scenario_list.size() + 1);
  const OutcomeStore reader = OutcomeStore::open_existing(dir.path());
  for (const auto& scenario : scenario_list)
    EXPECT_TRUE(reader.contains(scenario));
}

TEST_F(PackedStoreTest, ConflictWithTheOtherWritersRecordThrows) {
  StoreDir dir("hmpt_packed_two_writers_conflict");
  const OutcomeStore a(dir.path(), StoreFormat::Packed);
  const OutcomeStore b(dir.path(), StoreFormat::Packed);
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto o1 = CampaignRunner::execute(s1);
  b.save(s2, CampaignRunner::execute(s2));  // b's cache predates s1
  a.save(s1, o1);

  auto tampered = o1;
  tampered.speedup += 1.0;
  EXPECT_THROW(b.save(s1, tampered), Error);
  EXPECT_THROW(b.append(s1, tampered), Error);
  // The identical record is the usual same-race no-op.
  const auto size_before = log_size(dir.path());
  b.save(s1, o1);
  EXPECT_EQ(log_size(dir.path()), size_before);
  EXPECT_EQ(json_of(*b.load(s1)), json_of(o1));
}

TEST_F(PackedStoreTest, TornTailOfTheOtherWriterIsTruncatedByTheNextSave) {
  StoreDir dir("hmpt_packed_two_writers_torn");
  const OutcomeStore a(dir.path(), StoreFormat::Packed);
  const OutcomeStore b(dir.path(), StoreFormat::Packed);
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto s3 = scenario_with_reps(3);
  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);
  const auto o3 = CampaignRunner::execute(s3);
  a.save(s1, o1);
  const auto clean_end = log_size(dir.path());
  // b dies mid-append: half of its record reaches the log.
  b.save(s2, o2);
  fs::resize_file(fs::path(dir.path()) / "outcomes.log",
                  (clean_end + log_size(dir.path())) / 2);

  // a's next save scans past its own last record, finds the torn frame,
  // cuts it away and appends at the clean boundary.
  a.save(s3, o3);
  EXPECT_EQ(record_boundaries(dir.path()).size(), 3u);
  EXPECT_EQ(record_boundaries(dir.path())[1], clean_end);
  const OutcomeStore reader = OutcomeStore::open_existing(dir.path());
  EXPECT_TRUE(reader.contains(s1));
  EXPECT_FALSE(reader.contains(s2));
  EXPECT_EQ(json_of(*reader.load(s3)), json_of(o3));

  // b re-executes what it lost; both writers then agree on all three.
  b.save(s2, o2);
  for (const auto* store : {&a, &b})
    EXPECT_EQ(store->load_all_payloads().size(), 3u);
  EXPECT_EQ(OutcomeStore::open_existing(dir.path()).load_all_payloads().size(),
            3u);
}

TEST_F(PackedStoreTest, RecreatedStoreDirectoryIsDetectedBetweenSaves) {
  StoreDir dir("hmpt_packed_recreated");
  const OutcomeStore a(dir.path(), StoreFormat::Packed);
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto s3 = scenario_with_reps(3);
  a.save(s1, CampaignRunner::execute(s1));

  // The directory is deleted and another writer starts a new store in
  // its place; a's open log is now an unlinked file.
  fs::remove_all(dir.path());
  {
    const OutcomeStore b(dir.path(), StoreFormat::Packed);
    b.save(s2, CampaignRunner::execute(s2));
  }
  a.save(s3, CampaignRunner::execute(s3));
  {
    const OutcomeStore reader = OutcomeStore::open_existing(dir.path());
    EXPECT_FALSE(reader.contains(s1));  // went with the old directory
    EXPECT_TRUE(reader.contains(s2));
    EXPECT_TRUE(reader.contains(s3));   // landed in the new log
    EXPECT_EQ(reader.load_all_payloads().size(), 2u);
  }

  // Deleted and not recreated: the next save creates the store again.
  fs::remove_all(dir.path());
  a.save(s1, CampaignRunner::execute(s1));
  const OutcomeStore reader = OutcomeStore::open_existing(dir.path());
  EXPECT_TRUE(reader.contains(s1));
  EXPECT_EQ(reader.load_all_payloads().size(), 1u);
}

// A reader instance keeps its map across calls and only scans what the
// log gained since; these pin down that it never answers from a stale map.

TEST_F(PackedStoreTest, ReaderSeesTheOtherInstancesAppends) {
  StoreDir dir("hmpt_packed_reader_follows");
  const OutcomeStore writer(dir.path(), StoreFormat::Packed);
  const OutcomeStore reader(dir.path(), StoreFormat::Packed);
  std::vector<Scenario> scenario_list;
  std::vector<tuner::TuningOutcome> outcomes;
  for (int reps = 1; reps <= 4; ++reps) {
    scenario_list.push_back(scenario_with_reps(reps));
    outcomes.push_back(CampaignRunner::execute(scenario_list.back()));
  }
  EXPECT_FALSE(reader.contains(scenario_list[0]));  // no log yet
  for (std::size_t k = 0; k < scenario_list.size(); ++k) {
    writer.append(scenario_list[k], outcomes[k]);
    if (k % 2 == 1) writer.sync();  // visible before and after the sync
    ASSERT_TRUE(reader.contains(scenario_list[k])) << "record " << k;
    EXPECT_EQ(json_of(*reader.load(scenario_list[k])), json_of(outcomes[k]));
  }
  EXPECT_EQ(reader.load_all_payloads(), writer.load_all_payloads());
  EXPECT_EQ(reader.load_all_payloads().size(), scenario_list.size());
}

TEST_F(PackedStoreTest, ReaderSeesARecordAppendedAfterAnEqualSizeTornTailRepair) {
  StoreDir dir("hmpt_packed_reader_equal_size");
  const OutcomeStore writer(dir.path(), StoreFormat::Packed);
  const OutcomeStore reader(dir.path(), StoreFormat::Packed);
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto o2 = CampaignRunner::execute(s2);
  writer.save(s1, CampaignRunner::execute(s1));

  // A crash mid-append grew the log by exactly s2's frame, but the bytes
  // never reached the disk: a zero-filled torn tail.
  const std::string payload = OutcomeStore::make_payload(s2, o2);
  const std::string frame = "hmpt1 " + s2.fingerprint() + " " +
                            std::to_string(payload.size()) + "\n" +
                            payload + "\n";
  const auto torn_size = log_size(dir.path()) + frame.size();
  fs::resize_file(fs::path(dir.path()) / "outcomes.log", torn_size);
  EXPECT_TRUE(reader.contains(s1));
  EXPECT_FALSE(reader.contains(s2));

  // The repair cuts the tail and appends s2 in its place: the log ends
  // at the size the reader already saw, with different bytes.
  writer.save(s2, o2);
  ASSERT_EQ(log_size(dir.path()), torn_size);
  EXPECT_TRUE(reader.contains(s2));
  const auto loaded = reader.load(s2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(o2));
  EXPECT_EQ(reader.load_all_payloads().size(), 2u);
}

TEST_F(PackedStoreTest, ReaderNoticesASameSizeLogReplacedUnderIt) {
  StoreDir dir("hmpt_packed_reader_replaced");
  StoreDir other("hmpt_packed_reader_replacement");
  const std::string fp_a(16, 'a');
  const std::string fp_b(16, 'b');
  const std::string bytes_a(100, 'x');
  const std::string bytes_b(100, 'y');
  const auto write = [](const std::string& path, const std::string& fp,
                        const std::string& bytes) {
    const OutcomeStore store(path, StoreFormat::Packed);
    store.append_payload(fp, bytes);
    store.sync();
  };
  write(dir.path(), fp_a, bytes_a);
  write(other.path(), fp_b, bytes_b);
  ASSERT_EQ(log_size(dir.path()), log_size(other.path()));

  const OutcomeStore reader(dir.path(), StoreFormat::Packed);
  EXPECT_EQ(reader.payload(fp_a), bytes_a);
  // Another log of the same size takes the path (the index stays stale).
  fs::rename(fs::path(other.path()) / "outcomes.log",
             fs::path(dir.path()) / "outcomes.log");
  EXPECT_EQ(reader.payload(fp_b), bytes_b);
  EXPECT_EQ(reader.payload(fp_a), std::nullopt);
}

// ----------------------------------------------------------------- runner

class CampaignRunnerTest : public ::testing::Test {
 protected:
  /// The acceptance-criteria matrix: 3 workloads x {xeon-max, spr-cxl} x
  /// {exhaustive, estimator, online} = 18 scenarios.
  static std::vector<Scenario> scenarios() {
    ScenarioMatrix matrix;
    matrix.workloads = {
        parse_workload_spec("mg"),
        parse_workload_spec("stream:array_gb=1,iterations=2"),
        parse_workload_spec("pointer-chase:accesses=1e8,window_gb=1")};
    matrix.platforms = {"xeon-max", "spr-cxl"};
    matrix.strategies = {"exhaustive", "estimator", "online"};
    matrix.repetitions = 1;
    return matrix.expand();
  }
};

TEST_F(CampaignRunnerTest, ResumeSkipsEverythingAndReproducesArtifacts) {
  StoreDir dir("hmpt_campaign_resume");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.scenario_jobs = 4;

  const auto scenario_list = scenarios();
  const auto cold = CampaignRunner(options).run(scenario_list);
  EXPECT_EQ(cold.executed, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(cold.cached, 0);
  ASSERT_TRUE(cold.ok());

  const auto paths = write_artifacts(cold, options.output_dir);
  ASSERT_EQ(paths.size(), 3u);  // runs.csv, summary.json, status.json
  std::ifstream csv(paths[0]);
  std::stringstream cold_csv;
  cold_csv << csv.rdbuf();
  ASSERT_FALSE(cold_csv.str().empty());

  // Re-run with resume: zero executions, every outcome served from the
  // store, byte-identical runs.csv.
  options.resume = true;
  options.scenario_jobs = 1;  // different concurrency must not matter
  const auto warm = CampaignRunner(options).run(scenario_list);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.cached, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(runs_table(warm).to_csv(), cold_csv.str());
  for (std::size_t i = 0; i < scenario_list.size(); ++i)
    EXPECT_EQ(json_of(warm.runs[i].outcome), json_of(cold.runs[i].outcome));
}

TEST_F(CampaignRunnerTest, ConcurrencyDoesNotChangeResults) {
  StoreDir dir_serial("hmpt_campaign_serial");
  StoreDir dir_parallel("hmpt_campaign_parallel");
  const auto scenario_list = scenarios();

  CampaignOptions serial;
  serial.output_dir = dir_serial.path();
  serial.scenario_jobs = 1;
  CampaignOptions parallel;
  parallel.output_dir = dir_parallel.path();
  parallel.scenario_jobs = 0;  // all hardware threads

  const auto a = CampaignRunner(serial).run(scenario_list);
  const auto b = CampaignRunner(parallel).run(scenario_list);
  EXPECT_EQ(runs_table(a).to_csv(), runs_table(b).to_csv());
  // The deterministic summary is byte-identical across concurrency; the
  // volatile execution log agrees on counts (but not wall times).
  EXPECT_EQ(summary_json(a).dump(), summary_json(b).dump());
  EXPECT_EQ(status_json(a).at("executed").as_number(),
            status_json(b).at("executed").as_number());
}

TEST_F(CampaignRunnerTest, ErrorPolicyKeepGoingVsFailFast) {
  // "recorded" with a missing file passes matrix validation (the name is
  // registered) but throws when the factory runs — a realistic mid-
  // campaign failure.
  Scenario bad;
  bad.workload = parse_workload_spec("recorded:path=/nonexistent.profile");
  bad.platform = "xeon-max";
  bad.strategy = "estimator";
  bad.repetitions = 1;
  Scenario good;
  good.workload = parse_workload_spec("mg");
  good.platform = "xeon-max";
  good.strategy = "estimator";
  good.repetitions = 1;

  StoreDir dir("hmpt_campaign_errors");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.keep_going = true;
  const auto result = CampaignRunner(options).run({bad, good});
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.executed, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.runs[0].status, ScenarioRun::Status::Failed);
  EXPECT_FALSE(result.runs[0].error.empty());
  EXPECT_EQ(result.runs[1].status, ScenarioRun::Status::Executed);
  // The failure is recorded in summary.json for post-mortems.
  const auto summary = summary_json(result);
  EXPECT_EQ(summary.at("failed").as_number(), 1.0);

  options.keep_going = false;
  EXPECT_THROW(CampaignRunner(options).run({bad, good}), Error);
}

TEST_F(CampaignRunnerTest, PackedStoreReproducesDirArtifactsAndResumes) {
  StoreDir dir_plain("hmpt_campaign_dirfmt");
  StoreDir dir_packed("hmpt_campaign_packedfmt");
  const auto scenario_list = scenarios();

  CampaignOptions plain;
  plain.output_dir = dir_plain.path();
  plain.scenario_jobs = 4;
  CampaignOptions packed = plain;
  packed.output_dir = dir_packed.path();
  packed.store_format = StoreFormat::Packed;

  // Same campaign, either store layout: the deterministic artefacts are
  // byte-identical — the format is an implementation detail of the store.
  const auto a = CampaignRunner(plain).run(scenario_list);
  const auto b = CampaignRunner(packed).run(scenario_list);
  EXPECT_EQ(runs_table(a).to_csv(), runs_table(b).to_csv());
  EXPECT_EQ(summary_json(a).dump(), summary_json(b).dump());
  EXPECT_TRUE(fs::exists(fs::path(dir_packed.path()) / "outcomes.log"));
  EXPECT_FALSE(fs::exists(fs::path(dir_packed.path()) / "outcomes"));

  // Resume against the packed store: zero executions, all served from
  // the log.
  packed.resume = true;
  const auto warm = CampaignRunner(packed).run(scenario_list);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.cached, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(runs_table(warm).to_csv(), runs_table(a).to_csv());
}

TEST_F(CampaignRunnerTest, ParallelPackedRunMatchesSerialDirArtifacts) {
  StoreDir dir_serial("hmpt_campaign_serial_dir");
  StoreDir dir_packed("hmpt_campaign_parallel_packed");
  const auto scenario_list = scenarios();

  CampaignOptions serial;
  serial.output_dir = dir_serial.path();
  serial.scenario_jobs = 1;
  CampaignOptions packed;
  packed.output_dir = dir_packed.path();
  packed.store_format = StoreFormat::Packed;
  packed.scenario_jobs = 4;

  // Progress only ever reports a durable outcome: when the callback
  // fires, the record is in the store for any reader to load.
  std::atomic<int> reported{0};
  const auto a = CampaignRunner(serial).run(scenario_list);
  const auto b = CampaignRunner(packed).run(
      scenario_list, [&](std::size_t, const ScenarioRun& run) {
        EXPECT_EQ(run.status, ScenarioRun::Status::Executed);
        EXPECT_TRUE(OutcomeStore::open_existing(dir_packed.path())
                        .contains(run.scenario));
        ++reported;
      });
  EXPECT_EQ(reported.load(), static_cast<int>(scenario_list.size()));
  ASSERT_EQ(b.executed, static_cast<int>(scenario_list.size()));

  write_artifacts(a, dir_serial.path());
  write_artifacts(b, dir_packed.path());
  for (const char* name : {"runs.csv", "summary.json"}) {
    const std::string serial_bytes =
        file_bytes(fs::path(dir_serial.path()) / name);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(file_bytes(fs::path(dir_packed.path()) / name), serial_bytes)
        << name;
  }
  EXPECT_EQ(OutcomeStore::open_existing(dir_packed.path()).load_all_payloads(),
            OutcomeStore::open_existing(dir_serial.path()).load_all_payloads());
}

// ------------------------------------------------------------------ report

TEST_F(CampaignRunnerTest, HtmlReportIsSelfContainedAndStoreDerivable) {
  StoreDir dir("hmpt_campaign_report");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.store_format = StoreFormat::Packed;
  options.scenario_jobs = 4;
  const auto scenario_list = scenarios();
  const auto result = CampaignRunner(options).run(scenario_list);
  ASSERT_TRUE(result.ok());

  const auto html = report::render_report_html(result);
  // One self-contained document: inline SVG charts and inline script,
  // nothing fetched from anywhere.
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<script>"), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  EXPECT_EQ(html.find("href=\"http"), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);

  // The campaign fingerprint headline and one drill-down per run.
  std::vector<std::string> fingerprints;
  for (const auto& run : result.runs)
    fingerprints.push_back(run.scenario.fingerprint());
  EXPECT_NE(html.find(campaign_fingerprint(fingerprints)),
            std::string::npos);
  for (const auto& run : result.runs)
    EXPECT_NE(html.find("id=\"fp-" + run.scenario.fingerprint() + "\""),
              std::string::npos);

  // Rendering is deterministic, and write_report publishes exactly those
  // bytes at <out>/report/index.html.
  EXPECT_EQ(report::render_report_html(result), html);
  const auto path = report::write_report(result, dir.path());
  EXPECT_EQ(path,
            (fs::path(dir.path()) / "report" / "index.html").string());
  std::ifstream is(path, std::ios::binary);
  std::ostringstream written;
  written << is.rdbuf();
  EXPECT_EQ(written.str(), html);

  // The store alone reconstructs the same ranked view: every record
  // carries its scenario, so a report needs no campaign file.
  const auto from_store = report::load_store_result(dir.path());
  ASSERT_EQ(from_store.runs.size(), scenario_list.size());
  const auto ranked_a = ranked_runs(result);
  const auto ranked_b = ranked_runs(from_store);
  ASSERT_EQ(ranked_a.size(), ranked_b.size());
  for (std::size_t i = 0; i < ranked_a.size(); ++i) {
    EXPECT_EQ(ranked_a[i]->scenario.fingerprint(),
              ranked_b[i]->scenario.fingerprint());
    EXPECT_EQ(json_of(ranked_a[i]->outcome), json_of(ranked_b[i]->outcome));
  }

  // No store, no report.
  StoreDir empty("hmpt_report_empty");
  EXPECT_THROW(report::load_store_result(empty.path()), Error);
}

}  // namespace
}  // namespace hmpt::campaign
