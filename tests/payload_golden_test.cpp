// Golden-payload tests for the outcome store: the bytes OutcomeStore
// writes for a scenario are fixed across builds, not just within one. The
// streaming writers behind them (tuner::write_outcome, the daemon's reply
// lines) are pinned here too, against the Json value form.
// Merged artefacts from shards written by different builds stay
// byte-identical only while this holds, so the payloads of a few small
// scenarios are checked in under tests/data/payload_*.json and every build
// must reproduce them byte for byte — and decode them back to the outcome
// it computes itself.
//
// Regenerating after an intentional format change (which must also bump
// kFingerprintVersion, so old caches miss instead of replaying):
//
//   HMPT_UPDATE_GOLDEN=1 ctest -R payload_golden_test
//   git diff tests/data/   # review every byte before committing
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/outcome_store.h"
#include "campaign/scenario.h"
#include "campaign/workload_registry.h"
#include "common/error.h"
#include "core/outcome_io.h"
#include "core/strategy.h"
#include "service/protocol.h"

namespace {

#ifndef HMPT_TEST_DATA_DIR
#define HMPT_TEST_DATA_DIR ""
#endif

namespace fs = std::filesystem;
using namespace hmpt;
using namespace hmpt::campaign;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct GoldenCase {
  const char* name;
  Scenario scenario;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

Scenario make(const char* workload, const char* platform,
              const char* strategy,
              std::vector<std::pair<int, double>> tier_budgets = {}) {
  Scenario s;
  s.workload = parse_workload_spec(workload);
  s.platform = platform;
  s.strategy = strategy;
  s.tier_budgets_gb = std::move(tier_budgets);
  s.repetitions = 1;
  return s;
}

/// The four pinned scenarios: a two-tier exhaustive sweep (the `sweep`
/// member), the online search (trajectory, no sweep), a three-tier
/// estimator (k=3 placements) and a three-tier run under a tier budget.
std::vector<GoldenCase> golden_cases() {
  return {
      {"payload_mg_exhaustive", make("mg", "xeon-max", "exhaustive")},
      {"payload_mg_online", make("mg", "xeon-max", "online")},
      {"payload_mg_cxl_estimator", make("mg", "spr-cxl", "estimator")},
      {"payload_mg_cxl_budget",
       make("mg", "spr-cxl", "exhaustive", {{1, 10.0}})},
  };
}

/// Field-by-field equality (doubles compared exactly): the decoder must
/// reproduce the outcome, not merely something that re-encodes alike.
void expect_same_outcome(const tuner::TuningOutcome& a,
                         const tuner::TuningOutcome& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.num_tiers, b.num_tiers);
  EXPECT_EQ(a.chosen_mask, b.chosen_mask);
  EXPECT_EQ(a.chosen_placement.pools(), b.chosen_placement.pools());
  EXPECT_EQ(a.chosen_time, b.chosen_time);
  EXPECT_EQ(a.baseline_time, b.baseline_time);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.hbm_usage, b.hbm_usage);
  EXPECT_EQ(a.configs_measured, b.configs_measured);
  EXPECT_EQ(a.measurements, b.measurements);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].index, b.trajectory[i].index);
    EXPECT_EQ(a.trajectory[i].mask, b.trajectory[i].mask);
    EXPECT_EQ(a.trajectory[i].observed_time, b.trajectory[i].observed_time);
    EXPECT_EQ(a.trajectory[i].speedup, b.trajectory[i].speedup);
    EXPECT_EQ(a.trajectory[i].accepted, b.trajectory[i].accepted);
  }
  const auto same_configs = [](const std::vector<tuner::ConfigResult>& x,
                               const std::vector<tuner::ConfigResult>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].mask, y[i].mask);
      EXPECT_EQ(x[i].mean_time, y[i].mean_time);
      EXPECT_EQ(x[i].stddev_time, y[i].stddev_time);
      EXPECT_EQ(x[i].speedup, y[i].speedup);
      EXPECT_EQ(x[i].hbm_usage, y[i].hbm_usage);
      EXPECT_EQ(x[i].hbm_density, y[i].hbm_density);
      EXPECT_EQ(x[i].groups_in_hbm, y[i].groups_in_hbm);
    }
  };
  same_configs(a.table, b.table);
  ASSERT_EQ(a.sweep.has_value(), b.sweep.has_value());
  if (a.sweep.has_value()) {
    EXPECT_EQ(a.sweep->baseline_time, b.sweep->baseline_time);
    EXPECT_EQ(a.sweep->num_groups, b.sweep->num_groups);
    EXPECT_EQ(a.sweep->num_tiers, b.sweep->num_tiers);
    same_configs(a.sweep->configs, b.sweep->configs);
  }
}

class PayloadGoldenTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hmpt_payload_golden_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_P(PayloadGoldenTest, PayloadBytesAndDecodeAreFixedAcrossBuilds) {
  const GoldenCase& c = GetParam();
  const std::string golden_path =
      std::string(HMPT_TEST_DATA_DIR) + "/" + c.name + ".json";
  const auto outcome = CampaignRunner::execute(c.scenario);
  const std::string payload = OutcomeStore::make_payload(c.scenario, outcome);

  if (std::getenv("HMPT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(golden_path, std::ios::binary) << payload;
    GTEST_SKIP() << "rewrote " << golden_path;
  }
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << golden_path;
  EXPECT_TRUE(payload == golden)
      << c.name << ": make_payload differs from " << golden_path;

  // A store written by another build decodes to this build's outcome:
  // plant the golden bytes as a dir-store record and load them.
  const OutcomeStore store(dir_);
  fs::create_directories(fs::path(dir_) / "outcomes");
  std::ofstream(store.path_for(c.scenario), std::ios::binary) << golden;
  const auto planted = store.load(c.scenario);
  ASSERT_TRUE(planted.has_value()) << c.name;
  expect_same_outcome(*planted, outcome);

  // And this build's own save/load round trip is lossless and stores
  // exactly the golden bytes.
  const OutcomeStore fresh(dir_ + "/fresh");
  fresh.save(c.scenario, outcome);
  EXPECT_TRUE(slurp(fresh.path_for(c.scenario)) == golden) << c.name;
  const auto loaded = fresh.load(c.scenario);
  ASSERT_TRUE(loaded.has_value()) << c.name;
  expect_same_outcome(*loaded, outcome);
}

// write_outcome streams what outcome_to_json builds as a value; the value
// form is the reference, for every strategy and tier count, in both
// layouts.
TEST(OutcomeWriterTest, MatchesTheJsonValueForEveryStrategy) {
  for (const std::string& strategy :
       tuner::StrategyRegistry::instance().names()) {
    for (const char* platform : {"xeon-max", "spr-cxl"}) {
      const Scenario s = make("mg", platform, strategy.c_str());
      const auto outcome = CampaignRunner::execute(s);
      const Json reference = tuner::outcome_to_json(outcome);
      for (const int indent : {-1, 2}) {
        std::string streamed;
        JsonWriter writer(streamed, indent);
        tuner::write_outcome(writer, outcome);
        EXPECT_TRUE(streamed == reference.dump(indent))
            << s.label() << " indent " << indent;
      }
    }
  }
}

// The daemon's `result` reply streams the outcome too; its bytes are the
// ok_line the value form gives.
TEST(OutcomeWriterTest, ResultLineMatchesTheJsonValueForm) {
  const Scenario s = make("mg", "spr-cxl", "exhaustive");
  const auto outcome = CampaignRunner::execute(s);
  JsonObject fields;
  fields["fingerprint"] = Json(s.fingerprint());
  fields["label"] = Json(s.label());
  fields["state"] = Json("done");
  fields["op"] = Json("replaced in place");
  JsonObject with_outcome = fields;
  with_outcome["outcome"] = tuner::outcome_to_json(outcome);
  EXPECT_TRUE(service::result_line(fields, outcome) ==
              service::ok_line(service::Op::Result, with_outcome));
  EXPECT_THROW(service::result_line(with_outcome, outcome), Error);
}

// Daemon reply lines are streamed from their parts; the bytes are those of
// inserting the fields into an object that holds the header, so a field
// named like a header key replaces it in place.
TEST(WireLineTest, FieldsNamedLikeHeaderKeysReplaceThemInPlace) {
  JsonObject fields;
  fields["queued"] = Json(3);
  fields["op"] = Json("other");
  fields["ok"] = Json(false);
  fields["nested"] = Json(JsonArray{Json(1.5), Json(JsonObject{})});
  EXPECT_EQ(service::ok_line(service::Op::Status, fields),
            "{\"ok\":false,\"op\":\"other\",\"queued\":3,"
            "\"nested\":[1.5,{}]}\n");
  EXPECT_EQ(service::error_line("boom", "submit", fields),
            "{\"ok\":false,\"op\":\"other\",\"error\":\"boom\","
            "\"queued\":3,\"nested\":[1.5,{}]}\n");
  JsonObject extra;
  extra["speedup"] = Json(2.5);
  extra["label"] = Json("over");
  EXPECT_EQ(service::job_event_line("fp", "lbl", "done", 0.125, extra),
            "{\"event\":\"job\",\"fingerprint\":\"fp\",\"label\":\"over\","
            "\"state\":\"done\",\"seconds\":0.125,\"speedup\":2.5}\n");
  EXPECT_EQ(service::event_line("drained"), "{\"event\":\"drained\"}\n");
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PayloadGoldenTest, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
