#include "core/outcome_io.h"

#include <cstdint>

namespace hmpt::tuner {

namespace {

Json config_to_json(const ConfigResult& c) {
  JsonObject o;
  o["mask"] = Json(static_cast<std::uint64_t>(c.mask));
  o["mean_time"] = Json(c.mean_time);
  o["stddev_time"] = Json(c.stddev_time);
  o["speedup"] = Json(c.speedup);
  o["hbm_usage"] = Json(c.hbm_usage);
  o["hbm_density"] = Json(c.hbm_density);
  o["groups_in_hbm"] = Json(c.groups_in_hbm);
  return Json(std::move(o));
}

ConfigResult config_from_json(const Json& json) {
  ConfigResult c;
  c.mask = static_cast<ConfigMask>(json.at("mask").as_number());
  c.mean_time = json.at("mean_time").as_number();
  c.stddev_time = json.at("stddev_time").as_number();
  c.speedup = json.at("speedup").as_number();
  c.hbm_usage = json.at("hbm_usage").as_number();
  c.hbm_density = json.at("hbm_density").as_number();
  c.groups_in_hbm = static_cast<int>(json.at("groups_in_hbm").as_number());
  return c;
}

Json step_to_json(const TuningStep& s) {
  JsonObject o;
  o["index"] = Json(s.index);
  o["mask"] = Json(static_cast<std::uint64_t>(s.mask));
  o["observed_time"] = Json(s.observed_time);
  o["speedup"] = Json(s.speedup);
  o["accepted"] = Json(s.accepted);
  return Json(std::move(o));
}

void write_config(JsonWriter& w, const ConfigResult& c) {
  w.begin_object();
  w.key("mask");
  w.value(static_cast<std::uint64_t>(c.mask));
  w.key("mean_time");
  w.value(c.mean_time);
  w.key("stddev_time");
  w.value(c.stddev_time);
  w.key("speedup");
  w.value(c.speedup);
  w.key("hbm_usage");
  w.value(c.hbm_usage);
  w.key("hbm_density");
  w.value(c.hbm_density);
  w.key("groups_in_hbm");
  w.value(c.groups_in_hbm);
  w.end_object();
}

TuningStep step_from_json(const Json& json) {
  TuningStep s;
  s.index = static_cast<int>(json.at("index").as_number());
  s.mask = static_cast<ConfigMask>(json.at("mask").as_number());
  s.observed_time = json.at("observed_time").as_number();
  s.speedup = json.at("speedup").as_number();
  s.accepted = json.at("accepted").as_bool();
  return s;
}

void write_step(JsonWriter& w, const TuningStep& s) {
  w.begin_object();
  w.key("index");
  w.value(s.index);
  w.key("mask");
  w.value(static_cast<std::uint64_t>(s.mask));
  w.key("observed_time");
  w.value(s.observed_time);
  w.key("speedup");
  w.value(s.speedup);
  w.key("accepted");
  w.value(s.accepted);
  w.end_object();
}

}  // namespace

Json outcome_to_json(const TuningOutcome& outcome) {
  JsonObject o;
  o["strategy"] = Json(outcome.strategy);
  o["workload"] = Json(outcome.workload);
  o["num_groups"] = Json(outcome.num_groups);
  o["num_tiers"] = Json(outcome.num_tiers);
  o["chosen_mask"] = Json(static_cast<std::uint64_t>(outcome.chosen_mask));
  {
    JsonArray tiers;
    for (const auto kind : outcome.chosen_placement.pools())
      tiers.push_back(Json(static_cast<int>(kind)));
    o["chosen_placement"] = Json(std::move(tiers));
  }
  o["chosen_time"] = Json(outcome.chosen_time);
  o["baseline_time"] = Json(outcome.baseline_time);
  o["speedup"] = Json(outcome.speedup);
  o["hbm_bytes"] = Json(outcome.hbm_bytes);
  o["hbm_usage"] = Json(outcome.hbm_usage);
  o["configs_measured"] = Json(outcome.configs_measured);
  o["measurements"] = Json(outcome.measurements);
  {
    JsonArray steps;
    for (const auto& s : outcome.trajectory) steps.push_back(step_to_json(s));
    o["trajectory"] = Json(std::move(steps));
  }
  {
    JsonArray table;
    for (const auto& c : outcome.table) table.push_back(config_to_json(c));
    o["table"] = Json(std::move(table));
  }
  if (outcome.sweep.has_value()) {
    JsonObject sweep;
    sweep["baseline_time"] = Json(outcome.sweep->baseline_time);
    sweep["num_groups"] = Json(outcome.sweep->num_groups);
    sweep["num_tiers"] = Json(outcome.sweep->num_tiers);
    JsonArray configs;
    for (const auto& c : outcome.sweep->configs)
      configs.push_back(config_to_json(c));
    sweep["configs"] = Json(std::move(configs));
    o["sweep"] = Json(std::move(sweep));
  }
  return Json(std::move(o));
}

void write_outcome(JsonWriter& w, const TuningOutcome& outcome) {
  // Field for field, in outcome_to_json's order.
  w.begin_object();
  w.key("strategy");
  w.value(outcome.strategy);
  w.key("workload");
  w.value(outcome.workload);
  w.key("num_groups");
  w.value(outcome.num_groups);
  w.key("num_tiers");
  w.value(outcome.num_tiers);
  w.key("chosen_mask");
  w.value(static_cast<std::uint64_t>(outcome.chosen_mask));
  w.key("chosen_placement");
  w.begin_array();
  for (const auto kind : outcome.chosen_placement.pools())
    w.value(static_cast<int>(kind));
  w.end_array();
  w.key("chosen_time");
  w.value(outcome.chosen_time);
  w.key("baseline_time");
  w.value(outcome.baseline_time);
  w.key("speedup");
  w.value(outcome.speedup);
  w.key("hbm_bytes");
  w.value(outcome.hbm_bytes);
  w.key("hbm_usage");
  w.value(outcome.hbm_usage);
  w.key("configs_measured");
  w.value(outcome.configs_measured);
  w.key("measurements");
  w.value(outcome.measurements);
  w.key("trajectory");
  w.begin_array();
  for (const auto& s : outcome.trajectory) write_step(w, s);
  w.end_array();
  w.key("table");
  w.begin_array();
  for (const auto& c : outcome.table) write_config(w, c);
  w.end_array();
  if (outcome.sweep.has_value()) {
    w.key("sweep");
    w.begin_object();
    w.key("baseline_time");
    w.value(outcome.sweep->baseline_time);
    w.key("num_groups");
    w.value(outcome.sweep->num_groups);
    w.key("num_tiers");
    w.value(outcome.sweep->num_tiers);
    w.key("configs");
    w.begin_array();
    for (const auto& c : outcome.sweep->configs) write_config(w, c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

TuningOutcome outcome_from_json(const Json& json) {
  TuningOutcome out;
  out.strategy = json.at("strategy").as_string();
  out.workload = json.at("workload").as_string();
  out.num_groups = static_cast<int>(json.at("num_groups").as_number());
  out.num_tiers = static_cast<int>(json.at("num_tiers").as_number());
  out.chosen_mask = static_cast<ConfigMask>(json.at("chosen_mask").as_number());
  {
    std::vector<topo::PoolKind> pools;
    for (const Json& tier : json.at("chosen_placement").as_array())
      pools.push_back(static_cast<topo::PoolKind>(
          static_cast<int>(tier.as_number())));
    out.chosen_placement = sim::Placement(std::move(pools));
  }
  out.chosen_time = json.at("chosen_time").as_number();
  out.baseline_time = json.at("baseline_time").as_number();
  out.speedup = json.at("speedup").as_number();
  out.hbm_bytes = json.at("hbm_bytes").as_number();
  out.hbm_usage = json.at("hbm_usage").as_number();
  out.configs_measured =
      static_cast<int>(json.at("configs_measured").as_number());
  out.measurements = static_cast<int>(json.at("measurements").as_number());
  for (const Json& step : json.at("trajectory").as_array())
    out.trajectory.push_back(step_from_json(step));
  for (const Json& config : json.at("table").as_array())
    out.table.push_back(config_from_json(config));
  if (const Json* sweep = json.as_object().find("sweep")) {
    SweepResult s;
    s.baseline_time = sweep->at("baseline_time").as_number();
    s.num_groups = static_cast<int>(sweep->at("num_groups").as_number());
    s.num_tiers = static_cast<int>(sweep->at("num_tiers").as_number());
    for (const Json& config : sweep->at("configs").as_array())
      s.configs.push_back(config_from_json(config));
    out.sweep = std::move(s);
  }
  return out;
}

}  // namespace hmpt::tuner
