#include "obs/metrics.h"

namespace hmpt::obs {

MetricsRegistry& MetricsRegistry::instance() {
  // Leaky, like the trace recorder: metrics may be recorded from worker
  // threads during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Json MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonObject out;
  JsonObject counters;
  for (const auto& [name, value] : counters_)
    counters[name] = Json(value->value());
  out["counters"] = Json(std::move(counters));
  JsonObject gauges;
  for (const auto& [name, value] : gauges_)
    gauges[name] = Json(value->value());
  out["gauges"] = Json(std::move(gauges));
  JsonObject histograms;
  for (const auto& [name, value] : histograms_)
    histograms[name] = Json(snapshot_to_json(value->snapshot()));
  out["histograms"] = Json(std::move(histograms));
  return Json(std::move(out));
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, value] : counters_) {
    (void)name;
    value->reset();
  }
  for (auto& [name, value] : gauges_) {
    (void)name;
    value->reset();
  }
  for (auto& [name, value] : histograms_) {
    (void)name;
    value->reset();
  }
}

JsonObject snapshot_to_json(const ConcurrentQuantileTracker::Snapshot& snap,
                            const std::string& suffix) {
  JsonObject fields;
  fields["count"] = Json(static_cast<std::uint64_t>(snap.count));
  // Empty distributions stop here: printing zero quantiles would read as
  // "the p99 is 0 seconds", which no sample supports.
  if (snap.count == 0) return fields;
  fields["mean" + suffix] = Json(snap.mean);
  fields["p50" + suffix] = Json(snap.p50);
  fields["p95" + suffix] = Json(snap.p95);
  fields["p99" + suffix] = Json(snap.p99);
  return fields;
}

}  // namespace hmpt::obs
