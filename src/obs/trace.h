// trace.h — a lock-cheap, thread-safe Chrome trace-event recorder.
//
// One process-wide recorder collects spans (ph "B"/"E"), instant events
// (ph "i") and counter samples (ph "C") into per-thread buffers and
// renders them as Chrome trace-event JSON — the `{"traceEvents":[...]}`
// format chrome://tracing, Perfetto and speedscope all load directly.
//
// Design constraints, in order:
//   * Inert by default. Tracing is armed explicitly (--trace on the
//     tools); when disarmed, every record call is a single relaxed
//     atomic load and an untaken branch. Nothing the recorder does may
//     change tuner results: traced and untraced runs must produce
//     byte-identical runs.csv/summary.json/outcome stores (asserted by
//     tests and CI), so the trace file lives strictly outside the
//     content-addressed artefact set.
//   * Lock-cheap when armed. Each thread appends to its own buffer; the
//     only shared lock is taken once per thread (registration) and the
//     per-buffer mutex is uncontended except against the stop-time
//     drain.
//   * Timestamps are steady_clock microseconds since arm time, so they
//     are monotonic per thread and comparable across threads.
//
// Usage:
//   TraceRecorder::instance().start();
//   { TraceSpan span("campaign", "scenario");
//     span.arg("fingerprint", fp); ... }      // B at ctor, E at dtor
//   trace_instant("scheduler", "dispatch", {{"fingerprint", fp}});
//   trace_counter("scheduler", "queue_depth", depth);
//   TraceRecorder::instance().stop_and_write("trace.json");
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

namespace hmpt::obs {

namespace detail {
/// The global arm flag; relaxed loads keep the disarmed fast path to one
/// atomic read. Owned by TraceRecorder.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// Is tracing armed? Inline so instrumented hot paths pay one relaxed
/// atomic load when tracing is off.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// One key/value argument of an event. Values are strings; number()
/// builds one that renders as a bare JSON number, in common/json's number
/// format (null when not finite).
struct TraceArg {
  std::string key;
  std::string value;
  bool is_number = false;

  TraceArg(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}
  TraceArg(std::string k, const char* v) : key(std::move(k)), value(v) {}
  static TraceArg number(std::string key, double value);
  static TraceArg number(std::string key, std::uint64_t value);
};

class TraceRecorder {
 public:
  /// The process-wide recorder (leaky singleton: worker threads may
  /// record during static destruction of other objects).
  static TraceRecorder& instance();

  /// Arm recording: clear any previous session's events and reset the
  /// timestamp origin. Idempotent while armed.
  void start();

  bool enabled() const { return trace_enabled(); }

  /// Disarm and render everything collected as one Chrome trace JSON
  /// document. Unclosed spans get a synthetic "E" at the thread's last
  /// timestamp, so the event stream is always balanced.
  std::string stop_and_render();

  /// stop_and_render() to a file; throws hmpt::Error when unwritable.
  void stop_and_write(const std::string& path);

  /// Record one event into the calling thread's buffer (no-op when
  /// disarmed). `ph` is the Chrome phase letter; args_json is the
  /// pre-rendered body of the "args" object ("" = no args).
  void record(char ph, const char* cat, const std::string& name,
              std::string args_json);

  /// Render an initializer list of args to the JSON body record() takes.
  static std::string render_args(std::initializer_list<TraceArg> args);

  /// Current timestamp in microseconds since the recorder was armed.
  std::uint64_t now_us() const;

 private:
  TraceRecorder();
  struct Impl;
  Impl* impl_;  // leaky (never freed): see instance()
};

/// RAII span: "B" on construction, "E" on destruction, both into the
/// constructing thread's lane. Args added via arg() ride on the "E"
/// event, so a span can record what it learned while running (status,
/// cache hits). All calls are no-ops when tracing is disarmed.
class TraceSpan {
 public:
  TraceSpan(const char* cat, std::string name);
  TraceSpan(const char* cat, std::string name,
            std::initializer_list<TraceArg> args);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span is actually recording.
  bool armed() const { return armed_; }

  void arg(const std::string& key, const std::string& value);
  void arg(const std::string& key, const char* value);
  void arg_number(const std::string& key, double value);
  void arg_number(const std::string& key, std::uint64_t value);

 private:
  void append(const TraceArg& a);

  bool armed_ = false;
  const char* cat_ = "";
  std::string name_;
  std::string args_;  ///< accumulated body for the closing "E" event
};

/// A zero-duration event on the calling thread's lane (ph "i", thread
/// scope).
void trace_instant(const char* cat, const std::string& name,
                   std::initializer_list<TraceArg> args = {});

/// A counter sample (ph "C"): Perfetto draws these as a stepped series.
void trace_counter(const char* cat, const std::string& name, double value);

}  // namespace hmpt::obs
