// protocol.h — the NDJSON request/response protocol of hmptd.
//
// Framing is line-oriented JSON (NDJSON): every request, response and
// streamed event is one compact JSON object on one '\n'-terminated line,
// read and written with common/json. Requests carry an "op"; responses
// echo it with "ok" true/false ("error" holds the message on failure);
// watch subscriptions additionally receive "event" lines that are not
// responses to any request. Scenario payloads reuse the campaign
// serialisation, and jobs are identified by the scenario's content-
// addressed fingerprint — the same key the on-disk OutcomeStore uses, so
// resubmitting a finished scenario is answered from the store.
//
// The full message reference lives in docs/SERVICE.md; parse_request is
// deliberately strict (unknown op, wrong field kinds, missing fields all
// throw hmpt::Error) so the daemon can answer malformed input with a
// structured error instead of crashing or guessing.
#pragma once

#include <optional>
#include <string>

#include "campaign/scenario.h"
#include "common/json.h"

namespace hmpt::tuner {
struct TuningOutcome;
}  // namespace hmpt::tuner

namespace hmpt::service {

/// Protocol revision, echoed by `ping`; bump on any wire-visible change.
/// 2: submit carries optional per-job limits ("deadline_s", "attempts");
///    status/stats surface retry counters and job attempt counts.
/// 3: stats gains worker utilization, a queue-depth distribution,
///    cache-hit tallies, per-class attempt/retry/timeout counters and
///    the full metrics-registry snapshot; empty latency distributions
///    report "count" only (no fabricated zero quantiles).
inline constexpr int kProtocolVersion = 3;

/// Every request the daemon understands.
enum class Op {
  Submit,    ///< enqueue a scenario or a whole campaign matrix
  Status,    ///< scheduler counters, or one job's state
  Result,    ///< fetch a finished outcome by fingerprint (optionally wait)
  Watch,     ///< subscribe this connection to completion events
  Stats,     ///< latency digests per scenario class + queue ETA
  Cancel,    ///< cancel a queued job
  Drain,     ///< finish all admitted work, admit nothing new, then reply
  Shutdown,  ///< drain, then stop the daemon
  Ping,      ///< liveness + protocol version
};

/// The wire spelling of an op ("submit", "status", ...).
const char* to_string(Op op);
/// Parse a wire spelling; nullopt for unknown ops.
std::optional<Op> parse_op(const std::string& text);

/// One parsed request line.
struct Request {
  Op op = Op::Ping;
  /// Submit: exactly one of `scenario` (a campaign-serialised scenario
  /// object) or `campaign` (the text of a campaign file, expanded
  /// server-side) is present.
  std::optional<campaign::Scenario> scenario;
  std::string campaign_text;
  /// Submit: dispatch priority (higher first, FIFO within a priority).
  int priority = 0;
  /// Submit: total wall-clock budget per job in seconds (attempts plus
  /// backoff); < 0 = the daemon's default.
  double deadline_s = -1.0;
  /// Submit: provider attempt budget per job; 0 = the daemon's default.
  int attempts = 0;
  /// Status/Result/Cancel: the job's fingerprint (optional for Status).
  std::string fingerprint;
  /// Result: block until the job is terminal instead of failing fast.
  bool wait = false;

  /// The request as one compact NDJSON line (with trailing '\n') —
  /// dump_request(parse_request(line)) round-trips every field.
  std::string to_line() const;
};

/// Parse one NDJSON request line (the '\n' may be present or stripped).
/// Throws hmpt::Error with a client-presentable message on invalid JSON,
/// a non-object document, a missing/unknown op, or malformed fields.
Request parse_request(const std::string& line);

// Response and event lines are streamed straight from their parts. A
// member of `fields`/`extra` named like a header key ("ok", "op", ...)
// replaces that key's value in place; the others follow the header in
// their own order.

/// Success response: {"ok":true,"op":...} plus `fields`, one line.
std::string ok_line(Op op, const JsonObject& fields = {});
/// The success response of `result`: ok_line(Op::Result, fields) with
/// the outcome appended as a last "outcome" member, written straight from
/// the struct (tuner::write_outcome). `fields` must not hold "outcome".
std::string result_line(const JsonObject& fields,
                        const tuner::TuningOutcome& outcome);
/// Error response: {"ok":false,"op":...,"error":...} plus `fields`
/// (e.g. the non-terminal "state" of a fast-failed `result`). `op_text`
/// is the wire op spelling, or "?" when the request never parsed that far.
std::string error_line(const std::string& error,
                       const std::string& op_text = "?",
                       const JsonObject& fields = {});

/// One streamed completion event (watch subscribers): event "job" with
/// the job's fingerprint, label, terminal state and timing; `extra`
/// appends e.g. "speedup" or "error".
std::string job_event_line(const std::string& fingerprint,
                           const std::string& label,
                           const std::string& state, double seconds,
                           const JsonObject& extra = {});
/// A bare lifecycle event line: {"event":<name>} ("drained", "shutdown").
std::string event_line(const std::string& name);

/// A parsed response or event line, as the client sees it.
struct ServerMessage {
  bool is_event = false;   ///< event line (watch stream) vs response
  std::string event;       ///< event name when is_event
  bool ok = false;         ///< response success flag
  std::string op;          ///< echoed op ("?" when the server never knew)
  std::string error;       ///< error message when !ok
  Json body;               ///< the whole document, for op-specific fields
};

/// Parse any server-to-client line. Throws hmpt::Error on invalid JSON or
/// a document that is neither a response nor an event.
ServerMessage parse_server_message(const std::string& line);

}  // namespace hmpt::service
