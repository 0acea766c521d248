// retry.h — the one failure model of the execution stack.
//
// Everything that retries, times out, or cancels in this codebase goes
// through the three types here, so the hmptd scheduler and the client
// tools agree on what "transient" means and back off the same way. (The
// batch campaign runner does not retry: its scenarios are deterministic,
// so a second attempt repeats the first one's error.)
//
//   * RetryPolicy — attempt budget, exponential backoff with
//     *deterministic* seeded jitter (mix_seed + xoshiro, a pure function
//     of (seed, stream, attempt) — two runs of the same campaign sleep
//     the same schedule), a per-attempt deadline and a total wall-clock
//     budget across attempts.
//   * CancelToken — cooperative cancellation + deadline in one object.
//     Work checks check() at its yield points (throws hmpt::Error with a
//     "canceled:" or "timeout:" prefix past the deadline) and sleeps via
//     sleep_for(), which wakes early on cancel — a timed-out or canceled
//     job stops burning its worker instead of finishing a doomed run.
//   * attempt_with_retries() — the retry loop itself: runs a callable
//     under a fresh per-attempt token, records an AttemptRecord per
//     failure, classifies errors (terminal errors never retry), backs
//     off per the policy, and returns the value plus the full attempt
//     history.
//
// Error classification is by message prefix, matching the protocol's
// prefix-tagged errors: "terminal:" and determinism violations
// ("conflicting outcome") never retry; "canceled:" aborts the loop;
// everything else — including "timeout:" — is transient and retried
// while budget remains.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace hmpt {

/// How (and whether) to retry a failing operation. The default policy is
/// one attempt, no deadline — exactly the pre-fault-tolerance behaviour.
struct RetryPolicy {
  int max_attempts = 1;           ///< total attempts (>= 1), not "extra"
  double initial_backoff_s = 0.05;  ///< sleep after the first failure
  double backoff_multiplier = 2.0;  ///< exponential growth per attempt
  double max_backoff_s = 5.0;       ///< backoff cap
  double jitter = 0.25;           ///< +/- fraction of the backoff, seeded
  std::uint64_t seed = 0;         ///< jitter stream seed (deterministic)
  /// Per-attempt deadline; 0 = none. Each attempt's CancelToken expires
  /// this many seconds after the attempt starts.
  double attempt_deadline_s = 0.0;
  /// Total wall-clock budget across attempts *and* backoff sleeps;
  /// 0 = none. An exhausted budget stops retrying (and caps the last
  /// attempt's deadline), reported as a timeout.
  double total_deadline_s = 0.0;

  /// The backoff before attempt `attempt + 1` (attempt is 1-based: the
  /// sleep after the attempt-th failure). Deterministic in
  /// (seed, stream, attempt): exponential base, multiplied by a jitter
  /// factor drawn from mix_seed(seed, stream, attempt), capped at
  /// max_backoff_s. `stream` identifies the job (e.g. a fingerprint
  /// hash) so concurrent jobs don't back off in lockstep.
  double backoff_s(int attempt, std::uint64_t stream = 0) const;

  /// Throws hmpt::Error on nonsensical settings (attempts < 1, negative
  /// times, jitter outside [0, 1)).
  void validate() const;
};

/// One failed attempt, kept for the job's failure report.
struct AttemptRecord {
  int attempt = 0;        ///< 1-based
  std::string error;      ///< what the attempt threw
  double seconds = 0.0;   ///< attempt wall time
};

/// "attempt 1: <err> (0.12s); attempt 2: ..." — the attempt history as
/// one line, for `failed: ...` job reports.
std::string format_attempts(const std::vector<AttemptRecord>& attempts);

/// True for errors that must never be retried: messages carrying a
/// "terminal:" or "canceled:" prefix (anywhere — wrapped errors keep
/// their classification) and outcome-store determinism violations
/// ("conflicting outcome"). Everything else is transient.
bool is_terminal_error(const std::string& what);

/// Cooperative cancellation + deadline. Copies share state: the worker
/// holds one end, the canceller (scheduler stop, a deadline) the other.
/// All operations are thread-safe.
class CancelToken {
 public:
  CancelToken();

  /// Arm (or tighten) the deadline `seconds` from now. The earliest
  /// deadline wins; never loosens an existing one.
  void set_deadline_after(double seconds);

  /// Request cancellation; wakes every sleep_for(). Idempotent.
  void cancel();

  bool canceled() const;          ///< cancel() was called
  bool expired() const;           ///< the deadline has passed
  /// Seconds until the deadline; infinity when none is set, <= 0 when
  /// already expired.
  double remaining_s() const;

  /// Throw hmpt::Error "canceled: ..." / "timeout: ..." when canceled or
  /// past the deadline; return otherwise. Work calls this at its yield
  /// points (loop heads, between phases).
  void check() const;

  /// Sleep up to `seconds`, waking early on cancel() or the deadline.
  /// Returns true when the full sleep elapsed, false when interrupted.
  bool sleep_for(double seconds) const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// The outcome of attempt_with_retries: the value on success, and the
/// failure history either way (empty when the first attempt succeeded).
template <typename T>
struct Attempted {
  std::optional<T> value;
  std::vector<AttemptRecord> attempts;  ///< one record per *failed* attempt

  bool ok() const { return value.has_value(); }
  /// Total attempts made (failed + the successful one, if any).
  int attempt_count() const {
    return static_cast<int>(attempts.size()) + (ok() ? 1 : 0);
  }
};

namespace detail {

/// The non-template core of attempt_with_retries: drives the attempt /
/// classify / backoff loop. `body` runs one attempt under its token and
/// returns true on success (the template wrapper stores the value).
Attempted<bool> run_attempts(
    const RetryPolicy& policy, std::uint64_t stream,
    const std::function<bool(const CancelToken&)>& body,
    const CancelToken* parent);

}  // namespace detail

/// Run `fn` under the policy: fresh CancelToken per attempt (armed with
/// the per-attempt deadline and the remaining total budget), exceptions
/// recorded as AttemptRecords, terminal errors and an exhausted budget
/// stop the loop, transient errors back off deterministically and retry.
/// `stream` seeds the jitter (use a per-job id); `parent`, when given, is
/// observed between and during attempts — cancelling it cancels the
/// attempt tokens and stops the loop.
template <typename Fn>
auto attempt_with_retries(const RetryPolicy& policy, std::uint64_t stream,
                          Fn&& fn, const CancelToken* parent = nullptr)
    -> Attempted<decltype(fn(std::declval<const CancelToken&>()))> {
  using T = decltype(fn(std::declval<const CancelToken&>()));
  Attempted<T> result;
  auto core = detail::run_attempts(
      policy, stream,
      [&](const CancelToken& token) {
        result.value = fn(token);
        return true;
      },
      parent);
  result.attempts = std::move(core.attempts);
  if (!core.ok()) result.value.reset();
  return result;
}

/// FNV-1a of a string as a jitter/fault stream id — the same hash the
/// scenario fingerprint uses, so "stream = fingerprint" is one call.
std::uint64_t stream_of(const std::string& text);

}  // namespace hmpt
