// daemon.h — the hmptd server: sockets in, scheduled tuning out.
//
// Accepts NDJSON protocol connections (protocol.h) on a Unix-domain or
// TCP endpoint, one handler thread per connection, and drives a bounded
// Scheduler over an ExecutionProvider. The daemon owns the glue only:
// request parsing to structured errors (malformed input never kills the
// server), watch-subscription fan-out (a subscriber that disconnects
// mid-stream is dropped, never fatal), per-connection client identities
// for admission control, and the drain/shutdown lifecycle:
//
//   drain     stop admitting, finish every in-flight job, then reply
//             {"drained":true}; the daemon stays up for queries.
//   shutdown  reply, then drain and exit: listener closes, workers join,
//             watchers get {"event":"shutdown"}, connections close.
//
// Embeddable by design: tests (and tools/hmptd) run the daemon in-process
// via start()/wait_for()/request_shutdown().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/journal.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/socket.h"

namespace hmpt::service {

struct DaemonOptions {
  Endpoint endpoint;                  ///< where to listen
  std::string store_dir = "hmptd-out";  ///< OutcomeStore directory
  int workers = 1;                    ///< scheduler worker pool size
  int max_in_flight = 256;            ///< per-client admission cap
  std::size_t max_queue = 4096;       ///< global queue capacity
  /// Latency-store class-map bound (LRU past it; see latency_store.h).
  std::size_t latency_classes = LatencyStore::kDefaultMaxClasses;
  /// Default failure model for every job (per-job submit overrides
  /// apply on top); the default is fail-fast (one attempt, no deadline).
  RetryPolicy retry;
  /// Crash-safe job journal path; empty = journaling disabled. With a
  /// journal, every submit is fsync'd before its ack and start() replays
  /// acked-but-unfinished jobs from a previous (crashed) run.
  std::string journal_path;
  /// Periodic metrics snapshots: every `metrics_interval_s` the daemon
  /// rewrites `metrics_path` (atomically, via rename) with the same JSON
  /// document the `stats` verb serves, plus one final snapshot at
  /// teardown. Empty = disabled. Purely observational — never consulted
  /// by the scheduler and never part of the outcome artefact set.
  std::string metrics_path;
  double metrics_interval_s = 5.0;
};

class Daemon {
 public:
  /// `provider` null = own a SimulatorProvider, the only in-tree
  /// backend; tests inject counting/slow providers here.
  explicit Daemon(DaemonOptions options,
                  ExecutionProvider* provider = nullptr);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the endpoint and start accepting + executing. Returns once the
  /// socket is live (a client connecting after start() is never refused),
  /// serving on background threads. Throws hmpt::Error on bind failure.
  void start();

  /// The bound endpoint (the actual port for TCP port-0 binds).
  const Endpoint& endpoint() const;

  /// Ask the daemon to shut down (thread-safe; the `shutdown` op and the
  /// tool's signal loop both land here). Returns immediately.
  void request_shutdown();

  /// Wait up to `timeout_ms` for full shutdown; true once torn down.
  /// wait_for(-1) blocks until shutdown. The first waiter to observe the
  /// request performs the teardown (drain, join, close).
  bool wait_for(int timeout_ms);

  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }

  /// Jobs re-admitted from the journal by start(); 0 without a journal.
  std::size_t replayed_jobs() const { return replayed_jobs_; }

 private:
  /// One accepted client connection, shared with the watch callback.
  struct Connection {
    Socket socket;
    std::mutex write_mutex;
    std::atomic<bool> dead{false};
    std::atomic<bool> watching{false};
    std::uint64_t subscriber_token = 0;
    Scheduler::ClientId client = 0;

    /// Serialised write; a failure marks the connection dead (the reader
    /// loop notices and tears it down) and is never fatal to the daemon.
    bool send(const std::string& line);
  };

  void accept_loop();
  void handle_connection(const std::shared_ptr<Connection>& connection);
  /// Parse + dispatch one request line, sending the response (or a
  /// structured error) on the connection.
  void handle_request(const std::shared_ptr<Connection>& connection,
                      const std::string& line);
  void handle_submit(const std::shared_ptr<Connection>& connection,
                     const Request& request);
  void handle_result(const std::shared_ptr<Connection>& connection,
                     const Request& request);
  void start_watch(const std::shared_ptr<Connection>& connection);
  /// Broadcast a lifecycle event line to every live watch subscriber.
  void broadcast_event(const std::string& line);
  void teardown();
  /// The `stats` response body: scheduler counters, worker utilization,
  /// queue-depth distribution, cache tallies, per-class latency digests
  /// and the metrics-registry snapshot. Shared by the wire handler and
  /// the --metrics-file writer so both views always agree.
  JsonObject stats_fields() const;
  /// Atomically rewrite options_.metrics_path with stats_fields().
  /// Best-effort: an unwritable path never fails a job or the daemon.
  void write_metrics_snapshot() const;
  void metrics_loop();

  DaemonOptions options_;
  std::unique_ptr<ExecutionProvider> owned_provider_;
  ExecutionProvider* provider_ = nullptr;
  /// Declared before scheduler_: completion callbacks write terminal
  /// records during scheduler teardown, so the journal must die last.
  std::unique_ptr<JobJournal> journal_;
  std::uint64_t journal_token_ = 0;
  std::size_t replayed_jobs_ = 0;
  std::unique_ptr<Scheduler> scheduler_;
  std::optional<Listener> listener_;
  Endpoint bound_;

  std::thread accept_thread_;
  std::thread metrics_thread_;  ///< --metrics-file writer; may be empty
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::list<std::thread> handlers_;
  std::uint64_t next_conn_ = 0;  ///< handler-thread naming only

  std::mutex lifecycle_mutex_;
  std::condition_variable lifecycle_;
  bool started_ = false;
  bool stop_requested_ = false;
  bool stopped_ = false;
  bool tearing_down_ = false;
};

}  // namespace hmpt::service
