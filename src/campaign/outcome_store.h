// outcome_store.h — the content-addressed cache of finished scenarios.
//
// One logical record per scenario, keyed by the scenario fingerprint and
// holding the scenario that produced it (for human inspection and sanity
// checks) plus the serialised TuningOutcome. The fingerprint is the key:
// --resume asks contains()/load() before executing, and anything that
// changes the experiment (workload parameters, platform, strategy, tier
// count, budgets, repetitions, top-k, the format version) changes the
// fingerprint and so misses the cache.
//
// Two on-disk formats hold the same records byte-for-byte, selected per
// store (`hmpt_campaign --store-format`):
//
//   * Dir (the default): one file per scenario under
//     <dir>/outcomes/<fingerprint>.json. Writes go through an fsynced
//     unique temp file published by an atomic link, so a campaign killed
//     mid-save never leaves a half-written outcome for the next --resume
//     to trust, and concurrent writers of one fingerprint (a daemon
//     worker racing a batch run, two attached clients) are safe: the
//     first complete write wins, identical bytes are a silent no-op,
//     differing bytes fail loudly instead of silently picking a winner.
//
//   * Packed: one append-only <dir>/outcomes.log of length-prefixed
//     records plus a fingerprint → offset index <dir>/outcomes.idx
//     (append-only in steady state, rebuilt and published by atomic
//     rename when stale). One file per scenario stops scaling around
//     10^5 scenarios — the packed log keeps fleet-scale campaigns to two
//     files and gives the aggregator/merger one sequential bulk load.
//     Appends land under an exclusive flock and cost O(1) however long
//     the log is; a torn tail from a crash mid-append is skipped on load
//     (the same discipline as the service job journal) and truncated
//     away by the next append, so re-execution repairs it.
//
// Writes are split in two steps, the same for both formats:
//
//   * append() makes a record visible to every reader of the store and
//     runs the first-write-wins conflict check (under the flock for
//     packed stores). It is durable at once for dir stores; for packed
//     stores it is durable only after the next sync().
//   * sync() makes every record appended before the call durable: one
//     fsync of the log, however many records it covers (a no-op for dir
//     stores, and when nothing was appended since the last sync). A
//     failed fsync is never retried: the error sticks, and every later
//     append() and sync() on the store throws it.
//
// save() is append() followed by sync(), so a record is durable when
// save() returns. A batch writer (the campaign runner, hmpt_merge)
// appends many records and syncs once; a record lost to a crash before
// its sync reads as absent and is re-executed — never wrong, since
// outcomes are deterministic.
//
// Both formats store identical payload bytes for identical outcomes, so
// a store can be converted losslessly between formats (hmpt_merge reads
// either and writes either) and merged artefacts stay byte-identical
// whatever mix of formats the shards used. First-write-wins byte-compare
// semantics hold in both: racing identical writes are no-ops, a
// well-formed conflicting write for an existing fingerprint throws.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scenario.h"
#include "core/strategy.h"

namespace hmpt::campaign {

/// On-disk layout of an OutcomeStore; see the file comment.
enum class StoreFormat { Dir, Packed };

/// The CLI spelling ("dir"/"packed").
const char* to_string(StoreFormat format);
/// Parse the CLI spelling; throws hmpt::Error on anything else.
StoreFormat store_format_from(const std::string& text);

/// Detect the format of an existing store at `directory`: Packed when
/// outcomes.log exists, Dir when outcomes/ exists, nullopt when neither
/// does (no store yet).
std::optional<StoreFormat> detect_store_format(const std::string& directory);

class OutcomeStore {
 public:
  /// Open the store under `directory` in `format`. Purely nominal:
  /// directories/files are created on the first save(), so opening (or
  /// dry-run planning against) a store writes nothing. Throws hmpt::Error
  /// when the directory already holds a store of the *other* format —
  /// silently shadowing existing outcomes would defeat --resume.
  explicit OutcomeStore(std::string directory,
                        StoreFormat format = StoreFormat::Dir);

  /// Open an existing store, auto-detecting its format (Dir when the
  /// directory holds no store yet).
  static OutcomeStore open_existing(const std::string& directory);

  /// The store's root directory.
  const std::string& directory() const;
  /// The on-disk layout this store reads and writes.
  StoreFormat format() const;

  /// Dir format only: the on-disk path of a scenario's outcome file,
  /// <dir>/outcomes/<fingerprint>.json. Throws for a packed store, whose
  /// scenarios have no per-scenario file.
  std::string path_for(const Scenario& scenario) const;

  bool contains(const Scenario& scenario) const;
  /// Load a cached outcome; nullopt when absent or damaged (a damaged
  /// record reads as a miss so the scenario re-executes — dir stores
  /// quarantine the file to <fingerprint>.json.corrupt, packed stores
  /// supersede the record on the repairing save).
  std::optional<tuner::TuningOutcome> load(const Scenario& scenario) const;
  /// Load by content address alone (the daemon's `result <fingerprint>`
  /// path, where no Scenario is in hand); nullopt when absent or damaged
  /// like load().
  std::optional<tuner::TuningOutcome> load_by_fingerprint(
      const std::string& fingerprint) const;
  /// Persist a finished scenario durably: append() then sync(). First
  /// complete write of a fingerprint wins; a racing identical write is a
  /// silent no-op, a differing one throws hmpt::Error (see the file
  /// comment).
  void save(const Scenario& scenario,
            const tuner::TuningOutcome& outcome) const;
  /// Add a finished scenario's record, visible to readers and
  /// conflict-checked like save(), but durable only once sync() returns
  /// (at once for dir stores).
  void append(const Scenario& scenario,
              const tuner::TuningOutcome& outcome) const;
  /// Make every record appended before the call durable (one fsync of a
  /// packed log; a no-op for dir stores). Throws hmpt::Error when the
  /// fsync fails, and keeps throwing it: a failed fsync is never retried.
  void sync() const;

  // Payload-level access: the raw stored document bytes, identical
  // across formats for identical outcomes. This is the merge/report
  // currency — byte-compares and cross-format conversion never
  // re-serialise, so they cannot silently normalise away a difference.

  /// The stored payload bytes of a fingerprint; nullopt when absent or
  /// structurally damaged.
  std::optional<std::string> payload(const std::string& fingerprint) const;
  /// Append raw payload bytes under a fingerprint with the same
  /// first-write-wins byte-compare semantics as append(): visible and
  /// conflict-checked, durable after the next sync(). The caller owns
  /// payload/fingerprint consistency (merge copies validated records).
  void append_payload(const std::string& fingerprint,
                      const std::string& payload) const;
  /// Bulk load of every (fingerprint, payload) in the store, sorted by
  /// fingerprint — one sequential pass for packed stores, one directory
  /// walk for dir stores. Damaged records are skipped.
  std::vector<std::pair<std::string, std::string>> load_all_payloads() const;

  /// The document bytes save() would store for this (scenario, outcome):
  /// format_version + fingerprint + scenario + outcome as pretty JSON.
  static std::string make_payload(const Scenario& scenario,
                                  const tuner::TuningOutcome& outcome);

 private:
  // Copyable value semantics over a shared backend (Scheduler and tests
  // pass stores by value); the backend is internally synchronised.
  std::shared_ptr<class OutcomeStoreBackend> backend_;
};

}  // namespace hmpt::campaign
