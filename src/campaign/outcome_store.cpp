#include "campaign/outcome_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/file_io.h"
#include "core/outcome_io.h"
#include "obs/trace.h"

namespace hmpt::campaign {

namespace fs = std::filesystem;

const char* to_string(StoreFormat format) {
  return format == StoreFormat::Packed ? "packed" : "dir";
}

StoreFormat store_format_from(const std::string& text) {
  if (text == "dir") return StoreFormat::Dir;
  if (text == "packed") return StoreFormat::Packed;
  raise("unknown store format '" + text + "' (expected dir or packed)");
}

std::optional<StoreFormat> detect_store_format(const std::string& directory) {
  std::error_code ec;
  if (fs::exists(fs::path(directory) / "outcomes.log", ec) && !ec)
    return StoreFormat::Packed;
  if (fs::is_directory(fs::path(directory) / "outcomes", ec) && !ec)
    return StoreFormat::Dir;
  return std::nullopt;
}

StoredRecord decode_payload(const std::string& bytes,
                            const std::string& fingerprint) {
  try {
    const Json doc = Json::parse(bytes);
    if (static_cast<int>(doc.at("format_version").as_number()) !=
        kFingerprintVersion)
      raise("outcome format version mismatch");
    if (doc.at("fingerprint").as_string() != fingerprint)
      raise("outcome record is keyed by a different fingerprint");
    return {Scenario::from_json(doc.at("scenario")),
            tuner::outcome_from_json(doc.at("outcome"))};
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    raise(e.what());
  }
}

namespace {

/// decode_payload() as a verdict: false (not a throw) on any damage, the
/// decoded outcome moved into `out` when non-null.
bool parse_outcome_payload(const std::string& text,
                           const std::string& fingerprint,
                           std::optional<tuner::TuningOutcome>* out) {
  try {
    auto record = decode_payload(text, fingerprint);
    if (out != nullptr) *out = std::move(record.outcome);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Move a damaged outcome file aside to `<path>.corrupt` so the
/// fingerprint reads as a miss and the scenario re-executes. A racing
/// quarantine of the same file (ENOENT) already succeeded; any other
/// rename failure throws — silently re-reading a corrupt file forever
/// would be worse than stopping.
void quarantine(const std::string& path) {
  const std::string target = path + ".corrupt";
  if (::rename(path.c_str(), target.c_str()) != 0 && errno != ENOENT)
    raise("cannot quarantine corrupt outcome file " + path + ": " +
          std::strerror(errno));
}

/// Write `data` to a fresh file at `path` and fsync it before returning,
/// so the bytes are durable before any rename/link publishes the name.
void write_durable(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    raise("cannot write outcome file " + path + ": " +
          std::strerror(errno));
  if (!write_all(fd, data)) {
    const int err = errno;
    ::close(fd);
    raise("short write to outcome file " + path + ": " + std::strerror(err));
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    raise("cannot fsync outcome file " + path + ": " + std::strerror(err));
  }
  if (::close(fd) != 0)
    raise("cannot close outcome file " + path + ": " + std::strerror(errno));
}

std::string dir_outcome_path(const std::string& directory,
                             const std::string& fingerprint) {
  return (fs::path(directory) / "outcomes" / (fingerprint + ".json"))
      .string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Backend interface

class OutcomeStoreBackend {
 public:
  explicit OutcomeStoreBackend(std::string directory)
      : directory_(std::move(directory)) {}
  virtual ~OutcomeStoreBackend() = default;

  virtual StoreFormat format() const = 0;
  virtual bool contains(const std::string& fingerprint) = 0;
  /// Raw stored payload bytes; nullopt when absent or damaged.
  virtual std::optional<std::string> payload(
      const std::string& fingerprint) = 0;
  /// The decoded outcome of a fingerprint; nullopt when absent or
  /// damaged, exactly when payload() is.
  virtual std::optional<tuner::TuningOutcome> load(
      const std::string& fingerprint) {
    const auto bytes = payload(fingerprint);
    std::optional<tuner::TuningOutcome> outcome;
    if (bytes) parse_outcome_payload(*bytes, fingerprint, &outcome);
    return outcome;
  }
  /// First-write-wins byte-compare append, visible to readers on
  /// return; durable once sync() returns. See the header.
  virtual void append_payload(const std::string& fingerprint,
                              const std::string& payload) = 0;
  /// Make every append made before the call durable. A no-op for
  /// backends whose appends are already durable.
  virtual void sync() {}
  /// Every well-formed (fingerprint, payload), sorted by fingerprint.
  virtual std::vector<std::pair<std::string, std::string>> load_all() = 0;

  const std::string& directory() const { return directory_; }

 protected:
  const std::string directory_;
};

namespace {

// ---------------------------------------------------------------------------
// Dir backend: one <fingerprint>.json per scenario under <dir>/outcomes/.

class DirBackend : public OutcomeStoreBackend {
 public:
  using OutcomeStoreBackend::OutcomeStoreBackend;

  StoreFormat format() const override { return StoreFormat::Dir; }

  bool contains(const std::string& fingerprint) override {
    std::error_code ec;
    return fs::exists(dir_outcome_path(directory_, fingerprint), ec) && !ec;
  }

  std::optional<std::string> payload(
      const std::string& fingerprint) override {
    return read_valid(fingerprint, nullptr);
  }

  // The validating parse already decodes the outcome: keep it, so a hit
  // parses its file once.
  std::optional<tuner::TuningOutcome> load(
      const std::string& fingerprint) override {
    std::optional<tuner::TuningOutcome> outcome;
    read_valid(fingerprint, &outcome);
    return outcome;
  }

  // Appends are durable on return (fsynced before the name is
  // published), so sync() is the base class no-op.
  void append_payload(const std::string& fingerprint,
                      const std::string& payload) override {
    // Directories appear on the first write, so opening a store (or
    // planning a dry run) never touches the filesystem.
    std::error_code mkdir_ec;
    fs::create_directories(fs::path(directory_) / "outcomes", mkdir_ec);
    if (mkdir_ec)
      raise("cannot create outcome store at " + directory_ + ": " +
            mkdir_ec.message());

    // The payload is fsynced into a unique scratch file before the name
    // is published.
    const std::string path = dir_outcome_path(directory_, fingerprint);
    const std::string tmp = scratch_name(path);
    write_durable(tmp, payload);

    // Publish with link(2), which atomically fails with EEXIST when
    // another writer got there first: outcomes are content-addressed, so
    // the loser compares bytes — an identical outcome is a silent no-op
    // (the normal same-fingerprint race), a differing *well-formed* one
    // is a determinism violation that must fail loudly rather than
    // silently pick a winner. A differing *damaged* file (truncated by a
    // crash or external interference) is quarantined and the publish
    // retried once.
    for (int tries = 0;; ++tries) {
      if (::link(tmp.c_str(), path.c_str()) == 0) {
        ::unlink(tmp.c_str());
        return;
      }
      const int link_errno = errno;
      if (link_errno != EEXIST) {
        ::unlink(tmp.c_str());
        raise("cannot finalise outcome file " + path + ": " +
              std::strerror(link_errno));
      }
      const std::string existing = read_file(path).value_or("");
      if (existing == payload) {
        ::unlink(tmp.c_str());
        return;
      }
      if (tries == 0 &&
          !parse_outcome_payload(existing, fingerprint, nullptr)) {
        quarantine(path);
        continue;
      }
      ::unlink(tmp.c_str());
      raise("conflicting outcome for fingerprint " + fingerprint + ": " +
            path + " already holds a different result (delete it to re-run)");
    }
  }

  std::vector<std::pair<std::string, std::string>> load_all() override {
    std::map<std::string, std::string> sorted;
    std::error_code ec;
    fs::directory_iterator it(fs::path(directory_) / "outcomes", ec);
    if (ec) return {};
    for (const fs::directory_iterator end; it != end; it.increment(ec)) {
      if (ec) break;
      const fs::path path = it->path();
      if (path.extension() != ".json") continue;
      const std::string fingerprint = path.stem().string();
      auto text = read_file(path.string());
      // Damaged files are skipped, not quarantined: bulk loads (merge,
      // reports) must not mutate the store they read.
      if (!text || !parse_outcome_payload(*text, fingerprint, nullptr))
        continue;
      sorted[fingerprint] = std::move(*text);
    }
    return {sorted.begin(), sorted.end()};
  }

 private:
  /// The stored bytes of a fingerprint after a validating parse, which
  /// also decodes the outcome into `out` when non-null; nullopt when
  /// absent or damaged.
  std::optional<std::string> read_valid(
      const std::string& fingerprint,
      std::optional<tuner::TuningOutcome>* out) {
    const std::string path = dir_outcome_path(directory_, fingerprint);
    auto text = read_file(path);
    if (!text) return std::nullopt;
    if (!parse_outcome_payload(*text, fingerprint, out)) {
      // Truncated or otherwise damaged (a crash mid-copy, external
      // interference): quarantine and report a miss — the caller
      // re-executes the scenario instead of the whole campaign aborting.
      quarantine(path);
      return std::nullopt;
    }
    return text;
  }
};

// ---------------------------------------------------------------------------
// Packed backend: <dir>/outcomes.log + <dir>/outcomes.idx.
//
// Log record framing (the log is the authoritative store):
//
//   hmpt1 <fingerprint> <payload-bytes>\n
//   <payload>\n
//
// Records only ever land at the end of the log, under an exclusive
// flock; sync() fsyncs the log up to the last append. A crash
// mid-append (or before the fsync) leaves a torn tail: readers scan
// records sequentially and stop at the first frame that does not decode
// (short header, bad magic, payload running past EOF, missing trailing
// newline), so a torn tail reads as "those scenarios are absent" —
// exactly the job-journal discipline. The next append truncates the
// torn bytes and appends from the clean boundary. A record whose frame
// is intact but whose payload bytes are damaged is superseded by
// appending a fresh record for the same fingerprint; the latest
// decodable record for a fingerprint wins.
//
// Records before the clean end are never rewritten (the log is
// append-only, and truncation only cuts a torn tail past the last clean
// boundary), so readers and writers alike keep their map current with
// one catch-up routine that scans only the bytes past the clean end they
// know: O(1) work per call however long the log is. The map starts over
// only when the path names a different file (the store was deleted and
// recreated, or another log renamed over it) or the log was cut below
// that clean end, which shows as the frame ending there no longer
// reading in place; a writer also rescans from offset 0 before trusting
// entries primed from the index.
//
// outcomes.idx is a disposable cache: one "<fingerprint> <offset>
// <payload-bytes>" line per durable record, appended one batch per
// sync() in steady state so a reopening reader can prime its map with
// one sequential read instead of seeking through every record header.
// Readers validate it cheaply (strictly increasing offsets from 0,
// deep-check of the final entry against the log) and fall back to
// scanning the log wherever it falls short; a lying entry is caught at
// payload-read time (the record header is re-verified) and triggers one
// full rescan. Writers rebuild it from the log and publish by atomic
// rename whenever appending is unsafe (first sync of a process, after a
// tail truncation, concurrent-writer drift).

constexpr const char* kRecordMagic = "hmpt1";
constexpr std::uint64_t kMaxHeaderBytes = 128;

/// Strict decimal: digits only, no sign/whitespace, fits in 63 bits.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty() || text.size() > 19) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Read up to `size` bytes at `offset`, retrying short and
/// EINTR-interrupted reads; the count read (short at EOF or on error).
std::size_t pread_full(int fd, char* buffer, std::size_t size,
                       std::uint64_t offset) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd, buffer + got, size - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

struct RecordHeader {
  std::string fingerprint;
  std::uint64_t payload_size = 0;
  std::uint64_t header_size = 0;  ///< bytes up to and including the '\n'
  std::uint64_t end = 0;          ///< log offset just past the frame
};

/// Decode the record header at `offset` of the first `log_size` bytes of
/// the log open at `fd`; nullopt on any framing damage.
std::optional<RecordHeader> read_record_header(int fd, std::uint64_t offset,
                                               std::uint64_t log_size) {
  if (offset >= log_size) return std::nullopt;
  char buffer[kMaxHeaderBytes];
  const std::size_t got = pread_full(
      fd, buffer, std::min<std::uint64_t>(kMaxHeaderBytes, log_size - offset),
      offset);
  const char* newline =
      static_cast<const char*>(std::memchr(buffer, '\n', got));
  if (newline == nullptr) return std::nullopt;
  const std::string line(buffer, static_cast<std::size_t>(newline - buffer));
  const auto magic_end = line.find(' ');
  if (magic_end == std::string::npos ||
      line.substr(0, magic_end) != kRecordMagic)
    return std::nullopt;
  const auto fingerprint_end = line.find(' ', magic_end + 1);
  if (fingerprint_end == std::string::npos) return std::nullopt;
  RecordHeader header;
  header.fingerprint =
      line.substr(magic_end + 1, fingerprint_end - magic_end - 1);
  if (header.fingerprint.empty() || header.fingerprint.size() > 64)
    return std::nullopt;
  const auto size = parse_u64(line.substr(fingerprint_end + 1));
  if (!size) return std::nullopt;
  header.payload_size = *size;
  header.header_size = static_cast<std::uint64_t>(newline - buffer) + 1;
  header.end = offset + header.header_size + header.payload_size + 1;
  return header;
}

/// The header of the whole frame at `offset` — payload and trailing
/// newline inside the first `log_size` bytes; nullopt on any damage.
std::optional<RecordHeader> read_frame(int fd, std::uint64_t offset,
                                       std::uint64_t log_size) {
  auto header = read_record_header(fd, offset, log_size);
  char last = 0;
  if (!header || header->end > log_size ||
      pread_full(fd, &last, 1, header->end - 1) != 1 || last != '\n')
    return std::nullopt;
  return header;
}

class PackedBackend : public OutcomeStoreBackend {
 public:
  using OutcomeStoreBackend::OutcomeStoreBackend;

  StoreFormat format() const override { return StoreFormat::Packed; }

  bool contains(const std::string& fingerprint) override {
    std::lock_guard<std::mutex> lock(mutex_);
    catch_up_locked(false);
    return records_.count(fingerprint) != 0;
  }

  std::optional<std::string> payload(
      const std::string& fingerprint) override {
    std::lock_guard<std::mutex> lock(mutex_);
    catch_up_locked(false);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto it = records_.find(fingerprint);
      if (it == records_.end()) return std::nullopt;
      if (auto bytes = read_payload_locked(fingerprint, it->second))
        return bytes;
      // The index lied about this record: re-derive the map from the log
      // itself — the authority — and retry once.
      catch_up_locked(true);
    }
    return std::nullopt;
  }

  void append_payload(const std::string& fingerprint,
                      const std::string& payload) override {
    HMPT_REQUIRE(fingerprint.find_first_of(" \t\r\n") == std::string::npos,
                 "packed store fingerprint must be a single token");
    std::lock_guard<std::mutex> lock(mutex_);
    if (sync_error_) raise(*sync_error_);
    // Under the writer lock the log cannot move, and the cache is caught
    // up with it: the decision below is made against the authoritative
    // state, not a possibly-stale index.
    const WriterLock writer = lock_writer_locked();
    const std::string log = log_path();
    const auto it = records_.find(fingerprint);
    if (it != records_.end()) {
      const auto existing = read_payload_locked(fingerprint, it->second);
      if (existing && *existing == payload) {
        // Same-race no-op; the record may be another writer's still
        // unsynced append, so the next sync() covers it too.
        appended_end_ = std::max(appended_end_, good_end_);
        return;
      }
      if (existing && parse_outcome_payload(*existing, fingerprint, nullptr))
        raise("conflicting outcome for fingerprint " + fingerprint + ": " +
              log +
              " already holds a different result (delete it to re-run)");
      // Damaged or unreadable existing record: append a superseding one —
      // the packed analogue of the dir store's quarantine-and-retry.
    }

    if (good_end_ < seen_size_) {
      // Torn tail from a crash mid-append: cut the log back to the last
      // clean record boundary before appending.
      if (::ftruncate(writer.fd(), static_cast<off_t>(good_end_)) != 0)
        raise("cannot truncate torn tail of " + log + ": " +
              std::strerror(errno));
      index_stale_ = true;
    }

    const std::uint64_t offset = good_end_;
    const std::string record = std::string(kRecordMagic) + " " +
                               fingerprint + " " +
                               std::to_string(payload.size()) + "\n" +
                               payload + "\n";
    // Only appends move the descriptor's offset; reads use pread.
    if (::lseek(writer.fd(), static_cast<off_t>(offset), SEEK_SET) < 0 ||
        !write_all(writer.fd(), record))
      raise("short write to outcome log " + log + ": " +
            std::strerror(errno));
    const Record appended{offset, payload.size()};
    add_record_locked(fingerprint, appended, offset + record.size());
    unindexed_.push_back(Unindexed{fingerprint, appended, good_end_});
    seen_size_ = good_end_;
    appended_end_ = good_end_;
  }

  void sync() override {
    std::shared_ptr<const LogFile> file;
    std::uint64_t target = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (sync_error_) raise(*sync_error_);
      if (!log_ || appended_end_ <= synced_end_) return;
      file = log_;
      target = appended_end_;
    }
    // The fsync runs outside the mutex so appends keep landing while it
    // waits on the disk; whatever they add is the next sync's batch.
    if (::fsync(file->fd) != 0) {
      // Never retried: after a failed fsync the kernel may have dropped
      // the dirty pages, so a later "successful" fsync would prove
      // nothing. Every later append and sync fails with this error.
      const std::string error = "cannot fsync outcome log " + log_path() +
                                ": " + std::strerror(errno);
      std::lock_guard<std::mutex> lock(mutex_);
      sync_error_ = error;
      raise(error);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    // A log replaced meanwhile took those records with it; the new file
    // has its own bookkeeping.
    if (file != log_) return;
    synced_end_ = std::max(synced_end_, target);
    publish_index_locked();
  }

  std::vector<std::pair<std::string, std::string>> load_all() override {
    std::lock_guard<std::mutex> lock(mutex_);
    catch_up_locked(true);  // every entry verified against the log
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [fingerprint, record] : records_) {
      auto bytes = read_payload_locked(fingerprint, record);
      if (!bytes || !parse_outcome_payload(*bytes, fingerprint, nullptr))
        continue;
      out.emplace_back(fingerprint, std::move(*bytes));
    }
    return out;  // records_ is fingerprint-ordered
  }

 private:
  struct Record {
    std::uint64_t offset = 0;        ///< record (header) start in the log
    std::uint64_t payload_size = 0;  ///< payload bytes (frame adds header+\n)
  };

  /// The open log the cache describes: read-only until the first append
  /// reopens it for writing. Shared so a sync() fsyncing outside the
  /// mutex keeps the descriptor alive when the log is replaced meanwhile.
  struct LogFile {
    int fd = -1;
    bool writable = false;
    dev_t device = 0;
    ino_t inode = 0;
    LogFile() = default;
    LogFile(const LogFile&) = delete;
    LogFile& operator=(const LogFile&) = delete;
    ~LogFile() {
      if (fd >= 0) ::close(fd);
    }
  };

  /// The cross-process writer flock on a log, released on scope exit.
  class WriterLock {
   public:
    explicit WriterLock(std::shared_ptr<const LogFile> file)
        : file_(std::move(file)) {}
    WriterLock(WriterLock&&) noexcept = default;
    WriterLock& operator=(WriterLock&&) = delete;
    ~WriterLock() {
      if (file_) ::flock(file_->fd, LOCK_UN);
    }
    int fd() const { return file_->fd; }

   private:
    std::shared_ptr<const LogFile> file_;
  };

  std::string log_path() const {
    return (fs::path(directory_) / "outcomes.log").string();
  }
  std::string index_path() const {
    return (fs::path(directory_) / "outcomes.idx").string();
  }

  static void append_file(const std::string& path, const std::string& data) {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
      raise("cannot append to outcome index " + path + ": " +
            std::strerror(errno));
    if (!write_all(fd, data)) {
      const int err = errno;
      ::close(fd);
      raise("short write to outcome index " + path + ": " +
            std::strerror(err));
    }
    ::close(fd);
  }

  static std::string index_line(const std::string& fingerprint,
                                const Record& record) {
    return fingerprint + " " + std::to_string(record.offset) + " " +
           std::to_string(record.payload_size) + "\n";
  }

  /// Read and verify the payload of `record`: the header at its offset
  /// must re-confirm fingerprint and size, the payload must be fully
  /// present, the trailing newline intact. nullopt on any mismatch.
  /// Requires mutex_ and a cache caught up with an open log.
  std::optional<std::string> read_payload_locked(
      const std::string& fingerprint, const Record& record) const {
    const auto header =
        read_record_header(log_->fd, record.offset, seen_size_);
    if (!header || header->fingerprint != fingerprint ||
        header->payload_size != record.payload_size ||
        header->end > seen_size_)
      return std::nullopt;
    // The payload and its trailing newline in one read.
    std::string bytes(static_cast<std::size_t>(header->payload_size) + 1,
                      '\0');
    if (pread_full(log_->fd, bytes.data(), bytes.size(),
                   record.offset + header->header_size) != bytes.size() ||
        bytes.back() != '\n')
      return std::nullopt;
    bytes.pop_back();
    return bytes;
  }

  /// Open the log at the store's path — for writing, creating the store
  /// directory and the file, when `writable`. The cache is kept when the
  /// path still names the file it describes and forgotten otherwise.
  /// Returns false when a read-only open finds no log. Requires mutex_.
  bool open_log_locked(bool writable) {
    const std::string log = log_path();
    if (writable) {
      // The store appears on the first write, like the dir format.
      std::error_code mkdir_ec;
      fs::create_directories(directory_, mkdir_ec);
      if (mkdir_ec)
        raise("cannot create outcome store at " + directory_ + ": " +
              mkdir_ec.message());
    }
    auto file = std::make_shared<LogFile>();
    file->fd = writable
                   ? ::open(log.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)
                   : ::open(log.c_str(), O_RDONLY | O_CLOEXEC);
    if (file->fd < 0) {
      if (!writable) return false;
      raise("cannot open outcome log " + log + ": " + std::strerror(errno));
    }
    struct stat st {};
    if (::fstat(file->fd, &st) != 0)
      raise("cannot stat outcome log " + log + ": " + std::strerror(errno));
    file->writable = writable;
    file->device = st.st_dev;
    file->inode = st.st_ino;
    if (log_ && (log_->device != file->device || log_->inode != file->inode))
      forget_log_locked();
    log_ = std::move(file);
    return true;
  }

  /// Forget everything tied to the previous log file: its records, what
  /// was appended and synced to it, what its index holds. Requires mutex_.
  void forget_log_locked() {
    log_.reset();
    records_.clear();
    scanned_ = true;
    seen_size_ = 0;
    good_end_ = 0;
    appended_end_ = 0;
    synced_end_ = 0;
    unindexed_.clear();
    indexed_end_ = 0;
    index_expected_size_.reset();
    index_stale_ = false;
  }

  /// The one routine that updates the record map: catch it up with the
  /// log at the store's path. It starts over when the path names a
  /// different file or the log was cut below the clean end (even if it
  /// has grown back since: the frame ending there no longer reads in
  /// place). An empty map is primed from the index unless `verified` — a
  /// writer, or a retry after an entry failed to verify — which instead
  /// first rescans whatever the index supplied. Then it scans
  /// [good_end_, size), so a call costs O(what was appended since the
  /// last one). Requires mutex_.
  void catch_up_locked(bool verified) {
    struct stat st {};
    if (::stat(log_path().c_str(), &st) != 0) {
      forget_log_locked();  // no log (yet, or any more): nothing stored
      return;
    }
    if ((!log_ || st.st_dev != log_->device || st.st_ino != log_->inode) &&
        !open_log_locked(false)) {
      forget_log_locked();
      return;
    }
    if (::fstat(log_->fd, &st) != 0)
      raise("cannot stat outcome log " + log_path() + ": " +
            std::strerror(errno));
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if ((verified && !scanned_) || !last_frame_intact_locked(size)) {
      records_.clear();
      good_end_ = 0;
      scanned_ = true;
    }
    if (good_end_ == 0 && size > 0 && !verified) prime_from_index_locked(size);
    while (good_end_ < size) {
      const auto frame = read_frame(log_->fd, good_end_, size);
      if (!frame) break;  // a torn tail (or an append still landing)
      add_record_locked(frame->fingerprint,
                        Record{good_end_, frame->payload_size}, frame->end);
    }
    seen_size_ = size;
  }

  /// Does the frame that ends the clean prefix still read in place? Not
  /// when the log was cut below the clean end, whatever it has grown back
  /// to since. Requires mutex_.
  bool last_frame_intact_locked(std::uint64_t size) const {
    if (good_end_ == 0) return true;
    const auto frame = read_frame(log_->fd, last_offset_, size);
    return frame && frame->end == good_end_ &&
           frame->fingerprint == last_fingerprint_;
  }

  /// Map `fingerprint` to `record`, whose frame ends at `end`, the new
  /// clean end. Requires mutex_.
  void add_record_locked(const std::string& fingerprint, const Record& record,
                         std::uint64_t end) {
    records_[fingerprint] = record;
    last_fingerprint_ = fingerprint;
    last_offset_ = record.offset;
    good_end_ = end;
  }

  /// Prime the empty map from the index: its longest valid prefix —
  /// well-formed lines with strictly increasing offsets from 0 whose
  /// final entry deep-checks against the log (header match, payload in
  /// bounds, trailing newline). Anything after the prefix (a torn final
  /// line, entries past a truncated tail) is left to the log scan.
  /// Requires mutex_, an open log and an empty map.
  void prime_from_index_locked(std::uint64_t size) {
    const auto text = read_file(index_path());
    if (!text) return;
    std::vector<std::pair<std::string, Record>> entries;
    std::istringstream index(*text);
    std::string line;
    while (std::getline(index, line)) {
      const auto first_space = line.find(' ');
      const auto second_space = first_space == std::string::npos
                                    ? std::string::npos
                                    : line.find(' ', first_space + 1);
      if (second_space == std::string::npos) break;
      const std::string fingerprint = line.substr(0, first_space);
      const auto offset = parse_u64(
          line.substr(first_space + 1, second_space - first_space - 1));
      const auto payload_size = parse_u64(line.substr(second_space + 1));
      if (fingerprint.empty() || fingerprint.size() > 64 || !offset ||
          !payload_size.has_value())
        break;
      if (entries.empty() ? *offset != 0
                          : *offset <= entries.back().second.offset)
        break;
      if (*offset >= size) break;
      entries.emplace_back(fingerprint, Record{*offset, *payload_size});
    }
    for (; !entries.empty(); entries.pop_back()) {
      // The final entry may describe a record a crash tore off and a
      // later save truncated away; shrink the prefix until it verifies.
      const auto& [last_fingerprint, last_record] = entries.back();
      const auto frame = read_frame(log_->fd, last_record.offset, size);
      if (!frame || frame->fingerprint != last_fingerprint ||
          frame->payload_size != last_record.payload_size)
        continue;
      for (const auto& [fingerprint, record] : entries)
        add_record_locked(fingerprint, record, frame->end);
      // Entries are trusted, not re-verified: a writer rescans the log
      // before deciding anything.
      scanned_ = false;
      return;
    }
  }

  /// Take the cross-process writer flock on the log at the store's path
  /// — reopened for writing when the path names a new file, so no write
  /// lands in an unlinked one — and catch the verified cache up with it.
  /// Requires mutex_.
  WriterLock lock_writer_locked() {
    for (;;) {
      if (!log_ || !log_->writable) open_log_locked(true);
      const auto file = log_;
      while (::flock(file->fd, LOCK_EX) != 0) {
        if (errno != EINTR)
          raise("cannot lock outcome log " + log_path() + ": " +
                std::strerror(errno));
      }
      WriterLock writer(file);
      catch_up_locked(true);
      if (log_ == file) return writer;
      // The path named another file by the time we held the lock.
    }
  }

  /// Index the records the last fsync made durable: append their lines
  /// in one write while the index is exactly what this backend last left
  /// and the records directly follow what it covers; otherwise rebuild
  /// it from the caught-up cache. The index never describes a record past
  /// the synced end. Requires mutex_.
  void publish_index_locked() {
    const WriterLock writer = lock_writer_locked();
    if (synced_end_ == 0) return;  // the log was replaced: nothing durable
    const auto durable = std::partition_point(
        unindexed_.begin(), unindexed_.end(),
        [&](const Unindexed& entry) {
          return entry.record.offset < synced_end_;
        });
    std::string lines;
    std::uint64_t end = indexed_end_;
    bool contiguous = true;
    for (auto it = unindexed_.begin(); it != durable; ++it) {
      contiguous = contiguous && it->record.offset == end;
      lines += index_line(it->fingerprint, it->record);
      end = it->end;
    }
    std::error_code ec;
    const auto index_size = fs::file_size(index_path(), ec);
    if (!index_stale_ && contiguous && index_expected_size_ && !ec &&
        index_size == *index_expected_size_) {
      if (!lines.empty()) append_file(index_path(), lines);
      *index_expected_size_ += lines.size();
      indexed_end_ = end;
    } else {
      rebuild_index_locked();
    }
    unindexed_.erase(unindexed_.begin(), durable);
  }

  /// Rewrite the index from the in-memory map (offset order, records
  /// below the synced end) and publish it by atomic rename. Requires
  /// mutex_ and a caught-up cache.
  void rebuild_index_locked() {
    std::vector<std::pair<std::string, Record>> entries;
    for (const auto& entry : records_)
      if (entry.second.offset < synced_end_) entries.push_back(entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.second.offset < b.second.offset;
              });
    std::string content;
    for (const auto& [fingerprint, record] : entries)
      content += index_line(fingerprint, record);
    const std::string tmp = scratch_name(index_path());
    write_durable(tmp, content);
    if (::rename(tmp.c_str(), index_path().c_str()) != 0) {
      const int err = errno;
      ::unlink(tmp.c_str());
      raise("cannot publish outcome index " + index_path() + ": " +
            std::strerror(err));
    }
    index_expected_size_ = content.size();
    indexed_end_ = synced_end_;
    index_stale_ = false;
  }

  std::mutex mutex_;
  /// The map came from scanning the log, not (in part) from the index,
  /// so a writer may trust it.
  bool scanned_ = true;
  std::uint64_t seen_size_ = 0;    ///< log size the cache reflects
  std::uint64_t good_end_ = 0;     ///< end of the last decodable record
  std::map<std::string, Record> records_;
  /// The frame that ends at good_end_ (when it is non-zero).
  std::string last_fingerprint_;
  std::uint64_t last_offset_ = 0;

  std::shared_ptr<const LogFile> log_;  ///< open once the log exists
  std::uint64_t appended_end_ = 0;  ///< log end after our last append
  std::uint64_t synced_end_ = 0;    ///< log end our last fsync covered
  /// Set by a failed fsync; every later append and sync throws it.
  std::optional<std::string> sync_error_;

  /// One of our appended records whose index line is not written yet.
  struct Unindexed {
    std::string fingerprint;
    Record record;
    std::uint64_t end = 0;  ///< log offset just past the record's frame
  };
  std::vector<Unindexed> unindexed_;  ///< log order
  /// Log offset just past the last record our index lines cover.
  std::uint64_t indexed_end_ = 0;
  /// Index size after our last write; appends are only safe while the
  /// on-disk size still matches (otherwise another writer or a
  /// truncation intervened and the index is rebuilt).
  std::optional<std::uint64_t> index_expected_size_;
  bool index_stale_ = false;  ///< a tail truncation outdated the index
};

}  // namespace

// ---------------------------------------------------------------------------
// OutcomeStore: thin value-semantics shell over the shared backend.

OutcomeStore::OutcomeStore(std::string directory, StoreFormat format) {
  HMPT_REQUIRE(!directory.empty(), "outcome store needs a directory");
  const auto existing = detect_store_format(directory);
  if (existing && *existing != format)
    raise("outcome store at " + directory + " is " +
          std::string(to_string(*existing)) +
          "-format; pass --store-format " + to_string(*existing) +
          " or point at a fresh directory");
  if (format == StoreFormat::Packed)
    backend_ = std::make_shared<PackedBackend>(std::move(directory));
  else
    backend_ = std::make_shared<DirBackend>(std::move(directory));
}

OutcomeStore OutcomeStore::open_existing(const std::string& directory) {
  return OutcomeStore(
      directory, detect_store_format(directory).value_or(StoreFormat::Dir));
}

const std::string& OutcomeStore::directory() const {
  return backend_->directory();
}

StoreFormat OutcomeStore::format() const { return backend_->format(); }

std::string OutcomeStore::path_for(const Scenario& scenario) const {
  HMPT_REQUIRE(backend_->format() == StoreFormat::Dir,
               "path_for: a packed store has no per-scenario file");
  return dir_outcome_path(backend_->directory(), scenario.fingerprint());
}

bool OutcomeStore::contains(const Scenario& scenario) const {
  return backend_->contains(scenario.fingerprint());
}

std::optional<tuner::TuningOutcome> OutcomeStore::load(
    const Scenario& scenario) const {
  return load_by_fingerprint(scenario.fingerprint());
}

std::optional<tuner::TuningOutcome> OutcomeStore::load_by_fingerprint(
    const std::string& fingerprint) const {
  obs::TraceSpan span("store", "load");  // read + decode
  return backend_->load(fingerprint);
}

void OutcomeStore::append(const Scenario& scenario,
                          const tuner::TuningOutcome& outcome) const {
  obs::TraceSpan span("store", "append");  // encode + write
  backend_->append_payload(scenario.fingerprint(),
                           make_payload(scenario, outcome));
}

void OutcomeStore::sync() const { backend_->sync(); }

void OutcomeStore::save(const Scenario& scenario,
                        const tuner::TuningOutcome& outcome) const {
  append(scenario, outcome);
  sync();
}

std::optional<std::string> OutcomeStore::payload(
    const std::string& fingerprint) const {
  return backend_->payload(fingerprint);
}

void OutcomeStore::append_payload(const std::string& fingerprint,
                                  const std::string& payload) const {
  HMPT_REQUIRE(!fingerprint.empty(), "outcome fingerprint must be non-empty");
  backend_->append_payload(fingerprint, payload);
}

std::vector<std::pair<std::string, std::string>>
OutcomeStore::load_all_payloads() const {
  return backend_->load_all();
}

std::string OutcomeStore::make_payload(const Scenario& scenario,
                                       const tuner::TuningOutcome& outcome) {
  // Streamed: the outcome, which dominates the bytes, never becomes a
  // Json value. A config or trajectory step takes at most ~410 bytes in
  // this layout, so reserving a little more per record writes a
  // multi-megabyte sweep without regrowing the buffer.
  const std::size_t records =
      outcome.trajectory.size() + outcome.table.size() +
      (outcome.sweep ? outcome.sweep->configs.size() : 0);
  std::string out;
  out.reserve(4096 + 448 * records);
  JsonWriter writer(out);
  writer.begin_object();
  writer.key("format_version");
  writer.value(kFingerprintVersion);
  writer.key("fingerprint");
  writer.value(scenario.fingerprint());
  writer.key("scenario");
  writer.value(scenario.to_json());
  writer.key("outcome");
  tuner::write_outcome(writer, outcome);
  writer.end_object();
  return out;
}

}  // namespace hmpt::campaign
