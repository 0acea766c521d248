// file_io.h — whole-file reads and atomic whole-file publication.
//
// Every artefact hmpt reads back (stores, manifests, plans, campaign
// files, traces) is read whole, and every artefact it rewrites in place
// (manifests, plans, fleet assignments, runs.csv/summary.json/
// status.json, HTML reports, metrics snapshots) is published by rename,
// so a reader sees the old bytes or the new ones, never a torn file.
// Outcome records additionally need fsync before they are published; the
// outcome store layers that on top of write_all().
#pragma once

#include <optional>
#include <string>

namespace hmpt {

/// The whole file, read into a buffer sized from fstat; nullopt when it
/// cannot be opened. A read error ends the data early, which the caller's
/// validating parse then rejects as damage.
std::optional<std::string> read_file(const std::string& path);

/// Write all of `bytes` to `fd`, retrying short and EINTR-interrupted
/// writes; false (errno set) on any other write error.
bool write_all(int fd, const std::string& bytes);

/// A unique scratch name beside `path`: pid + process-wide counter, so
/// concurrent writers never clobber each other's temp file.
std::string scratch_name(const std::string& path);

/// Replace `path` with `bytes` atomically: write a scratch_name() file
/// beside it and rename it over `path`. Not fsync'd — a crash may lose
/// the new bytes, never tear them. Throws hmpt::Error (removing the
/// scratch file) when the write or the rename fails.
void publish_file(const std::string& path, const std::string& bytes);

}  // namespace hmpt
