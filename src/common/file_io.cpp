#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/error.h"

namespace hmpt {

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::string data(
      ::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size) + 1 : 4096,
      '\0');
  std::size_t got = 0;
  while (true) {
    if (got == data.size()) data.resize(2 * data.size());  // it grew
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::string scratch_name(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

void publish_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = scratch_name(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) raise("cannot write " + tmp + ": " + std::strerror(errno));
  if (!write_all(fd, bytes)) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    raise("short write to " + tmp + ": " + std::strerror(err));
  }
  if (::close(fd) != 0 || ::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    raise("cannot finalise " + path + ": " + std::strerror(err));
  }
}

}  // namespace hmpt
