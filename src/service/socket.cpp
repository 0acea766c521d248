#include "service/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"

namespace hmpt::service {

namespace {

[[noreturn]] void raise_errno(const std::string& what) {
  raise(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HMPT_REQUIRE(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  HMPT_REQUIRE(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "not an IPv4 address: " + host);
  return addr;
}

}  // namespace

std::string Endpoint::to_string() const {
  if (is_unix()) return "unix:" + unix_path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(const std::string& data) const {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LineReader::Status LineReader::next(std::string& line) {
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      if (newline > max_line_) {
        buffer_.erase(0, newline + 1);
        return Status::Oversized;
      }
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return Status::Line;
    }
    if (eof_) {
      // Tail without newline: surface it once, then report EOF.
      if (buffer_.empty()) return Status::Eof;
      if (buffer_.size() > max_line_) {
        buffer_.clear();
        return Status::Oversized;
      }
      line = std::move(buffer_);
      buffer_.clear();
      return Status::Line;
    }
    if (buffer_.size() > max_line_) {
      // The line under construction is already over budget; drop input
      // until its newline so the stream resynchronises.
      buffer_.clear();
      for (;;) {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          eof_ = true;
          return Status::Oversized;
        }
        const char* end = static_cast<const char*>(
            std::memchr(chunk, '\n', static_cast<std::size_t>(n)));
        if (end != nullptr) {
          buffer_.assign(end + 1, chunk + n - (end + 1));
          return Status::Oversized;
        }
      }
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Error;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Listener Listener::listen(const Endpoint& endpoint) {
  Listener listener;
  listener.endpoint_ = endpoint;

  const int domain = endpoint.is_unix() ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("cannot create socket");
  listener.socket_ = Socket(fd);

  if (endpoint.is_unix()) {
    // A stale socket file from a crashed daemon must not block restart.
    ::unlink(endpoint.unix_path.c_str());
    const auto addr = unix_address(endpoint.unix_path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      raise_errno("cannot bind " + endpoint.to_string());
  } else {
    const int yes = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
    const auto addr = tcp_address(endpoint.host, endpoint.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      raise_errno("cannot bind " + endpoint.to_string());
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      listener.endpoint_.port = ntohs(bound.sin_port);
  }
  if (::listen(fd, SOMAXCONN) != 0)
    raise_errno("cannot listen on " + endpoint.to_string());
  return listener;
}

Listener::~Listener() { close(); }

std::optional<Socket> Listener::accept_for(int timeout_ms) {
  if (!socket_.valid()) return std::nullopt;
  pollfd pfd{socket_.fd(), POLLIN, 0};
  // A signal interrupting the poll reads as a timeout: the accept loop
  // re-checks its stop flag and comes back, which is the behaviour an
  // EINTR mid-wait should have anyway.
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready <= 0) return std::nullopt;
  int fd;
  do {
    fd = ::accept(socket_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return std::nullopt;
  return Socket(fd);
}

void Listener::shutdown() const { socket_.shutdown_both(); }

void Listener::close() {
  if (socket_.valid() && endpoint_.is_unix())
    ::unlink(endpoint_.unix_path.c_str());
  socket_.close();
}

Socket connect_to(const Endpoint& endpoint) {
  const int domain = endpoint.is_unix() ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("cannot create socket");
  Socket socket(fd);

  // A blocking connect interrupted by a signal (EINTR) completes
  // asynchronously; poll for writability and read SO_ERROR instead of
  // retrying the connect (a retry would race the in-progress handshake).
  const auto finish_interrupted = [&] {
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, -1);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0)
      raise_errno("cannot connect to " + endpoint.to_string());
    int error = 0;
    socklen_t length = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0)
      raise_errno("cannot connect to " + endpoint.to_string());
    if (error != 0) {
      errno = error;
      raise_errno("cannot connect to " + endpoint.to_string());
    }
  };

  int rc;
  if (endpoint.is_unix()) {
    const auto addr = unix_address(endpoint.unix_path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } else {
    const auto addr = tcp_address(endpoint.host, endpoint.port);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  }
  if (rc != 0) {
    if (errno == EINTR)
      finish_interrupted();
    else
      raise_errno("cannot connect to " + endpoint.to_string());
  }
  return socket;
}

void ignore_sigpipe() {
  // send() uses MSG_NOSIGNAL already; this covers any stray write paths.
  ::signal(SIGPIPE, SIG_IGN);
}

}  // namespace hmpt::service
