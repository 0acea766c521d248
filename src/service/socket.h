// socket.h — minimal RAII stream-socket transport for the service layer.
//
// hmptd serves the NDJSON protocol over either a Unix-domain socket (the
// default: filesystem permissions gate access) or a loopback-bound TCP
// port; hmpt_submit connects over the same Endpoint type. The transport
// is deliberately thin: blocking sockets, a buffered line reader with a
// hard per-line byte cap (an oversized request must become a structured
// error, never an allocation blow-up), and poll-based accept timeouts so
// the daemon's accept loop can notice shutdown.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace hmpt::service {

/// A connection cap every reader enforces: one NDJSON line (request,
/// response or event) may not exceed this many bytes.
inline constexpr std::size_t kMaxLineBytes = 8u << 20;

/// Where the daemon listens / the client connects: a Unix-domain socket
/// path when `unix_path` is non-empty, else TCP host:port.
struct Endpoint {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;

  bool is_unix() const { return !unix_path.empty(); }
  /// "unix:PATH" or "tcp:HOST:PORT", for logs and errors.
  std::string to_string() const;
};

/// Move-only RAII wrapper over a connected stream-socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write all of `data`; false on any error (notably a peer that went
  /// away — the caller drops the connection, the daemon must not die).
  bool send_all(const std::string& data) const;

  /// shutdown(2) both directions: any thread blocked reading this socket
  /// sees EOF, without the fd-reuse hazard of closing from another
  /// thread. The owner still close()s afterwards.
  void shutdown_both() const;

  void close();

 private:
  int fd_ = -1;
};

/// Buffered NDJSON line reader over a socket fd (not owned).
class LineReader {
 public:
  enum class Status {
    Line,       ///< `line` holds one complete line (no trailing '\n')
    Eof,        ///< orderly peer close
    Oversized,  ///< line exceeded max bytes; discarded through its '\n'
    Error,      ///< read error; treat like EOF
  };

  explicit LineReader(int fd, std::size_t max_line = kMaxLineBytes)
      : fd_(fd), max_line_(max_line) {}

  /// Block for the next line. After Oversized the stream stays usable:
  /// the offending line was discarded up to and including its newline.
  Status next(std::string& line);

 private:
  int fd_ = -1;
  std::size_t max_line_ = kMaxLineBytes;
  std::string buffer_;
  bool eof_ = false;
};

/// A bound, listening server socket. Unix paths are unlinked on bind (a
/// stale socket file from a dead daemon must not block restart) and again
/// on destruction.
class Listener {
 public:
  /// Bind + listen; throws hmpt::Error on failure. With a TCP endpoint of
  /// port 0 the kernel picks a free port — read it back via endpoint().
  static Listener listen(const Endpoint& endpoint);

  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;
  ~Listener();

  /// The bound endpoint (actual port for TCP port-0 binds).
  const Endpoint& endpoint() const { return endpoint_; }

  /// Wait up to `timeout_ms` for a connection; nullopt on timeout or on a
  /// transient accept failure. Throws nothing.
  std::optional<Socket> accept_for(int timeout_ms);

  /// Wake a thread waiting in accept_for() (it returns nullopt) and fail
  /// every later accept. Leaves the descriptor open, so it is safe while
  /// another thread is still inside accept_for(); close() once that
  /// thread is joined.
  void shutdown() const;

  void close();

 private:
  Listener() = default;

  Socket socket_;
  Endpoint endpoint_;
};

/// Connect to a daemon endpoint; throws hmpt::Error when unreachable.
Socket connect_to(const Endpoint& endpoint);

/// The service layer writes to sockets whose peer may vanish; a dead peer
/// must surface as a send_all failure, not a fatal SIGPIPE. Idempotent.
void ignore_sigpipe();

}  // namespace hmpt::service
