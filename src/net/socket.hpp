#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace abr::net {

/// RAII owner of a POSIX file descriptor (Core Guidelines R.1): closes on
/// destruction, move-only. The descriptor slot is atomic because
/// TcpListener's shutdown contract is cross-thread: one thread blocks in
/// accept() while another close()s the listener to wake it. Moves are
/// still single-threaded (ownership transfer is never concurrent); only
/// get/valid/close race by design.
class FileDescriptor {
 public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor();

  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  FileDescriptor(FileDescriptor&& other) noexcept;
  FileDescriptor& operator=(FileDescriptor&& other) noexcept;

  int get() const { return fd_.load(std::memory_order_relaxed); }
  bool valid() const { return get() >= 0; }

  /// Closes now (idempotent, safe against a concurrent close).
  void close();

 private:
  std::atomic<int> fd_{-1};
};

/// A connected TCP socket: connect, options, shutdown and close. Its bytes
/// move elsewhere, on the descriptor (fd()): the client's poll loop
/// (net/http) and the origin's epoll shards (net/epoll_server) send and
/// recv without blocking. Operations throw std::system_error on socket
/// failure.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(FileDescriptor fd) : fd_(std::move(fd)) {}

  /// Connects to host:port (IPv4 dotted quad or "localhost").
  static TcpStream connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_.valid(); }

  /// Sets O_NONBLOCK: reads and writes on fd() return what the kernel has
  /// instead of blocking (the epoll transport's I/O mode).
  void set_nonblocking(bool enabled);

  /// Raw descriptor for event-loop registration. Ownership stays with the
  /// stream; the value is invalidated by close().
  int fd() const { return fd_.get(); }

  /// Disables Nagle; chunk transfers are latency-sensitive at their tail.
  void set_no_delay(bool enabled);

  /// Shuts down both directions without closing the descriptor, so the
  /// peer sees EOF at once even while the descriptor is still open.
  void shutdown_both();

  void close() { fd_.close(); }

 private:
  FileDescriptor fd_;
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens; port 0 picks an ephemeral port.
  static TcpListener bind_loopback(std::uint16_t port = 0);

  /// The actual bound port.
  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. Out of descriptors (EMFILE, ENFILE)
  /// it returns an invalid stream instead of throwing, so a caller can back
  /// off and retry; an interrupted call or a connection aborted in the
  /// backlog (EINTR, ECONNABORTED) is retried here. Throws
  /// std::system_error if the listener was closed (the orderly shutdown
  /// path) or on any other failure.
  TcpStream accept();

  /// Unblocks any accept() in progress.
  void close();

  bool valid() const { return fd_.valid(); }

 private:
  FileDescriptor fd_;
  std::uint16_t port_ = 0;
};

}  // namespace abr::net
