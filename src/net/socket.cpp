#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace abr::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

FileDescriptor::~FileDescriptor() { close(); }

FileDescriptor::FileDescriptor(FileDescriptor&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_relaxed)) {}

FileDescriptor& FileDescriptor::operator=(FileDescriptor&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_relaxed),
              std::memory_order_relaxed);
  }
  return *this;
}

void FileDescriptor::close() {
  // exchange() so two threads racing to close (shutdown path vs. owner
  // destructor) cannot double-close the same descriptor.
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("TcpStream: bad IPv4 address '" + host + "'");
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("connect");
  }
  return TcpStream(std::move(fd));
}

void TcpStream::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.get(), F_SETFL, want) != 0) throw_errno("fcntl(F_SETFL)");
}

void TcpStream::set_no_delay(bool enabled) {
  const int flag = enabled ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) !=
      0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

void TcpStream::shutdown_both() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

TcpListener TcpListener::bind_loopback(std::uint16_t port) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");

  const int reuse = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse)) !=
      0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), 16) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("getsockname");
  }

  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

TcpStream TcpListener::accept() {
  while (true) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) return TcpStream(FileDescriptor(client));
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EMFILE || errno == ENFILE) return TcpStream();
    throw_errno("accept");
  }
}

void TcpListener::close() {
  // On Linux, close() alone does not wake a thread blocked in accept();
  // shutdown() forces the pending accept to return (EINVAL), which is the
  // documented orderly-shutdown path for this class.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  fd_.close();
}

}  // namespace abr::net
