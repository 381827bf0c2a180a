#include "net/socket.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "test_helpers.hpp"

namespace abr::net {
namespace {

TEST(TcpListener, BindsEphemeralPort) {
  TcpListener listener = TcpListener::bind_loopback();
  EXPECT_TRUE(listener.valid());
  EXPECT_GT(listener.port(), 0);
}

TEST(TcpListener, TwoListenersGetDistinctPorts) {
  TcpListener a = TcpListener::bind_loopback();
  TcpListener b = TcpListener::bind_loopback();
  EXPECT_NE(a.port(), b.port());
}

TEST(TcpStream, EchoRoundTrip) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&listener] {
    TcpStream peer = listener.accept();
    char buffer[64];
    const std::size_t n = testing::read_some(peer, buffer, sizeof(buffer));
    testing::write_all(peer, std::string_view(buffer, n));
  });

  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  testing::write_all(client, "hello");
  char buffer[64];
  std::size_t total = 0;
  while (total < 5) {
    const std::size_t n =
        testing::read_some(client, buffer + total, sizeof(buffer) - total);
    ASSERT_GT(n, 0u);
    total += n;
  }
  EXPECT_EQ(std::string(buffer, 5), "hello");
  server.join();
}

TEST(TcpStream, ReadReturnsZeroOnPeerClose) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&listener] {
    TcpStream peer = listener.accept();
    peer.close();
  });
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  char buffer[16];
  EXPECT_EQ(testing::read_some(client, buffer, sizeof(buffer)), 0u);
  server.join();
}

TEST(TcpStream, ConnectToBadAddressThrows) {
  EXPECT_THROW(TcpStream::connect("not-an-ip", 80), std::invalid_argument);
}

TEST(TcpStream, ConnectToClosedPortThrows) {
  // Bind a port then close it so nothing is listening there.
  std::uint16_t dead_port;
  {
    TcpListener listener = TcpListener::bind_loopback();
    dead_port = listener.port();
  }
  EXPECT_THROW(TcpStream::connect("127.0.0.1", dead_port), std::system_error);
}

TEST(TcpListener, CloseUnblocksAccept) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread blocker([&listener] {
    EXPECT_THROW(listener.accept(), std::system_error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.close();
  blocker.join();
}

TEST(FileDescriptor, MoveTransfersOwnership) {
  const int raw = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(raw, 0);
  FileDescriptor a(raw);
  FileDescriptor b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.get(), raw);

  FileDescriptor c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(c.valid());
  c.close();
  EXPECT_FALSE(c.valid());
  c.close();  // idempotent
}

}  // namespace
}  // namespace abr::net
