#include "net/epoll_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <queue>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace abr::net {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

// --- ShaperGate ------------------------------------------------------------

ShaperGate::ShaperGate(const trace::ThroughputTrace& trace, double speedup)
    : trace_(&trace), speedup_(speedup), epoch_(Clock::now()) {
  assert(speedup > 0.0);
}

void ShaperGate::reset_epoch() {
  const util::MutexLock lock(mutex_);
  epoch_ = Clock::now();
  sent_kilobits_ = 0.0;
}

bool ShaperGate::acquire(std::uint64_t ticket) {
  const util::MutexLock lock(mutex_);
  if (holder_ == 0 || holder_ == ticket) {
    holder_ = ticket;
    return true;
  }
  waiters_.push_back(ticket);
  return false;
}

std::uint64_t ShaperGate::release() {
  const util::MutexLock lock(mutex_);
  holder_ = 0;
  if (waiters_.empty()) return 0;
  holder_ = waiters_.front();
  waiters_.pop_front();
  return holder_;
}

std::uint64_t ShaperGate::cancel(std::uint64_t ticket) {
  const util::MutexLock lock(mutex_);
  if (holder_ == ticket) {
    holder_ = 0;
    if (waiters_.empty()) return 0;
    holder_ = waiters_.front();
    waiters_.pop_front();
    return holder_;
  }
  const auto it = std::find(waiters_.begin(), waiters_.end(), ticket);
  if (it != waiters_.end()) waiters_.erase(it);
  return 0;
}

ShaperGate::Burst ShaperGate::claim_burst(std::size_t bytes,
                                          Clock::time_point now) {
  const util::MutexLock lock(mutex_);
  Burst burst;
  while (burst.bytes < bytes) {
    // Each quantum is released once the trace's cumulative capacity since
    // the epoch reaches sent + quantum: the trace's inverse integral gives
    // that instant exactly.
    const std::size_t quantum = std::min(kQuantumBytes, bytes - burst.bytes);
    const double quantum_kilobits =
        static_cast<double>(quantum) * 8.0 / 1000.0;
    const double release_session_s =
        trace_->transfer_end_time(sent_kilobits_ + quantum_kilobits, 0.0);
    const Clock::time_point release =
        epoch_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(release_session_s /
                                                   speedup_));
    if (release > now) {
      if (burst.bytes == 0) burst.next_release = release;
      break;
    }
    sent_kilobits_ += quantum_kilobits;
    burst.bytes += quantum;
  }
  return burst;
}

// --- Shard -----------------------------------------------------------------

/// One reactor: a thread, an epoll instance, a timer heap, and a private
/// connection table. All connection state is owned by this thread; other
/// threads communicate exclusively through the message queue + eventfd.
class EpollServer::Shard {
 public:
  Shard(EpollServer* server, std::size_t index)
      : server_(server),
        index_(index),
        gauge_(&obs::MetricsRegistry::global().gauge(
            obs::kServerShardConnections, obs::shard_label(index))) {
    epoll_fd_ = FileDescriptor(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) {
      throw std::system_error(errno, std::generic_category(), "epoll_create1");
    }
    wake_fd_ = FileDescriptor(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!wake_fd_.valid()) {
      throw std::system_error(errno, std::generic_category(), "eventfd");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = 0;  // 0 = the wake eventfd; connection ids are nonzero
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &event) !=
        0) {
      throw std::system_error(errno, std::generic_category(), "epoll_ctl");
    }
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  void post_connection(TcpStream stream, std::uint64_t id, bool rejected)
      ABR_EXCLUDES(queue_mutex_) {
    {
      const util::MutexLock lock(queue_mutex_);
      Message message;
      message.kind = Message::Kind::kNewConnection;
      message.stream = std::move(stream);
      message.id = id;
      message.rejected = rejected;
      queue_.push_back(std::move(message));
    }
    wake();
  }

  void post_grant(std::uint64_t id) ABR_EXCLUDES(queue_mutex_) {
    {
      const util::MutexLock lock(queue_mutex_);
      Message message;
      message.kind = Message::Kind::kLinkGrant;
      message.id = id;
      queue_.push_back(std::move(message));
    }
    wake();
  }

  void post_stop(bool count_forced) ABR_EXCLUDES(queue_mutex_) {
    {
      const util::MutexLock lock(queue_mutex_);
      Message message;
      message.kind = Message::Kind::kStop;
      message.rejected = count_forced;
      queue_.push_back(std::move(message));
    }
    wake();
  }

  std::size_t table_size() const { return table_size_.load(); }
  std::size_t timer_count() const { return timer_count_.load(); }

 private:
  struct Connection;

  struct Message {
    enum class Kind { kNewConnection, kLinkGrant, kStop } kind =
        Kind::kNewConnection;
    TcpStream stream;
    std::uint64_t id = 0;
    bool rejected = false;
  };

  enum class TimerKind { kDeadline, kResume };

  struct TimerEntry {
    Clock::time_point when;
    std::uint64_t id = 0;
    std::uint64_t generation = 0;  ///< kResume: the connection's generation
    TimerKind kind = TimerKind::kDeadline;
    bool operator>(const TimerEntry& other) const {
      return when > other.when;
    }
  };

  struct Connection {
    TcpStream stream;
    std::uint64_t id = 0;
    bool rejected = false;

    enum class State {
      kReadHeaders,   ///< accumulating up to the blank line
      kReadBody,      ///< consuming Content-Length bytes
      kDelay,         ///< first-byte fault delay before the head
      kAwaitLink,     ///< queued on the shaper gate
      kQuantumWait,   ///< holding the link, next quantum not yet released
      kStallSleep,    ///< mid-body fault stall (link released)
      kWriteHead,     ///< flushing the pre-serialized head
      kWriteBody,     ///< flushing body bytes (shaped: the claimed burst)
    } state = State::kReadHeaders;

    std::string in;          ///< unparsed input
    std::size_t scan = 0;    ///< resume point of the "\r\n\r\n" search
    HttpRequest request;
    std::size_t body_remaining = 0;

    bool responding = false;
    Response response;
    Response::Kind response_kind = Response::Kind::kRequest;
    std::string_view body;   ///< response body view (post-truncation)
    std::size_t head_sent = 0;
    std::size_t body_sent = 0;
    std::size_t stall_at = std::string_view::npos;
    bool stalled = false;    ///< the one mid-body stall already happened
    bool shutdown_after = false;  ///< truncating fault: hard cut at the end
    bool holds_link = false;
    std::size_t burst_left = 0;  ///< claimed burst bytes not yet written

    bool want_out = false;   ///< EPOLLOUT currently requested
    bool read_ready = false; ///< input arrived while mid-response
    bool peer_eof = false;

    Clock::time_point deadline{};
    int deadline_window_ms = 0;  ///< 0 = disarmed
    /// Instant of the connection's one queued kDeadline entry; max() when
    /// none is queued. An entry popping at any other instant is superseded.
    Clock::time_point deadline_queued = Clock::time_point::max();
    std::uint64_t generation = 0;  ///< tags resume timers
    Clock::time_point request_start{};
  };

  void wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_.get(), &one, sizeof(one));
  }

  void run() {
    std::vector<epoll_event> events(64);
    while (!stopping_) {
      int timeout_ms = -1;
      if (!timers_.empty()) {
        const auto now = Clock::now();
        const auto until = timers_.top().when - now;
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(until)
                .count();
        timeout_ms = static_cast<int>(std::clamp<long long>(ms, 0, 1000));
      }
      const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                                 static_cast<int>(events.size()), timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll instance gone: shutting down
      }
      for (int i = 0; i < n && !stopping_; ++i) {
        if (events[i].data.u64 == 0) {
          drain_wake();
          process_messages();
          continue;
        }
        handle_event(events[i].data.u64, events[i].events);
      }
      if (stopping_) break;
      process_timers();
      timer_count_.store(timers_.size());
    }
    close_all();
  }

  void drain_wake() {
    std::uint64_t value = 0;
    (void)!::read(wake_fd_.get(), &value, sizeof(value));
  }

  void process_messages() ABR_EXCLUDES(queue_mutex_) {
    std::vector<Message> pending;
    {
      const util::MutexLock lock(queue_mutex_);
      pending.swap(queue_);
    }
    for (Message& message : pending) {
      switch (message.kind) {
        case Message::Kind::kNewConnection:
          add_connection(std::move(message.stream), message.id,
                         message.rejected);
          break;
        case Message::Kind::kLinkGrant: {
          Connection* connection = find(message.id);
          if (connection == nullptr) {
            // Died while queued: pass the link on so it cannot get stuck.
            server_->forward_grant(server_->gate_->release());
            break;
          }
          connection->holds_link = true;
          if (connection->state == Connection::State::kAwaitLink) {
            pump_shaped(*connection);
          }
          break;
        }
        case Message::Kind::kStop:
          stopping_ = true;
          count_forced_ = message.rejected;
          break;
      }
    }
  }

  void add_connection(TcpStream stream, std::uint64_t id, bool rejected) {
    auto connection = std::make_unique<Connection>();
    connection->stream = std::move(stream);
    connection->id = id;
    connection->rejected = rejected;
    connection->deadline_window_ms = rejected
                                         ? server_->options_.reject_timeout_ms
                                         : server_->options_.idle_timeout_ms;
    Connection* raw = connection.get();
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, raw->stream.fd(),
                    &event) != 0) {
      server_->live_.fetch_sub(1);
      return;  // fd already dead; the unique_ptr closes it
    }
    table_.emplace(id, std::move(connection));
    table_size_.store(table_.size());
    gauge_->set(static_cast<double>(table_.size()));
    arm_deadline(*raw);
    handle_readable(*raw);  // data may predate the epoll registration
  }

  Connection* find(std::uint64_t id) {
    const auto it = table_.find(id);
    return it == table_.end() ? nullptr : it->second.get();
  }

  /// Removes the connection: releases any link claim, unregisters the fd,
  /// shuts the stream down so the peer sees EOF promptly.
  void close_connection(Connection& connection) {
    if (server_->gate_ != nullptr &&
        (connection.holds_link ||
         connection.state == Connection::State::kAwaitLink)) {
      server_->forward_grant(server_->gate_->cancel(connection.id));
    }
    (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, connection.stream.fd(),
                      nullptr);
    connection.stream.shutdown_both();
    table_.erase(connection.id);
    table_size_.store(table_.size());
    gauge_->set(static_cast<double>(table_.size()));
    server_->live_.fetch_sub(1);
  }

  void close_all() {
    for (auto& [id, connection] : table_) {
      if (count_forced_) server_->forced_closes_.fetch_add(1);
      connection->stream.shutdown_both();
      server_->live_.fetch_sub(1);
    }
    table_.clear();
    table_size_.store(0);
    gauge_->set(0.0);
  }

  // --- timers --------------------------------------------------------------

  /// Starts a fresh deadline window. A connection keeps one queued deadline
  /// entry: it re-checks the field when it pops, so only a deadline that
  /// moved earlier than the queued instant (a shorter window, such as a
  /// telemetry write deadline) needs a new entry, which supersedes the old.
  void arm_deadline(Connection& connection) {
    touch_deadline(connection);
    if (connection.deadline_window_ms > 0 &&
        connection.deadline < connection.deadline_queued) {
      queue_deadline(connection);
    }
  }

  /// Pushes the deadline out after I/O progress (no new heap entry).
  void touch_deadline(Connection& connection) {
    if (connection.deadline_window_ms <= 0) return;
    connection.deadline =
        Clock::now() + std::chrono::milliseconds(connection.deadline_window_ms);
  }

  void queue_deadline(Connection& connection) {
    connection.deadline_queued = connection.deadline;
    timers_.push(TimerEntry{connection.deadline, connection.id, 0,
                            TimerKind::kDeadline});
  }

  void schedule_resume(Connection& connection, Clock::time_point when) {
    timers_.push(TimerEntry{when, connection.id, ++connection.generation,
                            TimerKind::kResume});
  }

  void process_timers() {
    const auto now = Clock::now();
    while (!timers_.empty() && timers_.top().when <= now) {
      const TimerEntry entry = timers_.top();
      timers_.pop();
      Connection* connection = find(entry.id);
      if (connection == nullptr) continue;  // stale: connection gone
      if (entry.kind == TimerKind::kResume) {
        if (connection->generation == entry.generation) on_resume(*connection);
        continue;  // otherwise stale: the state moved on
      }
      if (entry.when != connection->deadline_queued) continue;  // superseded
      connection->deadline_queued = Clock::time_point::max();
      if (connection->deadline_window_ms <= 0) continue;  // disarmed
      if (connection->deadline > now) {
        // Progress since the entry was queued: re-arm at the new instant.
        queue_deadline(*connection);
        continue;
      }
      on_deadline(*connection);
    }
  }

  void on_deadline(Connection& connection) {
    switch (connection.state) {
      case Connection::State::kReadHeaders:
      case Connection::State::kReadBody:
        if (connection.rejected) {
          // A shed peer gets its 503 even when it stalls mid-request: the
          // request is read only so that closing cannot reset the answer
          // away, and the deadline just ends that wait.
          respond_reject(connection);
          return;
        }
        close_connection(connection);  // slowloris: cut without a response
        return;
      case Connection::State::kWriteHead:
      case Connection::State::kWriteBody: {
        const EpollServer::Outcome outcome =
            connection.response.telemetry ? Outcome::kWriteDeadline
                                          : Outcome::kPeerGone;
        finish_report(connection, outcome);
        close_connection(connection);
        return;
      }
      default:
        // The shard itself is waiting (first-byte delay, link queue, trace
        // release, stall), not the peer: restart the window so the wait
        // never counts against it.
        arm_deadline(connection);
        return;
    }
  }

  void on_resume(Connection& connection) {
    switch (connection.state) {
      case Connection::State::kDelay:
        start_writing(connection);
        return;
      case Connection::State::kQuantumWait:
        connection.state = Connection::State::kWriteBody;
        pump_shaped(connection);
        return;
      case Connection::State::kStallSleep:
        // Re-acquire the link, which the stall handed back.
        if (server_->gate_->acquire(connection.id)) {
          connection.holds_link = true;
          connection.state = Connection::State::kWriteBody;
          pump_shaped(connection);
        } else {
          connection.state = Connection::State::kAwaitLink;
        }
        return;
      default:
        return;
    }
  }

  // --- event dispatch ------------------------------------------------------

  void handle_event(std::uint64_t id, std::uint32_t events) {
    Connection* connection = find(id);
    if (connection == nullptr) return;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      if (connection->responding) {
        finish_report(*connection, Outcome::kPeerGone);
      }
      close_connection(*connection);
      return;
    }
    if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) {
      if (connection->state == Connection::State::kReadHeaders ||
          connection->state == Connection::State::kReadBody) {
        handle_readable(*connection);
      } else {
        // Mid-response: note it and keep not reading. Requests are read
        // only between responses, so the kernel buffer backpressures a
        // pipelining flood.
        connection->read_ready = true;
        if ((events & EPOLLRDHUP) != 0) connection->peer_eof = true;
      }
    }
    connection = find(id);  // the read path may have closed it
    if (connection == nullptr) return;
    if ((events & EPOLLOUT) != 0) {
      if (connection->state == Connection::State::kWriteHead ||
          connection->state == Connection::State::kWriteBody) {
        // A paced response resumes on its own path even when only part of
        // its head went out: pump_plain would writev the whole body past
        // the link and the trace allowance.
        if (!paced(*connection)) {
          pump_plain(*connection);
        } else if (connection->state == Connection::State::kWriteHead) {
          pump_head_then_shaped(*connection);
        } else {
          pump_shaped(*connection);
        }
      }
    }
  }

  // --- read path -----------------------------------------------------------

  void handle_readable(Connection& connection) {
    const std::uint64_t id = connection.id;
    char buffer[8192];
    while (connection.state == Connection::State::kReadHeaders ||
           connection.state == Connection::State::kReadBody) {
      const bool parsed = try_parse(connection);
      // The parse may have planned a response that finished and closed the
      // connection (400, 503, reset, truncation, Connection: close).
      if (find(id) == nullptr) return;
      if (parsed) continue;
      if (connection.state != Connection::State::kReadHeaders &&
          connection.state != Connection::State::kReadBody) {
        return;
      }
      const ssize_t n =
          ::recv(connection.stream.fd(), buffer, sizeof(buffer), 0);
      if (n > 0) {
        connection.in.append(buffer, static_cast<std::size_t>(n));
        touch_deadline(connection);
        continue;
      }
      if (n == 0) {
        on_read_eof(connection);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_connection(connection);
      return;
    }
  }

  void on_read_eof(Connection& connection) {
    connection.peer_eof = true;
    if (connection.rejected) {
      // A shed connection is answered 503 whatever happened to its
      // request, EOF included.
      respond_reject(connection);
      return;
    }
    if (connection.state == Connection::State::kReadHeaders &&
        connection.in.empty()) {
      close_connection(connection);  // clean EOF between requests
      return;
    }
    respond_bad_request(connection);  // closed mid-message: the terse 400
  }

  /// Advances the parser over `in`. Returns true when it made progress and
  /// the caller should loop (more may be parseable without new input).
  bool try_parse(Connection& connection) {
    if (connection.state == Connection::State::kReadBody) {
      const std::size_t take =
          std::min(connection.body_remaining, connection.in.size());
      if (take > 0) {
        connection.request.body.append(connection.in, 0, take);
        connection.in.erase(0, take);
        connection.body_remaining -= take;
      }
      if (connection.body_remaining > 0) return false;
      dispatch_request(connection);
      return false;
    }

    // Find the header/body boundary, resuming where the last scan left off
    // (the "\r\n\r\n" may straddle reads).
    const std::size_t from = connection.scan > 3 ? connection.scan - 3 : 0;
    const std::size_t boundary = connection.in.find("\r\n\r\n", from);
    if (boundary == std::string::npos) {
      connection.scan = connection.in.size();
      if (connection.in.size() > kMaxHeaderBytes) {
        respond_bad_request(connection);
      }
      return false;
    }
    if (boundary > kMaxHeaderBytes) {
      respond_bad_request(connection);
      return false;
    }
    const std::string block = connection.in.substr(0, boundary);
    connection.in.erase(0, boundary + 4);
    connection.scan = 0;

    const std::string_view line = first_line_of(block);
    if (line.size() > kMaxRequestLineBytes) {
      respond_bad_request(connection);
      return false;
    }
    connection.request = HttpRequest{};
    if (!parse_request_line(line, connection.request)) {
      respond_bad_request(connection);
      return false;
    }
    std::size_t body_length = 0;
    try {
      connection.request.headers = parse_header_block(block, /*skip_lines=*/1);
      body_length = content_length_of(connection.request.headers);
    } catch (const std::invalid_argument&) {
      respond_bad_request(connection);
      return false;
    }
    if (body_length > 0) {
      connection.body_remaining = body_length;
      connection.request.body.reserve(body_length);
      connection.state = Connection::State::kReadBody;
      return true;  // body bytes may already be buffered
    }
    dispatch_request(connection);
    return false;
  }

  // --- response planning ---------------------------------------------------

  void dispatch_request(Connection& connection) {
    if (connection.rejected) {
      respond_reject(connection);
      return;
    }
    connection.request_start = Clock::now();
    deliver(connection, server_->handler_->on_request(connection.request),
            Response::Kind::kRequest);
  }

  void respond_bad_request(Connection& connection) {
    if (connection.rejected) {
      respond_reject(connection);
      return;
    }
    connection.request_start = Clock::now();
    deliver(connection, server_->handler_->on_bad_request(),
            Response::Kind::kBadRequest);
  }

  void respond_reject(Connection& connection) {
    connection.request_start = Clock::now();
    deliver(connection, server_->handler_->on_reject(),
            Response::Kind::kReject);
  }

  void deliver(Connection& connection, Response response,
               Response::Kind kind) {
    connection.responding = true;
    connection.response = std::move(response);
    connection.response_kind = kind;
    if (kind != Response::Kind::kRequest) {
      connection.response.close_after = true;
      connection.response.shaped = false;
    }
    if (connection.response.reset) {
      finish_report(connection, Outcome::kComplete);
      close_connection(connection);
      return;
    }

    connection.body = connection.response.body();
    if (connection.response.truncate_after_fraction >= 0.0) {
      const auto cut = static_cast<std::size_t>(
          static_cast<double>(connection.body.size()) *
          connection.response.truncate_after_fraction);
      connection.body = connection.body.substr(0, cut);
      connection.shutdown_after = true;
    }
    connection.stall_at = std::string_view::npos;
    if (connection.response.stall_after_fraction >= 0.0) {
      connection.stall_at = static_cast<std::size_t>(
          static_cast<double>(connection.body.size()) *
          connection.response.stall_after_fraction);
    }
    connection.head_sent = 0;
    connection.body_sent = 0;
    connection.stalled = false;
    connection.burst_left = 0;
    connection.deadline_window_ms =
        connection.response.write_deadline_ms > 0
            ? connection.response.write_deadline_ms
            : (connection.rejected ? server_->options_.reject_timeout_ms
                                   : server_->options_.idle_timeout_ms);

    if (connection.response.first_byte_delay_s > 0.0) {
      connection.state = Connection::State::kDelay;
      schedule_resume(
          connection,
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 connection.response.first_byte_delay_s)));
      return;
    }
    start_writing(connection);
  }

  void start_writing(Connection& connection) {
    connection.state = Connection::State::kWriteHead;
    arm_deadline(connection);
    if (paced(connection)) {
      pump_head_then_shaped(connection);
    } else {
      pump_plain(connection);
    }
  }

  /// Whether the body goes through the shaper gate (the emulated link).
  bool paced(const Connection& connection) const {
    return connection.response.shaped && !connection.body.empty() &&
           server_->gate_ != nullptr;
  }

  // --- write path ----------------------------------------------------------

  /// Writes head + body with writev (zero-copy: the body iovec points into
  /// the shared buffer). Used for unshaped responses and empty bodies.
  void pump_plain(Connection& connection) {
    const std::string& head = connection.response.head;
    while (true) {
      iovec iov[2];
      int iovcnt = 0;
      if (connection.head_sent < head.size()) {
        iov[iovcnt].iov_base =
            const_cast<char*>(head.data() + connection.head_sent);
        iov[iovcnt].iov_len = head.size() - connection.head_sent;
        ++iovcnt;
      }
      std::size_t body_span = 0;
      if (connection.body_sent < connection.body.size()) {
        body_span = connection.body.size() - connection.body_sent;
        iov[iovcnt].iov_base = const_cast<char*>(connection.body.data() +
                                                 connection.body_sent);
        iov[iovcnt].iov_len = body_span;
        ++iovcnt;
      }
      if (iovcnt == 0) {
        finish_response(connection);
        return;
      }
      const ssize_t n = ::writev(connection.stream.fd(), iov, iovcnt);
      if (n > 0) {
        advance_sent(connection, static_cast<std::size_t>(n));
        touch_deadline(connection);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        connection.state = connection.head_sent < head.size()
                               ? Connection::State::kWriteHead
                               : Connection::State::kWriteBody;
        want_writable(connection);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      finish_report(connection, Outcome::kPeerGone);
      close_connection(connection);
      return;
    }
  }

  void advance_sent(Connection& connection, std::size_t n) {
    const std::string& head = connection.response.head;
    if (connection.head_sent < head.size()) {
      const std::size_t take = std::min(n, head.size() - connection.head_sent);
      connection.head_sent += take;
      n -= take;
    }
    connection.body_sent += n;
  }

  /// Flushes the (unshaped) head, then enters the paced body path.
  void pump_head_then_shaped(Connection& connection) {
    const std::string& head = connection.response.head;
    while (connection.head_sent < head.size()) {
      const ssize_t n = ::send(connection.stream.fd(),
                               head.data() + connection.head_sent,
                               head.size() - connection.head_sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        connection.head_sent += static_cast<std::size_t>(n);
        touch_deadline(connection);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        connection.state = Connection::State::kWriteHead;
        want_writable(connection);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      finish_report(connection, Outcome::kPeerGone);
      close_connection(connection);
      return;
    }
    connection.state = Connection::State::kWriteBody;
    if (connection.holds_link || server_->gate_->acquire(connection.id)) {
      connection.holds_link = true;
      pump_shaped(connection);
    } else {
      connection.state = Connection::State::kAwaitLink;
    }
  }

  /// Paced body writes while holding the link: the gate charges every
  /// quantum the trace has already released as one burst, written with one
  /// send (a partial write continues on EPOLLOUT without claiming again).
  /// When no quantum is due, its release instant becomes a resume timer
  /// instead of a sleep.
  void pump_shaped(Connection& connection) {
    ShaperGate* gate = server_->gate_;
    while (true) {
      if (connection.body_sent >= connection.body.size()) {
        finish_response(connection);
        return;
      }
      if (connection.stall_at != std::string_view::npos &&
          connection.body_sent >= connection.stall_at && !connection.stalled) {
        // Mid-body stall: hand the link back for the duration, so other
        // bodies flow while this one waits.
        connection.stalled = true;
        connection.holds_link = false;
        server_->forward_grant(gate->release());
        connection.state = Connection::State::kStallSleep;
        schedule_resume(connection,
                        Clock::now() +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    connection.response.stall_wall_s)));
        return;
      }
      if (connection.burst_left == 0) {
        // The stall point is a quantum boundary: the body is charged as two
        // pieces, each cut into quanta from its own start.
        std::size_t limit = connection.body.size();
        if (!connection.stalled &&
            connection.stall_at != std::string_view::npos) {
          limit = std::min(limit, connection.stall_at);
        }
        const ShaperGate::Burst burst =
            gate->claim_burst(limit - connection.body_sent, Clock::now());
        if (burst.bytes == 0) {
          connection.state = Connection::State::kQuantumWait;
          schedule_resume(connection, burst.next_release);
          return;
        }
        connection.burst_left = burst.bytes;
      }
      const ssize_t n =
          ::send(connection.stream.fd(),
                 connection.body.data() + connection.body_sent,
                 connection.burst_left, MSG_NOSIGNAL);
      if (n > 0) {
        connection.body_sent += static_cast<std::size_t>(n);
        connection.burst_left -= static_cast<std::size_t>(n);
        touch_deadline(connection);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        connection.state = Connection::State::kWriteBody;
        want_writable(connection);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      finish_report(connection, Outcome::kPeerGone);
      close_connection(connection);
      return;
    }
  }

  void want_writable(Connection& connection) {
    if (connection.want_out) return;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET;
    event.data.u64 = connection.id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, connection.stream.fd(),
                    &event) == 0) {
      connection.want_out = true;
    }
  }

  void drop_writable(Connection& connection) {
    if (!connection.want_out) return;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    event.data.u64 = connection.id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, connection.stream.fd(),
                    &event) == 0) {
      connection.want_out = false;
    }
  }

  // --- response completion -------------------------------------------------

  void finish_report(Connection& connection, Outcome outcome) {
    if (!connection.responding) return;
    connection.responding = false;
    const double wall_us =
        connection.request_start == Clock::time_point{}
            ? 0.0
            : std::chrono::duration<double, std::micro>(
                  Clock::now() - connection.request_start)
                  .count();
    server_->handler_->on_response_done(connection.response,
                                        connection.response_kind, wall_us,
                                        outcome);
  }

  void finish_response(Connection& connection) {
    if (connection.holds_link) {
      connection.holds_link = false;
      server_->forward_grant(server_->gate_->release());
    }
    finish_report(connection, Outcome::kComplete);
    if (connection.shutdown_after || connection.response.close_after) {
      close_connection(connection);
      return;
    }
    // Keep-alive: back to reading; pipelined bytes (buffered here or in the
    // kernel while we were responding) are picked up immediately.
    connection.state = Connection::State::kReadHeaders;
    connection.scan = 0;
    connection.deadline_window_ms = server_->options_.idle_timeout_ms;
    arm_deadline(connection);
    drop_writable(connection);
    connection.read_ready = false;
    handle_readable(connection);
  }

  EpollServer* server_;
  std::size_t index_;
  obs::Gauge* gauge_;
  FileDescriptor epoll_fd_;
  FileDescriptor wake_fd_;
  std::thread thread_;
  bool stopping_ = false;     ///< reactor-thread only
  bool count_forced_ = false; ///< reactor-thread only
  util::Mutex queue_mutex_;
  std::vector<Message> queue_ ABR_GUARDED_BY(queue_mutex_);
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> table_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  std::atomic<std::size_t> table_size_{0};
  std::atomic<std::size_t> timer_count_{0};  ///< timers_.size() per loop
};

// --- EpollServer -----------------------------------------------------------

EpollServer::EpollServer(Handler* handler, EpollServerOptions options)
    : handler_(handler), options_(std::move(options)) {
  assert(handler_ != nullptr);
  if (options_.shards == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    options_.shards = std::clamp<unsigned>(hardware / 2, 1, 4);
  }
}

EpollServer::~EpollServer() { stop(); }

void EpollServer::start(std::uint16_t port) {
  assert(!running_.load());
  listener_ = TcpListener::bind_loopback(port);
  port_ = listener_.port();
  draining_.store(false);
  shards_.clear();
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, i));
  }
  running_.store(true);
  for (auto& shard : shards_) shard->start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void EpollServer::accept_loop() {
  std::size_t next_shard = 0;
  while (running_.load()) {
    TcpStream stream;
    try {
      stream = listener_.accept();
    } catch (const std::system_error&) {
      if (!running_.load()) break;  // listener closed: orderly shutdown
    }
    if (!running_.load()) break;
    if (!stream.valid()) {
      // Out of descriptors, or another retryable failure: back off briefly
      // and keep accepting — connections finishing release descriptors.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const bool reject = options_.max_connections != 0 &&
                        live_.load() >= options_.max_connections;
    if (reject) rejected_.fetch_add(1);
    try {
      stream.set_no_delay(true);
      stream.set_nonblocking(true);
    } catch (const std::system_error&) {
      continue;  // peer vanished between accept and setup
    }
    live_.fetch_add(1);
    const std::uint64_t id =
        ((static_cast<std::uint64_t>(next_shard) + 1) << 32) | ++next_serial_;
    shards_[next_shard]->post_connection(std::move(stream), id, reject);
    next_shard = (next_shard + 1) % shards_.size();
    if (!reject) {
      std::size_t current = live_.load();
      std::size_t previous = peak_.load();
      while (current > previous &&
             !peak_.compare_exchange_weak(previous, current)) {
      }
    }
  }
}

void EpollServer::forward_grant(std::uint64_t ticket) {
  if (ticket == 0) return;
  const std::size_t shard = static_cast<std::size_t>(ticket >> 32) - 1;
  if (shard < shards_.size()) shards_[shard]->post_grant(ticket);
}

void EpollServer::join_shards() {
  for (auto& shard : shards_) shard->join();
  shards_.clear();
}

void EpollServer::stop() {
  if (!running_.exchange(false)) return;
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& shard : shards_) shard->post_stop(/*count_forced=*/false);
  join_shards();
}

std::size_t EpollServer::drain(double deadline_s) {
  if (!running_.exchange(false)) return 0;
  draining_.store(true);
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Let in-flight connections finish on their own: responses planned from
  // here on carry Connection: close (the handler consults draining()), so
  // keep-alive sessions end at the next request boundary.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  while (Clock::now() < deadline) {
    if (live_.load() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  forced_closes_.store(0);
  for (auto& shard : shards_) shard->post_stop(/*count_forced=*/true);
  join_shards();
  return forced_closes_.load();
}

std::size_t EpollServer::tracked_connections() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->table_size();
  return total;
}

std::size_t EpollServer::queued_timers() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->timer_count();
  return total;
}

}  // namespace abr::net
