#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/line_protocol.h"

namespace bccs {

namespace {

/// Per-connection response backlog bound: a client that stops reading
/// while submitting is disconnected once this many unsent bytes queue up
/// (kept responses for id= requests survive in the ResponseKeeper).
constexpr std::size_t kMaxOutboxBytes = 4u << 20;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

/// Per-connection state. Ownership split:
///   - The poll loop exclusively owns the socket (fd, splitter, read_closed)
///     — no lock needed, single thread.
///   - Engine workers reach a connection only through Deliver(), which
///     touches the fields under `mutex` and wakes the loop. A worker never
///     sees the fd.
/// shared_ptr lifetime: completion callbacks capture the Connection, so a
/// hard close (reset, overflow) cannot free state a late completion still
/// writes to — `closed` makes the late Deliver a no-op instead.
struct NetServer::Connection {
  Connection(int fd_in, std::size_t max_line_bytes)
      : fd(fd_in), splitter(max_line_bytes) {}

  // Poll-loop-only:
  int fd;
  LineSplitter splitter;
  bool read_closed = false;  // EOF / quit / overlong: stop reading, drain, close

  // Shared with workers:
  Mutex mutex;
  std::string outbox GUARDED_BY(mutex);       // formatted, unsent response bytes
  std::size_t inflight GUARDED_BY(mutex) = 0; // submitted items not yet completed
  bool closed GUARDED_BY(mutex) = false;      // fd gone: drop deliveries
  bool overflowed GUARDED_BY(mutex) = false;  // outbox bound hit: loop hard-closes
};

NetServer::NetServer(ServeEngine& engine, NetServerOptions opts)
    : engine_(&engine), opts_(std::move(opts)), keeper_(opts_.keeper_capacity) {}

NetServer::~NetServer() {
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_[0] >= 0) ::close(wake_fd_[0]);
  if (wake_fd_[1] >= 0) ::close(wake_fd_[1]);
}

bool NetServer::Start(std::string* error) {
  BCCS_CHECK(listen_fd_ < 0) << "NetServer::Start called twice";
  if (::pipe(wake_fd_) != 0) {
    *error = ErrnoString("pipe");
    return false;
  }
  if (!SetNonBlocking(wake_fd_[0]) || !SetNonBlocking(wake_fd_[1])) {
    *error = ErrnoString("fcntl(self-pipe)");
    return false;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = ErrnoString("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid bind address '" + opts_.bind_address + "'";
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    *error = ErrnoString(("bind " + opts_.bind_address + ":" +
                          std::to_string(opts_.port)).c_str());
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = ErrnoString("listen");
    return false;
  }
  if (!SetNonBlocking(listen_fd_)) {
    *error = ErrnoString("fcntl(listener)");
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    *error = ErrnoString("getsockname");
    return false;
  }
  port_ = ntohs(bound.sin_port);
  return true;
}

void NetServer::RequestShutdown() {
  // Async-signal-safe: a lock-free atomic store plus one write(2). Never
  // takes a lock or allocates — this runs inside SIGINT/SIGTERM handlers.
  shutdown_.store(true, std::memory_order_release);
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_fd_[1], &byte, 1);
}

void NetServer::Wake() {
  const char byte = 'w';
  // EAGAIN (pipe full) is fine: a full pipe already guarantees a pending
  // wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_[1], &byte, 1);
}

void NetServer::Deliver(const std::shared_ptr<Connection>& conn, std::string_view text) {
  bool wake = false;
  {
    MutexLock lock(conn->mutex);
    if (!conn->closed && !conn->overflowed) {
      conn->outbox.append(text);
      conn->outbox.push_back('\n');
      // A client that submits without reading cannot queue unbounded
      // response bytes: flag it and let the loop disconnect it. (Kept id=
      // responses survive in the ResponseKeeper for the reconnect.)
      if (conn->outbox.size() > kMaxOutboxBytes) conn->overflowed = true;
      wake = true;
    }
  }
  if (wake) Wake();
}

void NetServer::HardClose(Connection& conn) {
  {
    MutexLock lock(conn.mutex);
    conn.closed = true;
    conn.outbox.clear();
  }
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;  // the reap sweep removes fd < 0 entries
}

/// Writes as much buffered output as the socket accepts. Returns false on a
/// fatal write error (connection must be hard-closed).
bool NetServer::FlushConn(Connection& conn) {
  while (true) {
    std::string pending;
    {
      MutexLock lock(conn.mutex);
      if (conn.outbox.empty()) return true;
      pending.swap(conn.outbox);
    }
    std::size_t off = 0;
    int write_errno = 0;
    while (off < pending.size()) {
      const ssize_t n = ::write(conn.fd, pending.data() + off, pending.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      write_errno = n < 0 ? errno : EIO;
      break;
    }
    if (off < pending.size()) {
      const bool fatal = write_errno != EAGAIN && write_errno != EWOULDBLOCK;
      // Re-queue the unsent suffix ahead of anything workers appended while
      // we were writing unlocked.
      MutexLock lock(conn.mutex);
      conn.outbox.insert(0, pending, off, pending.size() - off);
      return !fatal;
    }
  }
}

void NetServer::HandleLine(const std::shared_ptr<Connection>& conn,
                           const std::string& line) {
  NetRequest req;
  std::string error;
  switch (ParseNetRequest(line, num_vertices_, &req, &error)) {
    case NetParseStatus::kBlank:
      return;
    case NetParseStatus::kError:
      ++stats_.protocol_errors;
      Deliver(conn, FormatErrorResponse(req.id, error));
      return;
    case NetParseStatus::kOk:
      break;
  }

  if (req.kind == NetRequestKind::kPing) {
    Deliver(conn, "pong");
    return;
  }
  if (req.kind == NetRequestKind::kQuit) {
    // Flush what is pending (including in-flight completions), then close.
    // Same drain condition as EOF, so the reap sweep handles both.
    conn->read_closed = true;
    return;
  }

  const std::uint64_t client_id = req.id;
  if (client_id != 0) {
    // Idempotent-retry gate: only the first arrival of an id executes.
    auto self = conn;  // shared_ptr copy for the deliverer
    const ResponseKeeper::Start start = keeper_.StartRequest(
        client_id,
        [this, self](const std::string& response) { Deliver(self, response); });
    if (start != ResponseKeeper::Start::kStarted) return;
  }

  ServeItem item = ToServeItem(req, opts_.query_proto);

  ++stats_.requests_submitted;
  {
    MutexLock lock(conn->mutex);
    ++conn->inflight;
  }
  auto self = conn;
  stream_->Submit(
      std::move(item), [this, self, client_id](const ItemCompletion& done) {
        // Worker thread. Format once; route through the keeper for id=
        // requests (which also replays to any attached retries), directly to
        // the origin connection otherwise.
        std::string response = FormatCompletionResponse(client_id, done);
        if (client_id != 0) {
          keeper_.CompleteRequest(client_id, std::move(response));
        } else {
          Deliver(self, response);
        }
        {
          MutexLock lock(self->mutex);
          --self->inflight;
        }
        Wake();  // the conn may now be drainable (read_closed reap)
      });
}

void NetServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  while (!conn->read_closed) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      if (!conn->splitter.Feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
        // The line boundary is lost; nothing past this point can be framed.
        ++stats_.overlong_closes;
        Deliver(conn, FormatErrorResponse(
                          0, "line exceeds " + std::to_string(opts_.max_line_bytes) +
                                 " bytes; closing"));
        conn->read_closed = true;
        return;
      }
      std::string line;
      while (!conn->read_closed && conn->splitter.Next(&line)) {
        HandleLine(conn, line);
      }
      continue;
    }
    if (n == 0) {
      // EOF. A buffered un-terminated fragment is an abrupt mid-request
      // disconnect: discard it — a torn request must never partially apply.
      if (conn->splitter.pending_bytes() > 0) ++stats_.torn_disconnects;
      conn->read_closed = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    HardClose(*conn);  // ECONNRESET and friends
    return;
  }
}

void NetServer::AcceptNew() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient
    if (conns_.size() >= opts_.max_connections) {
      ++stats_.rejected_over_capacity;
      static constexpr char kMsg[] = "err 0 server at connection limit\n";
      [[maybe_unused]] ssize_t n = ::write(fd, kMsg, sizeof kMsg - 1);
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ++stats_.accepted;
    conns_.push_back(std::make_shared<Connection>(fd, opts_.max_line_bytes));
  }
}

void NetServer::PollOnce(int timeout_ms) {
  std::vector<pollfd> pfds;
  // Slot 0: the self-pipe; slot 1: the listener (accept only below the
  // connection cap — past it, leave backlog in the kernel and let clients
  // queue); then one slot per live connection.
  pfds.push_back({wake_fd_[0], POLLIN, 0});
  pfds.push_back({listen_fd_, POLLIN, 0});
  std::vector<std::shared_ptr<Connection>> polled;
  polled.reserve(conns_.size());
  for (const auto& conn : conns_) {
    if (conn->fd < 0) continue;
    short events = 0;
    if (!conn->read_closed) events |= POLLIN;
    {
      MutexLock lock(conn->mutex);
      if (!conn->outbox.empty()) events |= POLLOUT;
    }
    pfds.push_back({conn->fd, events, 0});
    polled.push_back(conn);
  }

  const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) return;

  if (pfds[0].revents & POLLIN) {
    char drain[256];
    while (::read(wake_fd_[0], drain, sizeof drain) > 0) {
    }
  }
  if (pfds[1].revents & POLLIN) AcceptNew();

  for (std::size_t i = 0; i < polled.size(); ++i) {
    const auto& conn = polled[i];
    const short rev = pfds[i + 2].revents;
    if (conn->fd < 0) continue;
    if (rev & (POLLOUT | POLLERR | POLLHUP)) {
      if (!FlushConn(*conn)) {
        HardClose(*conn);
        continue;
      }
    }
    if (rev & (POLLIN | POLLHUP)) HandleReadable(conn);
  }

  // Reap: hard-closed entries; overflowed clients; and drained read-closed
  // connections (EOF/quit/overlong with no in-flight items and an empty
  // outbox — everything owed has been sent).
  std::vector<std::shared_ptr<Connection>> live;
  live.reserve(conns_.size());
  for (const auto& conn : conns_) {
    if (conn->fd < 0) continue;
    bool drained;
    bool overflowed;
    {
      MutexLock lock(conn->mutex);
      drained = conn->outbox.empty() && conn->inflight == 0;
      overflowed = conn->overflowed;
    }
    if (overflowed) {
      ++stats_.overflow_closes;
      HardClose(*conn);
      continue;
    }
    if (conn->read_closed && drained) {
      // Try a final opportunistic flush in case output landed after the
      // poll (drained implies empty outbox, so this is just the close).
      HardClose(*conn);
      continue;
    }
    live.push_back(conn);
  }
  conns_.swap(live);
}

/// Post-drain flush: every completion has been delivered into its outbox;
/// push the tails out with a short dedicated poll loop so clients that are
/// still reading get their final responses before the process exits.
void NetServer::FlushTails() {
  constexpr int kRounds = 500;  // ~5s at 10ms per round
  for (int round = 0; round < kRounds; ++round) {
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Connection>> polled;
    for (const auto& conn : conns_) {
      if (conn->fd < 0) continue;
      bool has_output;
      {
        MutexLock lock(conn->mutex);
        has_output = !conn->outbox.empty();
      }
      if (!has_output) {
        HardClose(*conn);  // nothing owed; close now
        continue;
      }
      pfds.push_back({conn->fd, POLLOUT, 0});
      polled.push_back(conn);
    }
    if (polled.empty()) return;
    const int rc = ::poll(pfds.data(), pfds.size(), 10);
    if (rc < 0 && errno != EINTR) return;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) {
        if (!FlushConn(*polled[i])) HardClose(*polled[i]);
      }
    }
  }
}

StreamSummary NetServer::Run() {
  BCCS_CHECK(listen_fd_ >= 0) << "NetServer::Run before Start";
  ServeEngine::Stream stream = engine_->OpenStream();
  stream_ = &stream;
  num_vertices_ = engine_->graph().NumVertices();

  while (!shutdown_.load(std::memory_order_acquire)) {
    // 250ms cap: bounds shutdown latency even if a wake write was lost.
    PollOnce(250);
  }

  // Graceful shutdown: stop accepting, stop reading, drain what was
  // admitted, flush the response tails, close.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (const auto& conn : conns_) conn->read_closed = true;
  stream_ = nullptr;  // no further Submits (the loop thread is here)
  StreamSummary summary = stream.Finish();  // completions keep delivering to outboxes
  FlushTails();
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) HardClose(*conn);
  }
  conns_.clear();
  stats_.keeper = keeper_.stats();
  return summary;
}

}  // namespace bccs
