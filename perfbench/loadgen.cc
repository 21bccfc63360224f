// Socket load generation against `bccs_serve --listen`: a closed loop (one
// outstanding request per connection), a pipelined open loop (requests sent
// at their scheduled times, replies matched by id), and a sequential update
// probe. One thread per connection; no more connections than asked for.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string_view>
#include <thread>

#include "perfbench.h"

namespace perfbench {
namespace {

/// One blocking-send, poll-receive line connection.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  int fd() const { return fd_; }

  /// Waits up to `timeout` seconds for bytes; appends complete lines to
  /// *lines. False once the peer closed or the socket failed.
  bool Receive(double timeout, std::vector<std::string>* lines) {
    pollfd p{fd_, POLLIN, 0};
    const int r = Poll(&p, 1, timeout);
    if (r < 0) return errno == EINTR;
    return r == 0 || ReadLines(lines);
  }

  /// One recv of what is available (call when poll reported POLLIN);
  /// appends complete lines. False once the peer closed or failed.
  bool ReadLines(std::vector<std::string>* lines) {
    char buf[65536];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0, nl;
    while ((nl = buffer_.find('\n', start)) != std::string::npos) {
      lines->push_back(buffer_.substr(start, nl - start));
      start = nl + 1;
    }
    buffer_.erase(0, start);
    return true;
  }

  /// ppoll with a timeout in (fractional) seconds.
  static int Poll(pollfd* fds, std::size_t n, double timeout) {
    timespec ts{};
    const double t = std::max(0.0, timeout);
    ts.tv_sec = static_cast<time_t>(t);
    ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
    return ppoll(fds, n, &ts, nullptr);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Parses "ok|rej|err <id> ..." into *reply; returns the id (0 if none).
std::uint64_t ParseReply(const std::string& line, WireReply* reply) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) return 0;
  const std::string_view kind(line.data(), sp);
  reply->status = kind == "ok" ? 'o' : kind == "rej" ? 'r' : 'e';
  char* end = nullptr;
  const std::uint64_t id = std::strtoull(line.c_str() + sp + 1, &end, 10);
  auto field = [&line](const char* key) -> const char* {
    const std::size_t at = line.find(key);
    return at == std::string::npos ? nullptr : line.c_str() + at + std::char_traits<char>::length(key);
  };
  if (const char* e = field(" epoch=")) reply->epoch = std::strtoull(e, nullptr, 10);
  if (const char* n = field(" n=")) reply->size = std::strtoull(n, nullptr, 10);
  if (const char* h = field(" h=")) reply->hash = std::strtoull(h, nullptr, 16);
  return id;
}

}  // namespace

std::string FormatWireRequest(const WireRequest& r, std::uint64_t id) {
  if (r.is_update) {
    const char sign = r.update.kind == bccs::EdgeUpdateKind::kInsert ? '+' : '-';
    return std::string("u ") + sign + " " + std::to_string(r.update.edge.u) + " " +
           std::to_string(r.update.edge.v) + " id=" + std::to_string(id) + "\n";
  }
  return "q " + std::to_string(r.query.ql) + " " + std::to_string(r.query.qr) +
         " id=" + std::to_string(id) + "\n";
}

void RunClosedLoop(int port, int connections, double session_origin, double window_start,
                   double stop, double grace, std::vector<WireRequest>* requests,
                   std::vector<WireReply>* replies) {
  replies->assign(requests->size(), WireReply{});
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Conn conn(port);
      if (!conn.ok()) return;
      std::vector<std::string> lines;
      while (Now() - session_origin < stop) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= requests->size()) return;
        WireRequest& req = (*requests)[i];
        WireReply& rep = (*replies)[i];
        req.connection = c;
        rep.send_time = Now() - session_origin;
        req.in_window = rep.send_time >= window_start;
        rep.sent = conn.Send(FormatWireRequest(req, i + 1));
        if (!rep.sent) return;
        lines.clear();
        while (lines.empty()) {
          const double left = session_origin + stop + grace - Now();
          if (left <= 0 || !conn.Receive(left, &lines)) return;
        }
        rep.done_time = Now() - session_origin;
        rep.received = ParseReply(lines.front(), &rep) == i + 1 && lines.size() == 1;
        if (!rep.received) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::size_t drawn = std::min(cursor.load(), requests->size());
  requests->resize(drawn);
  replies->resize(drawn);
}

void RunOpenLoop(int port, int connections, double session_origin, double grace,
                 const std::vector<WireRequest>& requests, std::vector<WireReply>* replies) {
  // One generator thread drives every connection: the server's threads get
  // the CPUs, and a send is late only when the generator itself is.
  replies->assign(requests.size(), WireReply{});
  if (requests.empty()) return;
  // Wake at the scheduled send time, not up to the default 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<pollfd> fds;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
    if (!conns.back()->ok()) return;
    fds.push_back(pollfd{conns.back()->fd(), POLLIN, 0});
  }
  const double deadline = requests.back().due + grace;
  std::vector<std::string> batches(conns.size());
  std::vector<std::string> lines;
  std::size_t next = 0, outstanding = 0;
  while (true) {
    double now = Now() - session_origin;
    const std::size_t first = next;
    for (; next < requests.size() && requests[next].due <= now; ++next) {
      batches[static_cast<std::size_t>(requests[next].connection)] +=
          FormatWireRequest(requests[next], next + 1);
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (batches[c].empty()) continue;
      if (!conns[c]->Send(batches[c])) return;
      batches[c].clear();
    }
    for (std::size_t i = first; i < next; ++i) {
      (*replies)[i].sent = true;
      (*replies)[i].send_time = now;
    }
    outstanding += next - first;
    if (next == requests.size() && outstanding == 0) return;
    now = Now() - session_origin;
    if (now > deadline) return;
    const double wait = next < requests.size() ? requests[next].due - now : deadline - now;
    for (pollfd& p : fds) p.revents = 0;
    const int ready = Conn::Poll(fds.data(), fds.size(), wait);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;
    lines.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents != 0 && !conns[c]->ReadLines(&lines)) return;
    }
    const double done = Now() - session_origin;
    for (const std::string& line : lines) {
      WireReply parsed;
      const std::uint64_t id = ParseReply(line, &parsed);
      if (id == 0 || id > requests.size()) continue;
      WireReply& rep = (*replies)[id - 1];
      if (!rep.sent || rep.received) continue;
      parsed.sent = true;
      parsed.send_time = rep.send_time;
      parsed.done_time = done;
      parsed.received = true;
      rep = parsed;
      --outstanding;
    }
  }
}

void RunUpdateProbe(int port, double session_origin, std::uint64_t first_id,
                    const std::vector<WireRequest>& updates, std::vector<WireReply>* replies) {
  replies->assign(updates.size(), WireReply{});
  Conn conn(port);
  if (!conn.ok()) return;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    WireReply& rep = (*replies)[i];
    rep.send_time = Now() - session_origin;
    rep.sent = conn.Send(FormatWireRequest(updates[i], first_id + i));
    if (!rep.sent) return;
    lines.clear();
    const double deadline = Now() + 30.0;
    while (lines.empty()) {
      const double left = deadline - Now();
      if (left <= 0 || !conn.Receive(left, &lines)) return;
    }
    rep.done_time = Now() - session_origin;
    rep.received = ParseReply(lines.front(), &rep) == first_id + i;
    if (!rep.received) return;
  }
}

}  // namespace perfbench
