#ifndef BCCS_NET_SERVER_H_
#define BCCS_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/serve_engine.h"
#include "net/response_keeper.h"

namespace bccs {

/// Socket front-end configuration (`bccs_serve --listen`).
struct NetServerOptions {
  /// Address to bind (dotted IPv4). Loopback by default: exposing the
  /// serving port beyond the host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Beyond this many concurrent connections, new ones are accepted, told
  /// "err 0 server at connection limit", and closed.
  std::size_t max_connections = 256;
  /// A request line longer than this loses the frame boundary; the
  /// connection is answered with one final error and closed.
  std::size_t max_line_bytes = 4096;
  /// ResponseKeeper capacity: how many completed id= responses are kept for
  /// idempotent retries before the oldest is evicted.
  std::size_t keeper_capacity = 4096;
  /// Prototype for every `q` request: method, k1/k2/b, deadline, and lane
  /// default. The wire request overrides query/lane/request_id.
  QueryRequest query_proto;
};

/// Poll-loop counters (single-threaded loop state; read them after Run()
/// returns).
struct NetServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_over_capacity = 0;
  std::uint64_t requests_submitted = 0;  // queries + updates reaching the engine
  std::uint64_t protocol_errors = 0;     // malformed lines answered with "err"
  std::uint64_t overlong_closes = 0;     // connections closed for frame loss
  std::uint64_t torn_disconnects = 0;    // EOF with a partial request buffered
  std::uint64_t overflow_closes = 0;     // outbox bound exceeded
  ResponseKeeper::Stats keeper;          // idempotent-retry counters
};

/// The TCP line-protocol front-end over one ServeEngine stream: a
/// poll-driven accept/read loop on the caller's thread feeding
/// Stream::Submit, with per-item completion callbacks streaming each
/// response back on its originating connection the moment the item
/// finishes — ordered by completion, matched by id, NOT request order.
///
/// Threading: the poll loop owns every socket; engine workers only ever
/// touch a connection's outbound buffer (under the connection mutex) and
/// wake the loop through a self-pipe. One NetServer per engine, one Run()
/// per NetServer.
///
/// Consistency: each connection's lines are submitted in the order its
/// bytes arrive, so the global admission order — which fixes epoch slots —
/// contains every connection's stream as a subsequence. That is the
/// connection-scoped epoch view: the epochs a connection observes are
/// monotone in its own submission order and always include its own earlier
/// updates (DESIGN.md, serving contract 7).
///
/// Shutdown (RequestShutdown, async-signal-safe): stop accepting, stop
/// reading, drain every admitted item through Stream::Finish (completions
/// keep streaming out), flush each connection's response tail, close, and
/// return the drained stream's summary.
class NetServer {
 public:
  NetServer(ServeEngine& engine, NetServerOptions opts);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens (plus the self-pipe). False + *error on failure.
  bool Start(std::string* error);

  /// The bound port (after Start; the actual one when options asked for 0).
  int port() const { return port_; }

  /// Runs the serve loop on the calling thread until RequestShutdown (or a
  /// fatal listener error); returns the drained stream's summary. Call
  /// once, after Start.
  StreamSummary Run();

  /// Stops the loop from any thread or signal handler: lock-free flag store
  /// plus a self-pipe write, both async-signal-safe.
  void RequestShutdown();

  /// Counters; stable only after Run() returns.
  const NetServerStats& stats() const { return stats_; }

 private:
  struct Connection;

  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleLine(const std::shared_ptr<Connection>& conn, const std::string& line);
  void Deliver(const std::shared_ptr<Connection>& conn, std::string_view text);
  bool FlushConn(Connection& conn);
  void HardClose(Connection& conn);
  void Wake();
  void PollOnce(int timeout_ms);
  void FlushTails();

  ServeEngine* engine_;
  NetServerOptions opts_;
  ResponseKeeper keeper_;
  std::size_t num_vertices_ = 0;  // refreshed per epoch for request validation
  int listen_fd_ = -1;
  int wake_fd_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  int port_ = 0;
  std::atomic<bool> shutdown_{false};
  std::vector<std::shared_ptr<Connection>> conns_;  // loop thread only
  ServeEngine::Stream* stream_ = nullptr;           // valid inside Run()
  NetServerStats stats_;
};

}  // namespace bccs

#endif  // BCCS_NET_SERVER_H_
