#ifndef BCCS_NET_LINE_PROTOCOL_H_
#define BCCS_NET_LINE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "eval/serve_engine.h"
#include "graph/graph_delta.h"

namespace bccs {

/// The wire protocol of the socket front-end (see ARCHITECTURE.md, "Wire
/// protocol"): newline-delimited UTF-8-agnostic byte lines, one request per
/// line, one response line per request. Everything here is pure
/// byte-in/byte-out — no sockets — so the codec is testable (and fuzzable)
/// without a server.
///
/// Requests (tokens separated by spaces/tabs; '\r' before the terminating
/// '\n' is tolerated for netcat/telnet clients; blank lines and lines whose
/// first token starts with '#' are ignored):
///
///   q <ql> <qr> [interactive|bulk|i|b] [id=<N>]   two-label query
///   u <+|-> <a> <b> [id=<N>]                      one-edge update batch
///   ping                                          liveness probe -> "pong"
///   quit                                          flush pending responses,
///                                                 then server closes
///
/// `id=<N>` is the client-supplied request id (N >= 1): the idempotency
/// handle. Responses carry it back so pipelined completions can be matched
/// out of order, and the server's ResponseKeeper deduplicates re-sent ids
/// (net/response_keeper.h). Requests without an id get engine-assigned ids
/// and are NOT deduplicated on retry.
///
/// Responses (one line each, in completion order — NOT request order):
///
///   ok <id> q epoch=<E> n=<M> h=<16-hex>    query: community size + hash
///   ok <id> u epoch=<E> +<ins> -<del>       update applied (durable ack
///                                           when the server is durable)
///   rej <id> u epoch=<E> <reason>           update validated and refused;
///                                           epoch unchanged
///   err <id> <reason>                       malformed request line (id 0
///                                           when none could be parsed)
///   pong                                    reply to "ping"
///
/// A malformed line is answered with "err" and the connection stays usable
/// (the framing is still line-aligned); only an overlong line — where the
/// line boundary itself is lost — forces a connection close
/// (LineSplitter::Feed returning false).
enum class NetRequestKind : std::uint8_t { kQuery, kUpdate, kPing, kQuit };

/// One parsed request line.
struct NetRequest {
  NetRequestKind kind = NetRequestKind::kPing;
  /// Client-supplied request id (0 = none given).
  std::uint64_t id = 0;
  // kQuery:
  VertexId ql = 0;
  VertexId qr = 0;
  Lane lane = Lane::kBulk;
  // kUpdate:
  EdgeUpdate update;
};

enum class NetParseStatus : std::uint8_t {
  kOk,     // *out filled
  kBlank,  // empty/comment line: ignore, no response
  kError,  // *error filled; answer with "err <id> ..." (id best-effort)
};

/// Parses one request line (terminator already stripped). Strict: every
/// number must be a plain decimal that fits its type, vertex ids must be
/// below `num_vertices`, and trailing junk is an error — a line-protocol
/// typo must never half-apply as something else. On kError, *out->id still
/// carries the client id when one was parsed (so the error response can
/// name it).
NetParseStatus ParseNetRequest(std::string_view line, std::size_t num_vertices,
                               NetRequest* out, std::string* error);

/// The serving item of a parsed query or update request (kind kQuery or
/// kUpdate): a copy of `proto` with the query pair, lane and request id (0 =
/// engine-assigned), or a one-edge UpdateRequest. Shared by the socket
/// server and `bccs_serve --stream`.
ServeItem ToServeItem(const NetRequest& req, const QueryRequest& proto);

/// Incremental line framing over torn reads: Feed() appends raw bytes as
/// they arrive from the socket (any chunking — 1-byte reads reassemble
/// identically), Next() extracts complete lines. Feed returns false once
/// the pending un-terminated line exceeds max_line_bytes: the line boundary
/// is lost, and the only safe reaction is closing the connection.
class LineSplitter {
 public:
  explicit LineSplitter(std::size_t max_line_bytes) : max_line_bytes_(max_line_bytes) {}

  bool Feed(std::string_view bytes);

  /// Moves the next complete line (terminator stripped; a trailing '\r' is
  /// stripped too) into *line. Returns false when no complete line is
  /// buffered yet.
  bool Next(std::string* line);

  /// Bytes buffered past the last complete line (a non-empty tail at EOF is
  /// an abrupt mid-request disconnect: the fragment must be discarded, never
  /// parsed as a request).
  std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  const std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already returned as lines
};

/// Order-independent identity of a community: FNV-1a64 over the sorted
/// member ids (communities are canonically sorted already) plus the size.
/// Responses carry this instead of the member list, so the bit-identity
/// acceptance check (socket serving == serialized replay) works without
/// shipping thousands of ids per line.
std::uint64_t CommunityHash(const Community& c);

std::string FormatQueryResponse(std::uint64_t id, std::uint64_t epoch, const Community& c);
std::string FormatUpdateResponse(std::uint64_t id, const UpdateOutcome& outcome);
std::string FormatErrorResponse(std::uint64_t id, std::string_view reason);

/// Formats the response line for any completed stream item — the single
/// switch the server (and its ResponseKeeper) routes completions through.
std::string FormatCompletionResponse(std::uint64_t client_id, const ItemCompletion& done);

}  // namespace bccs

#endif  // BCCS_NET_LINE_PROTOCOL_H_
