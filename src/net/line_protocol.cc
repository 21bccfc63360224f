#include "net/line_protocol.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "graph/fnv1a64.h"

namespace bccs {

namespace {

/// Splits `line` into whitespace-separated tokens (spaces and tabs only:
/// control bytes or other garbage stay inside tokens and fail the numeric
/// parses below, rather than being silently skipped).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Strict decimal u64: the whole token, no sign, no leading '+', no
/// overflow. Garbage bytes (including invalid UTF-8) fail here instead of
/// being half-consumed.
bool ParseU64(std::string_view token, std::uint64_t* out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out, 10);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Consumes an optional trailing `id=<N>` token (N >= 1). Returns false on a
/// malformed id token.
bool ParseOptionalId(const std::vector<std::string_view>& tokens, std::size_t pos,
                     std::uint64_t* id, std::string* error) {
  if (pos >= tokens.size()) return true;
  std::string_view t = tokens[pos];
  if (t.substr(0, 3) != "id=") {
    *error = "unexpected trailing token '" + std::string(t) + "'";
    return false;
  }
  if (!ParseU64(t.substr(3), id) || *id == 0) {
    *error = "id= must be a positive integer";
    return false;
  }
  if (pos + 1 < tokens.size()) {
    *error = "unexpected trailing token '" + std::string(tokens[pos + 1]) + "'";
    return false;
  }
  return true;
}

bool ParseVertex(std::string_view token, std::size_t num_vertices, VertexId* out,
                 std::string* error) {
  std::uint64_t v = 0;
  if (!ParseU64(token, &v) || v >= num_vertices) {
    *error = "vertex id '" + std::string(token) + "' must be a decimal below " +
             std::to_string(num_vertices);
    return false;
  }
  *out = static_cast<VertexId>(v);
  return true;
}

}  // namespace

NetParseStatus ParseNetRequest(std::string_view line, std::size_t num_vertices,
                               NetRequest* out, std::string* error) {
  *out = NetRequest{};
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0].front() == '#') return NetParseStatus::kBlank;
  const std::string_view kind = tokens[0];

  if (kind == "ping" || kind == "quit") {
    out->kind = kind == "ping" ? NetRequestKind::kPing : NetRequestKind::kQuit;
    if (tokens.size() > 1) {
      *error = std::string(kind) + " takes no arguments";
      return NetParseStatus::kError;
    }
    return NetParseStatus::kOk;
  }

  if (kind == "q") {
    out->kind = NetRequestKind::kQuery;
    if (tokens.size() < 3) {
      *error = "expected 'q <ql> <qr> [lane] [id=N]'";
      return NetParseStatus::kError;
    }
    if (!ParseVertex(tokens[1], num_vertices, &out->ql, error) ||
        !ParseVertex(tokens[2], num_vertices, &out->qr, error)) {
      return NetParseStatus::kError;
    }
    std::size_t pos = 3;
    if (pos < tokens.size() && tokens[pos].substr(0, 3) != "id=") {
      const std::string_view lane = tokens[pos];
      if (!ParseLane(lane, &out->lane)) {
        *error = "unknown lane '" + std::string(lane) + "' (interactive|bulk)";
        return NetParseStatus::kError;
      }
      ++pos;
    }
    if (!ParseOptionalId(tokens, pos, &out->id, error)) return NetParseStatus::kError;
    return NetParseStatus::kOk;
  }

  if (kind == "u") {
    out->kind = NetRequestKind::kUpdate;
    if (tokens.size() < 4) {
      *error = "expected 'u <+|-> <a> <b> [id=N]'";
      return NetParseStatus::kError;
    }
    if (tokens[1] == "+") {
      out->update.kind = EdgeUpdateKind::kInsert;
    } else if (tokens[1] == "-") {
      out->update.kind = EdgeUpdateKind::kDelete;
    } else {
      *error = "update sign must be + or -";
      return NetParseStatus::kError;
    }
    VertexId a = 0, b = 0;
    if (!ParseVertex(tokens[2], num_vertices, &a, error) ||
        !ParseVertex(tokens[3], num_vertices, &b, error)) {
      return NetParseStatus::kError;
    }
    out->update.edge = {std::min(a, b), std::max(a, b)};
    if (!ParseOptionalId(tokens, 4, &out->id, error)) return NetParseStatus::kError;
    return NetParseStatus::kOk;
  }

  *error = "unknown request kind '" + std::string(kind) + "' (q|u|ping|quit)";
  return NetParseStatus::kError;
}

ServeItem ToServeItem(const NetRequest& req, const QueryRequest& proto) {
  if (req.kind == NetRequestKind::kUpdate) {
    UpdateRequest u;
    u.updates.push_back(req.update);
    return u;
  }
  QueryRequest q = proto;
  q.query = BccQuery{req.ql, req.qr};
  q.lane = req.lane;
  q.request_id = req.id;
  return q;
}

bool LineSplitter::Feed(std::string_view bytes) {
  // Compact lazily: once everything buffered has been handed out as lines,
  // drop it, so a long-lived connection's buffer stays proportional to the
  // largest single line, not the total traffic.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
  // Framing check: an un-terminated tail longer than the line limit can
  // never become a valid line again.
  const std::size_t last_nl = buffer_.find_last_of('\n');
  const std::size_t tail_start = last_nl == std::string::npos ? consumed_ : last_nl + 1;
  return buffer_.size() - tail_start <= max_line_bytes_;
}

bool LineSplitter::Next(std::string* line) {
  const std::size_t nl = buffer_.find('\n', consumed_);
  if (nl == std::string::npos) return false;
  std::size_t len = nl - consumed_;
  if (len > 0 && buffer_[consumed_ + len - 1] == '\r') --len;
  line->assign(buffer_, consumed_, len);
  consumed_ = nl + 1;
  return true;
}

std::uint64_t CommunityHash(const Community& c) {
  Fnv1a64 h;
  const std::uint64_t n = c.vertices.size();
  h.Update(&n, sizeof n);
  for (VertexId v : c.vertices) {
    const std::uint64_t w = v;
    h.Update(&w, sizeof w);
  }
  return h.Digest();
}

std::string FormatQueryResponse(std::uint64_t id, std::uint64_t epoch, const Community& c) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "ok %" PRIu64 " q epoch=%" PRIu64 " n=%zu h=%016" PRIx64,
                id, epoch, c.Size(), CommunityHash(c));
  return buf;
}

std::string FormatUpdateResponse(std::uint64_t id, const UpdateOutcome& outcome) {
  char buf[96];
  if (outcome.applied) {
    std::snprintf(buf, sizeof buf, "ok %" PRIu64 " u epoch=%" PRIu64 " +%zu -%zu", id,
                  outcome.epoch, outcome.inserts, outcome.deletes);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "rej %" PRIu64 " u epoch=%" PRIu64 " ", id, outcome.epoch);
  return std::string(buf) + outcome.error;
}

std::string FormatErrorResponse(std::uint64_t id, std::string_view reason) {
  return "err " + std::to_string(id) + " " + std::string(reason);
}

std::string FormatCompletionResponse(std::uint64_t client_id, const ItemCompletion& done) {
  // The wire id is the client's when one was supplied, else the
  // engine-assigned one — either way the id the response must echo.
  const std::uint64_t id = client_id != 0 ? client_id : done.request_id;
  if (done.is_update) return FormatUpdateResponse(id, *done.outcome);
  return FormatQueryResponse(id, done.epoch, *done.community);
}

}  // namespace bccs
