#include "eval/serve_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "eval/timer.h"
#include "graph/changelog.h"
#include "graph/graph_delta.h"

namespace bccs {

namespace {

/// Wraps a caller-owned object in a non-owning shared_ptr (the legacy
/// constructor's lifetime contract: the caller keeps it alive).
template <typename T>
std::shared_ptr<const T> Unowned(const T* p) {
  return std::shared_ptr<const T>(p, [](const T*) {});
}

/// Canonical cache identity of a cacheable request, plus the label set its
/// answer depends on (a BCC answer is a function of the induced subgraph of
/// its query labels — the structural fact the result cache's invalidation
/// rests on). Returns false for malformed requests (wrong variant,
/// out-of-range vertices) — those are answered, but never cached.
bool BuildCacheKey(const QueryRequest& req, const LabeledGraph& g, ResultCacheKey* key,
                   std::vector<Label>* labels) {
  key->method = static_cast<std::uint8_t>(req.method);
  labels->clear();
  if (req.method == QueryMethod::kMbcc) {
    const auto* q = std::get_if<MbccQuery>(&req.query);
    if (q == nullptr || q->vertices.empty()) return false;
    for (VertexId v : q->vertices) {
      if (v >= g.NumVertices()) return false;
    }
    key->vertices = q->vertices;
    key->ks = req.mbcc_params.k;
    key->b = req.mbcc_params.b;
    for (VertexId v : q->vertices) labels->push_back(g.LabelOf(v));
  } else {
    const auto* q = std::get_if<BccQuery>(&req.query);
    if (q == nullptr) return false;
    if (q->ql >= g.NumVertices() || q->qr >= g.NumVertices()) return false;
    key->vertices = {q->ql, q->qr};
    key->ks = {req.params.k1, req.params.k2};
    key->b = req.params.b;
    labels->push_back(g.LabelOf(q->ql));
    labels->push_back(g.LabelOf(q->qr));
  }
  std::sort(labels->begin(), labels->end());
  labels->erase(std::unique(labels->begin(), labels->end()), labels->end());
  return true;
}

}  // namespace

/// A stream's epoch slot. Its state is written once, by the worker that
/// resolves the slot's update, before the queue's PublishUpdate; queries of
/// the slot read it only after Pop, which the queue releases after that
/// publish, so the queue mutex orders the write before every read. The
/// stream's base slot is written at open.
struct EpochSlot {
  ServeEngine::EpochState state;
};

/// All mutable state of one stream. An admitted item lives in its admission
/// ticket (AdmittedItem) until a worker pops it, runs it on locals and
/// reports it through its completion; what stays behind per item is one
/// sojourn sample per query.
///
/// Producers (Stream::Submit — any number of threads, one per connection
/// in the socket front-end) hand each query the newest slot, and each
/// update a fresh slot that becomes the newest, in the same critical
/// section that admits the item into the queue. Tickets hold their slots,
/// so an epoch slot (and its graph and index) is freed with the last
/// ticket that needs it.
struct StreamState {
  StreamState(ServeEngine* e, std::size_t aging_period, AdmissionCaps caps,
              ServeEngine::EpochState head)
      : engine(e),
        queue(aging_period, caps),
        newest(std::make_shared<EpochSlot>(EpochSlot{std::move(head)})) {}

  ServeEngine* engine;
  AdmissionQueue<AdmittedItem> queue;
  Timer wall;  // stream-open reference clock (admit/sojourn times)

  Mutex mutex;  // guards everything below
  /// The slot queries admitted now will observe: the base slot, or the
  /// slot of the newest admitted update.
  std::shared_ptr<EpochSlot> newest GUARDED_BY(mutex);
  // The summary fold: one sample per query, counters otherwise. Deques
  // grow in fixed blocks, so a long-lived stream holds 8 bytes per query
  // and no reallocation slack.
  std::deque<double> lane_sojourn[2] GUARDED_BY(mutex);  // indexed by Lane
  SearchStats totals GUARDED_BY(mutex);
  std::size_t timed_out GUARDED_BY(mutex) = 0;
  std::size_t updates_applied GUARDED_BY(mutex) = 0;
  std::size_t updates_rejected GUARDED_BY(mutex) = 0;
  /// Set by Finish (which must not race Submit — stop every producer
  /// first); atomic so concurrent producers' contract-violation check in
  /// Submit reads a coherent value rather than a torn one.
  std::atomic<bool> finished{false};
  /// Captured by BatchRunner::Wait before the pool is released — reading
  /// the workspaces after Wait returns would race the next job on a shared
  /// runner.
  WorkspaceStats drain_stats;
};

ServeEngine::ServeEngine(BatchRunner& runner, const LabeledGraph& g, const BcIndex* index,
                         ServeOptions opts)
    : runner_(&runner), opts_(std::move(opts)) {
  current_.graph = Unowned(&g);
  current_.index = index != nullptr ? Unowned(index) : nullptr;
  current_.epoch = 1;
  if (opts_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(opts_.result_cache_entries);
  }
}

ServeEngine::ServeEngine(BatchRunner& runner, std::shared_ptr<const LabeledGraph> g,
                         std::shared_ptr<const BcIndex> index, ServeOptions opts)
    : runner_(&runner), opts_(std::move(opts)) {
  current_.graph = std::move(g);
  current_.index = std::move(index);
  current_.epoch = 1;
  if (opts_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(opts_.result_cache_entries);
  }
}

ServeEngine::~ServeEngine() = default;

void ServeEngine::AttachDurability(Changelog* log, const SourceGraphInfo& stamp) {
  durability_log_ = log;
  durability_stamp_ = stamp;
}

std::uint64_t ServeEngine::epoch() const {
  MutexLock lock(state_mutex_);
  return current_.epoch;
}

const LabeledGraph& ServeEngine::graph() const {
  MutexLock lock(state_mutex_);
  return *current_.graph;
}

std::shared_ptr<const LabeledGraph> ServeEngine::graph_ptr() const {
  MutexLock lock(state_mutex_);
  return current_.graph;
}

std::shared_ptr<const BcIndex> ServeEngine::index_ptr() const {
  MutexLock lock(state_mutex_);
  return current_.index;
}

ResultCacheStats ServeEngine::result_cache_stats() const {
  return result_cache_ != nullptr ? result_cache_->Stats() : ResultCacheStats{};
}

BlockCacheStats ServeEngine::pair_cache_stats() const {
  const auto index = index_ptr();
  return index != nullptr ? index->PairCacheStats() : BlockCacheStats{};
}

void ServeEngine::Dispatch(const QueryRequest& req, const LabeledGraph& g,
                           const BcIndex* index, QueryWorkspace& ws, Community* community,
                           SearchStats* stats) const {
  if (req.method == QueryMethod::kMbcc) {
    const auto* q = std::get_if<MbccQuery>(&req.query);
    if (q == nullptr) return;  // variant/method mismatch: empty answer
    *community = MbccSearch(g, *q, req.mbcc_params, LpBccOptions(), stats, nullptr, &ws, index);
    return;
  }
  const auto* q = std::get_if<BccQuery>(&req.query);
  if (q == nullptr) return;
  switch (req.method) {
    case QueryMethod::kOnlineBcc:
      *community = BccSearch(g, *q, req.params, OnlineBccOptions(), stats, &ws, index);
      break;
    case QueryMethod::kLpBcc:
      *community = BccSearch(g, *q, req.params, LpBccOptions(), stats, &ws, index);
      break;
    case QueryMethod::kL2pBcc:
      if (index != nullptr) {
        *community = L2pBcc(g, *index, *q, req.params, L2pOptions{}, stats, &ws);
      } else {
        // Planned degradation: no index in this process, serve via LP.
        *community = BccSearch(g, *q, req.params, LpBccOptions(), stats, &ws);
      }
      break;
    case QueryMethod::kMbcc:
      break;  // handled above
  }
}

ServeEngine::EpochState ServeEngine::PrepareUpdate(const EpochState& base,
                                                   const UpdateRequest& req,
                                                   UpdateOutcome* outcome,
                                                   RepairTouch* touch) const {
  std::string error;
  const auto delta = BuildGraphDelta(*base.graph, req.updates, &error);
  if (!delta) {
    // Rejected: the successor epoch is the base itself — queries admitted
    // after this update observe the unchanged graph.
    outcome->error = error;
    return base;
  }
  // Labels never change across edge updates, so the base graph's labeling
  // identifies exactly which label groups (and cross pairs) the batch
  // repairs — the result cache invalidates only those.
  const LabelRouting routed = RouteByLabel(*base.graph, *delta);
  for (const auto& [label, slice] : routed.intra) touch->intra.push_back(label);
  for (const auto& [pair, slice] : routed.cross) touch->cross.push_back(pair);
  EpochState next;
  next.graph = std::make_shared<const LabeledGraph>(ApplyGraphDelta(*base.graph, *delta));
  next.epoch = base.epoch + 1;
  outcome->inserts = delta->inserts.size();
  outcome->deletes = delta->deletes.size();
  if (base.index != nullptr) {
    // Repair against the base graph/index (held by `base` for the
    // duration, and by their slot while old-epoch queries drain).
    next.index = base.index->ApplyUpdates(*next.graph, *delta, {}, &outcome->repair);
  }
  outcome->applied = true;
  return next;
}

void ServeEngine::RunWorker(StreamState& state, QueryWorkspace& ws) {
  using Ticket = AdmissionQueue<AdmittedItem>::Ticket;
  for (;;) {
    // A fresh ticket per item: the previous one's request and callback are
    // released at the end of its iteration, outside every lock.
    Ticket t;
    if (!state.queue.Pop(&t)) return;
    AdmittedItem& item = t.item;
    ItemCompletion c;
    c.index = t.index;
    c.request_id = item.request_id;

    if (t.kind == Ticket::Kind::kUpdate) {
      // The base is the engine head: at most one update is in flight, and
      // every resolved update, applied or not, left the head equal to the
      // state it published.
      EpochState base;
      {
        MutexLock lock(state_mutex_);
        base = current_;
      }
      UpdateOutcome outcome;
      outcome.item_index = t.index;
      Timer apply;
      RepairTouch touch;
      const auto& update_req = std::get<UpdateRequest>(item.request);
      EpochState next = PrepareUpdate(base, update_req, &outcome, &touch);
      if (durability_log_ != nullptr && outcome.applied) {
        // The durable commit: changelog append and epoch publish happen
        // together under the log's commit lock, so the log and the
        // published head never disagree — and a compactor capturing state
        // under the same lock sees exactly the appended records. A failed
        // append rejects the batch; the un-durable state never publishes.
        MutexLock commit(durability_log_->commit_mutex());
        std::string err;
        if (!durability_log_->Append(std::span<const EdgeUpdate>(update_req.updates),
                                     durability_stamp_, &err)) {
          outcome.applied = false;
          outcome.error = "durability append failed: " + err;
          outcome.inserts = 0;
          outcome.deletes = 0;
          next = base;
        } else {
          MutexLock lock(state_mutex_);
          current_ = next;
        }
      } else {
        MutexLock lock(state_mutex_);
        current_ = next;
      }
      if (outcome.applied && result_cache_ != nullptr) {
        // Invalidate BEFORE the queue releases epoch-(u+1) queries (the
        // PublishUpdate below): any query that can observe the new graph
        // observes the repair marks first, so no stale entry can be served
        // at — or inserted above — the new epoch for a touched label set.
        result_cache_->NoteRepairs(touch.intra, touch.cross, next.epoch);
      }
      outcome.seconds = apply.Seconds();
      outcome.epoch = next.epoch;
      // No query of this slot is runnable before the PublishUpdate below,
      // so the write needs no lock.
      item.slot->state = std::move(next);
      {
        MutexLock lock(state.mutex);
        ++(outcome.applied ? state.updates_applied : state.updates_rejected);
      }
      // Drop the base and slot pins outside every lock, before the report.
      base = EpochState{};
      item.slot = nullptr;
      c.sojourn_seconds = state.wall.Seconds() - item.admit_seconds;
      // Resolve on the queue AFTER the slot write: Pop()'s mutex
      // acquisition gives any worker that observes the resolution a
      // happens-before edge to the new state.
      state.queue.PublishUpdate();
      // The report comes after the publish: when the callback fires, the
      // new epoch is already observable by later admissions — an ack the
      // socket layer relays (and keeps for idempotent retries) is never
      // ahead of the state it describes.
      c.epoch = outcome.epoch;
      c.seconds = outcome.seconds;
      c.outcome = &outcome;
      item.done(c);
      continue;
    }

    // Query: the ticket pins the admission-time slot, which the queue
    // released only after its publish; execute against it unlocked — a
    // concurrent update publish writes another slot.
    std::shared_ptr<const EpochSlot> pinned = std::move(item.slot);
    BCCS_DCHECK(pinned->state.graph != nullptr)
        << "query popped before its epoch slot was published";
    const QueryRequest& req = std::get<QueryRequest>(item.request);
    Community community;
    SearchStats stats;
    ResultCacheKey cache_key;
    std::vector<Label> cache_labels;
    // Deadline-bearing requests bypass the cache: a timed-out partial answer
    // is timing-dependent.
    const bool cacheable =
        result_cache_ != nullptr && req.deadline_seconds <= 0 &&
        BuildCacheKey(req, *pinned->state.graph, &cache_key, &cache_labels);
    const auto lane_idx = static_cast<std::size_t>(req.lane);
    Timer exec;
    const bool cache_hit =
        cacheable && result_cache_->Lookup(cache_key, pinned->state.epoch, lane_idx,
                                           &community, &stats);
    if (!cache_hit) {
      if (req.deadline_seconds > 0) ws.SetDeadline(Deadline::After(req.deadline_seconds));
      Dispatch(req, *pinned->state.graph, pinned->state.index.get(), ws, &community,
               &stats);
      ws.SetDeadline(Deadline{});
      // Timed-out partial answers are timing-dependent, never cached (the
      // deadline gate above already excludes them; keep the belt with the
      // suspenders in case a search ever times out without a deadline).
      if (cacheable && !stats.timed_out) {
        result_cache_->Insert(cache_key, cache_labels, pinned->state.epoch, community,
                              stats);
      }
    }
    c.seconds = exec.Seconds();
    c.sojourn_seconds = state.wall.Seconds() - item.admit_seconds;
    c.epoch = pinned->state.epoch;
    {
      MutexLock lock(state.mutex);
      state.lane_sojourn[static_cast<std::size_t>(t.lane)].push_back(c.sojourn_seconds);
      state.totals += stats;
      state.timed_out += stats.timed_out ? 1 : 0;
    }
    // Drop the pin outside every lock, before the queue's: the last
    // release of a slot can free a whole epoch.
    pinned = nullptr;
    // After CompleteQuery: the lane slot is free while the caller's
    // callback runs, so a slow consumer delays only this worker's next
    // dequeue, never the lane's concurrency budget.
    state.queue.CompleteQuery(t.lane);
    c.community = &community;
    c.stats = &stats;
    item.done(c);
  }
}

// ---------------------------------------------------------------------------
// Stream: the streaming session handle.
// ---------------------------------------------------------------------------

ServeEngine::Stream::Stream(std::unique_ptr<StreamState> state) : state_(std::move(state)) {}

ServeEngine::Stream::Stream(Stream&&) noexcept = default;

ServeEngine::Stream::~Stream() {
  if (state_ != nullptr && !state_->finished) Finish();
}

std::uint64_t ServeEngine::Stream::Submit(ServeItem item, CompletionFn on_complete) {
  StreamState& s = *state_;
  if (s.finished.load(std::memory_order_acquire)) {
    // The worker pool has already been released; enqueueing would silently
    // drop the item while handing back a valid-looking request id.
    std::fprintf(stderr, "ServeEngine::Stream: Submit after Finish\n");
    std::abort();
  }
  BCCS_CHECK(on_complete != nullptr) << "Stream::Submit needs a completion";
  AdmittedItem ticket;
  ticket.request = std::move(item);
  ticket.done = std::move(on_complete);
  const auto* q = std::get_if<QueryRequest>(&ticket.request);
  // Request ids, epoch slots and queue positions all follow one admission
  // order: the order producers win this lock. So a query's id and epoch
  // depend only on its admission position, exactly as in a serialized
  // replay, and the queue gates a query on exactly the update whose slot
  // it holds. Lock order stream mutex -> queue mutex; a worker never holds
  // both (Pop returns before it takes the stream mutex), so the nesting is
  // acyclic (DESIGN.md, serving contract 5).
  MutexLock lock(s.mutex);
  // Every item consumes one request id (updates too).
  const std::uint64_t id = s.engine->next_request_id_.fetch_add(1);
  ticket.request_id = q != nullptr && q->request_id != 0 ? q->request_id : id;
  ticket.admit_seconds = s.wall.Seconds();
  const std::uint64_t reported = ticket.request_id;
  if (q != nullptr) {
    ticket.slot = s.newest;
    const Lane lane = q->lane;
    s.queue.AdmitQuery(lane, std::move(ticket));
  } else {
    s.newest = std::make_shared<EpochSlot>();  // the slot this update will publish
    ticket.slot = s.newest;
    s.queue.AdmitUpdate(std::move(ticket));
  }
  return reported;
}

StreamSummary ServeEngine::Stream::Finish() {
  StreamState& s = *state_;
  StreamSummary out;
  if (s.finished) return out;
  s.queue.Close();
  s.engine->runner_->Wait(&s.drain_stats);
  s.finished = true;
  const double wall_seconds = s.wall.Seconds();

  // Workers are gone (Wait above is the synchronization point), but the
  // fold is GUARDED_BY the stream mutex — hold it (uncontended) so the
  // annotation holds here too.
  MutexLock lock(s.mutex);
  // Every admitted update resolved, applied or rejected, exactly once.
  BCCS_DCHECK(s.updates_applied + s.updates_rejected == s.queue.updates_admitted() &&
              s.queue.updates_admitted() == s.queue.resolved_updates())
      << "updates: " << s.updates_applied << " applied + " << s.updates_rejected
      << " rejected, " << s.queue.updates_admitted() << " admitted, "
      << s.queue.resolved_updates() << " resolved";
  out.items = s.queue.admitted();
  out.updates_applied = s.updates_applied;
  out.updates_rejected = s.updates_rejected;
  out.timed_out = s.timed_out;
  out.totals = s.totals;
  out.wall_seconds = wall_seconds;
  for (Lane lane : {Lane::kInteractive, Lane::kBulk}) {
    const std::deque<double>& sojourn = s.lane_sojourn[static_cast<std::size_t>(lane)];
    if (sojourn.empty()) continue;
    LaneSummary summary;
    summary.lane = lane;
    summary.queries = sojourn.size();
    summary.latency =
        SummarizeLatency(std::vector<double>(sojourn.begin(), sojourn.end()), wall_seconds);
    summary.max_inflight = s.queue.max_inflight(lane);
    out.lanes.push_back(summary);
  }
  out.threads_used = s.engine->runner_->NumThreads();
  out.workspace_stats = s.drain_stats;
  out.result_cache_enabled = s.engine->result_cache_ != nullptr;
  out.result_cache = s.engine->result_cache_stats();
  // Every update has resolved, so the newest slot IS the engine's current
  // state; read it here (under s.mutex) rather than through the engine head
  // to keep the lock sets disjoint.
  if (const auto& head = s.newest->state; head.index != nullptr) {
    out.pair_cache = head.index->PairCacheStats();
  }
  return out;
}

std::unique_ptr<StreamState> ServeEngine::MakeStreamState() {
  MutexLock lock(state_mutex_);
  return std::make_unique<StreamState>(this, opts_.aging_period, opts_.caps, current_);
}

void ServeEngine::StartDrain(StreamState& state) {
  runner_->Start([this, &state](QueryWorkspace& ws) { RunWorker(state, ws); });
}

ServeEngine::Stream ServeEngine::OpenStream() {
  auto state = MakeStreamState();
  StartDrain(*state);
  return Stream(std::move(state));
}

std::vector<CompletionFn> CollectInto(std::span<const ServeItem> items, BatchResult* out) {
  const std::size_t n = items.size();
  out->communities.resize(n);
  out->stats.resize(n);
  out->seconds.resize(n);
  out->sojourn_seconds.resize(n);
  out->epoch_of.resize(n);
  out->updates.resize(static_cast<std::size_t>(std::count_if(
      items.begin(), items.end(),
      [](const ServeItem& item) { return std::holds_alternative<UpdateRequest>(item); })));
  // Each closure captures `out` and one packed word (item index in the low
  // half, update slot in the high half), 16 bytes: small enough for
  // std::function to store it without a heap block per item.
  BCCS_CHECK_LE(n, std::size_t{0xffffffff}) << "CollectInto: too many items";
  std::vector<CompletionFn> collect;
  collect.reserve(n);
  std::uint64_t next_update = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t update_slot =
        std::holds_alternative<UpdateRequest>(items[i]) ? next_update++ : 0;
    const std::uint64_t packed = update_slot << 32 | i;
    collect.push_back([out, packed](const ItemCompletion& c) {
      const std::size_t i = packed & 0xffffffff;
      out->seconds[i] = c.seconds;
      out->sojourn_seconds[i] = c.sojourn_seconds;
      out->epoch_of[i] = c.epoch;
      if (c.community != nullptr) {
        out->communities[i] = std::move(*c.community);
        out->stats[i] = *c.stats;
      }
      if (c.outcome != nullptr) out->updates[packed >> 32] = *c.outcome;
    });
  }
  return collect;
}

BatchResult ServeEngine::RunStream(std::span<const ServeItem> items) {
  BatchResult out;
  std::vector<CompletionFn> collect = CollectInto(items, &out);
  // All items are known up front: admit them all before the drain starts,
  // so the first claims already see the whole batch. Each completion writes
  // only its own item's slots; Finish orders those writes before the reads
  // below.
  Stream stream(MakeStreamState());
  for (std::size_t i = 0; i < items.size(); ++i) stream.Submit(items[i], std::move(collect[i]));
  StartDrain(*stream.state_);
  static_cast<StreamSummary&>(out) = stream.Finish();
  // The latency summary describes query serving only: an update's seconds
  // slot holds its preparation time, which would smear a slow repair into
  // the query percentiles.
  std::vector<double> query_seconds;
  query_seconds.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (std::holds_alternative<QueryRequest>(items[i])) query_seconds.push_back(out.seconds[i]);
  }
  out.latency = SummarizeLatency(query_seconds, out.wall_seconds);
  return out;
}

BatchResult ServeEngine::Serve(std::span<const QueryRequest> requests) {
  std::vector<ServeItem> items(requests.begin(), requests.end());
  return RunStream(std::span<const ServeItem>(items));
}

// ---------------------------------------------------------------------------
// Compatibility shims: the historical per-method batch entry points, now
// thin request builders over the unified engine (declared in batch_runner.h).
// ---------------------------------------------------------------------------

BatchResult BatchRunner::RunBccBatch(const LabeledGraph& g, std::span<const BccQuery> queries,
                                     const BccParams& params, QueryMethod method) {
  ServeEngine engine(*this, g);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = method;
    requests[i].params = params;
  }
  return engine.Serve(requests);
}

BatchResult BatchRunner::RunL2pBatch(const LabeledGraph& g, const BcIndex& index,
                                     std::span<const BccQuery> queries,
                                     const BccParams& params) {
  ServeEngine engine(*this, g, &index);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kL2pBcc;
    requests[i].params = params;
  }
  return engine.Serve(requests);
}

BatchResult BatchRunner::RunMbccBatch(const LabeledGraph& g,
                                      std::span<const MbccQuery> queries,
                                      const MbccParams& params) {
  ServeEngine engine(*this, g);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kMbcc;
    requests[i].mbcc_params = params;
  }
  return engine.Serve(requests);
}

}  // namespace bccs
