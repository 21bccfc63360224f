#ifndef BCCS_EVAL_SERVE_ENGINE_H_
#define BCCS_EVAL_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/admission_queue.h"
#include "eval/batch_runner.h"
#include "eval/result_cache.h"
#include "graph/graph_delta.h"
#include "graph/labeled_graph.h"
#include "graph/snapshot.h"

namespace bccs {

class Changelog;

/// The unified serving engine: every request — query or edge-update — enters
/// here, through the streaming serve loop. The life of a served item:
///
///   1. **Admission.** OpenStream() starts the persistent worker pool
///      (one BatchRunner job: every worker runs the drain loop) on an
///      AdmissionQueue and returns; Stream::Submit admits items — each a
///      QueryRequest (what to search for, which algorithm, how urgent, how
///      long it may run) or an UpdateRequest (an edge-update batch) — while
///      workers are already serving earlier ones. Items without an explicit
///      request id are assigned one (stable per engine: the i-th item of
///      the first stream gets 1 + i). RunStream() is the
///      submit-everything-then-drain convenience over the same loop (and
///      Serve() its query-only shim).
///   2. **Epoch tagging.** Each admitted query's ticket holds its *epoch
///      slot*: the slot of the newest update admitted before it (or the
///      stream's base slot). The query will execute against exactly that
///      slot's published (graph, index) state, so answers are
///      bit-identical to a serialized replay of the admission order no
///      matter how execution interleaves.
///   3. **Scheduling.** Workers dequeue under the two-lane policy
///      (interactive ahead of bulk, anti-starvation aging every
///      (aging_period + 1)-th slot) with per-lane in-flight caps
///      (ServeOptions::caps): a saturating bulk backlog can occupy at most
///      caps.bulk workers, so interactive tail latency stays bounded.
///   4. **Planning.** Each claimed query is planned onto its method —
///      online / lp / l2p / mbcc. kL2pBcc without an index degrades to
///      LP-BCC (same model, no index).
///   5. **Execution.** The worker reads its ticket's epoch slot (a
///      shared_ptr — the state outlives any concurrent update publish), stamps
///      its QueryWorkspace with the request's deadline and runs the search;
///      an expired deadline yields the best valid partial answer with
///      SearchStats::timed_out set.
///   6. **Update preparation (copy-on-write epochs).** An UpdateRequest is
///      claimed by a worker as soon as the previous update has resolved and
///      *prepared off-thread* against its pinned base epoch — validation
///      (BuildGraphDelta), graph rebuild (ApplyGraphDelta), incremental
///      index repair (BcIndex::ApplyUpdates) — while queries of older
///      epochs keep draining on the other workers. The new state is then
///      published with a single swap; queries admitted after the update
///      become runnable and observe it. A rejected batch publishes the
///      unchanged state (epoch not incremented) and reports the reason in
///      its UpdateOutcome. A slot is reference-counted by the tickets that
///      need it, so an old epoch state is released as soon as its last
///      pinned query completes.
///   7. **Reporting.** Every item is submitted with a CompletionFn and
///      reports exactly once, to it, on the worker that ran it: the answer,
///      stats and timings of a query, the UpdateOutcome of an update, and
///      the epoch either executed in. Until a worker pops it, the item lives
///      only in its admission ticket; after the callback it is gone, so a
///      long-lived stream (the socket server's) keeps nothing per item but
///      one sojourn sample per query.
///      Stream::Finish() returns a StreamSummary folded from the same
///      completions. RunStream/Serve collect their per-item BatchResult
///      through CollectInto's completions.

/// A method-erased serving request: what to search for, which algorithm to
/// plan it onto, how urgent it is, and how long it may run.
struct QueryRequest {
  /// BccQuery for the two-label methods, MbccQuery for kMbcc. A request
  /// whose variant does not match its method is answered with an empty
  /// community (never dispatched onto the wrong engine).
  std::variant<BccQuery, MbccQuery> query;
  QueryMethod method = QueryMethod::kLpBcc;
  Lane lane = Lane::kBulk;
  /// Cooperative per-query deadline; 0 = none. Checked at peel-round
  /// granularity: an expired query returns its best valid intermediate
  /// community (possibly empty) with SearchStats::timed_out set.
  double deadline_seconds = 0;
  /// 0 = assigned by the engine (stable per engine instance: the i-th
  /// request of the first stream gets id 1 + i). Reported back in the
  /// item's ItemCompletion; the socket layer sets it to the client's `id=`
  /// and echoes it as the response's wire id.
  std::uint64_t request_id = 0;
  /// Two-label parameters (ignored by kMbcc).
  BccParams params;
  /// Multi-label parameters (kMbcc only).
  MbccParams mbcc_params;
};

/// An edge-update batch as a serving request (the third request kind, next
/// to two-label and multi-label queries): prepared off-thread against the
/// epoch current at its admission point and published as a new epoch —
/// queries ahead of it in the stream observe the pre-update epoch, queries
/// behind it the post-update epoch (DESIGN.md, serving contract 3).
struct UpdateRequest {
  /// Applied in order with sequential semantics (see BuildGraphDelta); the
  /// whole batch is one atomic epoch transition — it applies fully or, on a
  /// validation error, not at all.
  std::vector<EdgeUpdate> updates;
};

/// One serving-stream item.
using ServeItem = std::variant<QueryRequest, UpdateRequest>;

/// Per-item completion notification of the streaming serve loop: what a
/// submitted item resolved to, delivered on the worker thread that executed
/// it the moment the result is ready — the socket front-end's hook for
/// streaming each response back on its originating connection while the
/// stream is still admitting.
///
/// The pointers refer to the worker's own copies of the result and are
/// valid only during the callback. A collector may move the community out
/// (`std::move(*c.community)`); nothing reads it after the callback
/// returns. The callback must not block — it runs inside a serving worker,
/// so a slow callback stalls one worker's dequeue loop.
struct ItemCompletion {
  /// Admission index within the stream (0, 1, 2, ... across both kinds).
  std::size_t index = 0;
  std::uint64_t request_id = 0;
  /// Epoch the item executed in (queries) or produced (updates; a rejected
  /// update reports its unchanged base epoch).
  std::uint64_t epoch = 0;
  double seconds = 0;          // execution / preparation duration
  double sojourn_seconds = 0;  // admission -> completion
  // Queries (null for updates):
  Community* community = nullptr;
  const SearchStats* stats = nullptr;
  // Updates (null for queries):
  const UpdateOutcome* outcome = nullptr;
};

/// Invoked on a worker thread when the item completes. Must be thread-safe
/// against other completions: items finish out of admission order and on
/// different workers concurrently.
using CompletionFn = std::function<void(const ItemCompletion&)>;

/// One epoch slot of a stream: the (graph, index) state a run of admitted
/// queries executes against. Defined in serve_engine.cc; tickets share it,
/// and it is freed with the last ticket that needs it.
struct EpochSlot;

/// What an admitted item carries in its AdmissionQueue ticket from
/// Stream::Submit to the worker that pops it. The queue ticket adds the
/// item's admission index and gating position.
struct AdmittedItem {
  ServeItem request;
  CompletionFn done;
  std::uint64_t request_id = 0;
  double admit_seconds = 0;  // on the stream's clock
  /// Queries: the slot that was newest at admission. Updates: the slot the
  /// update publishes (empty until it resolves).
  std::shared_ptr<EpochSlot> slot;
};

/// Sizes `out`'s per-item vectors for `items` and returns one collecting
/// completion per item: item i's completion writes only item i's slots
/// (moving the community out) and, for the k-th update of `items`,
/// out->updates[k]. RunStream collects its BatchResult this way.
std::vector<CompletionFn> CollectInto(std::span<const ServeItem> items, BatchResult* out);

/// Engine-wide configuration: the streaming scheduler's knobs and the
/// result cache. Every method runs with the paper's options
/// (OnlineBccOptions, LpBccOptions, L2pOptions{}; mBCC with LpBccOptions).
struct ServeOptions {
  /// Every (aging_period + 1)-th query dequeue goes to the oldest waiting
  /// bulk query even while interactive queries remain (0 disables aging).
  std::size_t aging_period = 8;
  /// Per-lane in-flight concurrency caps (0 = unlimited). caps.bulk = K
  /// bounds interactive tail latency under a saturating bulk backlog: bulk
  /// occupies at most K workers no matter how deep its queue grows.
  AdmissionCaps caps;
  /// Result-cache entry budget (0 = caching off). When on, queries without
  /// a deadline consult the epoch-keyed ResultCache before planning; a hit
  /// is bit-identical to re-executing at the query's pinned epoch (DESIGN.md
  /// serving contract 6).
  std::size_t result_cache_entries = 0;
};

/// Plans method-erased requests onto the right search algorithm and
/// executes them on a shared BatchRunner pool through the streaming
/// admission queue; owns the copy-on-write epoch state for dynamic graphs
/// (see the lifecycle above).
///
/// This is the single dispatch path for all four methods — the
/// BatchRunner::Run*Batch entry points and Serve() are thin shims over
/// RunStream.
///
/// One stream (or RunStream/Serve call) at a time per runner: the stream is
/// the runner's one job until finished (BatchRunner::Start aborts on a
/// second).
class ServeEngine {
 public:
  /// Non-owning: `g` (and `index`, when given) must outlive the engine.
  /// After an UpdateRequest the engine serves its own updated graph/index;
  /// the originals are never modified.
  ServeEngine(BatchRunner& runner, const LabeledGraph& g, const BcIndex* index = nullptr,
              ServeOptions opts = {});

  /// Owning: shares the graph (and index) with the caller — the natural fit
  /// for a SnapshotBundle. `index` may be null (kL2pBcc degrades to LP).
  ServeEngine(BatchRunner& runner, std::shared_ptr<const LabeledGraph> g,
              std::shared_ptr<const BcIndex> index, ServeOptions opts = {});

  ~ServeEngine();

  /// A live serving session: Submit admits items while the worker pool is
  /// already draining earlier ones; Finish closes admission, drains
  /// gracefully, and returns the stream's summary.
  /// Submit is multi-producer: any number of threads may admit concurrently
  /// (each connection of the socket front-end is one producer), and the
  /// admission order — the order that fixes epoch slots, request ids, and
  /// the serialized-replay equivalence — is the order the submissions win
  /// the stream lock. Items submitted from ONE thread keep their program
  /// order, so a connection's own updates are always ordered before its
  /// later queries. Finish (and the destructor) must not race Submit: stop
  /// every producer first. The engine (and its BatchRunner) must outlive
  /// the Stream — a Stream moved past its engine's lifetime dangles.
  class Stream {
   public:
    Stream(Stream&&) noexcept;
    ~Stream();

    /// Admits one item; returns the request id it will execute under.
    /// `on_complete` (required) is the item's one report: it is invoked
    /// once, on the executing worker, the moment the result is ready —
    /// the caller hears about each item as it finishes, not at drain.
    std::uint64_t Submit(ServeItem item, CompletionFn on_complete);

    /// Closes admission, waits for the drain, and returns the totals of
    /// every item's completion.
    StreamSummary Finish();

   private:
    friend class ServeEngine;
    explicit Stream(std::unique_ptr<struct StreamState> state);
    std::unique_ptr<struct StreamState> state_;
  };

  /// Opens a stream: the runner's workers start draining at once and block
  /// on the admission queue until items arrive, while this caller stays
  /// free to Submit. Opening a second stream — or calling RunStream/Serve —
  /// while one is open on the same runner, from this engine or another,
  /// aborts with a message in BatchRunner::Start.
  Stream OpenStream();

  /// Submit-everything-then-finish convenience: admits all items before the
  /// drain starts, so workers claim in the queue's policy order over the
  /// whole batch. Update preparation still interleaves with
  /// old-epoch queries on the pool.
  BatchResult RunStream(std::span<const ServeItem> items);

  /// Query-only convenience shim over RunStream.
  BatchResult Serve(std::span<const QueryRequest> requests);

  /// Current epoch (starts at 1; each applied UpdateRequest increments it).
  std::uint64_t epoch() const;

  /// The newest published epoch's graph and index (index may be null).
  /// graph() is valid until the next applied update; callers holding across
  /// updates should copy the shared_ptrs via graph_ptr()/index_ptr().
  const LabeledGraph& graph() const;
  std::shared_ptr<const LabeledGraph> graph_ptr() const;
  std::shared_ptr<const BcIndex> index_ptr() const;

  /// Durable serving: every applied UpdateRequest is appended to `log`
  /// before its new epoch publishes — append and publish happen together
  /// under the log's commit lock, so an UpdateOutcome with applied=true IS
  /// the durable acknowledgment (durable per the log's fsync policy), and a
  /// compactor capturing state under the same lock sees exactly the
  /// appended records. An append failure rejects the batch: the epoch does
  /// not advance and the outcome reports the error. `stamp` is the
  /// source-graph identity written with each record (what the snapshot
  /// represents after replay). `log` must outlive the engine; pass nullptr
  /// to detach. Call while no stream is open.
  void AttachDurability(Changelog* log, const SourceGraphInfo& stamp = {});

  /// Result-cache counters (all-zero when caching is off).
  ResultCacheStats result_cache_stats() const;

  /// Pair-table counters of the newest published index (all-zero when
  /// the engine serves without an index).
  BlockCacheStats pair_cache_stats() const;

 private:
  friend struct StreamState;
  friend struct EpochSlot;

  /// One published epoch: an immutable (graph, index) pair. Queries pin the
  /// state of their admission-time slot; an update builds its slot's state
  /// from the engine head.
  struct EpochState {
    std::shared_ptr<const LabeledGraph> graph;
    std::shared_ptr<const BcIndex> index;
    std::uint64_t epoch = 0;
  };

  /// The labels an applied update repaired, for result-cache invalidation:
  /// labels with intra-label edge updates and canonical (first < second)
  /// label pairs with cross-label updates. Sorted, deduped.
  struct RepairTouch {
    std::vector<Label> intra;
    std::vector<std::pair<Label, Label>> cross;
  };

  std::unique_ptr<struct StreamState> MakeStreamState();
  /// Starts the runner's drain job on `state` (every worker runs RunWorker).
  void StartDrain(StreamState& state);
  void Dispatch(const QueryRequest& req, const LabeledGraph& g, const BcIndex* index,
                QueryWorkspace& ws, Community* community, SearchStats* stats) const;
  /// Validates and prepares `req` against `base` (off-thread safe: touches
  /// no engine state) and returns the successor state — `base` itself when
  /// the batch is rejected. `touch` receives the repaired labels of an
  /// applied batch.
  EpochState PrepareUpdate(const EpochState& base, const UpdateRequest& req,
                           UpdateOutcome* outcome, RepairTouch* touch) const;
  void RunWorker(StreamState& state, QueryWorkspace& ws);

  BatchRunner* runner_;
  ServeOptions opts_;
  /// Epoch-keyed query-result cache; null when result_cache_entries == 0.
  /// Engine-lifetime (not per stream): entries persist across streams, and
  /// NoteRepairs keeps them exact across epochs.
  std::unique_ptr<ResultCache> result_cache_;
  Changelog* durability_log_ = nullptr;  // non-owning; see AttachDurability
  SourceGraphInfo durability_stamp_;
  mutable Mutex state_mutex_;
  /// The published head: the newest epoch's (graph, index).
  EpochState current_ GUARDED_BY(state_mutex_);
  std::atomic<std::uint64_t> next_request_id_{1};
};

}  // namespace bccs

#endif  // BCCS_EVAL_SERVE_ENGINE_H_
