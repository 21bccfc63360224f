// Answer checking: every served answer against an in-process recomputation.
#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "bcc/find_g0.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "bcc/workspace.h"
#include "net/line_protocol.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using bccs::BccQuery;
using bccs::Community;
using bccs::EdgeUpdate;
using bccs::Label;
using bccs::LabeledGraph;

/// One recomputation: LP-BCC for `query` on the graph of `epoch`.
struct Task {
  std::uint64_t epoch = 0;
  BccQuery query;
  std::size_t version = 0;
  // Results:
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  bool valid = true;
  Community community;
};

/// LP-BCC exactly as ServeEngine plans kLpBcc (auto k, b = 1), through the
/// two public phases so the resolved k1/k2 are at hand for VerifyBcc.
void RecomputeLp(const LabeledGraph& g, Task* t, bccs::QueryWorkspace* ws) {
  bccs::BccParams params;
  bccs::G0Result g0 = bccs::FindG0(g, t->query, params, nullptr, ws);
  t->community = bccs::PeelToBcc(g, g0, t->query, bccs::LpBccOptions(), params.b, nullptr, ws);
  bccs::ReleaseG0Counts(ws, &g0);
  t->size = t->community.Size();
  t->hash = bccs::CommunityHash(t->community);
  if (!t->community.Empty()) {
    t->valid = bccs::VerifyBcc(g, t->community, t->query, {g0.k1, g0.k2, params.b}) ==
               bccs::BccViolation::kNone;
  }
}

/// Runs fn(begin, end, thread) over [0, n) split into `threads` contiguous
/// chunks.
template <typename Fn>
void ParallelChunks(std::size_t n, std::size_t threads, Fn fn) {
  threads = std::max<std::size_t>(1, std::min(threads, n));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { fn(n * t / threads, n * (t + 1) / threads); });
  }
  for (std::thread& th : pool) th.join();
}

void Note(CheckResult* r, const std::string& msg) {
  if (r->messages.size() < 5) r->messages.push_back(msg);
}

}  // namespace

CheckResult CheckBccSession(const LabeledGraph& base, const std::vector<WireRequest>& requests,
                            const std::vector<WireReply>& replies,
                            const std::vector<std::size_t>& update_order, std::size_t threads,
                            std::vector<char>* failed) {
  CheckResult result;
  failed->assign(requests.size(), 0);

  // Acks: every update applied, epochs 2, 3, ... in the writer's send order.
  std::vector<EdgeUpdate> updates;
  for (std::size_t k = 0; k < update_order.size(); ++k) {
    const std::size_t i = update_order[k];
    const WireReply& rep = replies[i];
    if (!rep.sent) break;  // the schedule ended early; later ones were never sent
    updates.push_back(requests[i].update);
    if (!rep.received || rep.status != 'o' || rep.epoch != k + 2) {
      ++result.bad_acks;
      (*failed)[i] = 1;
      Note(&result, "update " + std::to_string(i + 1) + " not acked as applied at epoch " +
                        std::to_string(k + 2));
    }
  }

  // Per label and per cross pair, the positions of the updates touching it.
  std::map<std::pair<Label, Label>, std::vector<std::size_t>> touching;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const Label a = base.LabelOf(updates[k].edge.u);
    const Label b = base.LabelOf(updates[k].edge.v);
    touching[std::minmax(a, b)].push_back(k);
  }
  auto count_before = [&](Label a, Label b, std::size_t limit) -> std::size_t {
    auto it = touching.find(std::minmax(a, b));
    if (it == touching.end()) return 0;
    return static_cast<std::size_t>(
        std::lower_bound(it->second.begin(), it->second.end(), limit) - it->second.begin());
  };

  // One task per (query, version), at the first epoch it was reported.
  std::map<std::tuple<bccs::VertexId, bccs::VertexId, std::size_t>, std::size_t> task_of;
  std::vector<Task> tasks;
  std::vector<std::size_t> reply_task(requests.size(), SIZE_MAX);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const WireRequest& req = requests[i];
    const WireReply& rep = replies[i];
    if (req.is_update || !rep.sent) continue;
    if (!rep.received || rep.status != 'o') {
      (*failed)[i] = 1;
      continue;
    }
    ++result.checked;
    if (rep.epoch < 1 || rep.epoch > updates.size() + 1) {
      (*failed)[i] = 1;
      ++result.wrong;
      Note(&result, "query " + std::to_string(i + 1) + " reports unknown epoch " +
                        std::to_string(rep.epoch));
      continue;
    }
    const std::size_t applied = rep.epoch - 1;
    const Label la = base.LabelOf(req.query.ql);
    const Label lb = base.LabelOf(req.query.qr);
    const std::size_t version = count_before(la, la, applied) +
                                count_before(lb, lb, applied) + count_before(la, lb, applied);
    auto [it, inserted] =
        task_of.try_emplace({req.query.ql, req.query.qr, version}, tasks.size());
    if (inserted) {
      Task t;
      t.epoch = rep.epoch;
      t.query = req.query;
      t.version = version;
      tasks.push_back(std::move(t));
    }
    tasks[it->second].epoch = std::min(tasks[it->second].epoch, rep.epoch);
    reply_task[i] = it->second;
  }

  // Recompute, epochs ascending, each thread walking its own epoch range.
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return tasks[a].epoch < tasks[b].epoch; });
  ParallelChunks(order.size(), threads, [&](std::size_t begin, std::size_t end) {
    bccs::QueryWorkspace ws;
    LabeledGraph g = base;
    std::size_t applied = 0;
    for (std::size_t o = begin; o < end; ++o) {
      Task& t = tasks[order[o]];
      const std::size_t want = t.epoch - 1;
      if (want > applied) {
        auto delta = bccs::BuildGraphDelta(
            g, std::span<const EdgeUpdate>(updates.data() + applied, want - applied));
        if (delta) g = bccs::ApplyGraphDelta(g, *delta);
        applied = want;
      }
      RecomputeLp(g, &t, &ws);
    }
  });

  std::map<std::pair<std::uint64_t, std::uint64_t>, bool> distinct;
  for (const Task& t : tasks) {
    if (t.size == 0) {
      ++result.empty_answers;
      continue;
    }
    distinct.emplace(std::make_pair(t.hash, t.size), t.valid);
    if (!t.valid) {
      ++result.invalid;
      Note(&result, "recomputed answer for (" + std::to_string(t.query.ql) + ", " +
                        std::to_string(t.query.qr) + ") fails VerifyBcc");
    }
    if (result.samples.size() < 64) result.samples.push_back(t.community);
  }
  result.distinct_answers = distinct.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (reply_task[i] == SIZE_MAX) continue;
    const Task& t = tasks[reply_task[i]];
    const WireReply& rep = replies[i];
    if (rep.size != t.size || rep.hash != t.hash || !t.valid) {
      (*failed)[i] = 1;
      ++result.wrong;
      Note(&result, "query " + std::to_string(i + 1) + " at epoch " + std::to_string(rep.epoch) +
                        ": served n=" + std::to_string(rep.size) + ", expected n=" +
                        std::to_string(t.size));
    }
  }
  return result;
}

CheckResult CheckMbccAnswers(const LabeledGraph& g, const std::vector<bccs::MbccQuery>& pool,
                             const std::vector<std::size_t>& keys,
                             const std::vector<ServedAnswer>& answers, std::size_t threads,
                             std::vector<char>* failed) {
  CheckResult result;
  failed->assign(answers.size(), 0);
  std::vector<std::size_t> distinct_keys(keys);
  std::sort(distinct_keys.begin(), distinct_keys.end());
  distinct_keys.erase(std::unique(distinct_keys.begin(), distinct_keys.end()),
                      distinct_keys.end());
  std::vector<Community> expected(pool.size());
  std::vector<char> valid(pool.size(), 1);
  ParallelChunks(distinct_keys.size(), threads, [&](std::size_t begin, std::size_t end) {
    bccs::QueryWorkspace ws;
    bccs::MbccParams params;
    for (std::size_t d = begin; d < end; ++d) {
      const std::size_t k = distinct_keys[d];
      expected[k] =
          bccs::MbccSearch(g, pool[k], params, bccs::LpBccOptions(), nullptr, nullptr, &ws);
      if (!expected[k].Empty()) {
        const auto ks = bccs::ResolveMbccCores(g, pool[k], params, &ws);
        valid[k] = bccs::VerifyMbcc(g, expected[k], pool[k].vertices, ks, params.b) ==
                   bccs::MbccViolation::kNone;
      }
    }
  });
  for (std::size_t k : distinct_keys) {
    if (expected[k].Empty()) {
      ++result.empty_answers;
      continue;
    }
    ++result.distinct_answers;
    if (!valid[k]) ++result.invalid;
  }
  for (std::size_t i = 0; i < answers.size(); ++i) {
    ++result.checked;
    const std::size_t k = keys[i];
    if (answers[i].size != expected[k].Size() ||
        answers[i].hash != bccs::CommunityHash(expected[k]) || !valid[k]) {
      (*failed)[i] = 1;
      ++result.wrong;
      Note(&result, "mbcc answer " + std::to_string(i) + ": served n=" +
                        std::to_string(answers[i].size) + ", expected n=" +
                        std::to_string(expected[k].Size()));
    }
  }
  return result;
}

}  // namespace perfbench
