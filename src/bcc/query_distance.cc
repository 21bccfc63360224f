#include "bcc/query_distance.h"

#include <algorithm>

namespace bccs {

void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  std::vector<std::uint32_t>* dist) {
  dist->assign(g.NumVertices(), kInfDistance);
  if (source >= g.NumVertices() || !alive[source]) return;
  std::vector<VertexId> frontier = {source};
  (*dist)[source] = 0;
  std::uint32_t level = 0;
  std::vector<VertexId> next;
  while (!frontier.empty()) {
    next.clear();
    ++level;
    for (VertexId v : frontier) {
      for (VertexId w : g.Neighbors(v)) {
        if (!alive[w] || (*dist)[w] != kInfDistance) continue;
        (*dist)[w] = level;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
}

void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  DistanceMap* dm) {
  dm->Reset(g.NumVertices());
  if (source >= g.NumVertices() || !alive[source]) return;
  dm->Set(source, 0, 1);  // the virtual parent
  std::vector<VertexId>& queue = dm->queue();
  queue.assign(1, source);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const VertexId v = queue[i];
    const std::uint32_t next = dm->Get(v) + 1;
    for (VertexId w : g.Neighbors(v)) {
      if (!alive[w]) continue;
      const std::uint32_t dw = dm->Get(w);
      if (dw == kInfDistance) {
        dm->Set(w, next, 1);
        queue.push_back(w);
      } else if (dw == next) {
        dm->AddSupport(w);
      }
    }
  }
}

void UpdateDistancesAfterDeletion(const LabeledGraph& g, const std::vector<char>& alive,
                                  std::span<const VertexId> removed,
                                  std::vector<std::uint32_t>* dist) {
  std::uint32_t d_min = kInfDistance;
  for (VertexId v : removed) d_min = std::min(d_min, (*dist)[v]);
  for (VertexId v : removed) (*dist)[v] = kInfDistance;
  if (d_min == kInfDistance) return;  // deleted vertices were all unreachable

  // Stale set S_u: alive vertices farther than d_min. Tentatively reset,
  // then re-reach them from the (unchanged) d_min level set S_s; vertices
  // not re-reached correctly stay at infinity.
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!alive[v] || (*dist)[v] == kInfDistance) continue;
    if ((*dist)[v] == d_min) {
      frontier.push_back(v);
    } else if ((*dist)[v] > d_min) {
      (*dist)[v] = kInfDistance;
    }
  }

  std::uint32_t level = d_min;
  std::vector<VertexId> next;
  while (!frontier.empty()) {
    next.clear();
    ++level;
    for (VertexId v : frontier) {
      for (VertexId w : g.Neighbors(v)) {
        if (!alive[w] || (*dist)[w] != kInfDistance) continue;
        (*dist)[w] = level;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
}

std::uint64_t UpdateDistancesAfterDeletion(const LabeledGraph& g, const std::vector<char>& alive,
                                           std::span<const VertexId> removed, DistanceMap* dm,
                                           std::vector<VertexId>* changed) {
  // `changed` doubles as the orphan list: an alive vertex's distance moves
  // exactly when every one of its parents was removed or itself orphaned.
  changed->clear();
  std::uint64_t reads = 0;
  auto debit_children = [&](VertexId v, std::uint32_t d) {
    reads += g.Neighbors(v).size();
    for (VertexId w : g.Neighbors(v)) {
      if (alive[w] && dm->Get(w) == d + 1 && dm->DropSupport(w)) changed->push_back(w);
    }
  };
  for (VertexId v : removed) {
    const std::uint32_t d = dm->Get(v);
    if (d == kInfDistance) continue;
    debit_children(v, d);
    dm->SetUnreachable(v);
  }
  // Orphans keep their old distance until the cascade is done, so each one
  // finds (and debits) exactly the children it used to support.
  for (std::size_t i = 0; i < changed->size(); ++i) {
    const VertexId x = (*changed)[i];
    debit_children(x, dm->Get(x));
  }
  if (changed->empty()) return reads;

  // Tentative distance of each orphan: one past its nearest non-orphaned
  // neighbour (support > 0 marks a vertex whose distance is final). Orphans
  // carry support 0 from here until they are re-reached.
  for (VertexId x : *changed) {
    std::uint32_t t = kInfDistance;
    reads += g.Neighbors(x).size();
    for (VertexId u : g.Neighbors(x)) {
      if (alive[u] && dm->Support(u) != 0) t = std::min(t, dm->Get(u) + 1);
    }
    dm->Set(x, t, 0);
  }

  // Re-reach the orphans in level order: merge the seeds (sorted by
  // tentative distance) with a FIFO of orphans relaxed through other
  // orphans, whose keys are pushed in non-decreasing order. Settling a vertex
  // counts its parents, restoring its support; an orphan is never a parent of
  // a non-orphan (its distance grew past theirs), so no other count changes.
  std::sort(changed->begin(), changed->end(), [dm](VertexId a, VertexId b) {
    const std::uint32_t da = dm->Get(a), db = dm->Get(b);
    return da != db ? da < db : a < b;
  });
  std::vector<VertexId>& fifo = dm->queue();
  fifo.clear();
  std::size_t next_seed = 0, next_fifo = 0;
  auto skip_settled = [dm](const std::vector<VertexId>& list, std::size_t* i) {
    while (*i < list.size() && dm->Support(list[*i]) != 0) ++*i;
    return *i < list.size() ? dm->Get(list[*i]) : kInfDistance;
  };
  while (true) {
    const std::uint32_t seed_key = skip_settled(*changed, &next_seed);
    const std::uint32_t fifo_key = skip_settled(fifo, &next_fifo);
    const std::uint32_t d = std::min(seed_key, fifo_key);
    if (d == kInfDistance) break;  // the rest stay unreachable
    const VertexId x = seed_key <= fifo_key ? (*changed)[next_seed++] : fifo[next_fifo++];
    std::uint32_t support = 0;
    reads += g.Neighbors(x).size();
    for (VertexId u : g.Neighbors(x)) {
      if (!alive[u]) continue;
      const std::uint32_t du = dm->Get(u);
      if (dm->Support(u) != 0) {
        if (du + 1 == d) ++support;
      } else if (du > d + 1) {
        dm->Set(u, d + 1, 0);
        fifo.push_back(u);
      }
    }
    BCCS_DCHECK_GT(support, 0u) << "re-reached vertex " << x << " without a parent";
    dm->Set(x, d, support);
  }
  return reads;
}

void AuditDistanceMap(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                      const DistanceMap& dm) {
#if BCCS_DCHECK_IS_ON
  std::vector<std::uint32_t> fresh;
  BfsDistances(g, alive, source, &fresh);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    BCCS_DCHECK_EQ(dm.Get(v), fresh[v]) << "distance audit: vertex " << v;
    if (fresh[v] == kInfDistance || v == source) continue;
    std::uint32_t parents = 0;
    for (VertexId u : g.Neighbors(v)) parents += alive[u] && fresh[u] + 1 == fresh[v];
    BCCS_DCHECK_EQ(dm.Support(v), parents) << "support audit: vertex " << v;
  }
#else
  (void)g;
  (void)alive;
  (void)source;
  (void)dm;
#endif
}

}  // namespace bccs
