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
  dm->Set(source, 0);
  std::vector<VertexId>& queue = dm->queue();
  queue.assign(1, source);
  // The queue holds the levels one after another: when the scan reaches
  // the end of one level, the next is exactly what has been queued since.
  std::size_t level_end = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const VertexId v = queue[i];
    const std::uint32_t d = dm->Get(v);
    if (i == level_end) {
      level_end = queue.size();
      dm->AddToLevel(d, static_cast<std::uint32_t>(level_end - i));
    }
    for (VertexId w : g.Neighbors(v)) {
      if (!alive[w] || dm->Get(w) != kInfDistance) continue;
      dm->Set(w, d + 1);
      queue.push_back(w);
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
  using Mark = DistanceMap::Mark;
  // `changed` first holds the suspects checked in level order, then exactly
  // the orphans: an alive vertex's distance moves exactly when every one of
  // its parents was removed or itself orphaned.
  changed->clear();
  std::uint64_t reads = 0;
  std::vector<VertexId>& fifo = dm->queue();
  fifo.clear();
  // Marks v's alive, unmarked children (one level beyond d) as suspects.
  // Skipped when that level holds no alive vertex: nothing can lose a parent.
  auto collect_children = [&](VertexId v, std::uint32_t d, std::vector<VertexId>* suspects) {
    if (dm->LevelCount(d + 1) == 0) return;
    reads += g.Neighbors(v).size();
    for (VertexId w : g.Neighbors(v)) {
      if (alive[w] && dm->Get(w) == d + 1 && dm->GetMark(w) == Mark::kNone) {
        dm->Set(w, d + 1, Mark::kSuspect);
        suspects->push_back(w);
      }
    }
  };
  // Every removed vertex leaves its level before any level is tested, so a
  // level this batch empties reads as empty.
  for (VertexId v : removed) {
    if (dm->Get(v) != kInfDistance) dm->RemoveFromLevel(dm->Get(v));
  }
  for (VertexId v : removed) {
    const std::uint32_t d = dm->Get(v);
    if (d == kInfDistance) continue;
    collect_children(v, d, changed);
    dm->SetUnreachable(v);
  }
  if (changed->empty()) return reads;

  // Both passes below visit vertices in level order: they merge the seeds
  // (sorted by level) with a FIFO of vertices found on the way, whose levels
  // are pushed in non-decreasing order. Entries no longer carrying the
  // pass's mark are skipped; kInvalidVertex means none is left at a finite
  // distance.
  auto by_level = [dm](VertexId a, VertexId b) {
    const std::uint32_t da = dm->Get(a), db = dm->Get(b);
    return da != db ? da < db : a < b;
  };
  std::size_t next_seed = 0, next_fifo = 0;
  auto pop_nearest = [&](Mark pending) {
    auto key = [&](const std::vector<VertexId>& list, std::size_t* i) {
      while (*i < list.size() && dm->GetMark(list[*i]) != pending) ++*i;
      return *i < list.size() ? dm->Get(list[*i]) : kInfDistance;
    };
    const std::uint32_t seed_key = key(*changed, &next_seed);
    const std::uint32_t fifo_key = key(fifo, &next_fifo);
    if (std::min(seed_key, fifo_key) == kInfDistance) return kInvalidVertex;
    return seed_key <= fifo_key ? (*changed)[next_seed++] : fifo[next_fifo++];
  };

  // Check the suspects. Every suspect one level closer is decided first, so
  // a suspect's first alive, non-orphaned neighbour one level closer is a
  // parent for good. An orphan leaves its level but keeps its distance
  // until the cascade is done, so it finds exactly its children.
  std::sort(changed->begin(), changed->end(), by_level);
  for (VertexId x; (x = pop_nearest(Mark::kSuspect)) != kInvalidVertex;) {
    const std::uint32_t d = dm->Get(x);
    bool has_parent = false;
    if (dm->LevelCount(d - 1) != 0) {
      for (VertexId u : g.Neighbors(x)) {
        ++reads;
        if (alive[u] && dm->Get(u) + 1 == d && dm->GetMark(u) != Mark::kOrphan) {
          has_parent = true;
          break;
        }
      }
    }
    if (has_parent) {
      dm->Set(x, d);
      continue;
    }
    dm->Set(x, d, Mark::kOrphan);
    dm->RemoveFromLevel(d);
    collect_children(x, d, &fifo);
  }
  // Keep the orphans only.
  std::erase_if(*changed, [dm](VertexId x) { return dm->GetMark(x) != Mark::kOrphan; });
  for (VertexId x : fifo) {
    if (dm->GetMark(x) == Mark::kOrphan) changed->push_back(x);
  }
  if (changed->empty()) return reads;

  // Tentative distance of each orphan: one past its nearest non-orphaned
  // neighbour. Orphans keep their mark from here until they are re-reached.
  for (VertexId x : *changed) {
    std::uint32_t nearest = kInfDistance;
    reads += g.Neighbors(x).size();
    for (VertexId u : g.Neighbors(x)) {
      if (alive[u] && dm->GetMark(u) != Mark::kOrphan) nearest = std::min(nearest, dm->Get(u));
    }
    dm->Set(x, nearest == kInfDistance ? kInfDistance : nearest + 1, Mark::kOrphan);
  }

  // Re-reach the orphans; the FIFO holds orphans relaxed through other
  // orphans. Settling a vertex clears its mark and adds it to its level; an
  // orphan is never a parent of a non-orphan (its distance grew past
  // theirs), so no other vertex moves.
  std::sort(changed->begin(), changed->end(), by_level);
  fifo.clear();
  next_seed = 0;
  next_fifo = 0;
  for (VertexId x; (x = pop_nearest(Mark::kOrphan)) != kInvalidVertex;) {
    const std::uint32_t d = dm->Get(x);
    bool has_parent = false;
    reads += g.Neighbors(x).size();
    for (VertexId u : g.Neighbors(x)) {
      if (!alive[u]) continue;
      const std::uint32_t du = dm->Get(u);
      if (dm->GetMark(u) != Mark::kOrphan) {
        has_parent |= du + 1 == d;
      } else if (du > d + 1) {
        dm->Set(u, d + 1, Mark::kOrphan);
        fifo.push_back(u);
      }
    }
    BCCS_DCHECK(has_parent) << "re-reached vertex " << x << " without a parent";
    dm->Set(x, d);
    dm->AddToLevel(d);
  }
  for (VertexId x : *changed) {
    if (dm->GetMark(x) == Mark::kOrphan) dm->SetUnreachable(x);
  }
  return reads;
}

void AuditDistanceMap(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                      const DistanceMap& dm) {
#if BCCS_DCHECK_IS_ON
  std::vector<std::uint32_t> fresh;
  BfsDistances(g, alive, source, &fresh);
  std::vector<std::uint32_t> histogram;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    BCCS_DCHECK_EQ(dm.Get(v), fresh[v]) << "distance audit: vertex " << v;
    BCCS_DCHECK(dm.GetMark(v) == DistanceMap::Mark::kNone) << "mark audit: vertex " << v;
    if (fresh[v] == kInfDistance) continue;
    if (fresh[v] >= histogram.size()) histogram.resize(std::size_t{fresh[v]} + 1, 0);
    ++histogram[fresh[v]];
  }
  for (std::uint32_t d = 0; d < std::max(histogram.size(), dm.NumLevels()); ++d) {
    const std::uint32_t want = d < histogram.size() ? histogram[d] : 0;
    BCCS_DCHECK_EQ(dm.LevelCount(d), want) << "level audit: level " << d;
  }
#else
  (void)g;
  (void)alive;
  (void)source;
  (void)dm;
#endif
}

}  // namespace bccs
