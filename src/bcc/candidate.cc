#include "bcc/candidate.h"

#include "common/check.h"

namespace bccs {

GroupedCandidate::GroupedCandidate(const CandidateGraph& cg,
                                   std::vector<std::uint32_t> ks, QueryWorkspace& ws)
    : cg_(&cg), ws_(&ws), ks_(std::move(ks)) {
  BCCS_CHECK_EQ(cg.NumGroups(), ks_.size());
  for (std::uint32_t k : ks_) BCCS_CHECK_LT(k, kGone) << "core parameter out of range";
  const std::size_t n = cg.NumVertices();
  alive_ = ws.CharPool().Acquire(n);
  state_ = ws.U32ZeroPool().Acquire(n);
  queue_ = ws.AcquireIdVec();
  queue_->resize(n + 1);
  for (std::uint32_t gi = 0; gi < ks_.size(); ++gi) {
    for (VertexId v : cg.GroupMembers(gi)) {
      alive_[v] = 1;
      state_[v] = static_cast<std::uint32_t>(cg.NeighborsIn(v, gi).size());
    }
  }
  num_alive_ = n;
}

GroupedCandidate::~GroupedCandidate() {
  // Restore the pool defaults for exactly the entries this candidate wrote.
  const std::span<const VertexId> all = cg_->Vertices();
  ws_->CharPool().Release(std::move(alive_), all);
  ws_->U32ZeroPool().Release(std::move(state_), all);
  ws_->ReleaseIdVec(queue_);
}

std::vector<VertexId> GroupedCandidate::AliveVertices() const {
  std::vector<VertexId> out;
  out.reserve(num_alive_);
  for (VertexId v : cg_->Vertices()) {
    if (alive_[v]) out.push_back(v);
  }
  return out;
}

}  // namespace bccs
