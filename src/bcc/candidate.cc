#include "bcc/candidate.h"

#include "common/check.h"

namespace bccs {

GroupedCandidate::GroupedCandidate(const CandidateGraph& cg,
                                   std::vector<std::uint32_t> ks, QueryWorkspace* ws)
    : cg_(&cg), ws_(ws), ks_(std::move(ks)) {
  BCCS_CHECK_EQ(cg.NumGroups(), ks_.size());
  const std::size_t n = cg.NumVertices();
  if (ws_ != nullptr) {
    alive_ = ws_->CharPool().Acquire(n);
    group_deg_ = ws_->U32ZeroPool().Acquire(n);
    queued_ = ws_->CharPool().Acquire(n);
    group_masks_.reserve(ks_.size());
    for (std::size_t i = 0; i < ks_.size(); ++i) {
      group_masks_.push_back(ws_->CharPool().Acquire(n));
    }
  } else {
    alive_.assign(n, 0);
    group_deg_.assign(n, 0);
    queued_.assign(n, 0);
    group_masks_.assign(ks_.size(), std::vector<char>(n, 0));
  }
  for (std::uint32_t gi = 0; gi < ks_.size(); ++gi) {
    for (VertexId v : cg.GroupMembers(gi)) {
      alive_[v] = 1;
      group_masks_[gi][v] = 1;
      group_deg_[v] = static_cast<std::uint32_t>(cg.NeighborsIn(v, gi).size());
    }
  }
  num_alive_ = n;
}

GroupedCandidate::~GroupedCandidate() {
  if (ws_ == nullptr) return;
  // Restore the pool defaults for exactly the entries this candidate wrote
  // (queued_ is kept all-zero by RemoveAndMaintain itself).
  const std::span<const VertexId> all = cg_->Vertices();
  ws_->CharPool().Release(std::move(alive_), all);
  ws_->U32ZeroPool().Release(std::move(group_deg_), all);
  ws_->CharPool().ReleaseClean(std::move(queued_));
  for (std::uint32_t gi = 0; gi < group_masks_.size(); ++gi) {
    ws_->CharPool().Release(std::move(group_masks_[gi]), cg_->GroupMembers(gi));
  }
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
