#include "bcc/workspace.h"

#include "bcc/candidate_graph.h"
#include "common/check.h"

#include <algorithm>

namespace bccs {

QueryWorkspace::QueryWorkspace() = default;
QueryWorkspace::~QueryWorkspace() = default;

DistanceMap* QueryWorkspace::AcquireDistance() {
  if (distance_free_.empty()) {
    distance_free_.push_back(std::make_unique<DistanceMap>());
    distance_free_.back()->SetReserve(vertex_reserve_);
    distance_free_.back()->ShareQueue(&distance_queue_);
  }
  distance_used_.push_back(std::move(distance_free_.back()));
  distance_free_.pop_back();
  return distance_used_.back().get();
}

void QueryWorkspace::ReleaseDistance(DistanceMap* dm) {
  for (auto& slot : distance_used_) {
    if (slot.get() == dm) {
      distance_free_.push_back(std::move(slot));
      std::swap(slot, distance_used_.back());
      distance_used_.pop_back();
      return;
    }
  }
  BCCS_CHECK(false) << "ReleaseDistance: unknown DistanceMap";
}

std::vector<VertexId>* QueryWorkspace::AcquireIdVec() {
  if (id_free_.empty()) id_free_.push_back(std::make_unique<std::vector<VertexId>>());
  id_used_.push_back(std::move(id_free_.back()));
  id_free_.pop_back();
  id_used_.back()->clear();
  return id_used_.back().get();
}

void QueryWorkspace::ReleaseIdVec(std::vector<VertexId>* vec) {
  for (auto& slot : id_used_) {
    if (slot.get() == vec) {
      id_free_.push_back(std::move(slot));
      std::swap(slot, id_used_.back());
      id_used_.pop_back();
      return;
    }
  }
  BCCS_CHECK(false) << "ReleaseIdVec: unknown vector";
}

void QueryWorkspace::SetVertexReserve(std::size_t n) {
  if (n == vertex_reserve_) return;
  vertex_reserve_ = n;
  char_pool_.SetReserve(n);
  u32_zero_pool_.SetReserve(n);
  u32_inf_pool_.SetReserve(n);
  u64_zero_pool_.SetReserve(n);
  double_inf_pool_.SetReserve(n);
  for (auto& dm : distance_free_) dm->SetReserve(n);
  for (auto& dm : distance_used_) dm->SetReserve(n);
  peel_queue_.SetReserve(n);
}

std::unique_ptr<CandidateGraph> QueryWorkspace::AcquireCandidateGraph() {
  if (candidate_free_.empty()) return std::make_unique<CandidateGraph>();
  std::unique_ptr<CandidateGraph> cg = std::move(candidate_free_.back());
  candidate_free_.pop_back();
  return cg;
}

void QueryWorkspace::ReleaseCandidateGraph(std::unique_ptr<CandidateGraph> cg) {
  if (cg != nullptr) candidate_free_.push_back(std::move(cg));
}

WorkspaceStats QueryWorkspace::Stats() const {
  WorkspaceStats s;
  s.bulk_inits = local_bulk_inits_ + char_pool_.bulk_inits() + u32_zero_pool_.bulk_inits() +
                 u32_inf_pool_.bulk_inits() + u64_zero_pool_.bulk_inits() +
                 double_inf_pool_.bulk_inits() + core_scratch_.bulk_inits() +
                 peel_queue_.bulk_inits();
  s.buffer_acquires = char_pool_.acquires() + u32_zero_pool_.acquires() +
                      u32_inf_pool_.acquires() + u64_zero_pool_.acquires() +
                      double_inf_pool_.acquires();
  s.peel_resets = peel_queue_.resets();
  for (const auto& dm : distance_free_) {
    s.bulk_inits += dm->bulk_inits();
    s.distance_resets += dm->resets();
  }
  for (const auto& dm : distance_used_) {
    s.bulk_inits += dm->bulk_inits();
    s.distance_resets += dm->resets();
  }
  return s;
}

}  // namespace bccs
