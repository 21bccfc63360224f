// In-memory span store and the self-time computation.
#include <algorithm>
#include <cstdio>
#include <map>

#include "perfbench.h"

namespace perfbench {

int SpanLog::Add(const std::string& name, double start, double end, int parent,
                 std::uint64_t request, bool derived) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request, derived});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::AddDerived(int parent, const std::vector<std::pair<std::string, double>>& phases) {
  std::lock_guard<std::mutex> lock(mu_);
  double at = spans_[parent].start;
  const std::uint64_t request = spans_[parent].request;
  for (const auto& [name, seconds] : phases) {
    if (seconds <= 0) continue;
    spans_.push_back(Span{name, at, at + seconds, parent, request, true});
    at += seconds;
  }
}

void SpanLog::SetEnd(int id, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = end;
}

std::vector<std::pair<std::string, SpanTotals>> SpanLog::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span never overlap each other (calls are sequential and
  // derived phases are laid out back to back), so the union of the children
  // is their summed duration.
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_sum[s.parent] += s.end - s.start;
  }
  std::map<std::string, SpanTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end - spans_[i].start;
    SpanTotals& t = by_name[spans_[i].name];
    ++t.count;
    t.total += dur;
    t.self += std::max(0.0, dur - child_sum[i]);
  }
  return {by_name.begin(), by_name.end()};
}

SpanTotals SpanLog::TotalsOf(const std::string& name) const {
  for (const auto& [n, t] : Totals()) {
    if (n == name) return t;
  }
  return {};
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                 "\"request\":%llu,\"derived\":%s}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request), s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
