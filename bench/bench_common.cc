#include "bench_common.h"

#include "eval/metrics.h"
#include "eval/timer.h"

namespace bccs::bench {
namespace {

// Shared per-query accumulation so the sequential and batch paths aggregate
// identically (their comparisons rely on it).
void Accumulate(PreparedDataset& ds, const GroundTruthQuery& gq, const Community& c,
                double seconds, MethodAggregate* agg) {
  agg->avg_seconds += seconds;
  if (c.Empty()) ++agg->empty_results;
  auto truth = ds.planted.communities[gq.community_index].AllVertices();
  agg->avg_f1 += F1Score(c.vertices, truth).f1;
}

void FinalizeAverages(std::size_t count, MethodAggregate* agg) {
  agg->avg_seconds /= static_cast<double>(count);
  agg->avg_f1 /= static_cast<double>(count);
}

}  // namespace

PreparedDataset Prepare(const DatasetSpec& spec, std::size_t num_queries,
                        const QueryGenConfig& qcfg) {
  PreparedDataset ds;
  ds.name = spec.name;
  ds.planted = MakeDataset(spec);
  ds.ctc = std::make_unique<CtcSearcher>(ds.planted.graph);
  ds.psa = std::make_unique<PsaSearcher>(ds.planted.graph);
  ds.index = std::make_unique<BcIndex>(ds.planted.graph);
  ds.queries = SampleGroundTruthQueries(ds.planted, num_queries, qcfg);
  return ds;
}

MethodAggregate RunMethodOnQueries(PreparedDataset& ds, Method m, const BccParams& params,
                                   const std::vector<GroundTruthQuery>& queries) {
  MethodAggregate agg;
  if (queries.empty()) return agg;
  for (const GroundTruthQuery& gq : queries) {
    Community c;
    Timer t;
    switch (m) {
      case Method::kPsa:
        c = ds.psa->Search(gq.query, &agg.stats);
        break;
      case Method::kCtc:
        c = ds.ctc->Search(gq.query, &agg.stats);
        break;
      case Method::kOnlineBcc:
        c = OnlineBcc(ds.planted.graph, gq.query, params, &agg.stats);
        break;
      case Method::kLpBcc:
        c = LpBcc(ds.planted.graph, gq.query, params, &agg.stats);
        break;
      case Method::kL2pBcc:
        c = L2pBcc(ds.planted.graph, *ds.index, gq.query, params, {}, &agg.stats);
        break;
    }
    Accumulate(ds, gq, c, t.Seconds(), &agg);
  }
  FinalizeAverages(queries.size(), &agg);
  return agg;
}

MethodAggregate RunMethod(PreparedDataset& ds, Method m, const BccParams& params) {
  return RunMethodOnQueries(ds, m, params, ds.queries);
}

MethodAggregate RunMethodBatch(PreparedDataset& ds, Method m, const BccParams& params,
                               BatchRunner& runner, BatchResult* batch) {
  const std::vector<GroundTruthQuery>& queries = ds.queries;
  MethodAggregate agg;
  if (queries.empty()) return agg;

  std::vector<BccQuery> raw;
  raw.reserve(queries.size());
  for (const GroundTruthQuery& gq : queries) raw.push_back(gq.query);

  BatchResult local;
  BatchResult& result = batch != nullptr ? *batch : local;
  switch (m) {
    case Method::kPsa:
    case Method::kCtc: {
      // The baseline searchers are stateless after construction; fan the
      // queries out over the generic runner.
      BatchRunner::RunTimedFn fn = [&](std::size_t i, QueryWorkspace& ws, Community* c,
                                       SearchStats* stats) {
        (void)ws;  // baselines do not use the workspace
        *c = m == Method::kPsa ? ds.psa->Search(raw[i], stats) : ds.ctc->Search(raw[i], stats);
      };
      result = runner.RunCustomBatch(raw.size(), fn);
      break;
    }
    case Method::kOnlineBcc:
      result = runner.RunBccBatch(ds.planted.graph, raw, params, QueryMethod::kOnlineBcc);
      break;
    case Method::kLpBcc:
      result = runner.RunBccBatch(ds.planted.graph, raw, params, QueryMethod::kLpBcc);
      break;
    case Method::kL2pBcc:
      result = runner.RunL2pBatch(ds.planted.graph, *ds.index, raw, params);
      break;
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    agg.stats += result.stats[i];
    Accumulate(ds, queries[i], result.communities[i], result.seconds[i], &agg);
  }
  FinalizeAverages(queries.size(), &agg);
  return agg;
}

void PrintCommunityByLabel(const CaseStudy& cs, const Community& c, const char* title) {
  std::printf("%s: %zu members\n", title, c.Size());
  if (c.Empty()) {
    std::printf("  (empty)\n");
    return;
  }
  for (Label l = 0; l < cs.graph.NumLabels(); ++l) {
    bool any = false;
    for (VertexId v : c.vertices) {
      if (cs.graph.LabelOf(v) != l) continue;
      if (!any) {
        std::printf("  [%s]", l < cs.label_names.size() ? cs.label_names[l].c_str() : "?");
        any = true;
      }
      std::printf(" %s", cs.vertex_names[v].c_str());
    }
    if (any) std::printf("\n");
  }
}

}  // namespace bccs::bench
