// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//   perfbench prepare --dataset NAME --snapshot PATH     (set-up child)
//
// Prints progress and the run record on stdout, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any answer is wrong or any request failed, 2 on bad arguments.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench.h"
#include "tools/arg_parser.h"

namespace {

// Must match BENCHMARK.json.
const char* const kEndToEnd[] = {"query_p50_ms", "query_p99_ms", "qps", "setup_s", "peak_rss_mb"};
const char* const kPerLayer[] = {
    "bcc.find_g0.self_ms",        "bcc.find_g0.group_size",
    "bcc.find_g0.g0_size",        "bcc.find_g0.g0_per_group",
    "butterfly.seed_ms",          "butterfly.delta_ms",
    "butterfly.recount_calls",    "butterfly.delta_rounds",
    "butterfly.delta_fallbacks",  "butterfly.delta_hit_frac",
    "bcc.query_distance.self_ms", "bcc.leader_ms",
    "bcc.peel.self_ms",           "bcc.peel.rounds",
    "bcc.peel.removed_per_g0",    "bcc.community_per_g0",
    "bcc.mbcc.search_ms",         "bcc.mbcc.resolve_cores_ms",
    "bcc.mbcc.rounds",            "bcc.unaccounted_frac",
    "eval.admission_wait_ms_p50", "eval.admission_wait_ms_p99",
    "eval.exec_ms_p50",           "update_p50_ms",
    "update_p99_ms",              "eval.update_under_load_p50_ms",
    "eval.update_under_load_p99_ms", "eval.cache.hit_rate",
    "eval.cache.stale_drops",     "eval.cache.evictions",
    "eval.parallel_efficiency",   "graph.build_delta_ms",
    "graph.apply_delta_ms",       "bcc.index.apply_updates_ms",
    "bcc.index.labels_incremental_frac", "bcc.index.pairs_incremental_frac",
    "butterfly.block_cache.hit_rate", "net.parse_us",
    "net.format_us",              "net.overhead_ms_p50",
    "setup.generate_s",           "setup.index_build_s",
    "setup.snapshot_save_s",      "setup.snapshot_load_s",
    "loadgen.late_ms_p99",        "trace.overhead_frac",
    "failed_frac"};

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR\n"
               "       perfbench prepare --dataset NAME --snapshot PATH\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "prepare") {
    const bccs::ArgParser args = bccs::ArgParser::Parse(argc - 1, argv + 1);
    const auto dataset = args.GetString("dataset");
    const auto snapshot = args.GetString("snapshot");
    if (!dataset || !snapshot) return Usage();
    return perfbench::PrepareMain(*dataset, *snapshot);
  }
  const bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  if (!args.UnknownFlags({"workload", "seed", "seconds", "trace", "out-dir"}).empty()) {
    return Usage();
  }
  perfbench::RunConfig cfg;
  bool valid = true;
  cfg.workload = args.GetStringOr("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.GetNonNegativeIntOr("seed", 1, &valid));
  cfg.seconds = static_cast<double>(args.GetPositiveIntOr("seconds", 20, &valid));
  cfg.trace = args.GetNonNegativeIntOr("trace", 0, &valid) != 0;
  cfg.out_dir = args.GetStringOr("out-dir", ".bench_out");
  cfg.nproc = Nproc();
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) known = known || w == cfg.workload;
  if (!valid || !known) return Usage();

  const perfbench::RunOutput out = perfbench::RunWorkload(cfg);
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  bool complete = true;
  auto emit = [&](const char* name) {
    for (const perfbench::Metric& m : out.metrics) {
      if (m.name != name) continue;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
      return;
    }
    complete = false;
  };
  if (cfg.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json += "}}";
  if (!complete || out.attempted == 0) {
    std::fprintf(stderr, "perfbench: run produced no complete result\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return out.correct && out.failed == 0 ? 0 : 1;
}
