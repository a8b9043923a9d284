// perfbench_loadgen — runs one benchmark workload against a loopback
// cluster of dpss_node processes and prints, as its last stdout line,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Lines before it are reference output: latency tails with
// sample counts, independent-total checks and each node's exit status.
//
//   perfbench_loadgen --workload pss_search|scan_tableii|subs_ingest
//                     --seed N --seconds S --trace 0|1 --node-bin PATH
//
// perfbench/run.py builds both binaries and invokes this.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::RunResult;

struct MetricDecl {
  const char* name;
  const char* unit;
};

// The declared metric sets (BENCHMARK.json); every run prints all of one
// set. A per-layer metric of a layer the workload does not exercise reads
// 0: that layer did no work.
const std::vector<MetricDecl> kEndToEnd = {
    {"setup_s", "s"},
    {"round_ms_p50", "ms"},
    {"items_per_s", "1/s"},
    {"wire_bytes_per_round", "bytes"},
};

const std::vector<MetricDecl> kPerLayer = {
    {"crypto.encrypt_us", "us"},
    {"crypto.decrypt_us", "us"},
    {"crypto.mul_plain_many_us", "us"},
    {"crypto.fold_busy_ms", "ms"},
    {"crypto.fold_count", "count"},
    {"pss.make_query_ms", "ms"},
    {"pss.slice_fold_ms", "ms"},
    {"pss.segment_fold_busy_ms", "ms"},
    {"pss.open_ms", "ms"},
    {"pss.singular_retries", "count"},
    {"pss.envelope_bytes", "bytes"},
    {"pss.subscription_fold_busy_ms", "ms"},
    {"pss.seal_ms", "ms"},
    {"pss.snapshots", "count"},
    {"pss.feed_poll_ms", "ms"},
    {"storage.segment_decode_ms", "ms"},
    {"storage.segment_blob_bytes", "bytes"},
    {"query.scan_q1_us", "us"},
    {"query.scan_q6_us", "us"},
    {"query.merge_q6_us", "us"},
    {"cluster.scan_busy_ms_per_query", "ms"},
    {"cluster.scatter_rpcs_per_query", "count"},
    {"cluster.broker_merge_busy_ms_per_query", "ms"},
    {"cluster.private_search_ms", "ms"},
    {"cluster.segment_load_ms", "ms"},
    {"cluster.loads_per_segment", "count"},
    {"cluster.rpc_retries", "count"},
    {"net.rpc_us", "us"},
    {"net.bytes_per_query", "bytes"},
    {"net.bytes_per_round", "bytes"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_loadgen: " << error << "\n"
            << "usage: perfbench_loadgen --workload W --seed N --seconds S "
               "--trace 0|1 --node-bin PATH\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--node-bin") {
      a.nodeBin = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.nodeBin.empty()) usage("--node-bin is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::string metricsJson(const RunResult& r,
                        const std::vector<MetricDecl>& decls) {
  std::string out;
  char buf[64];
  for (const auto& d : decls) {
    const auto it = r.metrics.find(d.name);
    // A metric with no samples (every operation failed) prints 0.
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
    if (!out.empty()) out += ", ";
    out += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  return "{" + out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = perfbench::SteadyClock::now();
  const Args args = parseArgs(argc, argv);
  RunResult result;
  try {
    if (args.workload == "pss_search") {
      result = perfbench::runPssSearch(args, start);
    } else if (args.workload == "scan_tableii") {
      result = perfbench::runScanTableII(args, start);
    } else if (args.workload == "subs_ingest") {
      result = perfbench::runSubsIngest(args, start);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_loadgen: " << args.workload << ": " << e.what()
              << std::endl;
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "perfbench_loadgen: no operation attempted" << std::endl;
    return 1;
  }
  for (const auto& note : result.notes) {
    std::cout << "perfbench: " << note << "\n";
  }
  if (args.trace) {
    // The traced run's own end-to-end figures, for comparison with an
    // untraced run: the difference is the tracing overhead.
    std::cout << "perfbench: traced-run end-to-end "
              << metricsJson(result, kEndToEnd) << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": "
            << metricsJson(result, args.trace ? kPerLayer : kEndToEnd) << "}"
            << std::endl;
  return 0;
}
