// scan_tableii: one client cycles through the paper's Table II queries
// Q1-Q6 over 16 ad-tech segments of 10k rows, published through the
// coordinator's substrates and served by two historicals. The broker's
// result cache is off, so every query scatters, scans and merges.
#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/broker_rpc.h"
#include "cluster/metastore.h"
#include "common/error.h"
#include "common/interval.h"
#include "launcher.h"
#include "net/control.h"
#include "net/substrate.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/adtech.h"
#include "storage/segment_builder.h"
#include "storage/segment_codec.h"
#include "workloads.h"

namespace perfbench {

namespace query = dpss::query;
namespace storage = dpss::storage;

namespace {

using Field = ClusterMetrics::Field;

constexpr std::size_t kSegments = 16;
constexpr std::size_t kRowsPerSegment = 10'000;
constexpr int kQueries = 6;
const char* const kDataSource = "ads";
const char* const kHistoricals[] = {"hist-a", "hist-b"};
constexpr std::size_t kTopNLimit = 100;                // Table II LIMIT
constexpr std::size_t kTopNKeep = 4 * kTopNLimit;      // per-segment overfetch

/// Reference aggregates over the generated rows, in the aggregation
/// order of query::tableTwoQuery: count, impressions, clicks, revenue,
/// conversions.
struct Agg {
  double values[5] = {0, 0, 0, 0, 0};
  void add(const storage::InputRow& row) {
    values[0] += 1;
    values[1] += row.metrics[0];  // impressions
    values[2] += row.metrics[1];  // clicks
    values[3] += row.metrics[2];  // revenue
    values[4] += row.metrics[3];  // conversions
  }
};

/// The reference answers. Q4-Q6 are Druid-style topN queries: each
/// historical ships only the groups of a segment whose count reaches the
/// (4 x limit + 1)-th largest count of that segment (query/engine.cc,
/// truncateForTopN), and the broker merges what it gets. `topN` applies
/// that rule per segment to plain-loop group-bys and merges them; `exact`
/// is the untruncated group-by, kept to report how far the approximation
/// strays.
struct Reference {
  Agg total;
  std::unordered_map<std::string, Agg> topN;
  std::unordered_map<std::string, Agg> exact;
  double hundredthCount = 0;  // the 100th largest count in `topN`

  void addSegment(const std::unordered_map<std::string, Agg>& groups) {
    std::vector<double> counts;
    for (const auto& [group, agg] : groups) counts.push_back(agg.values[0]);
    double cutoff = 0;
    if (counts.size() > kTopNKeep) {
      std::nth_element(counts.begin(), counts.begin() + kTopNKeep,
                       counts.end(), std::greater<>());
      cutoff = counts[kTopNKeep];
    }
    for (const auto& [group, agg] : groups) {
      for (int v = 0; v < 5; ++v) exact[group].values[v] += agg.values[v];
      if (agg.values[0] < cutoff) continue;
      for (int v = 0; v < 5; ++v) topN[group].values[v] += agg.values[v];
    }
  }
};

/// Long sums are exact; the revenue sum is a double summed in another
/// order, so it gets a relative tolerance.
bool sameValue(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

/// Checks one Table II answer against the plain loop / topN group-by.
void checkAnswer(int qn, const dpss::cluster::BrokerQueryOutcome& outcome,
                 const Reference& ref, RunResult& result) {
  const std::string q = "Q" + std::to_string(qn) + ": ";
  if (outcome.partial() || outcome.segmentsQueried != kSegments) {
    result.mismatch(q + "answer covered " +
                    std::to_string(outcome.segmentsQueried) + " segments");
    return;
  }
  const std::size_t sums = (qn == 2 || qn == 5) ? 1 : (qn == 3 || qn == 6) ? 4 : 0;
  const auto sameAgg = [&](const query::ResultRow& row, const Agg& want) {
    if (row.values.size() != 1 + sums) return false;
    for (std::size_t v = 0; v <= sums; ++v) {
      if (!sameValue(row.values[v], want.values[v])) return false;
    }
    return true;
  };
  if (qn <= 3) {
    if (outcome.rows.size() != 1 || !sameAgg(outcome.rows[0], ref.total)) {
      result.mismatch(q + "totals differ from the reference loop");
    }
    return;
  }
  if (outcome.rows.size() != kTopNLimit) {
    result.mismatch(q + std::to_string(outcome.rows.size()) +
                    " groups returned, want " + std::to_string(kTopNLimit));
  }
  double previous = INFINITY;
  for (const auto& row : outcome.rows) {
    const auto it = ref.topN.find(row.group);
    if (it == ref.topN.end() || !sameAgg(row, it->second)) {
      result.mismatch(q + "group " + row.group +
                      " differs from the reference group-by");
      return;
    }
    if (row.values[0] > previous || row.values[0] < ref.hundredthCount) {
      result.mismatch(q + "group " + row.group + " out of top-100 order (" +
                      std::to_string(row.values[0]) + " after " +
                      std::to_string(previous) + ", 100th reference count " +
                      std::to_string(ref.hundredthCount) + ")");
      return;
    }
    previous = row.values[0];
  }
}

/// How far a topN answer strays from the exact group-by (reference
/// output only: the documented per-segment truncation allows it).
std::string exactDeviation(const dpss::cluster::BrokerQueryOutcome& outcome,
                           const Reference& ref) {
  std::size_t underCounted = 0;
  std::set<std::string> returned;
  for (const auto& row : outcome.rows) {
    returned.insert(row.group);
    const auto it = ref.exact.find(row.group);
    if (it != ref.exact.end() && row.values[0] < it->second.values[0]) {
      ++underCounted;
    }
  }
  std::vector<std::pair<double, std::string>> exactTop;
  for (const auto& [group, agg] : ref.exact) {
    exactTop.emplace_back(agg.values[0], group);
  }
  std::sort(exactTop.rbegin(), exactTop.rend());
  const double lastReturned =
      outcome.rows.empty() ? 0 : outcome.rows.back().values[0];
  std::size_t beaten = 0;
  for (std::size_t i = 0; i < kTopNLimit && i < exactTop.size(); ++i) {
    if (returned.count(exactTop[i].second) == 0 &&
        exactTop[i].first > lastReturned) {
      ++beaten;
    }
  }
  return "Q4 topN vs exact group-by: " + std::to_string(underCounted) +
         " of " + std::to_string(outcome.rows.size()) +
         " returned groups under-counted, " + std::to_string(beaten) +
         " exact top-100 groups displaced by a lower count";
}

}  // namespace

RunResult runScanTableII(const Args& args, SteadyClock::time_point start) {
  RunResult result;
  Cluster cluster(args.nodeBin);
  cluster.add("coordinator", "coordinator");
  for (const char* node : kHistoricals) cluster.add("historical", node);
  cluster.add("broker", "broker", {"--broker-cache", "0"});
  cluster.start();
  auto& transport = cluster.transport();

  // Inputs and the reference, from the seed alone.
  storage::AdTechConfig config;
  config.seed = args.seed;
  config.rowsPerSegment = kRowsPerSegment;
  Reference ref;
  std::vector<std::string> blobs;
  std::vector<storage::SegmentId> ids;
  for (std::size_t s = 0; s < kSegments; ++s) {
    storage::SegmentBuilder builder(storage::adTechSchema());
    std::unordered_map<std::string, Agg> groups;
    for (auto& row : storage::generateAdTechRows(config, s)) {
      ref.total.add(row);
      groups[row.dimensions[4]].add(row);
      builder.add(std::move(row));
    }
    ref.addSegment(groups);
    storage::SegmentId id;
    id.dataSource = kDataSource;
    const dpss::TimeMs begin =
        config.startTime + static_cast<dpss::TimeMs>(s) * config.segmentDurationMs;
    id.interval = dpss::Interval(begin, begin + config.segmentDurationMs);
    id.version = "v1";
    ids.push_back(id);
    blobs.push_back(storage::encodeSegment(*builder.build(std::move(id))));
  }
  std::vector<double> counts;
  for (const auto& [group, agg] : ref.topN) counts.push_back(agg.values[0]);
  std::sort(counts.rbegin(), counts.rend());
  ref.hundredthCount = counts.at(kTopNLimit - 1);

  // Publish through the coordinator-hosted substrates, as an indexing
  // task would; the coordinator assigns, the historicals load.
  dpss::cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 15'000;
  ClusterMetrics beforeLoad;
  if (args.trace) beforeLoad = cluster.scrape(true);
  dpss::net::RemoteMetaStore metaStore(transport, dpss::net::kSubstrateNode, rpc);
  dpss::net::RemoteDeepStorage deepStorage(transport,
                                           dpss::net::kSubstrateNode, rpc);
  for (std::size_t s = 0; s < kSegments; ++s) {
    const std::string key = ids[s].toString();
    deepStorage.put(key, blobs[s]);
    dpss::cluster::SegmentRecord record;
    record.id = ids[s];
    record.deepStorageKey = key;
    record.sizeBytes = blobs[s].size();
    metaStore.upsertSegment(record);
  }

  // Readiness: every segment served, then a complete, correct Q1-Q6
  // round through the broker.
  dpss::cluster::RemoteBroker broker(transport, "broker", rpc);
  const dpss::Interval all(0, 4'000'000'000'000LL);
  std::vector<query::QuerySpec> specs;
  for (int qn = 1; qn <= kQueries; ++qn) {
    specs.push_back(query::tableTwoQuery(qn, kDataSource, all));
  }
  std::string lastProblem = "segments never all served";
  for (const auto warmStart = SteadyClock::now();;) {
    if (msSince(warmStart) > 60'000) {
      throw std::runtime_error("no complete warm-up round within 60 s: " +
                               lastProblem);
    }
    std::size_t served = 0;
    for (const char* node : kHistoricals) {
      served += dpss::net::controlServedSegments(transport, node).size();
    }
    if (served < kSegments) {
      dpss::SystemClock::instance().sleepFor(20);
      continue;
    }
    RunResult probe;
    try {
      for (int qn = 1; qn <= kQueries; ++qn) {
        checkAnswer(qn, broker.query(specs[qn - 1]), ref, probe);
      }
    } catch (const dpss::Error& e) {
      probe.mismatch(e.what());
    }
    if (probe.correct) break;
    lastProblem = probe.notes.front();
  }
  result.metrics["setup_s"] = msSince(start) / 1000.0;

  const ClusterMetrics before = cluster.scrape(args.trace);

  std::vector<double> roundMs;
  std::vector<double> queryMs[kQueries];
  const auto window = SteadyClock::now();
  while (msSince(window) < args.seconds * 1000.0) {
    double roundTotal = 0;
    bool roundOk = true;
    for (int qn = 1; qn <= kQueries; ++qn) {
      ++result.attempted;
      const auto t0 = SteadyClock::now();
      try {
        const auto outcome = broker.query(specs[qn - 1]);
        const double ms = msSince(t0);
        queryMs[qn - 1].push_back(ms);
        roundTotal += ms;
        checkAnswer(qn, outcome, ref, result);
        if (qn == 4 && queryMs[3].size() == 1) {
          result.notes.push_back(exactDeviation(outcome, ref));
        }
      } catch (const dpss::Error& e) {
        ++result.failed;
        roundOk = false;
        result.notes.push_back("Q" + std::to_string(qn) +
                               " failed: " + e.what());
      }
    }
    if (roundOk) roundMs.push_back(roundTotal);
  }
  const double windowS = msSince(window) / 1000.0;
  const ClusterMetrics after = cluster.scrape(args.trace);
  const double queries = static_cast<double>(result.attempted - result.failed);

  result.metrics["round_ms_p50"] = median(roundMs);
  result.metrics["items_per_s"] = queries / windowS;
  result.metrics["wire_bytes_per_round"] =
      delta(before, after, "net.client.bytes_in", Field::kValue, "client") /
      static_cast<double>(roundMs.size());
  result.notes.push_back(latencySummary("round_ms", roundMs));
  for (int qn = 1; qn <= kQueries; ++qn) {
    result.notes.push_back(
        latencySummary("q" + std::to_string(qn) + "_ms", queryMs[qn - 1]));
  }

  if (args.trace) {
    auto& m = result.metrics;
    m["cluster.scan_busy_ms_per_query"] =
        delta(before, after, "historical.scan.ns", Field::kSum, "hist-") /
        1e6 / queries;
    m["cluster.scatter_rpcs_per_query"] =
        delta(before, after, "broker.scatter.rpcs", Field::kValue) / queries;
    m["cluster.broker_merge_busy_ms_per_query"] =
        delta(before, after, "broker.merge.ns", Field::kSum) / 1e6 / queries;
    m["net.bytes_per_query"] =
        delta(before, after, "net.server.bytes_out", Field::kValue, "hist-") /
        queries;
    m["cluster.rpc_retries"] =
        delta(before, after, "rpc.retries", Field::kValue);
    const double loads =
        delta(beforeLoad, before, "historical.load.ns", Field::kCount, "hist-");
    m["cluster.segment_load_ms"] =
        delta(beforeLoad, before, "historical.load.ns", Field::kSum, "hist-") /
        1e6 / std::max(1.0, loads);
    m["cluster.loads_per_segment"] =
        delta(beforeLoad, before, "historical.segments.loaded", Field::kValue,
              "hist-") /
        static_cast<double>(kSegments);

    // Independent total: every query scans every segment once.
    const double scanned = delta(before, after, "historical.segments.scanned",
                                 Field::kValue, "hist-");
    const double want = queries * static_cast<double>(kSegments);
    result.notes.push_back(
        "total check: historical.segments.scanned delta " +
        std::to_string(static_cast<long long>(scanned)) +
        " vs queries x segments " + std::to_string(static_cast<long long>(want)));
    if (scanned != want) result.mismatch("segments-scanned total");

    // In-process replays of the same inputs through each layer.
    std::vector<storage::SegmentPtr> segments(kSegments);
    double blobBytes = 0;
    std::vector<double> decodeMs;
    for (std::size_t s = 0; s < kSegments; ++s) {
      const auto t0 = SteadyClock::now();
      segments[s] = storage::decodeSegment(blobs[s]);
      decodeMs.push_back(msSince(t0));
      blobBytes += static_cast<double>(blobs[s].size());
    }
    m["storage.segment_decode_ms"] = median(decodeMs);
    m["storage.segment_blob_bytes"] = blobBytes / kSegments;
    const auto scanUs = [&](const query::QuerySpec& spec) {
      std::size_t next = 0;
      return medianUs(3 * kSegments, [&] {
        (void)query::scanSegment(*segments[next++ % kSegments], spec);
      });
    };
    m["query.scan_q1_us"] = scanUs(specs[0]);
    m["query.scan_q6_us"] = scanUs(specs[5]);
    std::vector<query::QueryResult> partials;
    for (const auto& segment : segments) {
      partials.push_back(query::scanSegment(*segment, specs[5]));
    }
    m["query.merge_q6_us"] = medianUs(20, [&] {
      query::QueryResult merged;
      for (const auto& p : partials) merged.mergeFrom(p);
      (void)query::finalizeResult(specs[5], merged);
    });
    m["net.rpc_us"] = cluster.pingUs("broker");
  }

  for (const auto& line : cluster.shutdown()) {
    result.notes.push_back("node " + line);
  }
  return result;
}

}  // namespace perfbench
