// pss_search: one private-search client runs rounds over a 2x1000
// document stream split across two historicals. A round is
// runDistributedPrivateSearch: encrypt the query, scatter it through the
// broker, fold on both historicals, ship two envelopes, decrypt and solve.
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/broker_rpc.h"
#include "cluster/pss_client.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/rng.h"
#include "launcher.h"
#include "net/control.h"
#include "pss/blocking.h"
#include "pss/dictionary.h"
#include "pss/searcher.h"
#include "pss/session.h"
#include "workloads.h"

namespace perfbench {

namespace pss = dpss::pss;

namespace {

using Field = ClusterMetrics::Field;

constexpr std::size_t kSliceDocs = 1000;
constexpr std::size_t kSlices = 2;
constexpr std::size_t kModulusBits = 512;
const pss::SearchParams kParams{
    .bufferLength = 32, .indexBufferLength = 256, .bloomHashes = 5};
const char* const kDocSource = "stream";
const char* const kSliceNodes[kSlices] = {"hist-a", "hist-b"};

struct Expected {
  std::string payload;
  std::uint64_t cValue = 0;
};

struct PssInputs {
  std::vector<std::string> dictionary;
  std::set<std::string> keywords;
  std::vector<std::string> documents;
  std::map<std::uint64_t, Expected> matches;  // stream index -> match
};

/// Documents of five filler words each; 8-12 per slice also carry one or
/// both query keywords. A decoy dictionary word that is never queried
/// appears in some non-matching documents.
PssInputs makeInputs(std::uint64_t seed) {
  PssInputs in;
  dpss::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7055);
  std::vector<std::string> fillers;
  for (int i = 0; i < 48; ++i) {
    fillers.push_back("w" + std::to_string(i));
    in.dictionary.push_back(fillers.back());
  }
  const std::vector<std::string> keywords = {"alert", "breach"};
  in.dictionary.insert(in.dictionary.end(), keywords.begin(), keywords.end());
  in.dictionary.push_back("decoy");
  in.keywords = {keywords.begin(), keywords.end()};

  for (std::size_t i = 0; i < kSliceDocs * kSlices; ++i) {
    std::string doc = "d" + std::to_string(i);
    for (int w = 0; w < 5; ++w) doc += " " + fillers[rng.below(fillers.size())];
    if (rng.below(20) == 0) doc += " decoy";
    in.documents.push_back(std::move(doc));
  }
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const std::size_t count = 8 + rng.below(5);
    std::set<std::uint64_t> positions;
    while (positions.size() < count) {
      positions.insert(slice * kSliceDocs + rng.below(kSliceDocs));
    }
    for (const auto index : positions) {
      const std::uint64_t which = rng.below(3);  // 0: alert, 1: breach, 2: both
      std::string& doc = in.documents[index];
      if (which != 1) doc += " alert";
      if (which != 0) doc += " breach";
      in.matches[index] = {doc, which == 2 ? 2u : 1u};
    }
  }
  return in;
}

/// Compares one round's recovered set against the plain keyword match.
void checkRound(const std::vector<pss::RecoveredSegment>& recovered,
                const dpss::cluster::DistributedSearchStats& stats,
                const PssInputs& in, RunResult& result) {
  if (stats.envelopes != kSlices) {
    result.mismatch("round returned " + std::to_string(stats.envelopes) +
                    " envelopes, want " + std::to_string(kSlices));
  }
  std::size_t matched = 0;
  for (const auto& r : recovered) {
    const auto it = in.matches.find(r.index);
    if (it == in.matches.end()) {
      result.mismatch("recovered non-matching index " +
                      std::to_string(r.index));
      continue;
    }
    if (!(r.payload == std::string_view(it->second.payload)) ||
        r.cValue != it->second.cValue) {
      result.mismatch("wrong payload or c-value at index " +
                      std::to_string(r.index));
      continue;
    }
    ++matched;
  }
  if (matched != in.matches.size() || recovered.size() != matched) {
    result.mismatch("recovered " + std::to_string(recovered.size()) +
                    " documents, want " + std::to_string(in.matches.size()));
  }
}

}  // namespace

RunResult runPssSearch(const Args& args, SteadyClock::time_point start) {
  RunResult result;
  const PssInputs in = makeInputs(args.seed);
  const pss::Dictionary dict(in.dictionary);

  Cluster cluster(args.nodeBin);
  cluster.add("coordinator", "coordinator");
  for (const char* node : kSliceNodes) cluster.add("historical", node);
  cluster.add("broker", "broker", {"--broker-cache", "0"});
  cluster.start();

  pss::PrivateSearchClient client(dict, kParams, kModulusBits, args.seed);
  auto& transport = cluster.transport();
  for (std::size_t s = 0; s < kSlices; ++s) {
    const auto first = in.documents.begin() +
                       static_cast<std::ptrdiff_t>(s * kSliceDocs);
    dpss::net::controlLoadDocuments(transport, kSliceNodes[s], kDocSource,
                                    s * kSliceDocs,
                                    {first, first + kSliceDocs});
  }
  dpss::cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 15'000;
  dpss::cluster::RemoteBroker broker(transport, "broker", rpc);

  // Readiness: a complete warm-up round (both envelopes, every match).
  const auto round = [&](dpss::cluster::DistributedSearchStats& stats) {
    return dpss::cluster::runDistributedPrivateSearch(
        broker, client, kDocSource, in.keywords, &stats);
  };
  std::size_t incompleteWarmups = 0;
  for (const auto warmStart = SteadyClock::now();;) {
    dpss::cluster::DistributedSearchStats stats;
    RunResult probe;
    try {
      checkRound(round(stats), stats, in, probe);
      if (probe.correct) break;
    } catch (const dpss::Error&) {
      // Not ready yet (e.g. the broker has not seen a slice holder).
    }
    ++incompleteWarmups;
    if (msSince(warmStart) > 30'000) {
      throw std::runtime_error("no complete warm-up round within 30 s");
    }
  }
  result.metrics["setup_s"] = msSince(start) / 1000.0;
  if (incompleteWarmups > 0) {
    result.notes.push_back("incomplete warm-up rounds before readiness: " +
                           std::to_string(incompleteWarmups));
  }

  const ClusterMetrics before = cluster.scrape(args.trace);

  std::vector<double> roundMs;
  std::uint64_t singularRetries = 0;
  std::uint64_t unavailableRetries = 0;
  const auto window = SteadyClock::now();
  while (msSince(window) < args.seconds * 1000.0) {
    ++result.attempted;
    const auto t0 = SteadyClock::now();
    try {
      dpss::cluster::DistributedSearchStats stats;
      const auto recovered = round(stats);
      roundMs.push_back(msSince(t0));
      singularRetries += stats.retries;
      unavailableRetries += stats.unavailableRetries;
      checkRound(recovered, stats, in, result);
    } catch (const dpss::Error& e) {
      ++result.failed;
      result.notes.push_back(std::string("round failed: ") + e.what());
    }
  }
  const double windowS = msSince(window) / 1000.0;
  const ClusterMetrics after = cluster.scrape(args.trace);
  const double rounds = static_cast<double>(roundMs.size());

  result.metrics["round_ms_p50"] = median(roundMs);
  result.metrics["items_per_s"] =
      rounds * static_cast<double>(in.documents.size()) / windowS;
  result.metrics["wire_bytes_per_round"] =
      delta(before, after, "net.client.bytes_in", Field::kValue, "client") /
      rounds;
  result.notes.push_back(latencySummary("round_ms", roundMs));

  if (args.trace) {
    auto& m = result.metrics;
    m["crypto.fold_busy_ms"] =
        delta(before, after, "paillier.fold.ns", Field::kSum, "hist-") / 1e6 /
        rounds;
    m["crypto.fold_count"] =
        delta(before, after, "paillier.fold.count", Field::kValue, "hist-") /
        rounds;
    m["pss.segment_fold_busy_ms"] =
        delta(before, after, "pss.search.segment_ns", Field::kSum, "hist-") /
        1e6 / rounds;
    m["pss.singular_retries"] = static_cast<double>(singularRetries);
    m["net.bytes_per_round"] =
        delta(before, after, "net.server.bytes_out", Field::kValue) / rounds;
    m["cluster.rpc_retries"] =
        delta(before, after, "rpc.retries", Field::kValue);

    // Independent totals: every whole-batch attempt searches one slice
    // per historical.
    const double sliceSearches = delta(
        before, after, "historical.pss.slice_searches", Field::kValue, "hist-");
    const double batches =
        rounds + static_cast<double>(singularRetries + unavailableRetries);
    const double want = batches * kSlices;
    result.notes.push_back(
        "total check: historical.pss.slice_searches delta " +
        std::to_string(static_cast<long long>(sliceSearches)) +
        " vs (rounds + retried batches) x slices " +
        std::to_string(static_cast<long long>(want)));
    if (sliceSearches != want) result.mismatch("slice-search total");

    // In-process replays of the same inputs through each layer.
    const auto& pub = client.publicKey();
    dpss::Rng rng(args.seed + 99);
    pss::EncryptedQuery query = client.makeQuery(in.keywords);
    m["pss.make_query_ms"] =
        medianUs(5, [&] { query = client.makeQuery(in.keywords); }) / 1000.0;
    m["crypto.encrypt_us"] =
        medianUs(200, [&] { (void)pub.encrypt(dpss::crypto::Bigint(1), rng); });

    std::vector<pss::SearchResultEnvelope> envelopes;
    m["cluster.private_search_ms"] =
        medianUs(3, [&] {
          envelopes = broker.privateSearch(kDocSource, dict, query);
        }) /
        1000.0;
    double envelopeBytes = 0;
    for (const auto& env : envelopes) {
      dpss::ByteWriter w;
      env.serialize(w);
      envelopeBytes += static_cast<double>(w.data().size());
    }
    m["pss.envelope_bytes"] = envelopeBytes;
    m["pss.open_ms"] = medianUs(3, [&] {
                         for (const auto& env : envelopes) {
                           (void)client.open(env);
                         }
                       }) /
                       1000.0 / static_cast<double>(envelopes.size());
    const auto cts = envelopeCiphertexts(envelopes.at(0));
    m["crypto.decrypt_us"] =
        medianUs(3, [&] { (void)client.privateKey().decryptCrtBatch(cts); }) /
        static_cast<double>(cts.size());

    const pss::BlockCodec codec(
        pss::BlockCodec::maxBlockBytesFor(kModulusBits));
    std::size_t maxPayload = 0;
    for (const auto& d : in.documents) maxPayload = std::max(maxPayload, d.size());
    const std::size_t blocks = codec.blockCount(maxPayload);
    std::vector<std::vector<dpss::crypto::Bigint>> encoded;
    for (std::size_t i = 0; i < 200; ++i) {
      encoded.push_back(codec.encode(in.documents[i], blocks));
    }
    std::size_t next = 0;
    m["crypto.mul_plain_many_us"] = medianUs(encoded.size(), [&] {
      (void)pub.mulPlainMany(query.entry(0), encoded[next++]);
    });
    m["pss.slice_fold_ms"] =
        medianUs(2, [&] {
          pss::StreamSearcher searcher(dict, query, blocks, rng);
          for (std::size_t i = 0; i < kSliceDocs; ++i) {
            searcher.processSegment(i, in.documents[i]);
          }
          (void)searcher.finish();
        }) /
        1000.0;
    m["net.rpc_us"] = cluster.pingUs("broker");
  }

  for (const auto& line : cluster.shutdown()) {
    result.notes.push_back("node " + line);
  }
  return result;
}

}  // namespace perfbench
