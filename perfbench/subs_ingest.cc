// subs_ingest: one realtime node hosts 16 standing subscriptions, one per
// publisher keyword. A round ingests one 64-event batch through the
// control channel and polls until every subscription has applied the
// snapshot that batch sealed and reconstructed every match it carries.
// 64 events is exactly the snapshot's maxDocuments, so each batch seals
// one snapshot per subscription and the seal timer never paces delivery.
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/subscription_client.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/sensitive.h"
#include "launcher.h"
#include "net/control.h"
#include "pss/blocking.h"
#include "pss/dictionary.h"
#include "pss/session.h"
#include "pss/subscription.h"
#include "storage/schema.h"
#include "workloads.h"

namespace perfbench {

namespace pss = dpss::pss;

namespace {

using Field = ClusterMetrics::Field;

constexpr std::size_t kSubscriptions = 16;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kModulusBits = 512;
const pss::SearchParams kParams{
    .bufferLength = 32, .indexBufferLength = 128, .bloomHashes = 3};
const char* const kDocSource = "events";
const char* const kRealtime = "rt-0";
// Event time far in the future: the node's hourly bucket never reaches
// its handoff window during a run, so no handoff competes with the fold.
constexpr dpss::TimeMs kEventBase = 4'102'444'800'000;  // 2100-01-01

struct Event {
  std::size_t publisher = 0;
  std::string payload;    // storage::encodeInputRow bytes
  std::string matchText;  // the dimension values the node matches on
};

/// Event `i` of the seeded stream: a publisher (the subscription keyword)
/// and a country, with the event number as a metric so every payload is
/// distinct.
Event makeEvent(dpss::Rng& rng, std::uint64_t i) {
  Event e;
  e.publisher = rng.below(kSubscriptions);
  dpss::storage::InputRow row;
  row.timestamp = kEventBase + static_cast<dpss::TimeMs>(i);
  row.dimensions = {"pub" + std::to_string(e.publisher),
                    "c" + std::to_string(rng.below(8))};
  row.metrics = {static_cast<double>(i),
                 static_cast<double>(rng.below(10'000)) / 100.0};
  e.payload = dpss::storage::encodeInputRow(row);
  e.matchText = row.dimensions[0] + " " + row.dimensions[1];
  return e;
}

/// Number of `{"id":` entries in a realtime node's /statusz: the standing
/// subscriptions it hosts.
std::size_t hostedSubscriptions(const std::string& statusz) {
  std::size_t count = 0;
  for (std::size_t at = statusz.find("{\"id\":"); at != std::string::npos;
       at = statusz.find("{\"id\":", at + 1)) {
    ++count;
  }
  return count;
}

}  // namespace

RunResult runSubsIngest(const Args& args, SteadyClock::time_point start) {
  RunResult result;
  Cluster cluster(args.nodeBin);
  cluster.add("coordinator", "coordinator");
  cluster.add("realtime", kRealtime, {"--data-source", kDocSource});
  cluster.add("broker", "broker", {"--broker-cache", "0"});
  cluster.start();
  auto& transport = cluster.transport();
  dpss::Clock& clock = dpss::SystemClock::instance();

  std::vector<std::string> words;
  for (std::size_t k = 0; k < kSubscriptions; ++k) {
    words.push_back("pub" + std::to_string(k));
  }
  const pss::Dictionary dict(words);
  pss::PrivateSearchClient search(dict, kParams, kModulusBits, args.seed);
  dpss::cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 15'000;
  dpss::cluster::SubscriptionClient subs(transport, "broker", search, rpc);

  dpss::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 0x5b5);
  std::uint64_t nextEvent = 0;
  // The widest payload the stream can produce sizes the block budget.
  dpss::storage::InputRow widest;
  widest.timestamp = kEventBase;
  widest.dimensions = {"pub" + std::to_string(kSubscriptions - 1), "c7"};
  widest.metrics = {1e9, 99.99};
  const std::size_t blocks = pss::blocksNeeded(
      {dpss::storage::encodeInputRow(widest)}, kModulusBits);
  pss::SnapshotPolicy policy;
  policy.periodMs = 600'000;  // never within a run: fills seal snapshots
  policy.maxDocuments = kBatch;
  std::vector<pss::SubscriptionId> ids;
  for (const auto& word : words) {
    ids.push_back(subs.subscribe({word}, kDocSource, blocks, policy));
  }

  // Ledger of what each subscription must reconstruct, exactly once.
  std::vector<std::multiset<dpss::crypto::PlaintextBytes>> expected(
      kSubscriptions);
  std::vector<Event> lastBatch;
  std::uint64_t batches = 0;
  std::vector<double> feedPollMs;
  bool timePolls = false;

  // One round: ingest a batch, poll until every subscription applied
  // this batch's snapshot and holds every match so far.
  const auto round = [&] {
    lastBatch.clear();
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < kBatch; ++i) {
      lastBatch.push_back(makeEvent(rng, nextEvent++));
      payloads.push_back(lastBatch.back().payload);
      expected[lastBatch.back().publisher].emplace(lastBatch.back().payload);
    }
    ++batches;
    const auto t0 = SteadyClock::now();
    dpss::net::controlIngest(transport, kRealtime, payloads);
    std::vector<bool> done(kSubscriptions, false);
    for (std::size_t remaining = kSubscriptions; remaining > 0;) {
      for (std::size_t k = 0; k < kSubscriptions; ++k) {
        if (done[k]) continue;
        const std::uint64_t applied = subs.snapshotsApplied(ids[k]);
        const auto tp = SteadyClock::now();
        subs.poll(ids[k]);
        if (timePolls && subs.snapshotsApplied(ids[k]) > applied) {
          feedPollMs.push_back(msSince(tp));
        }
        if (subs.snapshotsApplied(ids[k]) >= batches &&
            subs.documents(ids[k]).size() >= expected[k].size()) {
          done[k] = true;
          --remaining;
        } else if (k == 0) {
          // All subscriptions seal in the same node tick: until the
          // first one has its snapshot, polling the rest is wasted.
          break;
        }
      }
      if (remaining == 0) break;
      if (msSince(t0) > 20'000) {
        throw dpss::DeadlineExceeded("batch " + std::to_string(batches) +
                                     " not delivered within 20 s");
      }
      clock.sleepFor(2);
    }
    return msSince(t0);
  };

  // Readiness: the realtime node hosts all 16, then a warm-up batch is
  // delivered completely.
  for (const auto warmStart = SteadyClock::now();;) {
    std::size_t hosted = 0;
    try {
      hosted = hostedSubscriptions(cluster.adminGet(kRealtime, "/statusz"));
    } catch (const dpss::Error&) {
    }
    if (hosted == kSubscriptions) break;
    if (msSince(warmStart) > 30'000) {
      throw std::runtime_error("subscriptions never reached the realtime node");
    }
    clock.sleepFor(20);
  }
  round();
  result.metrics["setup_s"] = msSince(start) / 1000.0;

  const ClusterMetrics before = cluster.scrape(args.trace);
  const std::uint64_t batchesBefore = batches;

  timePolls = args.trace;
  std::vector<double> roundMs;
  const auto window = SteadyClock::now();
  while (msSince(window) < args.seconds * 1000.0) {
    ++result.attempted;
    try {
      roundMs.push_back(round());
    } catch (const dpss::Error& e) {
      // The ledger is out of step with the node from here on.
      ++result.failed;
      result.notes.push_back(std::string("round failed: ") + e.what());
      break;
    }
  }
  const double windowS = msSince(window) / 1000.0;
  const ClusterMetrics after = cluster.scrape(args.trace);
  const double rounds = static_cast<double>(roundMs.size());

  // Exactly once: each subscription's reconstructed payloads equal, as a
  // multiset, the ingested events naming its keyword.
  for (std::size_t k = 0; k < kSubscriptions; ++k) {
    std::multiset<dpss::crypto::PlaintextBytes> got;
    for (const auto& doc : subs.documents(ids[k])) {
      got.insert(doc.payload);
      if (doc.cValue != 1) result.mismatch(words[k] + ": c-value != 1");
    }
    if (got != expected[k]) {
      result.mismatch(words[k] + ": delivered " + std::to_string(got.size()) +
                      " documents, ledger holds " +
                      std::to_string(expected[k].size()));
    }
  }
  if (subs.snapshotsUnsolvable() != 0) {
    result.mismatch(std::to_string(subs.snapshotsUnsolvable()) +
                    " unsolvable snapshots");
  }

  result.metrics["round_ms_p50"] = median(roundMs);
  result.metrics["items_per_s"] = rounds * kBatch / windowS;
  result.metrics["wire_bytes_per_round"] =
      delta(before, after, "net.client.bytes_in", Field::kValue, "client") /
      rounds;
  result.notes.push_back(latencySummary("round_ms", roundMs));

  if (args.trace) {
    auto& m = result.metrics;
    m["pss.subscription_fold_busy_ms"] =
        delta(before, after, "pss.search.segment_ns", Field::kSum, "rt-") /
        1e6 / rounds;
    m["crypto.fold_busy_ms"] =
        delta(before, after, "paillier.fold.ns", Field::kSum, "rt-") / 1e6 /
        rounds;
    m["crypto.fold_count"] =
        delta(before, after, "paillier.fold.count", Field::kValue, "rt-") /
        rounds;
    m["pss.snapshots"] =
        delta(before, after, "pss.subscription.snapshots", Field::kValue,
              "rt-") /
        rounds;
    m["pss.feed_poll_ms"] = median(feedPollMs);
    m["net.bytes_per_round"] =
        delta(before, after, "net.server.bytes_out", Field::kValue) / rounds;
    m["cluster.rpc_retries"] =
        delta(before, after, "rpc.retries", Field::kValue);

    // Independent total: the node ingested exactly the events sent.
    const double ingested = delta(before, after, "realtime.events.ingested",
                                  Field::kValue, "rt-");
    const double sent = static_cast<double>((batches - batchesBefore) * kBatch);
    result.notes.push_back(
        "total check: realtime.events.ingested delta " +
        std::to_string(static_cast<long long>(ingested)) + " vs events sent " +
        std::to_string(static_cast<long long>(sent)));
    if (ingested != sent) result.mismatch("events-ingested total");

    // In-process replays: the last batch through one subscription's
    // matcher, and the client's work on the snapshot it seals.
    pss::EncryptedQuery query = search.makeQuery({words[0]});
    m["pss.make_query_ms"] =
        medianUs(5, [&] { query = search.makeQuery({words[0]}); }) / 1000.0;
    const auto& pub = search.publicKey();
    dpss::Rng replayRng(args.seed + 99);
    m["crypto.encrypt_us"] = medianUs(
        200, [&] { (void)pub.encrypt(dpss::crypto::Bigint(1), replayRng); });
    const pss::BlockCodec codec(
        pss::BlockCodec::maxBlockBytesFor(kModulusBits));
    std::vector<std::vector<dpss::crypto::Bigint>> encoded;
    for (const auto& e : lastBatch) encoded.push_back(codec.encode(e.payload, blocks));
    std::size_t next = 0;
    m["crypto.mul_plain_many_us"] = medianUs(encoded.size(), [&] {
      (void)pub.mulPlainMany(query.entry(0), encoded[next++]);
    });
    pss::SubscriptionSpec spec;
    spec.docSource = kDocSource;
    spec.dictionaryWords = words;
    spec.query = query;
    spec.blocksPerSegment = blocks;
    spec.policy = policy;
    pss::SubscriptionMatcher matcher(spec, args.seed, 0);
    // Sealing hands the buffers over and re-arms the matcher with fresh
    // encrypted zeros; time it on the matcher refilled with the batch.
    std::optional<pss::SubscriptionSnapshot> snapshot;
    std::vector<double> sealMs;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < lastBatch.size(); ++i) {
        matcher.feed(rep * kBatch + i, lastBatch[i].matchText,
                     lastBatch[i].payload, 0);
      }
      const auto t0 = SteadyClock::now();
      snapshot = matcher.seal(0);
      sealMs.push_back(msSince(t0));
    }
    m["pss.seal_ms"] = median(sealMs);
    if (!snapshot) throw std::runtime_error("replayed matcher sealed nothing");
    m["pss.open_ms"] =
        medianUs(3, [&] { (void)search.open(snapshot->envelope); }) / 1000.0;
    const auto cts = envelopeCiphertexts(snapshot->envelope);
    m["crypto.decrypt_us"] =
        medianUs(3, [&] { (void)search.privateKey().decryptCrtBatch(cts); }) /
        static_cast<double>(cts.size());
    m["net.rpc_us"] = cluster.pingUs("broker");
  }

  for (const auto& line : cluster.shutdown()) {
    result.notes.push_back("node " + line);
  }
  return result;
}

}  // namespace perfbench
