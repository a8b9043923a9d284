// Standing subscriptions across the cluster: register at the broker,
// fan out to every realtime node, match continuous ingest, deliver
// encrypted snapshots, reconstruct incrementally at the client — and
// survive crash/replay, restarts and runtime joins without losing any
// match at or below a committed offset.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/chaos_scheduler.h"
#include "cluster/cluster.h"
#include "cluster/subscription_client.h"
#include "cluster/subscription_rpc.h"
#include "common/bytes.h"
#include "common/error.h"
#include "pss/session.h"
#include "storage/schema.h"
#include "pss/plaintext_access.h"

namespace dpss::cluster {
namespace {

using storage::InputRow;
using storage::Schema;

constexpr TimeMs kHour = 3'600'000;
constexpr TimeMs kT0 =
    1'400'000'000'000 - (1'400'000'000'000 % kHour);  // aligned hour start

Schema rtSchema() {
  Schema s;
  s.dimensions = {"publisher", "country"};
  s.metrics = {{"impressions", storage::MetricType::kLong}};
  return s;
}

std::string event(TimeMs ts, const std::string& pub, double imps) {
  InputRow row;
  row.timestamp = ts;
  row.dimensions = {pub, "cn"};
  row.metrics = {imps};
  return storage::encodeInputRow(row);
}

class SubscriptionClusterTest : public ::testing::Test {
 protected:
  SubscriptionClusterTest()
      : clock_(kT0), dict_({"sina", "sohu", "weibo"}) {
    options_.segmentGranularityMs = kHour;
    options_.persistPeriodMs = 5'000;
    options_.windowMs = 600'000;
    options_.rollupGranularityMs = 60'000;
  }

  pss::SnapshotPolicy policy(std::int64_t periodMs = 4'000,
                             std::size_t maxDocuments = 8) {
    pss::SnapshotPolicy p;
    p.periodMs = periodMs;
    p.maxDocuments = maxDocuments;
    return p;
  }

  /// Appends one event to (partition) and remembers its payload when the
  /// publisher is in `watch` — the expected-delivery ledger.
  void produce(Cluster& cluster, std::size_t partition, const std::string& pub,
               double imps, const std::set<std::string>& watch) {
    const std::string payload = event(clock_.nowMs(), pub, imps);
    cluster.messageQueue().append("ads-stream", partition, payload);
    if (watch.count(pub) > 0) expected_.insert(payload);
  }

  /// Payload bytes of every document recovered for `id` so far.
  std::multiset<std::string> recoveredPayloads(SubscriptionClient& subs,
                                               pss::SubscriptionId id) {
    std::multiset<std::string> out;
    for (const auto& doc : subs.documents(id)) {
      out.insert(test::plaintext(doc.payload));
    }
    return out;
  }

  ManualClock clock_;
  pss::Dictionary dict_;
  pss::SearchParams params_{16, 256, 5};
  RealtimeNodeOptions options_;
  std::set<std::string> expected_;
};

TEST_F(SubscriptionClusterTest, RegisterFanOutMatchDeliverReconstruct) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 2);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  cluster.addRealtimeNode("ads-stream", 1, rtSchema(), "rt-ads", options_);

  pss::PrivateSearchClient search(dict_, params_, 128, 4242);
  SubscriptionClient subs(cluster.transport(), "broker", search);
  const auto id = subs.subscribe({"sina"}, "rt-ads", 8, policy());

  // The registration fanned out to both live realtime nodes.
  EXPECT_EQ(cluster.realtime(0).subscriptions().ids(),
            std::vector<pss::SubscriptionId>{id});
  EXPECT_EQ(cluster.realtime(1).subscriptions().ids(),
            std::vector<pss::SubscriptionId>{id});
  // And it survived into the (journal-backed in production) metastore.
  ASSERT_EQ(cluster.metaStore().subscriptions().size(), 1u);
  EXPECT_EQ(cluster.metaStore().subscriptions()[0].id, id);

  // Continuous ingest over both partitions; only "sina" events match.
  const std::set<std::string> watch{"sina"};
  for (int i = 0; i < 10; ++i) {
    produce(cluster, i % 2, i % 3 == 0 ? "sina" : "sohu", i, watch);
  }
  cluster.realtime(0).tick();
  cluster.realtime(1).tick();
  // Period elapses -> both nodes seal on their next tick.
  clock_.advance(4'500);
  cluster.realtime(0).tick();
  cluster.realtime(1).tick();

  subs.poll(id);
  EXPECT_EQ(recoveredPayloads(subs, id),
            std::multiset<std::string>(expected_.begin(), expected_.end()));
  // Matches only: non-matching documents never reconstruct.
  for (const auto& doc : subs.documents(id)) {
    EXPECT_GE(doc.cValue, 1u);
  }

  // A second poll acks the first batch; nothing is delivered twice.
  EXPECT_TRUE(subs.poll(id).empty());
}

TEST_F(SubscriptionClusterTest, FillThresholdSealsWithoutWaitingForPeriod) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  pss::PrivateSearchClient search(dict_, params_, 128, 77);
  SubscriptionClient subs(cluster.transport(), "broker", search);
  // Long period, tight fill threshold: sealing is ingest-driven.
  const auto id = subs.subscribe({"weibo"}, "rt-ads", 8,
                                 policy(/*periodMs=*/3'600'000, 4));

  const std::set<std::string> watch{"weibo"};
  for (int i = 0; i < 4; ++i) produce(cluster, 0, "weibo", i, watch);
  cluster.realtime(0).tick();  // fill hits 4/4 inside the ingest loop

  const auto fresh = subs.poll(id);
  EXPECT_EQ(fresh.size(), 4u);
  EXPECT_EQ(recoveredPayloads(subs, id),
            std::multiset<std::string>(expected_.begin(), expected_.end()));
}

TEST_F(SubscriptionClusterTest, CrashReplayLosesNoCommittedMatch) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  pss::PrivateSearchClient search(dict_, params_, 128, 99);
  SubscriptionClient subs(cluster.transport(), "broker", search);
  const auto id = subs.subscribe({"sina"}, "rt-ads", 8, policy());

  const std::set<std::string> watch{"sina"};
  // Batch A is ingested, then the persist period elapses: the node seals
  // every subscription batch BEFORE committing the offset (the
  // seal-before-commit barrier), so batch A's matches are on disk.
  for (int i = 0; i < 5; ++i) produce(cluster, 0, "sina", i, watch);
  cluster.realtime(0).tick();
  clock_.advance(options_.persistPeriodMs + 1);
  cluster.realtime(0).tick();

  // Batch B is ingested and matched but neither sealed nor committed —
  // then the node crashes. The in-RAM batch dies with it.
  for (int i = 0; i < 3; ++i) produce(cluster, 0, "sina", 100 + i, watch);
  cluster.realtime(0).tick();
  cluster.crashRealtime(0);

  // Restart over the surviving disk: specs and pending snapshots are
  // restored, and ingest replays from the committed offset, regenerating
  // exactly the matches the crash destroyed.
  cluster.restartRealtime(0);
  cluster.realtime(0).tick();
  clock_.advance(4'500);
  cluster.realtime(0).tick();

  subs.poll(id);
  // Every "sina" event — batch A (sealed pre-crash) and batch B
  // (replayed) — reconstructs exactly once; replay overlap dedups by
  // (node, queue offset).
  EXPECT_EQ(recoveredPayloads(subs, id),
            std::multiset<std::string>(expected_.begin(), expected_.end()));
}

TEST_F(SubscriptionClusterTest, ReconcileAttachesLateJoinersAndRetiresStale) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 2);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  pss::PrivateSearchClient search(dict_, params_, 128, 11);
  SubscriptionClient subs(cluster.transport(), "broker", search);
  const auto id = subs.subscribe({"sina"}, "rt-ads", 8, policy());

  // A realtime node joining AFTER registration knows nothing about the
  // subscription until the broker's next reconcile round pushes it.
  cluster.addRealtimeNode("ads-stream", 1, rtSchema(), "rt-ads", options_);
  EXPECT_TRUE(cluster.realtime(1).subscriptions().ids().empty());
  EXPECT_GE(cluster.subscriptionBroker().reconcile(), 1u);
  EXPECT_EQ(cluster.realtime(1).subscriptions().ids(),
            std::vector<pss::SubscriptionId>{id});

  // The joiner matches from its attach point on.
  const std::set<std::string> watch{"sina"};
  produce(cluster, 1, "sina", 7, watch);
  cluster.realtime(1).tick();
  clock_.advance(4'500);
  cluster.realtime(1).tick();
  subs.poll(id);
  EXPECT_EQ(recoveredPayloads(subs, id),
            std::multiset<std::string>(expected_.begin(), expected_.end()));

  // Unsubscribe retires the id everywhere; reconcile stays clean.
  subs.unsubscribe(id);
  EXPECT_TRUE(cluster.realtime(0).subscriptions().ids().empty());
  EXPECT_TRUE(cluster.realtime(1).subscriptions().ids().empty());
  EXPECT_TRUE(cluster.metaStore().subscriptions().empty());
  EXPECT_EQ(cluster.subscriptionBroker().reconcile(), 0u);
}

TEST_F(SubscriptionClusterTest, ReconcileSkipsARecordItCannotAttach) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 2);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  pss::PrivateSearchClient search(dict_, params_, 128, 11);
  SubscriptionClient subs(cluster.transport(), "broker", search);
  const auto good = subs.subscribe({"sina"}, "rt-ads", 8, policy());

  // A record no node can host (its dictionary repeats a word), written
  // straight to the metastore past the broker's registration checks.
  pss::SubscriptionSpec bad;
  bad.docSource = "rt-ads";
  bad.dictionaryWords = {"sina", "sina", "weibo"};
  bad.query = search.makeQuery({"sina"});
  ByteWriter w;
  bad.serialize(w);
  cluster.metaStore().upsertSubscription(
      {.id = good + 1, .specBytes = w.take(), .createdMs = clock_.nowMs()});

  // The bad record costs only its own pushes: the round still attaches
  // the good one to a late joiner, and later rounds keep going.
  cluster.addRealtimeNode("ads-stream", 1, rtSchema(), "rt-ads", options_);
  EXPECT_EQ(cluster.subscriptionBroker().reconcile(), 1u);
  EXPECT_EQ(cluster.realtime(0).subscriptions().ids(),
            std::vector<pss::SubscriptionId>{good});
  EXPECT_EQ(cluster.realtime(1).subscriptions().ids(),
            std::vector<pss::SubscriptionId>{good});
  EXPECT_EQ(cluster.subscriptionBroker().reconcile(), 0u);
}

TEST_F(SubscriptionClusterTest, RegistrationRejectsARepeatedDictionaryWord) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  pss::PrivateSearchClient search(dict_, params_, 128, 11);
  pss::SubscriptionSpec bad;
  bad.docSource = "rt-ads";
  bad.dictionaryWords = {"sina", "sina", "weibo"};
  bad.query = search.makeQuery({"sina"});
  EXPECT_THROW(registerSubscription(cluster.transport(), "broker", bad),
               InvalidArgument);
  EXPECT_TRUE(cluster.metaStore().subscriptions().empty());
  EXPECT_TRUE(cluster.realtime(0).subscriptions().ids().empty());
}

TEST_F(SubscriptionClusterTest, UnattachedBrokerRejectsSubscriptionVerbs) {
  ManualClock clock(kT0);
  Registry registry;
  Transport transport(clock);
  BrokerNode broker("naked-broker", registry, transport);
  broker.start();
  pss::PrivateSearchClient search(dict_, params_, 128, 5);
  SubscriptionClient subs(transport, "naked-broker", search);
  EXPECT_THROW(subs.subscribe({"sina"}, "rt-ads", 8, policy()), Unavailable);
  broker.stop();
}

}  // namespace
}  // namespace dpss::cluster
