#include "cluster/subscription_broker.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "cluster/names.h"
#include "cluster/subscription_rpc.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpss::cluster {
namespace {

const obs::MetricId kMetricSubscribed =
    obs::internCounter("broker.subscriptions.registered");
const obs::MetricId kMetricUnsubscribed =
    obs::internCounter("broker.subscriptions.removed");
const obs::MetricId kMetricCollected =
    obs::internCounter("broker.subscriptions.snapshots");
const obs::MetricId kMetricReconcilePushes =
    obs::internCounter("broker.subscriptions.reconcile_pushes");

}  // namespace

SubscriptionBroker::SubscriptionBroker(Registry& registry, MetaStore& metaStore,
                                       TransportIface& transport,
                                       SubscriptionBrokerOptions options)
    : registry_(registry),
      metaStore_(metaStore),
      transport_(transport),
      options_(options) {}

std::vector<std::string> SubscriptionBroker::realtimeNodes() const {
  std::vector<std::string> out;
  for (const auto& node : registry_.children(paths::announcements())) {
    const auto data = registry_.getData(paths::nodeAnnouncement(node));
    if (data.has_value() && paths::announceType(*data) == "realtime") {
      out.push_back(node);
    }
  }
  return out;
}

pss::SubscriptionId SubscriptionBroker::subscribe(
    const pss::SubscriptionSpec& spec) {
  SubscriptionRecord record;
  {
    // Id assignment and the metastore upsert happen under one lock so two
    // racing registrations cannot mint the same id.
    MutexLock lock(mu_);
    pss::SubscriptionId next = 1;
    for (const auto& existing : metaStore_.subscriptions()) {
      next = std::max<pss::SubscriptionId>(next, existing.id + 1);
    }
    record.id = next;
    ByteWriter w;
    spec.serialize(w);
    record.specBytes = w.take();
    record.createdMs = transport_.clock().nowMs();
    metaStore_.upsertSubscription(record);
    collected_.emplace(record.id, 0);
  }
  obs::currentRegistry().counter(kMetricSubscribed).inc();
  // Best-effort immediate fan-out; a node that is down right now gets the
  // subscription from the next reconcile() round instead.
  for (const auto& node : realtimeNodes()) {
    try {
      attachSubscription(transport_, node, record.id, spec, options_.rpc);
    } catch (const Unavailable&) {
    }
  }
  return record.id;
}

void SubscriptionBroker::unsubscribe(pss::SubscriptionId id) {
  {
    MutexLock lock(mu_);
    metaStore_.removeSubscription(id);
    collected_.erase(id);
  }
  obs::currentRegistry().counter(kMetricUnsubscribed).inc();
  for (const auto& node : realtimeNodes()) {
    try {
      unsubscribeOn(transport_, node, id, options_.rpc);
    } catch (const Unavailable&) {
    }
  }
}

std::vector<pss::SubscriptionSnapshot> SubscriptionBroker::collect(
    pss::SubscriptionId id, const std::map<std::string, std::uint64_t>& acks) {
  std::vector<pss::SubscriptionSnapshot> out;
  for (const auto& node : realtimeNodes()) {
    const auto ackIt = acks.find(node);
    const std::uint64_t ackSeq = ackIt == acks.end() ? 0 : ackIt->second;
    try {
      auto snaps = fetchSnapshots(transport_, node, id, ackSeq, options_.rpc);
      for (auto& s : snaps) out.push_back(std::move(s));
    } catch (const Unavailable&) {
      // Unreachable node: its snapshots stay pending on its disk; the
      // client re-collects after the node recovers.
    }
  }
  if (!out.empty()) {
    MutexLock lock(mu_);
    collected_[id] += out.size();
    snapshotsCollected_ += out.size();
  }
  obs::currentRegistry().counter(kMetricCollected).inc(out.size());
  return out;
}

std::size_t SubscriptionBroker::reconcile() {
  // Desired state is whatever the (journaled) metastore says. Probe each
  // realtime node for what it actually runs and push the difference, in
  // both directions: attach repairs crash-restarted or newly joined
  // nodes, unsubscribe repairs nodes that missed a removal.
  const auto records = metaStore_.subscriptions();
  std::size_t pushes = 0;
  // Every call to a node stands alone: an unreachable node, or one that
  // rejects a record, skips that call until the next round and the rest
  // of the round goes on. A rejection is logged once until it succeeds.
  const auto attempt = [&](const std::string& node, pss::SubscriptionId id,
                           const std::function<void()>& call) {
    try {
      call();
      MutexLock lock(mu_);
      rejected_.erase({node, id});
      return true;
    } catch (const Unavailable&) {
    } catch (const Error& e) {
      MutexLock lock(mu_);
      if (rejected_.insert({node, id}).second) {
        DPSS_LOG(Warn) << "subscription reconcile: " << node << " rejected "
                       << (id == 0 ? "the id list" : "id " + std::to_string(id))
                       << ", retrying each round: " << e.what();
      }
    }
    return false;
  };
  for (const auto& node : realtimeNodes()) {
    std::vector<pss::SubscriptionId> have;
    if (!attempt(node, 0, [&] {
          have = listSubscriptions(transport_, node, options_.rpc);
        })) {
      continue;
    }
    for (const auto& record : records) {
      if (std::find(have.begin(), have.end(), record.id) != have.end()) {
        continue;
      }
      pushes += attempt(node, record.id, [&] {
        ByteReader r(record.specBytes);
        attachSubscription(transport_, node, record.id,
                           pss::SubscriptionSpec::deserialize(r),
                           options_.rpc);
      });
    }
    for (const auto id : have) {
      const bool desired =
          std::any_of(records.begin(), records.end(),
                      [&](const SubscriptionRecord& r) { return r.id == id; });
      if (desired) continue;
      pushes += attempt(node, id, [&] {
        unsubscribeOn(transport_, node, id, options_.rpc);
      });
    }
  }
  {
    MutexLock lock(mu_);
    ++reconcileRounds_;
  }
  obs::currentRegistry().counter(kMetricReconcilePushes).inc(pushes);
  return pushes;
}

std::string SubscriptionBroker::handleRpc(const std::string& request) {
  ByteReader r(request);
  const std::uint8_t verb = r.u8();
  switch (verb) {
    case rpc::kSubscribe: {
      const std::uint8_t sub = r.u8();
      if (sub != subrpc::kRegister) {
        throw InvalidArgument("broker: unknown kSubscribe sub-op " +
                              std::to_string(sub));
      }
      const auto id = subscribe(pss::SubscriptionSpec::deserialize(r));
      ByteWriter w;
      w.varint(id);
      return w.take();
    }
    case rpc::kUnsubscribe:
      unsubscribe(r.varint());
      return {};
    case rpc::kSnapshot: {
      const std::uint8_t sub = r.u8();
      if (sub != subrpc::kCollect) {
        throw InvalidArgument("broker: unknown kSnapshot sub-op " +
                              std::to_string(sub));
      }
      const pss::SubscriptionId id = r.varint();
      const std::uint64_t n = r.varint();
      std::map<std::string, std::uint64_t> acks;
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string node = std::string(r.str());
        const std::uint64_t seq = r.u64();
        acks.emplace(std::move(node), seq);
      }
      return encodeSnapshotList(collect(id, acks));
    }
    default:
      throw InvalidArgument("subscription broker: unexpected verb " +
                            std::to_string(verb));
  }
}

std::vector<SubscriptionBrokerStatus> SubscriptionBroker::status() const {
  const auto records = metaStore_.subscriptions();
  MutexLock lock(mu_);
  std::vector<SubscriptionBrokerStatus> out;
  out.reserve(records.size());
  for (const auto& record : records) {
    SubscriptionBrokerStatus row;
    row.id = record.id;
    row.createdMs = record.createdMs;
    ByteReader r(record.specBytes);
    row.docSource = pss::SubscriptionSpec::deserialize(r).docSource;
    const auto it = collected_.find(record.id);
    if (it != collected_.end()) row.snapshotsCollected = it->second;
    out.push_back(std::move(row));
  }
  return out;
}

std::uint64_t SubscriptionBroker::snapshotsCollected() const {
  MutexLock lock(mu_);
  return snapshotsCollected_;
}

std::uint64_t SubscriptionBroker::reconcileRounds() const {
  MutexLock lock(mu_);
  return reconcileRounds_;
}

}  // namespace dpss::cluster
