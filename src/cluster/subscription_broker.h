// Broker side of the subscription plane: registration (id assignment +
// journaled metastore persistence, so standing queries survive
// coordinator failover), fan-out to the realtime tier, and snapshot
// collection (fan-in).
//
// Fan-out is reconciliation-based rather than fire-and-forget: every
// reconcile() round probes each announced realtime node for the ids it
// is matching, attaches whatever the metastore says it should have, and
// detaches what it should not. A realtime node that crashed and restarted
// empty, or joined at runtime (PR 9 membership), converges on the next
// round — the same registry announcements the query scatter path uses
// resolve the routes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/metastore.h"
#include "cluster/registry.h"
#include "cluster/rpc_policy.h"
#include "cluster/transport.h"
#include "common/thread_annotations.h"
#include "pss/subscription.h"

namespace dpss::cluster {

struct SubscriptionBrokerOptions {
  /// Policy for every attach/list/fetch RPC to realtime nodes.
  RpcPolicy rpc{};
};

/// One /statusz row per registered subscription.
struct SubscriptionBrokerStatus {
  pss::SubscriptionId id = 0;
  std::string docSource;
  std::int64_t createdMs = 0;
  std::uint64_t snapshotsCollected = 0;
};

class SubscriptionBroker {
 public:
  SubscriptionBroker(Registry& registry, MetaStore& metaStore,
                     TransportIface& transport,
                     SubscriptionBrokerOptions options = {});

  /// Registers a standing query: assigns the next id, persists the spec
  /// in the metastore (journaled — survives coordinator failover), and
  /// pushes it to every announced realtime node best-effort (reconcile()
  /// repairs any node that was unreachable).
  pss::SubscriptionId subscribe(const pss::SubscriptionSpec& spec);

  /// Retires a subscription everywhere (metastore + realtime tier).
  void unsubscribe(pss::SubscriptionId id);

  /// Collects pending snapshots for `id` from every announced realtime
  /// node. `acks` maps node name -> highest seq the caller has applied;
  /// unreachable nodes are skipped (their snapshots stay pending).
  std::vector<pss::SubscriptionSnapshot> collect(
      pss::SubscriptionId id, const std::map<std::string, std::uint64_t>& acks);

  /// One convergence round over the realtime tier; returns the number of
  /// attach + detach pushes that succeeded. A node that is down or rejects
  /// a record costs only that push, retried next round; the round itself
  /// throws only when the metastore cannot be read.
  std::size_t reconcile();

  /// Serves one kSubscribe(register) / kUnsubscribe / kSnapshot(collect)
  /// request, full bytes with the verb tag included.
  std::string handleRpc(const std::string& request);

  std::vector<SubscriptionBrokerStatus> status() const;
  std::uint64_t snapshotsCollected() const;
  std::uint64_t reconcileRounds() const;

 private:
  std::vector<std::string> realtimeNodes() const;

  Registry& registry_;
  MetaStore& metaStore_;
  TransportIface& transport_;
  SubscriptionBrokerOptions options_;

  mutable Mutex mu_;
  std::map<pss::SubscriptionId, std::uint64_t> collected_ DPSS_GUARDED_BY(mu_);
  std::uint64_t snapshotsCollected_ DPSS_GUARDED_BY(mu_) = 0;
  std::uint64_t reconcileRounds_ DPSS_GUARDED_BY(mu_) = 0;
  // (node, id) calls reconcile() has seen rejected, so each is logged once
  // (id 0: the node's id list).
  std::set<std::pair<std::string, pss::SubscriptionId>> rejected_
      DPSS_GUARDED_BY(mu_);
};

}  // namespace dpss::cluster
