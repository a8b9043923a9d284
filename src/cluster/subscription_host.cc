#include "cluster/subscription_host.h"

#include <algorithm>
#include <utility>

#include "cluster/subscription_rpc.h"
#include "common/error.h"
#include "common/hash.h"

namespace dpss::cluster {

SubscriptionHost::SubscriptionHost(std::string node, std::string dataSource,
                                   SubscriptionDiskState& disk, Clock& clock,
                                   SubscriptionHostOptions options)
    : node_(std::move(node)),
      dataSource_(std::move(dataSource)),
      clock_(clock),
      options_(options),
      disk_(disk) {}

std::uint64_t SubscriptionHost::seedFor(pss::SubscriptionId id) const {
  // Stable per (node, subscription): a replayed restart re-derives the
  // same randomness stream, so recovery is deterministic under test.
  return fnv1a(node_) ^ (id * 0x9e3779b97f4a7c15ULL) ^ 0x5u;
}

void SubscriptionHost::restore() {
  MutexLock lock(mu_);
  for (auto& [id, durable] : disk_) {
    if (entries_.find(id) != entries_.end()) continue;
    ByteReader r(durable.specBytes);
    pss::SubscriptionSpec spec = pss::SubscriptionSpec::deserialize(r);
    Entry entry;
    entry.attachedMs = clock_.nowMs();
    if (spec.docSource == dataSource_) {
      entry.matcher = std::make_unique<pss::SubscriptionMatcher>(
          std::move(spec), seedFor(id), clock_.nowMs());
    }
    entries_.emplace(id, std::move(entry));
  }
}

void SubscriptionHost::attach(pss::SubscriptionId id,
                              const pss::SubscriptionSpec& spec) {
  MutexLock lock(mu_);
  if (entries_.find(id) != entries_.end()) return;  // idempotent
  // The matcher first: a spec it rejects must not reach the disk, where
  // restore() would meet it again after every restart.
  Entry entry;
  entry.attachedMs = clock_.nowMs();
  if (spec.docSource == dataSource_) {
    entry.matcher = std::make_unique<pss::SubscriptionMatcher>(
        spec, seedFor(id), clock_.nowMs());
  }
  SubscriptionDurable& durable = disk_[id];
  if (durable.specBytes.empty()) {
    ByteWriter w;
    spec.serialize(w);
    durable.specBytes = w.take();
  }
  entries_.emplace(id, std::move(entry));
}

void SubscriptionHost::detach(pss::SubscriptionId id) {
  MutexLock lock(mu_);
  entries_.erase(id);
  disk_.erase(id);
}

std::vector<pss::SubscriptionId> SubscriptionHost::ids() const {
  MutexLock lock(mu_);
  std::vector<pss::SubscriptionId> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    (void)entry;
    out.push_back(id);
  }
  return out;
}

void SubscriptionHost::onDocument(std::uint64_t offset,
                                  std::string_view matchText,
                                  std::string_view payload) {
  MutexLock lock(mu_);
  const std::int64_t now = clock_.nowMs();
  for (auto& [id, entry] : entries_) {
    if (entry.matcher == nullptr) continue;
    entry.matcher->feed(offset, matchText, payload, now);
    ++documentsMatched_;
    // Fill-threshold seals fire inline so a full buffer never waits for
    // the next tick (the period trigger is tick-driven via sealDue()).
    if (entry.matcher->due(now)) sealLocked(id, entry, /*force=*/false);
  }
}

void SubscriptionHost::sealDue() {
  MutexLock lock(mu_);
  for (auto& [id, entry] : entries_) {
    if (entry.matcher != nullptr) sealLocked(id, entry, /*force=*/false);
  }
}

void SubscriptionHost::sealAll() {
  MutexLock lock(mu_);
  for (auto& [id, entry] : entries_) {
    if (entry.matcher != nullptr) sealLocked(id, entry, /*force=*/true);
  }
}

void SubscriptionHost::sealLocked(pss::SubscriptionId id, Entry& entry,
                                  bool force) {
  const std::int64_t now = clock_.nowMs();
  auto snap = force ? entry.matcher->seal(now) : entry.matcher->sealIfDue(now);
  if (!snap.has_value()) return;
  SubscriptionDurable& durable = disk_[id];
  snap->id = id;
  snap->node = node_;
  snap->seq = durable.nextSeq++;
  ByteWriter w;
  snap->serialize(w);
  durable.pending.push_back({snap->seq, w.take()});
  if (durable.pending.size() > options_.maxPendingPerSubscription) {
    durable.pending.erase(durable.pending.begin());
    ++snapshotsDropped_;
  }
  ++snapshotsSealed_;
}

std::vector<pss::SubscriptionSnapshot> SubscriptionHost::fetch(
    pss::SubscriptionId id, std::uint64_t ackSeq) {
  MutexLock lock(mu_);
  const auto diskIt = disk_.find(id);
  if (diskIt == disk_.end()) return {};
  SubscriptionDurable& durable = diskIt->second;
  durable.pending.erase(
      std::remove_if(durable.pending.begin(), durable.pending.end(),
                     [&](const SubscriptionDurable::PendingSnapshot& p) {
                       return p.seq <= ackSeq;
                     }),
      durable.pending.end());
  const auto it = entries_.find(id);
  if (it != entries_.end()) {
    it->second.ackedSeq = std::max(it->second.ackedSeq, ackSeq);
  }
  std::vector<pss::SubscriptionSnapshot> out;
  out.reserve(durable.pending.size());
  for (const auto& p : durable.pending) {
    ByteReader r(p.bytes);
    out.push_back(pss::SubscriptionSnapshot::deserialize(r));
  }
  return out;
}

std::string SubscriptionHost::handleRpc(const std::string& request) {
  ByteReader r(request);
  const std::uint8_t verb = r.u8();
  switch (verb) {
    case rpc::kSubscribe: {
      const std::uint8_t sub = r.u8();
      if (sub == subrpc::kAttach) {
        const pss::SubscriptionId id = r.varint();
        attach(id, pss::SubscriptionSpec::deserialize(r));
        return {};
      }
      if (sub == subrpc::kList) {
        const auto live = ids();
        ByteWriter w;
        w.varint(live.size());
        for (const auto id : live) w.varint(id);
        return w.take();
      }
      throw InvalidArgument("realtime node: unknown kSubscribe sub-op " +
                            std::to_string(sub));
    }
    case rpc::kUnsubscribe:
      detach(r.varint());
      return {};
    case rpc::kSnapshot: {
      const std::uint8_t sub = r.u8();
      if (sub != subrpc::kFetch) {
        throw InvalidArgument("realtime node: unknown kSnapshot sub-op " +
                              std::to_string(sub));
      }
      const pss::SubscriptionId id = r.varint();
      const std::uint64_t ackSeq = r.u64();
      return encodeSnapshotList(fetch(id, ackSeq));
    }
    default:
      throw InvalidArgument("subscription host: unexpected verb " +
                            std::to_string(verb));
  }
}

std::vector<SubscriptionHostStatus> SubscriptionHost::status() const {
  MutexLock lock(mu_);
  const std::int64_t now = clock_.nowMs();
  std::vector<SubscriptionHostStatus> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    SubscriptionHostStatus row;
    row.id = id;
    row.active = entry.matcher != nullptr;
    row.ageMs = now - entry.attachedMs;
    row.ackedSeq = entry.ackedSeq;
    if (entry.matcher != nullptr) {
      row.fillPercent = entry.matcher->fillPercent();
      row.documentsSeen = entry.matcher->documentsSeen();
      row.snapshotsSealed = entry.matcher->snapshotsSealed();
    }
    const auto diskIt = disk_.find(id);
    if (diskIt != disk_.end()) {
      row.pendingSnapshots = diskIt->second.pending.size();
    }
    out.push_back(row);
  }
  return out;
}

std::uint64_t SubscriptionHost::documentsMatched() const {
  MutexLock lock(mu_);
  return documentsMatched_;
}

std::uint64_t SubscriptionHost::snapshotsSealed() const {
  MutexLock lock(mu_);
  return snapshotsSealed_;
}

std::uint64_t SubscriptionHost::snapshotsDropped() const {
  MutexLock lock(mu_);
  return snapshotsDropped_;
}

}  // namespace dpss::cluster
