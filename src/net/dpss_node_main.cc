// dpss_node — one cluster role per OS process, wired over TCP.
//
//   dpss_node --role coordinator --name coordinator --listen 127.0.0.1:8400
//   dpss_node --role historical  --name hist-0 --listen 127.0.0.1:8401
//             --peer substrate=127.0.0.1:8400
//   dpss_node --role broker      --name broker --listen 127.0.0.1:8404
//             --peer substrate=127.0.0.1:8400 --peer hist-0=127.0.0.1:8401
//
// By default the coordinator process hosts the authoritative substrates
// (registry, metadata store, deep storage) behind a SubstrateService;
// every other role reaches them through Remote* proxies, so the node
// classes themselves run completely unchanged. For coordinator failover
// the substrates move to their own process (--role substrate) and any
// number of coordinators run against it with --peer substrate=...; they
// elect a leader through the registry and a SIGKILLed leader is replaced
// within its lease (DESIGN.md §13).
//
// Peer routing is static for launch-time nodes (--peer flags), dynamic
// for runtime-joined ones: nodes started with --advertise publish their
// endpoint in their announcement, and processes holding a registry
// mirror resolve unknown callees through it (NetTransport resolver). See
// README "Multi-process quickstart" / "Scaling the cluster" and DESIGN.md
// §9, §13.
//
// Each process also binds "<name>.ctl" (rpc::kControl) for out-of-band
// driving: ping, document loading (historical), event ingestion
// (realtime), decommission/drain-state (historical), and graceful
// shutdown. A draining historical exits on its own once the coordinator
// marks the drain complete.
// Role functions only build; one driver (Process) runs every role's
// lifecycle (DESIGN.md §9 "Process lifecycle").
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/broker_node.h"
#include "cluster/coordinator_node.h"
#include "cluster/historical_node.h"
#include "cluster/message_queue.h"
#include "cluster/metastore.h"
#include "cluster/metastore_journal.h"
#include "cluster/names.h"
#include "cluster/realtime_node.h"
#include "cluster/registry.h"
#include "cluster/rpc_policy.h"
#include "cluster/span_ship.h"
#include "cluster/stats.h"
#include "cluster/subscription_broker.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "net/admin_plane.h"
#include "net/control.h"
#include "net/http_admin.h"
#include "net/net_transport.h"
#include "net/socket.h"
#include "net/substrate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_assembly.h"
#include "storage/deep_storage.h"
#include "storage/schema.h"

namespace {

namespace cluster = dpss::cluster;
namespace net = dpss::net;
namespace obs = dpss::obs;
namespace storage = dpss::storage;

void onSignal(int) { net::requestShutdown(); }

struct Flags {
  std::string role;
  std::string name;
  std::string listenHost = "127.0.0.1";
  std::uint16_t listenPort = 0;
  std::vector<std::pair<std::string, std::string>> peers;  // name -> host:port
  dpss::TimeMs tickMs = 50;
  dpss::TimeMs leaseMs = 5'000;    // coordinator: substrate lease
  dpss::TimeMs syncMs = 100;       // workers: mirror sync period
  dpss::TimeMs heartbeatMs = 500;  // workers: lease heartbeat period
  std::size_t brokerCache = 4096;  // 0 disables the result cache
  std::size_t rpcAttempts = 3;
  dpss::TimeMs rpcBackoffMs = 50;
  dpss::TimeMs rpcDeadlineMs = 5'000;
  // realtime role
  std::string topic = "events";
  std::size_t partition = 0;
  std::string dataSource = "rt-events";
  // observability plane
  int adminPort = -1;  // -1 = no admin server; 0 = pick a free port
  std::string traceSink = "coordinator";  // "" disables span shipping
  dpss::TimeMs slowQueryMs = 500;         // broker slow-query threshold
  // elastic membership (DESIGN.md §13)
  std::string metaDir;     // substrate/coordinator: journal+snapshot dir
  std::string advertise;   // historical: announced endpoint ("" = listen)
  std::size_t movesPerCycle = 8;      // coordinator rebalancer budget
  std::size_t maxPendingLoads = 4;    // coordinator per-node load cap
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "dpss_node: " << error << "\n"
            << "usage: dpss_node --role "
               "substrate|coordinator|historical|realtime|broker"
            << " --name NAME --listen HOST:PORT\n"
            << "  [--peer NAME=HOST:PORT]... [--tick-ms N] [--lease-ms N]\n"
            << "  [--sync-ms N] [--heartbeat-ms N] [--broker-cache N]\n"
            << "  [--rpc-attempts N] [--rpc-backoff-ms N] [--rpc-deadline-ms "
               "N]\n"
            << "  [--topic T --partition P --data-source DS] [--verbose]\n"
            << "  [--admin-port P (0 = auto)] [--trace-sink NODE ('' off)]\n"
            << "  [--slow-query-ms N] [--meta-dir DIR] [--advertise HOST:PORT]\n"
            << "  [--moves-per-cycle N] [--max-pending-loads N]\n";
  std::exit(2);
}

Flags parseFlags(int argc, char** argv) {
  Flags f;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--role") {
      f.role = next(i);
    } else if (arg == "--name") {
      f.name = next(i);
    } else if (arg == "--listen") {
      const net::Endpoint ep = net::Endpoint::parse(next(i));
      f.listenHost = ep.host;
      f.listenPort = ep.port;
    } else if (arg == "--peer") {
      const std::string v = next(i);
      const auto eq = v.find('=');
      if (eq == std::string::npos) usage("--peer wants NAME=HOST:PORT");
      f.peers.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg == "--tick-ms") {
      f.tickMs = std::stol(next(i));
    } else if (arg == "--lease-ms") {
      f.leaseMs = std::stol(next(i));
    } else if (arg == "--sync-ms") {
      f.syncMs = std::stol(next(i));
    } else if (arg == "--heartbeat-ms") {
      f.heartbeatMs = std::stol(next(i));
    } else if (arg == "--broker-cache") {
      f.brokerCache = std::stoul(next(i));
    } else if (arg == "--rpc-attempts") {
      f.rpcAttempts = std::stoul(next(i));
    } else if (arg == "--rpc-backoff-ms") {
      f.rpcBackoffMs = std::stol(next(i));
    } else if (arg == "--rpc-deadline-ms") {
      f.rpcDeadlineMs = std::stol(next(i));
    } else if (arg == "--topic") {
      f.topic = next(i);
    } else if (arg == "--partition") {
      f.partition = std::stoul(next(i));
    } else if (arg == "--data-source") {
      f.dataSource = next(i);
    } else if (arg == "--admin-port") {
      f.adminPort = std::stoi(next(i));
    } else if (arg == "--trace-sink") {
      f.traceSink = next(i);
    } else if (arg == "--slow-query-ms") {
      f.slowQueryMs = std::stol(next(i));
    } else if (arg == "--meta-dir") {
      f.metaDir = next(i);
    } else if (arg == "--advertise") {
      f.advertise = next(i);
    } else if (arg == "--moves-per-cycle") {
      f.movesPerCycle = std::stoul(next(i));
    } else if (arg == "--max-pending-loads") {
      f.maxPendingLoads = std::stoul(next(i));
    } else if (arg == "--verbose") {
      dpss::setLogLevel(dpss::LogLevel::kInfo);
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (f.role.empty()) usage("--role is required");
  if (f.name.empty()) usage("--name is required");
  if (f.listenPort == 0) usage("--listen with an explicit port is required");
  return f;
}

cluster::RpcPolicy rpcPolicy(const Flags& f) {
  cluster::RpcPolicy policy;
  policy.maxAttempts = f.rpcAttempts;
  policy.initialBackoffMs = f.rpcBackoffMs;
  policy.deadlineMs = f.rpcDeadlineMs;
  return policy;
}

net::RemoteRegistryOptions registryOptions(const Flags& f) {
  net::RemoteRegistryOptions opts;
  opts.syncIntervalMs = f.syncMs;
  opts.heartbeatIntervalMs = f.heartbeatMs;
  opts.rpc = rpcPolicy(f);
  return opts;
}

/// The fixed schema dpss_node's realtime role indexes (the realtime
/// pipeline example's ad-event shape); events arrive over the control
/// channel as storage::encodeInputRow payloads matching it.
storage::Schema realtimeSchema() {
  storage::Schema s;
  s.dimensions = {"publisher", "country"};
  s.metrics = {{"impressions", storage::MetricType::kLong},
               {"revenue", storage::MetricType::kDouble}};
  return s;
}

/// True when `name` is wired to another process. A peer entry that points
/// back at this process's own listen endpoint does not count: launcher
/// scripts hand every node the same wiring map, so a standalone
/// coordinator routinely sees "substrate=<its own address>".
bool hasRemotePeer(const Flags& f, const std::string& name) {
  for (const auto& [peer, hostPort] : f.peers) {
    if (peer != name) continue;
    try {
      const net::Endpoint ep = net::Endpoint::parse(hostPort);
      if (ep.host == f.listenHost && ep.port == f.listenPort) continue;
    } catch (const dpss::Error&) {
    }
    return true;
  }
  return false;
}

/// The realtime role's /statusz subscription table (one entry per hosted
/// standing query), consumed by `dpss_dump.py --subscriptions`.
std::string subscriptionStatusFields(cluster::RealtimeNode& node) {
  std::string out = "\"subscriptions\":[";
  bool first = true;
  for (const auto& s : node.subscriptionStatus()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(s.id);
    out += ",\"active\":" + std::string(s.active ? "true" : "false");
    out += ",\"age_ms\":" + std::to_string(s.ageMs);
    out += ",\"fill_percent\":" + std::to_string(s.fillPercent);
    out += ",\"documents_seen\":" + std::to_string(s.documentsSeen);
    out += ",\"snapshots_sealed\":" + std::to_string(s.snapshotsSealed);
    out += ",\"pending_snapshots\":" + std::to_string(s.pendingSnapshots);
    out += ",\"acked_seq\":" + std::to_string(s.ackedSeq);
    out += "}";
  }
  out += "]";
  return out;
}

/// The broker's /statusz view of the registered standing queries.
std::string subscriptionBrokerStatusFields(
    cluster::SubscriptionBroker& subs, dpss::Clock& clock) {
  const dpss::TimeMs now = clock.nowMs();
  std::string out = "\"subscriptions\":[";
  bool first = true;
  for (const auto& s : subs.status()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(s.id);
    out += ",\"doc_source\":\"" + s.docSource + "\"";
    out += ",\"age_ms\":" + std::to_string(now - s.createdMs);
    out += ",\"snapshots_collected\":" + std::to_string(s.snapshotsCollected);
    out += "}";
  }
  out += "],\"subscription_reconcile_rounds\":" +
         std::to_string(subs.reconcileRounds());
  return out;
}

/// The coordinator's role-specific /statusz section: election state plus
/// the most recent reconciliation cycle's rebalancer numbers.
std::string coordinatorStatusFields(cluster::CoordinatorNode& c) {
  const auto s = c.lastStats();
  std::string out;
  out += "\"leader\":" + std::string(s.leader ? "true" : "false");
  out += ",\"epoch\":" + std::to_string(s.epoch);
  out += ",\"rebalancer\":{";
  out += "\"activeNodes\":" + std::to_string(s.activeNodes);
  out += ",\"drainingNodes\":" + std::to_string(s.drainingNodes);
  out += ",\"imbalance\":" + std::to_string(s.imbalance);
  out += ",\"movesIssued\":" + std::to_string(s.movesIssued);
  out += ",\"throttledMoves\":" + std::to_string(s.throttledMoves);
  out += ",\"throttledLoads\":" + std::to_string(s.throttledLoads);
  out += ",\"totalLoads\":" + std::to_string(c.totalLoadsIssued());
  out += ",\"totalDrops\":" + std::to_string(c.totalDropsIssued());
  out += ",\"totalMoves\":" + std::to_string(c.totalMovesIssued());
  out += "}";
  return out;
}

/// What a role function hands the driver once its objects are built and
/// started. Serving the control channel and admin plane, span shipping,
/// the ready line, the main loop and teardown are the driver's.
struct Role {
  net::ControlTargets control;
  /// The fields the role owns; the driver fills nodeName, role, startNs.
  /// A node registry set here also ships its spans to --trace-sink; unset,
  /// the process-global one serves (and an unset leaseState shows "none").
  net::AdminPlane plane;
  std::function<void()> tick;
  /// Optional: true ends the process (a historical whose drain completed).
  std::function<bool()> drained;
};

/// One dpss_node process: its transport, every object its role builds, and
/// the lifecycle that orders them.
class Process {
 public:
  explicit Process(const Flags& flags)
      : f(flags),
        clock(dpss::SystemClock::instance()),
        transport(clock,
                  {.server = {.host = f.listenHost, .port = f.listenPort},
                   .client = {}}) {
    transport.start();
    for (const auto& [name, hostPort] : f.peers) {
      transport.addPeer(name, hostPort);
    }
  }

  // The stop rule, on every exit path (shutdown, a completed drain, an
  // exception from a role function or a tick): inbound serving stops
  // before any object a handler or admin route captures is destroyed.
  // NetServer::stop() joins the event loop and then every worker, so once
  // it returns no handler is running. Outbound calls still work, so nodes
  // deregister from the substrate as they are destroyed.
  ~Process() {
    transport.stop();
    while (!objects_.empty()) objects_.pop_back();
  }

  /// Makes an object that lives until teardown; objects die newest first.
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    auto object = std::make_shared<T>(std::forward<Args>(args)...);
    T& ref = *object;
    objects_.push_back(std::move(object));
    return ref;
  }

  /// Runs `fn` at teardown, after every object made later is destroyed and
  /// before any made earlier is. (A shared_ptr runs its deleter even when
  /// the pointer it owns is null.)
  void atTeardown(std::function<void()> fn) {
    objects_.emplace_back(nullptr, [fn = std::move(fn)](void*) { fn(); });
  }

  /// Binds the control channel, starts the admin server and span shipper,
  /// prints the ready line and ticks the role until shutdown or drain.
  void run(Role role);

  const Flags& f;
  dpss::Clock& clock;
  net::NetTransport transport;

 private:
  std::vector<std::shared_ptr<void>> objects_;  // oldest first
};

void Process::run(Role role) {
  net::bindControl(transport, f.name, f.role, role.control);
  role.plane.nodeName = f.name;
  role.plane.role = f.role;
  role.plane.startNs = obs::nowNanos();
  cluster::SpanShipper* shipper = nullptr;
  if (role.plane.registry && !f.traceSink.empty()) {
    shipper = &make<cluster::SpanShipper>(
        *role.plane.registry, transport, f.traceSink,
        cluster::SpanShipper::Options{.rpc = rpcPolicy(f)});
  }
  if (!role.plane.registry) role.plane.registry = &obs::globalRegistry();
  if (f.adminPort >= 0) {
    auto& admin = make<net::HttpAdminServer>(
        clock, net::HttpAdminOptions{
                   .host = f.listenHost,
                   .port = static_cast<std::uint16_t>(f.adminPort)});
    net::bindAdminEndpoints(admin, role.plane);
    admin.start();
    std::cout << "dpss_node '" << f.name << "' admin on " << f.listenHost
              << ":" << admin.port() << std::endl;
  }
  std::cout << "dpss_node " << f.role << " '" << f.name << "' listening on "
            << f.listenHost << ":" << transport.port() << std::endl;
  bool unavailable = false;
  while (!net::shutdownRequested()) {
    if (shipper) shipper->tick();
    try {
      role.tick();
      unavailable = false;
    } catch (const dpss::Unavailable& e) {
      // A lost substrate (or peer) is a lease event, not an exit: the
      // next tick retries. Logged once per outage.
      if (!unavailable) {
        DPSS_LOG(Warn) << f.name << ": tick failed, retrying: " << e.what();
      }
      unavailable = true;
    }
    if (role.drained && role.drained()) {
      std::cout << "dpss_node '" << f.name << "' drain complete, exiting"
                << std::endl;
      break;
    }
    clock.sleepFor(f.tickMs);
  }
}

/// Routes callees unknown at launch (runtime scale-out) through their
/// registry announcements, until teardown reaches `registry`.
void installResolver(Process& p, cluster::Registry& registry) {
  p.transport.setPeerResolver(
      [&registry](const std::string& node) -> std::optional<std::string> {
        const auto data =
            registry.getData(cluster::paths::nodeAnnouncement(node));
        if (!data) return std::nullopt;
        const std::string ep = cluster::paths::announceEndpoint(*data);
        if (ep.empty()) return std::nullopt;
        return ep;
      });
  p.atTeardown([&p] { p.transport.setPeerResolver(nullptr); });
}

/// Starts the registry mirror's sync + heartbeat threads. Call it after
/// making the nodes whose watches those threads fire: the threads must stop
/// before those nodes are destroyed, which destruction order alone cannot
/// say (the nodes reference the registry, so it is destroyed after them).
void startRegistrySync(Process& p, net::RemoteRegistry& registry) {
  registry.start();
  p.atTeardown([&registry] { registry.stop(); });
}

/// The authoritative substrates: registry, metadata store, deep storage.
struct Substrates {
  cluster::Registry* registry = nullptr;
  cluster::MetaStore* metaStore = nullptr;
  net::SubstrateService* service = nullptr;  // null: another process's
};

/// Hosts the substrates behind a SubstrateService bound as kSubstrateNode,
/// for the substrate role and the single-coordinator deployment. The
/// metadata store is journaled + snapshotted under --meta-dir (it survives
/// a restart), in-memory otherwise.
Substrates hostSubstrates(Process& p, Role& role) {
  auto& registry = p.make<cluster::Registry>();
  cluster::MetaStore& metaStore =
      p.f.metaDir.empty() ? p.make<cluster::MetaStore>()
                          : p.make<cluster::JournaledMetaStore>(p.f.metaDir);
  auto& deepStorage = p.make<storage::MemoryDeepStorage>();
  auto& service = p.make<net::SubstrateService>(registry, metaStore,
                                                deepStorage, p.clock,
                                                p.f.leaseMs);
  p.transport.bind(net::kSubstrateNode, service.handler());
  role.plane.liveSessions = [&service] { return service.liveSessionCount(); };
  return {&registry, &metaStore, &service};
}

/// Standalone substrate host for multi-coordinator deployments: no
/// coordinator is special, so a SIGKILLed leader loses nothing but its
/// lease.
Role substrateRole(Process& p) {
  Role role;
  net::SubstrateService* service = hostSubstrates(p, role).service;
  role.tick = [service] { service->sweepExpiredLeases(); };
  return role;
}

Role coordinatorRole(Process& p) {
  const Flags& f = p.f;
  Role role;
  // Two deployments share this role. Standalone (no substrate peer): this
  // process hosts the authoritative substrates, as the single-coordinator
  // topology always has. Standby-capable (--peer substrate=...): the
  // substrates live in a substrate process and several coordinators run
  // this same code against Remote* proxies, electing a leader among
  // themselves — the node class cannot tell the difference.
  net::RemoteRegistry* remote = nullptr;
  Substrates s;
  if (hasRemotePeer(f, net::kSubstrateNode)) {
    remote = &p.make<net::RemoteRegistry>(p.transport, net::kSubstrateNode,
                                          registryOptions(f));
    s = {remote, &p.make<net::RemoteMetaStore>(
                     p.transport, net::kSubstrateNode, rpcPolicy(f))};
  } else {
    s = hostSubstrates(p, role);
  }
  cluster::CoordinatorOptions copts;
  copts.maxMovesPerCycle = f.movesPerCycle;
  copts.maxPendingLoadsPerNode = f.maxPendingLoads;
  auto& coordinator = p.make<cluster::CoordinatorNode>(
      f.name, *s.registry, *s.metaStore, p.clock, copts);
  // Stats collection dials every announced node; runtime-joined ones are
  // only dialable through their announced endpoints.
  installResolver(p, *s.registry);
  // The coordinator is the cluster's trace sink: workers ship their span
  // batches here (rpc::kSpans) and /tracez serves the assembled trees.
  auto& collector = p.make<obs::TraceCollector>();
  p.transport.bind(f.name, [&collector](const std::string& req) {
    if (req.empty()) throw dpss::CorruptData("empty coordinator rpc");
    switch (static_cast<std::uint8_t>(req[0])) {
      case cluster::rpc::kStats:
        return cluster::handleStatsRpc(obs::globalRegistry(), req.substr(1));
      case cluster::rpc::kSpans:
        return cluster::handleSpansRpc(collector, req);
      default:
        throw dpss::CorruptData("unknown coordinator rpc tag");
    }
  });
  if (remote) startRegistrySync(p, *remote);
  // runOnce() runs outside any ScopedRegistry, so the coordinator's
  // metrics live in the process-global registry: plane.registry stays unset.
  role.plane.traces = &collector;
  role.plane.statusFields = [&coordinator] {
    return coordinatorStatusFields(coordinator);
  };
  // Local spans (coordinator.* and net.server handlers) feed the
  // collector directly; there is no point shipping them over TCP.
  role.tick = [&coordinator, &collector, service = s.service,
               spanCursor = std::uint64_t{0}]() mutable {
    coordinator.runOnce();
    if (service) service->sweepExpiredLeases();
    auto spans = obs::globalRegistry().spans().collectSince(&spanCursor);
    if (!spans.empty()) collector.add(std::move(spans));
  };
  return role;
}

Role historicalRole(Process& p) {
  const Flags& f = p.f;
  auto& registry = p.make<net::RemoteRegistry>(p.transport, net::kSubstrateNode,
                                               registryOptions(f));
  auto& deepStorage = p.make<net::RemoteDeepStorage>(
      p.transport, net::kSubstrateNode, rpcPolicy(f));
  cluster::HistoricalNodeOptions nodeOptions;
  // Announce a dialable endpoint so processes that did not know this node
  // at launch (runtime scale-out) can resolve a route to it.
  nodeOptions.advertiseEndpoint =
      f.advertise.empty()
          ? f.listenHost + ":" + std::to_string(p.transport.port())
          : f.advertise;
  auto& node = p.make<cluster::HistoricalNode>(f.name, registry, deepStorage,
                                               p.transport, nodeOptions);
  node.start();
  startRegistrySync(p, registry);
  Role role;
  role.control.historical = &node;
  role.plane.registry = &node.metrics();
  role.plane.leaseState = [&node] {
    return std::string(node.registryLeaseActive() ? "active" : "expired");
  };
  role.plane.servedSegments = [&node] {
    std::vector<std::string> out;
    for (const auto& id : node.servedSegments()) out.push_back(id.toString());
    return out;
  };
  role.plane.statusFields = [&node] {
    std::string out;
    out += "\"pending_loads\":" + std::to_string(node.pendingLoads());
    out += ",\"drain\":{\"draining\":";
    out += node.draining() ? "true" : "false";
    out += ",\"complete\":";
    out += node.drainComplete() ? "true" : "false";
    out += "}";
    return out;
  };
  role.tick = [&node] { node.tick(); };
  // A drained node has nothing left to serve: deregister and exit so the
  // operator (or launcher) can reclaim the process.
  role.drained = [&node] { return node.drainComplete(); };
  return role;
}

Role realtimeRole(Process& p) {
  const Flags& f = p.f;
  auto& registry = p.make<net::RemoteRegistry>(p.transport, net::kSubstrateNode,
                                               registryOptions(f));
  auto& metaStore = p.make<net::RemoteMetaStore>(
      p.transport, net::kSubstrateNode, rpcPolicy(f));
  auto& deepStorage = p.make<net::RemoteDeepStorage>(
      p.transport, net::kSubstrateNode, rpcPolicy(f));
  // The queue is process-local — the node consumes its own partition's
  // log, like a Kafka consumer colocated with its broker — and the
  // control channel is its producer.
  auto& queue = p.make<cluster::MessageQueue>();
  queue.createTopic(f.topic, f.partition + 1);
  auto& disk = p.make<cluster::NodeDisk>();
  auto& node = p.make<cluster::RealtimeNode>(
      f.name, registry, queue, f.topic, f.partition, deepStorage, metaStore,
      p.transport, p.clock, realtimeSchema(), f.dataSource, disk);
  // A process restarted right after a crash races its dead predecessor's
  // ephemeral announcement: wait out the lease sweep instead of dying.
  for (int attempt = 0; !net::shutdownRequested(); ++attempt) {
    try {
      node.start();
      break;
    } catch (const dpss::AlreadyExists&) {
      if (attempt >= 40) throw;
      p.clock.sleepFor(250);
    }
  }
  startRegistrySync(p, registry);
  Role role;
  role.control = {.queue = &queue, .topic = f.topic, .partition = f.partition};
  role.plane.registry = &node.metrics();
  role.plane.leaseState = [&node] {
    return std::string(node.registryLeaseActive() ? "active" : "expired");
  };
  role.plane.servedSegments = [&node] {
    std::vector<std::string> out;
    for (const auto& id : node.announcedSegments()) out.push_back(id.toString());
    return out;
  };
  role.plane.statusFields = [&node] { return subscriptionStatusFields(node); };
  role.tick = [&node] { node.tick(); };
  return role;
}

Role brokerRole(Process& p) {
  const Flags& f = p.f;
  auto& registry = p.make<net::RemoteRegistry>(p.transport, net::kSubstrateNode,
                                               registryOptions(f));
  // The subscription plane persists standing queries in the authoritative
  // metastore (journaled when the substrate runs with --meta-dir, so they
  // survive coordinator failover) and fans them out to realtime nodes.
  auto& metaStore = p.make<net::RemoteMetaStore>(
      p.transport, net::kSubstrateNode, rpcPolicy(f));
  cluster::BrokerOptions options;
  options.resultCacheCapacity = f.brokerCache;
  options.rpcPolicy = rpcPolicy(f);
  options.slowQueryMs = f.slowQueryMs;
  auto& broker =
      p.make<cluster::BrokerNode>(f.name, registry, p.transport, options);
  auto& subscriptions = p.make<cluster::SubscriptionBroker>(
      registry, metaStore, p.transport,
      cluster::SubscriptionBrokerOptions{.rpc = rpcPolicy(f)});
  broker.attachSubscriptions(&subscriptions);
  // The broker dials whatever serves a segment; historicals that joined
  // after launch are routed through their announced endpoints.
  installResolver(p, registry);
  broker.start();
  startRegistrySync(p, registry);
  Role role;
  role.plane.registry = &broker.metrics();
  role.plane.leaseState = [&broker] {
    return std::string(broker.registryLeaseActive() ? "active" : "expired");
  };
  role.plane.statusFields = [&subscriptions, &clock = p.clock] {
    return subscriptionBrokerStatusFields(subscriptions, clock);
  };
  // The reconcile loop is throttled well below the tick rate: it probes
  // every realtime node, which is pointless more than ~twice a second. A
  // round that throws is retried next tick, as any role's tick is.
  role.tick = [&subscriptions, &clock = p.clock,
               last = dpss::TimeMs{0}]() mutable {
    if (clock.nowMs() - last < 500) return;
    subscriptions.reconcile();
    last = clock.nowMs();
  };
  return role;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags f = parseFlags(argc, argv);
  const std::map<std::string, Role (*)(Process&)> roles = {
      {"substrate", substrateRole},   {"coordinator", coordinatorRole},
      {"historical", historicalRole}, {"realtime", realtimeRole},
      {"broker", brokerRole},
  };
  const auto build = roles.find(f.role);
  if (build == roles.end()) usage("unknown role " + f.role);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // The process-global registry collects everything recorded outside a
  // ScopedRegistry (net loop threads, the coordinator's whole plane);
  // name it after this node so merged /metrics label those series too.
  // Safe here: no other thread exists yet.
  obs::globalRegistry().setNodeName(f.name);

  try {
    Process process(f);
    process.run(build->second(process));
  } catch (const dpss::Error& e) {
    std::cerr << "dpss_node '" << f.name << "': " << e.what() << std::endl;
    return 1;
  }
  return 0;
}
