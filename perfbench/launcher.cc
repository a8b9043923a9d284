#include "launcher.h"

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <set>
#include <stdexcept>

#include "common.h"
#include "common/clock.h"
#include "common/error.h"
#include "net/control.h"
#include "net/socket.h"
#include "net/substrate.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

using dpss::SystemClock;

/// A loopback port nothing listens on, below the kernel's ephemeral
/// range. A node binds its port only after it started, and in that gap an
/// ephemeral port could be handed to an outgoing connection (the load
/// generator dials every node while it comes up); ports below the range
/// are never handed out that way.
std::uint16_t freePort(std::set<std::uint16_t>& taken) {
  int ephemeralLow = 32768;
  std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> ephemeralLow;
  constexpr int kLow = 10000;
  if (ephemeralLow - kLow < 1000) {
    throw std::runtime_error("no port range below the ephemeral ports");
  }
  std::mt19937 rng(std::random_device{}());
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto port = static_cast<std::uint16_t>(
        kLow + static_cast<int>(rng() % static_cast<unsigned>(ephemeralLow - kLow)));
    if (!taken.insert(port).second) continue;
    try {
      dpss::net::listenOn("127.0.0.1", port);  // closed again at once
      return port;
    } catch (const dpss::Error&) {
      // In use: try another.
    }
  }
  throw std::runtime_error("no free loopback port");
}

std::string httpGet(std::uint16_t port, const std::string& path) {
  dpss::Clock& clock = SystemClock::instance();
  const dpss::TimeMs deadlineAt = clock.nowMs() + 5'000;
  dpss::net::Fd fd =
      dpss::net::connectWithDeadline({"127.0.0.1", port}, clock, deadlineAt);
  dpss::net::sendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n", clock,
                     deadlineAt);
  std::string response;
  for (;;) {
    const std::string chunk = dpss::net::recvSome(fd, clock, deadlineAt);
    if (chunk.empty()) break;  // the admin server closes after one answer
    response += chunk;
  }
  const std::size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 200", 0) != 0 || body == std::string::npos) {
    throw dpss::Unavailable("admin GET " + path + " failed");
  }
  return response.substr(body + 4);
}

/// The number after `"key":` at or after `from`, or -1 when absent.
double numberAfter(const std::string& s, const std::string& key,
                   std::size_t from, std::size_t until) {
  const std::size_t at = s.find("\"" + key + "\":", from);
  if (at == std::string::npos || at >= until) return -1;
  return std::strtod(s.c_str() + at + key.size() + 3, nullptr);
}

std::string describeStatus(int status, bool killed) {
  std::string out;
  if (WIFEXITED(status)) {
    out = "exit " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    out = "signal " + std::to_string(WTERMSIG(status));
  } else {
    out = "status " + std::to_string(status);
  }
  if (killed) out += " (killed after the shutdown deadline)";
  return out;
}

/// The metrics this process recorded outside any node scope.
NodeMetrics localMetrics() {
  NodeMetrics out;
  for (const auto& s : dpss::obs::globalRegistry().snapshot().samples) {
    Cell& cell = out[s.name];
    cell.value += s.kind == dpss::obs::MetricKind::kGauge
                      ? static_cast<double>(s.gaugeValue)
                      : static_cast<double>(s.counterValue);
    cell.count += static_cast<double>(s.histogram.count);
    cell.sum += static_cast<double>(s.histogram.sum);
  }
  return out;
}

}  // namespace

double ClusterMetrics::total(const std::string& metric, Field field,
                             const std::string& nodePrefix) const {
  double sum = 0;
  for (const auto& [node, metrics] : nodes) {
    if (node.rfind(nodePrefix, 0) != 0) continue;
    const auto it = metrics.find(metric);
    if (it == metrics.end()) continue;
    sum += field == Field::kValue   ? it->second.value
           : field == Field::kCount ? it->second.count
                                    : it->second.sum;
  }
  return sum;
}

double delta(const ClusterMetrics& before, const ClusterMetrics& after,
             const std::string& metric, ClusterMetrics::Field field,
             const std::string& nodePrefix) {
  return after.total(metric, field, nodePrefix) -
         before.total(metric, field, nodePrefix);
}

NodeMetrics parseMetricsJson(const std::string& body) {
  // {"nodes":[{"node":..,"metrics":[{"name":..,"kind":..,[labels,]
  //   "value":N | "count":N,"sum":N,...}, ...]}, ...]}
  NodeMetrics out;
  const std::string open = "{\"name\":\"";
  for (std::size_t at = body.find(open); at != std::string::npos;) {
    const std::size_t nameStart = at + open.size();
    const std::size_t nameEnd = body.find('"', nameStart);
    const std::size_t next = body.find(open, nameEnd);
    const std::size_t until = next == std::string::npos ? body.size() : next;
    Cell& cell = out[body.substr(nameStart, nameEnd - nameStart)];
    const double count = numberAfter(body, "count", nameEnd, until);
    if (count >= 0) {
      cell.count += count;
      cell.sum += numberAfter(body, "sum", nameEnd, until);
    } else {
      cell.value += std::max(0.0, numberAfter(body, "value", nameEnd, until));
    }
    at = next;
  }
  return out;
}

Cluster::Cluster(std::string nodeBin) : nodeBin_(std::move(nodeBin)) {}

Cluster::~Cluster() { shutdown(); }

void Cluster::add(const std::string& role, const std::string& name,
                  std::vector<std::string> extraFlags) {
  Node node;
  node.role = role;
  node.name = name;
  node.extraFlags = std::move(extraFlags);
  node.port = freePort(takenPorts_);
  node.adminPort = freePort(takenPorts_);
  nodes_.push_back(std::move(node));
}

void Cluster::start() {
  std::vector<std::pair<std::string, std::uint16_t>> wiring;
  for (const auto& node : nodes_) {
    if (node.role == "coordinator") {
      wiring.emplace_back(dpss::net::kSubstrateNode, node.port);
    }
    wiring.emplace_back(node.name, node.port);
  }
  transport_ =
      std::make_unique<dpss::net::NetTransport>(SystemClock::instance());
  transport_->start();
  for (const auto& [peer, port] : wiring) {
    transport_->addPeer(peer, "127.0.0.1:" + std::to_string(port));
    transport_->addPeer(dpss::net::controlNode(peer),
                        "127.0.0.1:" + std::to_string(port));
  }
  // The coordinator hosts the substrates every other role registers
  // with, so it is up before the rest start.
  for (const bool coordinators : {true, false}) {
    for (auto& node : nodes_) {
      if ((node.role == "coordinator") == coordinators) spawn(node, wiring);
    }
    for (auto& node : nodes_) {
      if ((node.role == "coordinator") == coordinators) awaitPing(node);
    }
  }
}

void Cluster::spawn(
    Node& node,
    const std::vector<std::pair<std::string, std::uint16_t>>& wiring) {
  // Span shipping is off: the benchmark measures the serving path, and
  // its per-layer numbers come from counters and its own timers.
  std::vector<std::string> argv = {
      nodeBin_,          "--role",         node.role,
      "--name",          node.name,        "--listen",
      "127.0.0.1:" + std::to_string(node.port),
      "--tick-ms",       "25",             "--sync-ms",
      "50",              "--heartbeat-ms", "200",
      "--lease-ms",      "3000",           "--rpc-deadline-ms",
      "10000",           "--trace-sink",   "",
      "--admin-port",    std::to_string(node.adminPort),
  };
  for (const auto& [peer, port] : wiring) {
    argv.push_back("--peer");
    argv.push_back(peer + "=127.0.0.1:" + std::to_string(port));
  }
  argv.insert(argv.end(), node.extraFlags.begin(), node.extraFlags.end());
  node.proc = dpss::net::Subprocess::spawn(argv);
}

void Cluster::awaitPing(Node& node) {
  dpss::Clock& clock = SystemClock::instance();
  const dpss::TimeMs deadline = clock.nowMs() + 20'000;
  for (;;) {
    try {
      dpss::net::controlPing(*transport_, node.name);
      return;
    } catch (const dpss::Error&) {
      if (!node.proc.running() || clock.nowMs() >= deadline) {
        throw std::runtime_error("node '" + node.name +
                                 "' never answered its control channel");
      }
      clock.sleepFor(20);
    }
  }
}

ClusterMetrics Cluster::scrape(bool includeNodes) {
  ClusterMetrics out;
  out.nodes["client"] = localMetrics();
  if (!includeNodes) return out;
  for (const auto& node : nodes_) {
    out.nodes[node.name] =
        parseMetricsJson(httpGet(node.adminPort, "/metrics.json"));
  }
  return out;
}

double Cluster::pingUs(const std::string& name) {
  return medianUs(200, [&] { dpss::net::controlPing(*transport_, name); });
}

std::string Cluster::adminGet(const std::string& name,
                              const std::string& path) {
  for (const auto& node : nodes_) {
    if (node.name == name) return httpGet(node.adminPort, path);
  }
  throw std::runtime_error("no node named " + name);
}

std::vector<std::string> Cluster::shutdown() {
  if (stopped_) return {};
  stopped_ = true;
  dpss::Clock& clock = SystemClock::instance();
  std::vector<std::string> report(nodes_.size());
  // Waits for `node` until `deadline`; SIGKILLs and reaps it past that.
  const auto reap = [&](std::size_t i, dpss::TimeMs deadline) {
    Node& node = nodes_[i];
    if (!node.proc.valid()) return;
    while (node.proc.running() && clock.nowMs() < deadline) {
      clock.sleepFor(10);
    }
    const bool killed = node.proc.running();
    if (killed) node.proc.kill();
    report[i] = node.name + "=" + describeStatus(node.proc.wait(), killed);
  };
  const auto requestStop = [&](const Node& node) {
    if (transport_ == nullptr || !node.proc.valid()) return;
    try {
      dpss::net::controlShutdown(*transport_, node.name);
    } catch (const dpss::Error&) {
      // Already gone or wedged: the deadline below SIGKILLs it.
    }
  };
  // Workers first: their graceful stop closes registry sessions on the
  // coordinator, which must still be up to answer.
  for (int coordinatorPass = 0; coordinatorPass < 2; ++coordinatorPass) {
    const bool wantCoordinator = coordinatorPass == 1;
    for (const auto& node : nodes_) {
      if ((node.role == "coordinator") == wantCoordinator) requestStop(node);
    }
    const dpss::TimeMs deadline = clock.nowMs() + 10'000;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if ((nodes_[i].role == "coordinator") == wantCoordinator) {
        reap(i, deadline);
      }
    }
  }
  if (transport_ != nullptr) transport_->stop();
  return report;
}

}  // namespace perfbench
