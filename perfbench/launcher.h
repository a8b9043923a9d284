// Launches a loopback cluster of real dpss_node processes, drives it over
// the same TCP wire a client uses, scrapes each node's /metrics.json and
// shuts everything down — graceful first, SIGKILL past a deadline — so no
// node outlives a run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/net_transport.h"
#include "net/subprocess.h"

namespace perfbench {

/// One metric summed over its label sets: counters and gauges in
/// `value`, histograms in `count` and `sum` (nanoseconds for *_ns).
struct Cell {
  double value = 0;
  double count = 0;
  double sum = 0;
};
using NodeMetrics = std::map<std::string, Cell>;

/// Metrics of several nodes at one instant, keyed by node name.
struct ClusterMetrics {
  std::map<std::string, NodeMetrics> nodes;

  enum class Field { kValue, kCount, kSum };
  /// Sum of `field` of `metric` over the nodes whose name starts with
  /// `nodePrefix` ("" = every node).
  double total(const std::string& metric, Field field,
               const std::string& nodePrefix = "") const;
};

/// `after - before` of ClusterMetrics::total.
double delta(const ClusterMetrics& before, const ClusterMetrics& after,
             const std::string& metric, ClusterMetrics::Field field,
             const std::string& nodePrefix = "");

/// Parses the admin plane's /metrics.json body into per-name sums.
NodeMetrics parseMetricsJson(const std::string& body);

class Cluster {
 public:
  explicit Cluster(std::string nodeBin);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Declares a node; it is spawned by start() with the full wiring.
  void add(const std::string& role, const std::string& name,
           std::vector<std::string> extraFlags = {});

  /// Spawns every declared node — the coordinator first — and waits
  /// until each control channel answers a ping (process up and bound).
  void start();

  dpss::net::NetTransport& transport() { return *transport_; }

  /// This process's own metrics (node "client": the load generator, e.g.
  /// net.client.bytes_in) and, with `includeNodes`, every node's
  /// /metrics.json, at this instant.
  ClusterMetrics scrape(bool includeNodes);

  /// Median control-channel ping round trip to `name`, in microseconds.
  double pingUs(const std::string& name);

  /// GET `path` from a node's admin port.
  std::string adminGet(const std::string& name, const std::string& path);

  /// Graceful shutdown (workers first, the coordinator last), then
  /// SIGKILL and reap anything still alive after the deadline. Returns
  /// one "name=<exit description>" entry per node. Idempotent.
  std::vector<std::string> shutdown();

 private:
  struct Node {
    std::string role;
    std::string name;
    std::vector<std::string> extraFlags;
    std::uint16_t port = 0;
    std::uint16_t adminPort = 0;
    dpss::net::Subprocess proc;
  };

  void spawn(Node& node,
             const std::vector<std::pair<std::string, std::uint16_t>>& wiring);
  void awaitPing(Node& node);

  std::string nodeBin_;
  std::vector<Node> nodes_;
  std::set<std::uint16_t> takenPorts_;
  std::unique_ptr<dpss::net::NetTransport> transport_;
  bool stopped_ = false;
};

}  // namespace perfbench
