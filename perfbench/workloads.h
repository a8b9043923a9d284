// The three workloads. Each launches its own cluster, proves it ready
// with a complete warm-up answer, runs a closed loop with one client for
// Args::seconds, checks every answer against a reference the benchmark
// computes itself, and — in a traced run — adds the per-layer numbers.
//
// Every workload reports the same end-to-end metrics, each meaning "per
// round of this workload's loop":
//   setup_s              process start to proven readiness
//   round_ms_p50         median round latency
//   items_per_s          work items completed per second
//   wire_bytes_per_round bytes the client received per round
#pragma once

#include <vector>

#include "common.h"
#include "crypto/paillier.h"
#include "pss/searcher.h"

namespace perfbench {

/// One private-search round over a 2x1000-document stream split across
/// two historicals (the paper's Fig. 7 path).
RunResult runPssSearch(const Args& args, SteadyClock::time_point start);

/// One round of Table II Q1-Q6 over 16 ad-tech segments served by two
/// historicals, broker result cache off (the paper's Table II path).
RunResult runScanTableII(const Args& args, SteadyClock::time_point start);

/// One event batch ingested into a realtime node hosting 16 standing
/// subscriptions, until every match is reconstructed exactly once.
RunResult runSubsIngest(const Args& args, SteadyClock::time_point start);

/// Every ciphertext an envelope carries (data, c and index buffers): the
/// client's decryption work for one envelope.
inline std::vector<dpss::crypto::Ciphertext> envelopeCiphertexts(
    const dpss::pss::SearchResultEnvelope& env) {
  const dpss::pss::SearchBuffers& b = env.buffers;
  std::vector<dpss::crypto::Ciphertext> out;
  for (std::size_t slot = 0; slot < b.bufferLength(); ++slot) {
    for (std::size_t block = 0; block < b.blocksPerSegment(); ++block) {
      out.push_back(b.data(slot, block));
    }
    out.push_back(b.c(slot));
  }
  for (std::size_t slot = 0; slot < b.indexBufferLength(); ++slot) {
    out.push_back(b.match(slot));
  }
  return out;
}

}  // namespace perfbench
