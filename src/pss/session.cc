#include "pss/session.h"

#include "common/error.h"
#include "common/logging.h"

namespace dpss::pss {

PrivateSearchClient::PrivateSearchClient(const Dictionary& dict,
                                         SearchParams params,
                                         std::size_t modulusBits,
                                         std::uint64_t seed)
    : dict_(dict), params_(params), rng_(seed),
      keys_(crypto::generateKeyPair(modulusBits, rng_)) {
  params_.validate();
}

EncryptedQuery PrivateSearchClient::makeQuery(
    const std::set<std::string>& keywords) {
  return buildQuery(dict_, keywords, keys_.get().pub, params_, rng_);
}

std::vector<RecoveredSegment> PrivateSearchClient::openDocuments(
    const SearchResultEnvelope& env,
    const std::set<std::string>& keywords) const {
  std::vector<RecoveredSegment> groups = open(env);
  if (env.packFactor <= 1) return groups;
  std::vector<RecoveredSegment> docs;
  for (const auto& group : groups) {
    // Escape hatch (lint-audited): splitting a reconstructed pack group
    // back into documents is client-side reconstruction by definition.
    std::vector<std::string> members =
        unpackPayloads(group.payload.releaseForClientReconstruction());
    const std::uint64_t base =
        env.firstDocIndex + (group.index - env.firstIndex) * env.packFactor;
    for (std::size_t o = 0; o < members.size(); ++o) {
      // The per-document c-value: |K ∩ W_doc| over the dictionary, same
      // count the broker would have folded had this document been its
      // own segment. Zero means the document only rode along in a
      // matched group.
      std::uint64_t c = 0;
      for (const auto& w : distinctWords(members[o])) {
        if (keywords.contains(w) && dict_.contains(w)) ++c;
      }
      if (c == 0) continue;
      RecoveredSegment doc;
      doc.index = base + o;
      doc.cValue = c;
      doc.payload = crypto::PlaintextBytes(std::move(members[o]));
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

std::vector<RecoveredSegment> runThresholdSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    std::uint64_t threshold, const std::vector<std::string>& payloads,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries,
    std::size_t packFactor) {
  DPSS_CHECK_MSG(threshold >= 1, "threshold must be at least 1");
  auto results =
      runPrivateSearchPacked(client, keywords, payloads, packFactor,
                             blocksPerSegment, brokerRng, maxRetries);
  std::erase_if(results, [threshold](const RecoveredSegment& r) {
    return r.cValue < threshold;
  });
  return results;
}

std::vector<RecoveredSegment> runPrivateSearchPacked(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads, std::size_t packFactor,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries) {
  const EncryptedQuery query = client.makeQuery(keywords);
  for (int attempt = 0;; ++attempt) {
    const SearchResultEnvelope env =
        foldSlice(client.dictionary(), query, payloads, /*baseIndex=*/0,
                  packFactor, blocksPerSegment, brokerRng);
    try {
      return client.openDocuments(env, keywords);
    } catch (const CryptoError& e) {
      if (attempt >= maxRetries) throw;
      DPSS_LOG(Warn) << "singular reconstruction matrix, retrying batch ("
                     << e.what() << ")";
    }
  }
}

std::vector<RecoveredSegment> runPrivateSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads, std::size_t blocksPerSegment,
    Rng& brokerRng, int maxRetries) {
  return runPrivateSearchPacked(client, keywords, payloads, /*packFactor=*/1,
                                blocksPerSegment, brokerRng, maxRetries);
}

}  // namespace dpss::pss
