// High-level client-side API tying the pieces together.
//
// PrivateSearchClient owns the key pair and parameters; runPrivateSearch
// drives one full round (query → broker stream search → reconstruction)
// over an in-memory stream, retrying with a fresh PRF seed in the
// cryptographically-unlikely event of a singular reconstruction matrix.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/paillier.h"
#include "pss/dictionary.h"
#include "pss/params.h"
#include "pss/query.h"
#include "pss/reconstruct.h"
#include "pss/searcher.h"

namespace dpss::pss {

class PrivateSearchClient {
 public:
  /// Generates a fresh Paillier key pair of `modulusBits` bits.
  PrivateSearchClient(const Dictionary& dict, SearchParams params,
                      std::size_t modulusBits, std::uint64_t seed);

  /// Step 1: the encrypted query for a keyword disjunction.
  EncryptedQuery makeQuery(const std::set<std::string>& keywords);

  /// Steps 3–4: open a broker result envelope.
  std::vector<RecoveredSegment> open(const SearchResultEnvelope& env) const {
    return Reconstructor(keys_.get().priv).reconstruct(env);
  }

  /// Steps 3–4 plus unpacking: opens an envelope whose segments each pack
  /// env.packFactor consecutive documents, splits the groups back into
  /// documents, and recomputes each document's c-value from the query
  /// keywords (the reconstructed c-value belongs to the whole group).
  /// Documents matching no keyword — riders in a matched group — are
  /// dropped. For unpacked envelopes this is exactly open().
  std::vector<RecoveredSegment> openDocuments(
      const SearchResultEnvelope& env,
      const std::set<std::string>& keywords) const;

  const crypto::PaillierPublicKey& publicKey() const { return keys_.get().pub; }
  const crypto::PaillierPrivateKey& privateKey() const {
    return keys_.get().priv;
  }
  const Dictionary& dictionary() const { return dict_; }
  const SearchParams& params() const { return params_; }

 private:
  const Dictionary& dict_;
  SearchParams params_;
  Rng rng_;
  // TrustedOnly: a server-role translation unit (broker/historical/
  // realtime/coordinator, DPSS_SERVER_ROLE_TU) cannot construct this
  // client — the key pair is compile-time confined to the trusted zone.
  crypto::TrustedOnly<crypto::PaillierKeyPair> keys_;
};

/// One full private-search round over an in-memory stream of payloads
/// (payload i has stream index i). `blocksPerSegment` must fit the
/// largest payload; pass 0 to auto-size it from the stream. Retries the
/// whole batch up to `maxRetries` times on a singular reconstruction
/// matrix.
std::vector<RecoveredSegment> runPrivateSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries = 3);

/// Packed variant of runPrivateSearch: every `packFactor` consecutive
/// documents share one plaintext segment group (pss::packPayloads), so
/// the broker folds and the client decrypts ~packFactor× fewer
/// ciphertexts per document. The group's keyword set is the union over
/// its members; the client unpacks and recomputes per-document c-values.
/// packFactor <= 1 is exactly runPrivateSearch. Both fold through
/// pss::foldSlice and share this one retry loop. Note the buffer-sizing
/// constraint applies to *groups*: ⌈payloads/packFactor⌉ must still
/// exceed l_F.
std::vector<RecoveredSegment> runPrivateSearchPacked(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads, std::size_t packFactor,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries = 3);

/// (t, n)-threshold searching (the extension of Yi & Xing the paper's
/// related work describes): return only documents matching at least
/// `threshold` distinct query keywords. The disjunctive scheme already
/// recovers c_i = |K ∩ W_i| per match, so thresholding is a client-side
/// filter — no change to the broker protocol and no dictionary growth.
std::vector<RecoveredSegment> runThresholdSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    std::uint64_t threshold, const std::vector<std::string>& payloads,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries = 3,
    std::size_t packFactor = 1);

}  // namespace dpss::pss
