// Pins the historical node's kPssSearch answer to the in-process slice
// fold: for a fixed broker seed the envelope a node returns over the
// transport is byte-for-byte pss::foldSlice over the same slice, unpacked
// and packed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "pss/session.h"

namespace dpss::cluster {
namespace {

TEST(PssSlicePin, HistoricalEnvelopeEqualsInProcessSliceFold) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  const pss::Dictionary dict({"breach", "leak", "normal", "virus"});
  const pss::SearchParams params{
      .bufferLength = 8, .indexBufferLength = 128, .bloomHashes = 3};
  pss::PrivateSearchClient client(dict, params, 128, /*seed=*/4242);
  const pss::EncryptedQuery query = client.makeQuery({"virus", "leak"});

  std::vector<std::string> docs;
  for (int i = 0; i < 30; ++i) {
    docs.push_back(i % 7 == 3 ? "virus seen on host " + std::to_string(i)
                              : "normal line " + std::to_string(i));
  }
  constexpr std::uint64_t kBase = 500;
  HistoricalNode& node = cluster.historical(0);
  node.loadDocuments("log", kBase, docs);

  std::size_t maxPayload = 0;
  for (const auto& d : docs) maxPayload = std::max(maxPayload, d.size());
  const pss::BlockCodec codec(pss::BlockCodec::maxBlockBytesFor(
      query.publicKey().modulusBits()));
  constexpr std::uint64_t kSeed = 0x5eed;
  for (const std::size_t pack : {std::size_t{1}, std::size_t{3}}) {
    // s as the broker sizes it: the worst-case group of `pack` documents.
    const std::size_t blocks = codec.blockCount(
        pack > 1 ? pss::maxPackedBytes(pack, maxPayload) : maxPayload);
    // The request exactly as BrokerNode::privateSearch builds it.
    ByteWriter req;
    req.u8(rpc::kPssSearch);
    req.str("log");
    req.varint(dict.size());
    for (const auto& word : dict.words()) req.str(word);
    query.serialize(req);
    req.varint(blocks);
    req.u64(kSeed);
    req.varint(pack);
    const std::string got =
        cluster.transport().call(node.name(), req.take());

    Rng rng(kSeed);
    ByteWriter want;
    pss::foldSlice(dict, query, docs, kBase, pack, blocks, rng)
        .serialize(want);
    EXPECT_EQ(got, want.take()) << "pack=" << pack;
  }
}

}  // namespace
}  // namespace dpss::cluster
