// Concurrency and equivalence tests for the serial slice fold and the
// randomizer pool — the TSan subset runs these (scripts/check.sh tsan).
// Every slice folds through one serial function (pss::foldSlice); the
// only concurrency is independent searchers folding at once, which share
// the process-wide metrics registry.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/randomizer_pool.h"
#include "pss/dictionary.h"
#include "pss/query.h"
#include "pss/searcher.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

const std::vector<std::string> kDict = {"alpha", "breach", "cipher", "delta",
                                        "echo",  "fox",    "golf",   "hotel"};

std::vector<std::string> makeStream(int docs) {
  std::vector<std::string> stream;
  for (int i = 0; i < docs; ++i) {
    stream.push_back(i % 5 == 2 ? "breach detected in cipher " +
                                      std::to_string(i)
                                : "routine entry " + std::to_string(i));
  }
  return stream;
}

std::string envelopeBytes(const SearchResultEnvelope& env) {
  ByteWriter w;
  env.serialize(w);
  return w.take();
}

// Runs one batch over the stream; everything (key, query, broker rng) is
// pinned so envelopes are comparable. Takes the query by value-copy from
// a shared const original: makeQuery consumes client randomness, so
// callers build it exactly once.
std::string runBatch(const Dictionary& dict, const EncryptedQuery& query) {
  Rng brokerRng(4242);
  StreamSearcher searcher(dict, query, /*blocks=*/3, brokerRng);
  const auto stream = makeStream(40);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  return envelopeBytes(searcher.finish());
}

TEST(FoldConcurrency, ConcurrentSearchersFoldIndependently) {
  // Four searchers folding at once — a historical node answering
  // overlapping kPssSearch RPCs, one handler thread each. They share only
  // the metrics registry; each must produce the envelope it would alone.
  const Dictionary dict(kDict);
  const SearchParams params{
      .bufferLength = 8, .indexBufferLength = 96, .bloomHashes = 3};
  PrivateSearchClient client(dict, params, 128, /*seed=*/99);
  const EncryptedQuery query = client.makeQuery({"breach"});
  const std::string alone = runBatch(dict, query);

  std::vector<std::string> got(4);
  {
    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < got.size(); ++t) {
      drivers.emplace_back([&, t] { got[t] = runBatch(dict, query); });
    }
    for (auto& d : drivers) d.join();
  }
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], alone) << "driver " << t;
  }
}

TEST(FoldConcurrency, SliceFoldAtBaseOpensLikeSession) {
  // A slice at stream offset 1000 — what a historical node holding the
  // second slice folds — opens to the session's documents with every
  // index shifted by the base, unpacked and packed alike.
  const Dictionary dict(kDict);
  // 36 docs packed at 2 = 18 groups; every i%5==2 doc matches, and those
  // land in 7 distinct groups (7 documents unpacked), so l_F must exceed 7.
  const SearchParams params{
      .bufferLength = 10, .indexBufferLength = 96, .bloomHashes = 3};
  const auto stream = makeStream(36);
  constexpr std::uint64_t kBase = 1000;

  for (const std::size_t pack : {std::size_t{1}, std::size_t{2}}) {
    PrivateSearchClient client(dict, params, 128, /*seed=*/31);
    Rng sessionRng(111);
    const auto want = runPrivateSearchPacked(client, {"breach"}, stream, pack,
                                             0, sessionRng);
    ASSERT_EQ(want.size(), 7u) << "pack=" << pack;

    PrivateSearchClient client2(dict, params, 128, /*seed=*/31);
    Rng sliceRng(111);
    const SearchResultEnvelope env =
        foldSlice(dict, client2.makeQuery({"breach"}), stream, kBase, pack,
                  /*blocksPerSegment=*/0, sliceRng);
    EXPECT_EQ(env.packFactor, pack);
    EXPECT_EQ(env.firstDocIndex, kBase);
    EXPECT_EQ(env.documentCount, stream.size());
    const auto got = client2.openDocuments(env, {"breach"});

    ASSERT_EQ(got.size(), want.size()) << "pack=" << pack;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index + kBase);
      EXPECT_EQ(got[i].cValue, want[i].cValue);
      EXPECT_EQ(got[i].payload, want[i].payload);
    }
  }
}

TEST(RandomizerPoolConcurrency, ConcurrentRefillAndDrain) {
  Rng keyRng(2026);
  const auto kp = crypto::generateKeyPair(128, keyRng);
  Rng poolRng(55);
  crypto::RandomizerPool pool(kp.pub, poolRng);

  constexpr int kRefillers = 3, kDrainers = 3, kPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kRefillers; ++t) {
    threads.emplace_back([&] { pool.refill(kPerThread); });
  }
  std::vector<std::vector<crypto::Bigint>> drained(kDrainers);
  for (int t = 0; t < kDrainers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        drained[t].push_back(
            kp.priv.decrypt(pool.encrypt(crypto::Bigint(100 * t + i))));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every drain decrypted correctly regardless of hit/miss interleaving.
  for (int t = 0; t < kDrainers; ++t) {
    ASSERT_EQ(drained[t].size(), static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(drained[t][i], crypto::Bigint(100 * t + i));
    }
  }
  EXPECT_EQ(pool.pooledHits() + pool.misses(),
            static_cast<std::size_t>(kDrainers * kPerThread));
}

}  // namespace
}  // namespace dpss::pss
