#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oracle_harness.h"
#include "workload/generator.h"

namespace ttra {
namespace {

using oracle::EncodeState;

// Differential concurrency oracle. Many producer threads push random
// sentences through the sharded group-commit executor while many reader
// threads sample pinned sessions. Afterwards the shard write-ahead logs —
// which record the committed order verbatim — are read back, merged and
// replayed through the oracle harness's serial oracle (DESIGN.md §7). The
// contract under test:
//
//  1. the concurrent final database equals the serial replay of the
//     committed order, byte for byte and under ρ at every epoch (every
//     batch is equivalent to some serial C⟦·⟧ order, and the WAL names
//     that order);
//  2. every view a session observed at epoch N equals ρ(I, N) evaluated
//     against the replayed database (epoch pinning = the rollback
//     operator as snapshot-isolation spec);
//  3. the logged transaction numbers chain gap-free: each committed
//     batch's base equals the replay's transaction number — ONE total
//     order merged from N shard WALs, byte-equal to serial execution.
//
// The single-shard leg (the `ttra run --group-commit` configuration) and
// the multi-shard legs are separate suites over the same seeds. Each runs
// as 10 fixed ctest shards that together sweep
// TTRA_ORACLE_SEEDS seeds (read at RUN time; default 50 — tools/check.sh
// --stress raises it). Designed to run under TSan: fixed iteration
// counts, no sleeps, all waiting via futures/Drain.

constexpr int kOracleShards = 10;

constexpr int kProducers = 4;
constexpr int kReaders = 4;
constexpr int kSentencesPerProducer = 10;
constexpr int kReadsPerReader = 24;

struct Relation {
  std::string name;
  RelationType type;
  Schema schema;
};

// What one reader observed: relation `rel` through a session pinned at
// `epoch`. The state is kept encoded so views are cheap to store and
// compare exactly.
struct View {
  TransactionNumber epoch = 0;
  size_t rel = 0;
  bool ok = false;
  std::string error;    // status message when !ok (for diagnostics)
  std::string encoded;  // EncodeSnapshotState / EncodeHistoricalState
};

/// Fixed catalog: three rollback relations plus one temporal, seeded
/// synchronously so every reader view is over a defined relation.
void SeedCatalog(ShardedExecutor& exec, workload::Generator& setup,
                 std::vector<Relation>& catalog) {
  for (int i = 0; i < 3; ++i) {
    catalog.push_back(Relation{"r" + std::to_string(i),
                               RelationType::kRollback,
                               setup.RandomSchema(2)});
  }
  catalog.push_back(Relation{"t0", RelationType::kTemporal,
                             setup.RandomSchema(2)});
  for (const Relation& rel : catalog) {
    ASSERT_TRUE(
        exec.Submit(Command{DefineRelationCmd{rel.name, rel.type, rel.schema}})
            .ok());
    Command initial =
        rel.type == RelationType::kTemporal
            ? Command{ModifyHistoricalCmd{
                  rel.name, setup.RandomHistoricalState(rel.schema, 3)}}
            : Command{ModifySnapshotCmd{rel.name,
                                        setup.RandomState(rel.schema, 3)}};
    ASSERT_TRUE(exec.Submit(std::move(initial)).ok());
  }
}

/// Producers push random sentences (mixing plain/atomic submits,
/// successful updates, and deliberate failures) while readers sample
/// pinned sessions concurrently.
void DriveWorkload(ShardedExecutor& exec, uint64_t seed,
                   const workload::GeneratorOptions& gen_options,
                   const std::vector<Relation>& catalog,
                   std::vector<std::vector<View>>& observed,
                   std::atomic<uint64_t>& acked_ok,
                   std::atomic<uint64_t>& acked_err) {
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      workload::Generator gen(seed * 1000 + static_cast<uint64_t>(p) + 1,
                              gen_options);
      std::vector<std::future<Result<TransactionNumber>>> futures;
      for (int i = 0; i < kSentencesPerProducer; ++i) {
        const Relation& rel = catalog[gen.rng().Uniform(catalog.size())];
        std::vector<Command> sentence;
        bool atomic = false;
        const uint64_t kind = gen.rng().Uniform(10);
        auto modify = [&](const Relation& r) -> Command {
          if (r.type == RelationType::kTemporal) {
            return ModifyHistoricalCmd{
                r.name,
                gen.RandomHistoricalState(r.schema, gen.rng().Uniform(5))};
          }
          return ModifySnapshotCmd{
              r.name, gen.RandomState(r.schema, gen.rng().Uniform(5))};
        };
        if (kind < 6) {
          sentence.push_back(modify(rel));
        } else if (kind < 8) {
          // Multi-command sentence; the middle command fails (duplicate
          // define). Plain submit → paper sequencing keeps the flanking
          // effects; atomic submit → all three roll back. For the sharded
          // executor the third command usually lands on ANOTHER shard —
          // this is the cross-shard two-phase traffic.
          atomic = gen.rng().Bernoulli(0.5);
          sentence.push_back(modify(rel));
          sentence.push_back(
              DefineRelationCmd{rel.name, rel.type, rel.schema});
          sentence.push_back(modify(catalog[gen.rng().Uniform(3)]));
        } else {
          // Pure error sentence: no effect either way.
          sentence.push_back(
              DefineRelationCmd{rel.name, rel.type, rel.schema});
        }
        futures.push_back(exec.SubmitAsync(std::move(sentence), atomic));
        if (gen.rng().Bernoulli(0.25)) {
          // Occasionally wait inline so this producer's next sentence
          // lands in a later batch (read-your-writes pressure).
          futures.back().get().ok() ? ++acked_ok : ++acked_err;
          futures.pop_back();
        }
      }
      for (auto& f : futures) f.get().ok() ? ++acked_ok : ++acked_err;
    });
  }

  // Readers: sample sessions concurrently with commits. Each view must be
  // internally consistent now, and must match the serial oracle later.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      for (int i = 0; i < kReadsPerReader; ++i) {
        Session session = exec.OpenSession();
        const size_t rel_index =
            (static_cast<size_t>(r) + static_cast<size_t>(i)) %
            catalog.size();
        const Relation& rel = catalog[rel_index];
        View view;
        view.epoch = session.epoch();
        view.rel = rel_index;
        if (rel.type == RelationType::kTemporal) {
          Result<HistoricalState> now = session.RollbackHistorical(rel.name);
          Result<HistoricalState> pinned =
              session.RollbackHistorical(rel.name, session.epoch());
          ASSERT_EQ(now.ok(), pinned.ok());
          if (now.ok()) {
            // nullopt ("current") and the explicit epoch must agree: the
            // snapshot's present IS the epoch.
            ASSERT_EQ(EncodeState(*now), EncodeState(*pinned));
            view.ok = true;
            view.encoded = EncodeState(*now);
          } else {
            view.error = now.status().message();
          }
          // Beyond the pin is rejected, never answered.
          ASSERT_FALSE(
              session.RollbackHistorical(rel.name, session.epoch() + 1).ok());
        } else {
          Result<SnapshotState> now = session.Rollback(rel.name);
          Result<SnapshotState> pinned =
              session.Rollback(rel.name, session.epoch());
          ASSERT_EQ(now.ok(), pinned.ok());
          if (now.ok()) {
            ASSERT_EQ(EncodeState(*now), EncodeState(*pinned));
            view.ok = true;
            view.encoded = EncodeState(*now);
          } else {
            view.error = now.status().message();
          }
          ASSERT_FALSE(session.Rollback(rel.name, session.epoch() + 1).ok());
        }
        observed[static_cast<size_t>(r)].push_back(std::move(view));
      }
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();
}

/// Contract 2: every observed view equals ρ(I, N) against the replayed
/// history. Nothing was deleted, so the final database answers every
/// epoch the readers pinned.
void VerifyViews(const Database& replay_db,
                 const std::vector<Relation>& catalog,
                 const std::vector<std::vector<View>>& observed) {
  for (const auto& per_reader : observed) {
    for (const View& view : per_reader) {
      const Relation& rel = catalog[view.rel];
      SCOPED_TRACE("rel=" + rel.name +
                   " epoch=" + std::to_string(view.epoch));
      auto expect_view = [&](const auto& oracle) {
        ASSERT_EQ(oracle.ok(), view.ok)
            << (view.ok ? oracle.status().message() : view.error);
        if (oracle.ok()) {
          ASSERT_EQ(EncodeState(*oracle), view.encoded);
        }
      };
      if (rel.type == RelationType::kTemporal) {
        expect_view(replay_db.RollbackHistorical(rel.name, view.epoch));
      } else {
        expect_view(replay_db.Rollback(rel.name, view.epoch));
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

void RunShardedOracleSeed(uint64_t seed, size_t nshards) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(nshards));

  InMemoryEnv env;
  ShardedOptions options;
  options.durable.db.storage = oracle::kStorageKinds[seed % 4];
  options.durable.db.checkpoint_interval = 4;
  if (seed % 2 == 1) options.durable.db.findstate_cache_capacity = 2;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_batch = 8;
  options.group_commit.max_latency = std::chrono::microseconds(500);
  options.shards = nshards;

  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_EQ(exec.shards(), nshards);

  workload::GeneratorOptions gen_options;
  gen_options.value_range = 10;
  workload::Generator setup(seed, gen_options);
  std::vector<Relation> catalog;
  SeedCatalog(exec, setup, catalog);
  if (::testing::Test::HasFatalFailure()) return;

  std::vector<std::vector<View>> observed(kReaders);
  std::atomic<uint64_t> acked_ok{0};
  std::atomic<uint64_t> acked_err{0};
  DriveWorkload(exec, seed, gen_options, catalog, observed, acked_ok,
                acked_err);
  ASSERT_TRUE(exec.Drain().ok());
  ASSERT_TRUE(exec.healthy());

  const uint64_t total_submitted =
      static_cast<uint64_t>(2 * catalog.size()) +
      static_cast<uint64_t>(kProducers) * kSentencesPerProducer;
  EXPECT_EQ(acked_ok.load() + acked_err.load(),
            static_cast<uint64_t>(kProducers) * kSentencesPerProducer);

  ShardedExecutor::Stats stats = exec.stats();
  EXPECT_EQ(stats.commits, total_submitted);
  EXPECT_GE(stats.batches, 1u);
  ASSERT_EQ(stats.per_shard.size(), nshards);
  uint64_t shard_batches = 0;
  uint64_t shard_records = 0;
  uint64_t shard_syncs = 0;
  uint64_t cross_marks = 0;
  for (const ShardedExecutor::ShardStats& per : stats.per_shard) {
    shard_batches += per.batches;
    shard_records += per.wal.records;
    shard_syncs += per.wal.syncs;
    cross_marks += per.cross_prepares;
  }
  EXPECT_EQ(shard_batches, stats.batches);
  // Physical accounting under kAlways: every batch costs exactly one
  // prepare record, one commit record and ONE fsync on its home shard,
  // plus one durable cross-prepare marker per extra touched shard.
  EXPECT_EQ(shard_records, 2 * stats.batches + cross_marks);
  EXPECT_EQ(shard_syncs, stats.batches + cross_marks);
  // The advisory coordinator logged the whole order without ack-path
  // fsyncs (Stop() performs the final lazy sync).
  EXPECT_EQ(stats.coordinator_records, stats.batches);
  if (nshards == 1) {
    EXPECT_EQ(stats.cross_shard_batches, 0u);
    EXPECT_EQ(cross_marks, 0u);
  }

  const Database final_db = exec.Snapshot();
  exec.Stop();

  // Read the committed order back from every shard WAL + the coordinator
  // log and replay it through the serial oracle.
  oracle::CommittedOrder order;
  oracle::ReadCommittedOrder(env, "db", nshards, order);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(order.torn_tail);
  EXPECT_EQ(order.batches.size(), stats.batches);
  for (const oracle::CommittedBatch& batch : order.batches) {
    SCOPED_TRACE("shard=" + std::to_string(batch.shard) +
                 " seq=" + std::to_string(batch.seq));
    const auto coord = order.coordinator.find({batch.shard, batch.seq});
    ASSERT_NE(coord, order.coordinator.end())
        << "coordinator lost a committed batch";
    EXPECT_EQ(coord->second.base_txn, batch.base);
    EXPECT_EQ(coord->second.post_txn, batch.post);
    EXPECT_EQ(coord->second.count, batch.entries.size());
  }
  // Contract 3 (sharded form): the merged order is gap-free — each batch
  // starts exactly where the serial replay stands, so the N sequence
  // spaces reassemble into ONE strictly-increasing transaction-number
  // order.
  oracle::OracleRun replay;
  oracle::ReplayChain(order.batches, Database(options.durable.db), replay);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(replay.acks.size(), total_submitted);

  // Contract 1: byte-equal databases, equal under ρ at every epoch.
  ASSERT_EQ(replay.prefixes.back(), EncodeDatabase(final_db));
  oracle::ExpectSameHistory(replay.final_db, final_db);

  VerifyViews(replay.final_db, catalog, observed);
}

/// Sweeps this ctest shard's seeds at every writer-shard count given.
void RunOracleShard(int shard, std::initializer_list<size_t> shard_counts) {
  oracle::ForEachSeed(shard, oracle::SeedCount("TTRA_ORACLE_SEEDS", 50),
                      kOracleShards, [&](uint64_t seed) {
                        for (const size_t nshards : shard_counts) {
                          RunShardedOracleSeed(seed, nshards);
                          if (::testing::Test::HasFatalFailure()) return;
                        }
                      });
}

// One writer shard: the single-writer group-commit configuration.
class ConcurrentOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentOracleTest, MatchesSerialReplayOfCommittedOrder) {
  RunOracleShard(GetParam(), {1});
}

INSTANTIATE_TEST_SUITE_P(Shards, ConcurrentOracleTest,
                         ::testing::Range(0, kOracleShards));

class ShardedOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedOracleTest, MergedOrderMatchesSerialReplay) {
  RunOracleShard(GetParam(), {2, 4});
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedOracleTest,
                         ::testing::Range(0, kOracleShards));

}  // namespace
}  // namespace ttra
