// Multi-threaded stress tests for the documented concurrency contracts:
//
//  * FindStateCache is thread-safe on its own (readers probe one relation
//    log concurrently while SerialExecutor holds only a shared lock);
//  * SerialExecutor serializes writers and runs readers concurrently, so
//    StateLog::StateAt (replay + cache fill) races only against other
//    readers, never against Append;
//  * states are copy-on-write — Snapshot()/Clone() hand immutable reps to
//    other threads, which evaluate operators on them concurrently;
//  * database versions share relations — the writer copies a relation
//    that an older session still reads, or changes it in place once the
//    last such session is gone (util/cow.h).
//
// The assertions are deliberately light: these tests earn their keep under
// ThreadSanitizer (cmake -DTTRA_SANITIZE=thread; tools/check.sh --tsan),
// where any data race in the cache, the replay engines, or the shared-rep
// refcounting is a hard failure. They still run (fast) unsanitized.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lang/evaluator.h"
#include "lang/parser.h"
#include "rollback/compact_store.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"
#include "snapshot/operators.h"
#include "storage/logs.h"

namespace ttra {
namespace {

constexpr int kReaderThreads = 4;
constexpr int kWriterCommits = 64;

Schema StressSchema() {
  return *Schema::Make({{"id", ValueType::kInt}, {"v", ValueType::kInt}});
}

SnapshotState StateOfSize(size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple{Value::Int(static_cast<int64_t>(i)),
                         Value::Int(static_cast<int64_t>(i * i))});
  }
  return *SnapshotState::Make(StressSchema(), std::move(rows));
}

TEST(TsanStressTest, FindStateCacheConcurrentProbesAndFills) {
  const FindStateCache<SnapshotState> cache(/*capacity=*/4);
  auto shared = std::make_shared<const SnapshotState>(StateOfSize(3));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads + 1);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&cache, &shared, &mismatches, t] {
      for (int i = 0; i < 500; ++i) {
        const size_t index = static_cast<size_t>((t * 31 + i) % 8);
        cache.Put(index, shared);
        if (auto hit = cache.Get(index); hit && hit->size() != 3) {
          mismatches.fetch_add(1);
        }
        if (auto floor = cache.Floor(index);
            floor && floor->second->size() != 3) {
          mismatches.fetch_add(1);
        }
        if (auto ceil = cache.Ceil(index); ceil && ceil->second->size() != 3) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // One thread keeps invalidating, as Append/ReplaceLast would.
  threads.emplace_back([&cache] {
    for (int i = 0; i < 500; ++i) cache.Clear();
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// One serialized writer appends states while readers replay historical
/// states through the engine's FindStateCache. Run for every storage
/// engine: full-copy shares entries directly; delta/checkpoint/
/// reverse-delta replay and fill the cache concurrently.
void HammerStateLog(StorageKind storage) {
  SerialExecutor exec(DatabaseOptions{.storage = storage,
                                      .checkpoint_interval = 4,
                                      .findstate_cache_capacity = 4});
  ASSERT_TRUE(exec.Submit([](Database& db) {
                    return db.DefineRelation("r", RelationType::kRollback,
                                             StressSchema());
                  })
                  .ok());

  // First commit lands before the readers start, so every probe has a
  // committed modify_state to aim at. Each reader then performs a FIXED
  // number of probes (rather than spinning until the writer finishes):
  // the shared_mutex has no fairness guarantee, and under the delta
  // engines replaying readers can otherwise starve the writer forever.
  ASSERT_TRUE(
      exec.Submit([](Database& db) { return db.ModifyState("r", StateOfSize(1)); })
          .ok());

  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&exec, &reader_errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 200; ++i) {
        const TransactionNumber now = exec.transaction_number();
        // Pseudo-random committed transaction in [2, now]: modify_state
        // commits start at txn 2, and commit c leaves c tuples... so the
        // state as of txn has txn - 1 tuples.
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        const TransactionNumber txn = 2 + (salt >> 33) % (now - 1);
        auto state = exec.Rollback("r", txn);
        if (!state.ok() || state->size() != txn - 1) {
          reader_errors.fetch_add(1);
        }
      }
    });
  }

  for (int commit = 2; commit <= kWriterCommits; ++commit) {
    ASSERT_TRUE(exec.Submit([commit](Database& db) {
                      return db.ModifyState(
                          "r", StateOfSize(static_cast<size_t>(commit)));
                    })
                    .ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(kWriterCommits + 1));
}

TEST(TsanStressTest, StateLogReadersVsWriterFullCopy) {
  HammerStateLog(StorageKind::kFullCopy);
}
TEST(TsanStressTest, StateLogReadersVsWriterDelta) {
  HammerStateLog(StorageKind::kDelta);
}
TEST(TsanStressTest, StateLogReadersVsWriterCheckpoint) {
  HammerStateLog(StorageKind::kCheckpoint);
}
TEST(TsanStressTest, StateLogReadersVsWriterReverseDelta) {
  HammerStateLog(StorageKind::kReverseDelta);
}

TEST(TsanStressTest, CowStatesSharedAcrossThreads) {
  SerialExecutor exec;
  ASSERT_TRUE(exec.Submit([](Database& db) {
                    TTRA_RETURN_IF_ERROR(db.DefineRelation(
                        "r", RelationType::kRollback, StressSchema()));
                    return db.ModifyState("r", StateOfSize(32));
                  })
                  .ok());
  // Every thread gets its own Database copy, but all copies share the same
  // immutable state reps; operator evaluation touches them concurrently.
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([db = exec.Snapshot(), &errors] {
      for (int i = 0; i < 100; ++i) {
        auto state = db.Rollback("r");
        if (!state.ok()) {
          errors.fetch_add(1);
          continue;
        }
        auto doubled = snapshot_ops::Union(*state, *state);
        auto projected = snapshot_ops::Project(*state, {"id"});
        if (!doubled.ok() || doubled->size() != 32 || !projected.ok() ||
            projected->size() != 32) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(TsanStressTest, LanguageEvalOnSharedSnapshots) {
  SerialExecutor exec;
  ASSERT_TRUE(exec.Submit([](Database& db) {
                    return lang::Run(R"(
      define_relation(emp, rollback, (name: string, salary: int));
      modify_state(emp, (name: string, salary: int)
                        {("ed", 100), ("amy", 120), ("bob", 90)});
    )",
                                     db);
                  })
                  .ok());
  auto program = lang::ParseProgram(
      "show(project[name](select[salary > 95](rho(emp, inf))))");
  ASSERT_TRUE(program.ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&exec, &program, &errors] {
      for (int i = 0; i < 100; ++i) {
        // Readers share the executor (shared lock) AND the parsed AST,
        // whose nodes are shared_ptr-counted across threads.
        Status status = exec.Read([&](const Database& db) {
          std::vector<lang::StateValue> outputs;
          Database view = db.Clone();  // clones share immutable state reps
          TTRA_RETURN_IF_ERROR(
              lang::ExecProgram(*program, view, &outputs));
          if (outputs.size() != 1 ||
              std::get<SnapshotState>(outputs[0]).size() != 2) {
            return InternalError("wrong query result");
          }
          return Status::Ok();
        });
        if (!status.ok()) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

/// The single-shard group-commit front-end under TSan: producer threads
/// race the writer thread through the bounded queue, readers open pinned
/// sessions while snapshots are republished, and a checkpointer competes
/// for the checkpoint gate. All waiting is condvar/future-based
/// (BoundedQueue, Drain, promise futures) — no sleeps, fixed iteration
/// counts — so the test is deterministic in coverage and cheap
/// unsanitized.
TEST(TsanStressTest, GroupCommitProducersReadersCheckpointer) {
  constexpr int kProducerThreads = 2;
  constexpr int kCommitsPerProducer = 32;

  InMemoryEnv env;
  ShardedOptions options;
  options.durable.db.findstate_cache_capacity = 4;
  options.group_commit.max_batch = 8;
  options.group_commit.max_latency = std::chrono::microseconds(100);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "r", RelationType::kRollback, StressSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"r", StateOfSize(1)}}).ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducerThreads + kReaderThreads + 1);
  for (int p = 0; p < kProducerThreads; ++p) {
    threads.emplace_back([&exec, &errors, p] {
      for (int i = 0; i < kCommitsPerProducer; ++i) {
        std::vector<Command> sentence;
        sentence.push_back(ModifySnapshotCmd{
            "r", StateOfSize(static_cast<size_t>((p + i) % 5))});
        auto txn = exec.SubmitAsync(std::move(sentence)).get();
        if (!txn.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&exec, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 200; ++i) {
        Session session = exec.OpenSession();
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        // Any committed modify_state (txn >= 2) up to the pin must
        // answer; beyond the pin must not.
        const TransactionNumber txn =
            2 + (salt >> 33) % (session.epoch() - 1);
        auto state = session.Rollback("r", txn);
        if (!state.ok() || state->size() >= 5) errors.fetch_add(1);
        if (session.Rollback("r", session.epoch() + 1).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Checkpointer: truncates the WAL under the commit lock while the
  // writer is group-committing and readers hold pinned snapshots.
  threads.emplace_back([&exec, &errors] {
    for (int i = 0; i < 8; ++i) {
      if (!exec.Checkpoint().ok()) errors.fetch_add(1);
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(exec.healthy());
  // Every modify_state succeeds and bumps the transaction number by one:
  // define + seed + all produced commits, in SOME serial order.
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(
                2 + kProducerThreads * kCommitsPerProducer));
  ShardedExecutor::Stats stats = exec.stats();
  EXPECT_EQ(stats.commits,
            static_cast<uint64_t>(2 + kProducerThreads * kCommitsPerProducer));
  EXPECT_LE(stats.per_shard[0].wal.syncs, stats.per_shard[0].wal.records);
  exec.Stop();
}

/// Structural sharing between versions. On ShardedExecutor each batch
/// applies to a clone of the chain tip that shares relation "r" with every
/// published version, so the writer's first change to r copies it (entry
/// pointers and the FINDSTATE cache) while readers on older sessions
/// replay r's history and fill that same cache; atomic sentences add the
/// per-entry clone of the batch version. SerialExecutor changes its
/// database in place: a reader's Snapshot() shares r until the reader
/// drops it, and the writer then appends to r in place. That write must
/// happen after every read made through the dropped snapshot, which only
/// the acquire ordering of the uniqueness test provides (the readers read
/// outside the executor's lock).
void CowRelationVsPinnedReaders(StorageKind storage) {
  InMemoryEnv env;
  ShardedOptions options;
  options.durable.db.storage = storage;
  options.durable.db.checkpoint_interval = 4;
  options.durable.db.findstate_cache_capacity = 4;
  options.group_commit.max_batch = 4;
  options.group_commit.max_latency = std::chrono::microseconds(50);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "r", RelationType::kRollback, StressSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"r", StateOfSize(1)}}).ok());

  // As in HammerStateLog: commit c writes c tuples at txn c + 1, so the
  // state as of txn has txn - 1 tuples.
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&exec, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 50; ++i) {
        const Session session = exec.OpenSession();
        for (int probe = 0; probe < 4; ++probe) {
          salt = salt * 6364136223846793005u + 1442695040888963407u;
          const TransactionNumber txn =
              2 + (salt >> 33) % (session.epoch() - 1);
          auto state = session.Rollback("r", txn);
          if (!state.ok() || state->size() != txn - 1) errors.fetch_add(1);
        }
      }
    });
  }
  for (int commit = 2; commit <= kWriterCommits; ++commit) {
    std::vector<Command> sentence;
    sentence.push_back(
        ModifySnapshotCmd{"r", StateOfSize(static_cast<size_t>(commit))});
    auto txn = commit % 4 == 0 ? exec.SubmitAtomic(std::move(sentence))
                               : exec.Submit(std::move(sentence));
    ASSERT_TRUE(txn.ok());
    EXPECT_EQ(*txn, static_cast<TransactionNumber>(commit + 1));
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  exec.Stop();

  SerialExecutor serial(options.durable.db);
  ASSERT_TRUE(serial.Submit([](Database& db) {
                      TTRA_RETURN_IF_ERROR(db.DefineRelation(
                          "r", RelationType::kRollback, StressSchema()));
                      return db.ModifyState("r", StateOfSize(1));
                    })
                  .ok());
  readers.clear();
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&serial, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 50; ++i) {
        const Database view = serial.Snapshot();
        for (int probe = 0; probe < 4; ++probe) {
          salt = salt * 6364136223846793005u + 1442695040888963407u;
          const TransactionNumber txn =
              2 + (salt >> 33) % (view.transaction_number() - 1);
          auto state = view.Rollback("r", txn);
          if (!state.ok() || state->size() != txn - 1) errors.fetch_add(1);
        }
      }
    });
  }
  for (int commit = 2; commit <= kWriterCommits; ++commit) {
    ASSERT_TRUE(serial.Submit([commit](Database& db) {
                        return db.ModifyState(
                            "r", StateOfSize(static_cast<size_t>(commit)));
                      })
                    .ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(TsanStressTest, CowRelationVsPinnedReadersDelta) {
  CowRelationVsPinnedReaders(StorageKind::kDelta);
}
TEST(TsanStressTest, CowRelationVsPinnedReadersCheckpoint) {
  CowRelationVsPinnedReaders(StorageKind::kCheckpoint);
}
TEST(TsanStressTest, CowRelationVsPinnedReadersReverseDelta) {
  CowRelationVsPinnedReaders(StorageKind::kReverseDelta);
}

// Online storage compaction (DESIGN.md §16) under maximal interleaving:
// producers group-committing, readers pinned at arbitrary epochs, on-disk
// probes racing the generation swap, and a compactor rewriting every
// segment — the TSan-sized sibling of vacuum_test's
// OnlineCompactionTest. The probe path copies its entry under the store
// mutex and never holds it across IO, so TSan sees the full handoff.
TEST(TsanStressTest, OnlineCompactionVsProducersReadersAndProbes) {
  constexpr int kProducerThreads = 2;
  constexpr int kCommitsPerProducer = 32;

  InMemoryEnv env;
  ShardedOptions options;
  options.durable.compact_storage = true;
  options.durable.compact.keyframe_interval = 4;
  options.durable.checkpoint_every = 8;
  options.group_commit.max_batch = 8;
  options.group_commit.max_latency = std::chrono::microseconds(100);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "r", RelationType::kRollback, StressSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"r", StateOfSize(1)}}).ok());
  ASSERT_TRUE(exec.Checkpoint().ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducerThreads + kReaderThreads + 2);
  for (int p = 0; p < kProducerThreads; ++p) {
    threads.emplace_back([&exec, &errors, p] {
      for (int i = 0; i < kCommitsPerProducer; ++i) {
        std::vector<Command> sentence;
        sentence.push_back(ModifySnapshotCmd{
            "r", StateOfSize(static_cast<size_t>((p + i) % 5))});
        auto txn = exec.SubmitAsync(std::move(sentence)).get();
        if (!txn.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&exec, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 200; ++i) {
        Session session = exec.OpenSession();
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        const TransactionNumber txn =
            2 + (salt >> 33) % (session.epoch() - 1);
        auto state = session.Rollback("r", txn);
        if (!state.ok() || state->size() >= 5) errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&exec, &errors] {
    CompactStore* store = exec.compact_store();
    uint64_t salt = 99;
    for (int i = 0; i < 400; ++i) {
      const TransactionNumber covered = store->checkpoint_txn();
      if (covered < 2) continue;
      salt = salt * 6364136223846793005u + 1442695040888963407u;
      auto probed =
          store->ProbeSnapshot("r", 2 + (salt >> 33) % (covered - 1));
      if (!probed.ok()) errors.fetch_add(1);
    }
  });
  threads.emplace_back([&exec, &errors] {
    for (int i = 0; i < 8; ++i) {
      if (!exec.CompactStorage().ok()) errors.fetch_add(1);
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(exec.healthy());
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(
                2 + kProducerThreads * kCommitsPerProducer));
  EXPECT_GE(exec.compact_store()->stats().compactions, 8u);
  exec.Stop();
}

}  // namespace
}  // namespace ttra
