#ifndef TTRA_TESTS_ORACLE_HARNESS_H_
#define TTRA_TESTS_ORACLE_HARNESS_H_

// One differential oracle harness (DESIGN.md §7). The paper makes the
// database a pure function of its committed sentence sequence (C⟦·⟧), with
// ρ(I, N) the only window into the past, so every engine answers to one
// contract: it must equal SerialExecutor + FullCopyLog ack for ack, byte
// for byte, and under ρ at every epoch. The oracle suites
// (compact_storage_oracle_test, concurrent_oracle_test, crash_recovery_test,
// fault_torture_test, rewrite_oracle_test) are parameterisations of the
// pieces below: a program generator and a schedule of their own, the one
// serial oracle, the engine list and the one checker set. A new engine
// joins every oracle by being added to Engines().

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rollback/persistence.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"

namespace ttra::oracle {

// --- Seeds ------------------------------------------------------------------

/// Seed count from environment variable `variable` (TTRA_ORACLE_SEEDS,
/// TTRA_FAULT_SEEDS), read at run time; `fallback` when unset or not a
/// positive number.
int SeedCount(const char* variable, int fallback);

/// Runs `run(seed)` for seed = begin, begin + stride, ... < end, stopping at
/// the first fatal failure. A suite split into ctest shards passes its
/// shard index as `begin` and the shard count as `stride`.
void ForEachSeed(int begin, int end, int stride,
                 const std::function<void(uint64_t)>& run);

// --- Programs and the serial oracle -----------------------------------------

/// One sentence and its submit mode.
struct Step {
  std::vector<Command> sentence;
  bool atomic = false;
};
using Program = std::vector<Step>;

/// The spec: a program run through a plain SerialExecutor (full-copy
/// semantics). Index k of `txns` and `prefixes` is the database after the
/// first k steps, so both hold program.size() + 1 entries.
struct OracleRun {
  std::vector<bool> acks;  ///< acks[k]: step k's submit returned OK
  std::vector<TransactionNumber> txns;
  std::vector<std::string> prefixes;  ///< EncodeDatabase of each prefix
  Database final_db;
};

/// Runs `program` on top of `start` (the empty database by default; its
/// options select the storage engine).
OracleRun RunSerialOracle(const Program& program, Database start = Database());

// --- Engines and schedules --------------------------------------------------

enum class EngineKind { kDurable, kSharded };

struct Engine {
  EngineKind kind = EngineKind::kDurable;
  size_t shards = 1;
  std::string Name() const;
};

/// Every durable engine the oracles prove against the serial oracle: the
/// single-writer DurableExecutor, the group-commit front end (Sharded(1))
/// and a multi-shard layout.
const std::vector<Engine>& Engines();

/// The in-memory storage engines of Database (DatabaseOptions::storage).
inline constexpr StorageKind kStorageKinds[] = {
    StorageKind::kFullCopy, StorageKind::kDelta, StorageKind::kCheckpoint,
    StorageKind::kReverseDelta};

/// One engine of the list over a directory. `options.durable` configures
/// both kinds; `options.shards` is overridden by the engine. Open() after
/// Close() is a reopen: a fresh DurableExecutor, or Stop() + Start() of
/// the same ShardedExecutor.
class EngineUnderTest {
  /// Calls `f` on whichever executor the engine runs (declared first: the
  /// inline members below deduce their return types from it).
  template <typename F>
  auto Visit(F&& f) const {
    return durable_ != nullptr ? f(*durable_) : f(*sharded_);
  }

 public:
  EngineUnderTest(Engine engine, Env* env, std::string dir,
                  ShardedOptions options = {});
  ~EngineUnderTest();

  EngineUnderTest(const EngineUnderTest&) = delete;
  EngineUnderTest& operator=(const EngineUnderTest&) = delete;

  Status Open();
  void Close();
  Result<TransactionNumber> Submit(const Step& step) {
    return Visit([&](auto& exec) {
      return step.atomic ? exec.SubmitAtomic(step.sentence)
                         : exec.Submit(step.sentence);
    });
  }
  Status Checkpoint() {
    return Visit([](auto& exec) { return exec.Checkpoint(); });
  }
  Status CompactStorage() {
    return Visit([](auto& exec) { return exec.CompactStorage(); });
  }
  Database Snapshot() const {
    return Visit([](auto& exec) { return exec.Snapshot(); });
  }
  TransactionNumber transaction_number() const {
    return Visit([](auto& exec) { return exec.transaction_number(); });
  }
  CompactStore* compact_store() const {
    return Visit([](auto& exec) { return exec.compact_store(); });
  }

 private:
  Engine engine_;
  Env* env_;
  std::string dir_;
  ShardedOptions options_;
  std::unique_ptr<DurableExecutor> durable_;
  std::unique_ptr<ShardedExecutor> sharded_;
};

/// What an engine does after a step — drawn once per seed so every engine
/// replays the identical schedule.
enum class Action { kNone, kCheckpoint, kReopen, kCompactStorage };
using Schedule = std::vector<Action>;

/// Submits every step of `program` to an open engine, performing
/// schedule[i] after step i, and appends each submit's OK-ness to `acks`.
void RunSchedule(EngineUnderTest& engine, const Program& program,
                 const Schedule& schedule, std::vector<bool>& acks);

/// A storage failure (as opposed to a command-level error): the submit was
/// not acknowledged.
bool IsIoFailure(const Status& status);

/// Crash at a fault point: a fresh FaultInjectionEnv, a one-shot fault
/// armed at op `fault_at` counted from after Open() (0 = none), steps
/// submitted until the first I/O failure, then power loss and recovery in
/// a new engine. Checks the recovered state is a prefix holding every
/// acknowledged step and that the recovered engine numbers new
/// transactions above it. `total_ops` receives the ops of the live phase.
/// A non-empty `schedule` runs its kCheckpoint / kCompactStorage actions
/// after their steps (kReopen is not supported); a failing one is the
/// crash as well. `require_dir_sync` makes the crash undo every create
/// and remove no directory sync recorded (InMemoryEnv::set_require_dir_sync).
void RunCrashPoint(const Engine& engine, uint64_t fault_at,
                   FaultInjectionEnv::FaultMode mode,
                   const ShardedOptions& options, const Program& program,
                   const OracleRun& oracle, uint64_t* total_ops = nullptr,
                   const Schedule& schedule = {},
                   bool require_dir_sync = false);

// --- Checkers ----------------------------------------------------------------

/// A recovered engine keeps working: it commits a new sentence at the
/// transaction number directly above everything it recovered.
void ExpectResumes(EngineUnderTest& engine);

/// Canonical bytes of one state (EncodeSnapshotState /
/// EncodeHistoricalState), for exact comparison.
std::string EncodeState(const SnapshotState& state);
std::string EncodeState(const HistoricalState& state);

/// Largest k with prefixes[k] == state (a failing sentence repeats the
/// previous prefix, so the first match would under-count), or
/// prefixes.size() when the state is no prefix at all.
size_t MatchPrefix(const std::vector<std::string>& prefixes,
                   const std::string& state);

/// ρ(I, N) / ρ̂(I, N) of every retains-history relation of `want` agree
/// with `got` at every epoch 0..final, byte for byte (in memory).
void ExpectSameHistory(const Database& want, const Database& got);

/// The on-disk interval-index probe (ProbeSnapshot / ProbeHistorical)
/// answers every epoch of every retains-history relation of `db` the way
/// the in-memory relation does. Two sweeps, so the second one exercises the
/// probe cache when it is enabled.
void ExpectProbesMatch(CompactStore& store, const Database& db);

/// The compact directory `dir` loaded through a probe-cache-less store and
/// through a FINDSTATE-cache-less load: both byte-equal to `oracle`, the
/// probes and ρ answers equal, and the cold store never hits a cache.
void ExpectColdStoresMatch(Env* env, const std::string& dir,
                           const CompactOptions& compact,
                           const Database& oracle);

// --- Shard-WAL committed order ----------------------------------------------
//
// Read back with nothing but ReadWal + DecodeShardRecord, independently of
// ShardedExecutor::Recover: the test may not trust the code under test.

/// One committed batch: the prepare record's payload at the commit
/// record's global position.
struct CommittedBatch {
  uint64_t shard = 0;
  uint64_t seq = 0;
  TransactionNumber base = 0;
  TransactionNumber post = 0;
  std::vector<GroupEntry> entries;
};

struct CommittedOrder {
  /// Sorted by base transaction number; a batch whose every sentence failed
  /// consumes none (base == post) and orders before the advancing batch
  /// that reuses its base.
  std::vector<CommittedBatch> batches;
  /// Coordinator log records keyed by (home shard, seq).
  std::map<std::pair<uint64_t, uint64_t>, ShardRecord> coordinator;
  bool torn_tail = false;  ///< some shard WAL ends in a torn frame
};

/// Reads every generation of shard-<k>.wal for k < shards and of
/// coordinator.log. Fails the test on an undecodable record, a duplicate
/// prepare, a commit without its prepare or a coordinator record inside a
/// shard WAL.
void ReadCommittedOrder(const Env& env, const std::string& dir,
                        size_t shards, CommittedOrder& order);

/// The batches that extend transaction `from` gap-free: batches a
/// checkpoint at `from` already covers are skipped, and the chain stops at
/// the first batch that does not start where the previous one ended.
std::vector<CommittedBatch> ChainFrom(
    const std::vector<CommittedBatch>& batches, TransactionNumber from);

/// Runs the chain's entries, in order, through the serial oracle on top of
/// `start` into `replay`, and checks the replay lines up with the logged
/// positions: every batch starts at its base and ends at its post.
void ReplayChain(const std::vector<CommittedBatch>& chain, Database start,
                 OracleRun& replay);

// --- Fixtures shared by the suites ------------------------------------------

Schema EmpSchema();  ///< (name: string, salary: int)
SnapshotState EmpState(std::vector<std::pair<std::string, int64_t>> rows);
Schema OneIntSchema();  ///< (n: int)
/// `count` OneIntSchema rows first, first + 1, ...
SnapshotState IntRows(int64_t first, size_t count);
/// The one-command sentence setting `relation` to IntRows(first, count).
std::vector<Command> ModifyInts(const std::string& relation, int64_t first,
                                size_t count);
/// Every file of `dir` with its bytes: equal images before and after an
/// operation prove it left the directory byte-identical.
std::map<std::string, std::string> DirImage(const Env& env,
                                            const std::string& dir);
/// `shards` shards, kAlways sync, no retry and no batching delay: every
/// synchronous submit is its own batch and a fault is a crash.
ShardedOptions FastOptions(size_t shards);
/// The `skip`-th name of the form "rel<i>" whose home is `shard` under
/// `shards` shards.
std::string NameOnShard(size_t shard, size_t shards, int skip = 0);

}  // namespace ttra::oracle

#endif  // TTRA_TESTS_ORACLE_HARNESS_H_
