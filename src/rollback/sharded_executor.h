#ifndef TTRA_ROLLBACK_SHARDED_EXECUTOR_H_
#define TTRA_ROLLBACK_SHARDED_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rollback/durable_executor.h"
#include "util/bounded_queue.h"
#include "util/mutex.h"
#include "util/vthread.h"

namespace ttra {

// ---------------------------------------------------------------------------
// On-disk layout of a sharded directory
// ---------------------------------------------------------------------------
//
//   dir/MANIFEST         shard count + format version (text, written once)
//   dir/checkpoint.db    one global checkpoint (SaveDatabase output)
//   dir/shard-<k>.wal    per-shard write-ahead log, k in [0, shards)
//   dir/coordinator.log  advisory cross-shard commit order (WAL format)
//
// Every log file uses the standard WAL framing (storage/wal.h); the record
// payloads use the kinds below, disjoint from DurableExecutor's 0/1/2 so a
// sharded record fed to DecodeWalRecord fails loudly and vice versa.

// kShardManifestFile ("MANIFEST") lives in durable_executor.h, whose
// Open() refuses a sharded directory.
inline constexpr char kCoordinatorLogFile[] = "coordinator.log";

/// Largest shard count a MANIFEST may record. Start() refuses to create a
/// directory beyond it; ReadShardManifest treats a larger count as
/// corruption.
inline constexpr size_t kMaxShards = 1024;

/// "shard-<k>.wal".
std::string ShardWalFile(size_t shard);

/// True iff `dir` holds a sharded layout (a MANIFEST is present).
bool IsShardedDir(const Env& env, const std::string& dir);

/// Parses dir/MANIFEST; kCorruption on malformed content or a shard count
/// outside [1, kMaxShards].
Result<uint32_t> ReadShardManifest(const Env& env, const std::string& dir);

/// Home shard of a relation identifier: FNV-1a(name) % shards. Exposed so
/// tests and benches can predict (or deliberately spread) placement.
size_t ShardOfName(const std::string& name, size_t shards);

/// Record kinds of the sharded commit protocol.
enum class ShardRecordKind : uint8_t {
  /// Home shard, phase 1: the batch payload under a shard-local sequence
  /// number. Carries no transaction numbers — those are assigned at
  /// commit. [u64 seq][u64 count][count × entry], entry =
  /// [u8 atomic][u64 n][n commands].
  kPrepare = 3,
  /// Home shard, phase 2: fixes the batch's global position.
  /// [u64 seq][u64 base_txn][u64 post_txn]. A batch is committed iff its
  /// commit record is durable; prepare without commit is in-doubt and is
  /// dropped by recovery (it was never acknowledged).
  kCommit = 4,
  /// Non-home shard touched by a cross-shard batch: a durable marker (with
  /// the full payload, for forensics) written before the home shard's
  /// commit record. Replay ignores it — the home prepare is authoritative.
  /// [u64 home_shard][u64 home_seq][u64 count][count × entry].
  kCrossPrepare = 5,
  /// Coordinator log: the global commit order as it happened.
  /// [u64 shard][u64 seq][u64 base_txn][u64 post_txn][u64 count].
  /// Advisory: synced lazily, cross-checked (never required) by recovery.
  kCoordCommit = 6,
};

std::string_view ShardRecordKindName(ShardRecordKind kind);

/// One decoded record of a shard WAL or the coordinator log. Which fields
/// are meaningful depends on `kind` (see the enum docs).
struct ShardRecord {
  ShardRecordKind kind = ShardRecordKind::kPrepare;
  uint64_t seq = 0;         ///< kPrepare/kCommit: shard-local sequence
  uint64_t shard = 0;       ///< kCoordCommit: home shard
  uint64_t home_shard = 0;  ///< kCrossPrepare: home shard
  uint64_t home_seq = 0;    ///< kCrossPrepare: home sequence
  TransactionNumber base_txn = 0;  ///< kCommit/kCoordCommit
  TransactionNumber post_txn = 0;  ///< kCommit/kCoordCommit
  uint64_t count = 0;              ///< entries in the batch
  std::vector<GroupEntry> entries;  ///< kPrepare/kCrossPrepare payload
};

/// Decodes one sharded WAL record payload; kCorruption on malformed input
/// (including the single-writer kinds 0/1/2, which do not belong here).
Result<ShardRecord> DecodeShardRecord(std::string_view payload);

/// Deliberate protocol mutations, reachable only from tests and the model
/// checker (`ttra modelcheck --seeded-bug`). Production code never sets
/// them; they exist so the schedule explorer can prove it detects the class
/// of ordering bug each fault reintroduces.
struct ProtocolFaultsForTests {
  /// Publish + acknowledge a durable batch immediately in MarkBatch,
  /// skipping the commit-order watermark walk. Breaks commit-order
  /// publication: a batch can be published (and acked) while an
  /// earlier-ordered batch is still in flight, so the published snapshot
  /// can step backwards — exactly the bug the watermark exists to prevent.
  bool ack_out_of_order = false;
};

/// Group-commit accumulation knobs (per writer shard).
struct GroupCommitOptions {
  /// Most sentences committed per WAL record/sync.
  size_t max_batch = 64;
  /// How long the writer lingers for a partially-filled batch once at
  /// least one sentence is queued. Zero = commit whatever is queued
  /// immediately (lowest latency, smallest batches).
  std::chrono::microseconds max_latency{200};
  /// Bounded MPSC queue depth; producers block (backpressure) beyond it.
  size_t queue_capacity = 1024;
};

/// A reader session pinned at its opening epoch N (the transaction number
/// of the last group commit published when the session opened). The
/// session holds a shared immutable database snapshot, so every
/// evaluation inside it — ρ(I, n) for any n ≤ N, operator trees via
/// lang::EvalExpr over database() — observes exactly the paper's
/// ρ(·, N) world, no matter how far the writers advance concurrently.
/// This is snapshot isolation derived from the semantics: E⟦·⟧ is
/// side-effect-free, so a pinned (state, transaction-number) pair answers
/// every expression without coordination.
///
/// Sessions are value types: cheap to copy (two words + a refcount) and
/// safe to share across threads — the snapshot is immutable and FINDSTATE
/// caching inside it is internally synchronized.
class Session {
 public:
  TransactionNumber epoch() const { return epoch_; }

  /// The pinned database view, e.g. for lang::EvalExpr. All relation
  /// history up to the epoch is visible; nothing later exists here.
  const Database& database() const { return *snapshot_; }

  /// E⟦ρ(I, n)⟧ at the pinned epoch; nullopt = the session's own epoch
  /// (the snapshot's ∞). A transaction number beyond the epoch is an
  /// invalid-rollback error: that state may not even be committed yet,
  /// and the session's contract is to never observe past its pin.
  Result<SnapshotState> Rollback(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  /// E⟦ρ̂(I, n)⟧, same epoch rules.
  Result<HistoricalState> RollbackHistorical(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

 private:
  friend class ShardedExecutor;
  Session(std::shared_ptr<const Database> snapshot, TransactionNumber epoch)
      : snapshot_(std::move(snapshot)), epoch_(epoch) {}

  std::shared_ptr<const Database> snapshot_;
  TransactionNumber epoch_ = 0;
};

struct ShardedOptions {
  DurableOptions durable;
  GroupCommitOptions group_commit;
  /// Writer shards, at most kMaxShards; one is the group-commit
  /// configuration. A directory remembers the count it was created with
  /// (MANIFEST) and Start() adopts it; this value seeds a fresh directory.
  size_t shards = 1;
  /// Coordinator records between opportunistic coordinator syncs (the log
  /// is advisory, so it is never synced on the ack path). Stop() and
  /// Checkpoint() always sync it.
  size_t coordinator_sync_every = 256;
  ProtocolFaultsForTests test_faults;
};

/// Multi-session group-commit executor realizing the MVCC split the
/// paper's semantics licenses: arbitrarily many readers evaluate E⟦·⟧
/// against immutable pinned snapshots (Session), while writers serialize
/// C⟦·⟧ into one globally ordered transaction chain. The durability
/// pipeline (encode, append, fsync) is partitioned by relation identifier
/// (ShardOfName) across N shards, each owning its own WAL file, writer
/// thread, bounded MPSC queue and group-commit loop; in-memory state stays
/// ONE immutable published database chain. With one shard this is the
/// single-writer group-commit front-end (`ttra run --group-commit`).
///
/// Semantics contract:
///  * every committed batch is equivalent to some serial C⟦·⟧ order (the
///    merged shard-log order, which the WALs record verbatim — the
///    differential oracle test replays it through SerialExecutor);
///  * a session pinned at epoch N observes exactly ρ(I, N) for every I:
///    the rollback operator doubles as the snapshot-isolation spec;
///  * an acknowledged sentence (future resolved OK) is durable per the
///    sync policy and visible to every session opened afterwards
///    (read-your-writes: the post-batch snapshot is published before
///    futures resolve).
///
/// Degraded mode: once a permanent write failure happens, every queued
/// and new sentence fails fast with kReadOnly while existing and new
/// reader sessions keep serving the last published epoch. The way out is
/// Stop() + Start() (re-recovery from disk) after the fault is repaired.
///
/// Lifecycle — Start(), submit/read from any threads, Stop() — must be
/// driven from one owning thread; everything between is thread-safe.
///
/// Commit protocol (per batch, on its home shard's writer thread):
///  1. prepare: append the payload to the shard's own WAL under a
///     shard-local sequence number (parallel across shards);
///  1b. cross-shard batches append a durable kCrossPrepare marker to every
///     other touched shard first (two-phase: all participants hold the
///     payload before any commit record exists);
///  2. order: under the global commit lock, apply the batch onto a clone
///     of the chain tip — this assigns the paper's strictly-increasing
///     transaction numbers (they are data-dependent: a failed command
///     consumes none, so positions cannot be pre-reserved) — and append
///     the coordinator record (no sync);
///  3. commit: append [seq, base, post] to the shard's own WAL and sync
///     once — one fsync covers prepare + commit, so N=1 costs exactly the
///     single-writer executor's one-fsync-per-batch;
///  4. ack: resolve futures only once every batch with an earlier base is
///     durable (the durability watermark), publishing snapshots in commit
///     order — an acknowledged sentence is durable and every earlier
///     committed sentence is too, so recovery can never lose an acked
///     commit to a gap.
///
/// Recovery merges all shard WALs: committed batches (prepare + commit
/// durable) are sorted by base transaction number and replayed through one
/// database, re-establishing a total order byte-equal to serial execution;
/// in-doubt batches (prepare without commit, or beyond the first gap) are
/// provably unacknowledged and are dropped. The coordinator log is
/// cross-checked where present but never required.
class ShardedExecutor {
 public:
  /// `env` must outlive the executor. Call Start() before submitting.
  ShardedExecutor(Env* env, std::string dir, ShardedOptions options = {});
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Recovers the merged durable state, publishes the initial snapshot and
  /// starts one writer thread per shard. Call again only after Stop().
  /// kInvalidArgument, before any MANIFEST is written, for a fresh
  /// directory asked to hold more than kMaxShards shards or for a
  /// single-writer directory (wal.log without a MANIFEST).
  Status Start();

  /// Closes every queue, commits everything enqueued, joins the writers
  /// and syncs the coordinator log. Safe to call twice.
  void Stop();

  /// Routes the sentence to its home shard's queue. The future resolves
  /// with the committed transaction number once the batch is durable per
  /// the sync policy AND the durability watermark has passed it; with the
  /// command-level error (paper sequencing: partial effects stand, atomic:
  /// no effect); with kReadOnly in degraded mode; or with kUnavailable
  /// when stopped. Blocks only on a full home-shard queue (backpressure).
  std::future<Result<TransactionNumber>> SubmitAsync(
      std::vector<Command> sentence, bool atomic = false);

  Result<TransactionNumber> Submit(std::vector<Command> sentence);
  Result<TransactionNumber> Submit(Command command);
  Result<TransactionNumber> SubmitAtomic(std::vector<Command> sentence);

  /// Blocks until every sentence enqueued before the call has been
  /// committed (or refused) across all shards.
  Status Drain();

  /// Opens a reader session pinned at the current published epoch. O(1):
  /// shares the immutable post-batch snapshot, no copying.
  Session OpenSession() const;

  /// Epoch of the last published (durable, watermark-passed) commit.
  TransactionNumber transaction_number() const;

  /// Consistent copy of the published snapshot (Database::Clone: shares
  /// every relation until one side changes it).
  Database Snapshot() const;

  /// Quiesces in-flight batches (checkpoint gate), saves one global
  /// checkpoint covering every shard, then truncates all shard WALs and
  /// the coordinator log and resets the sequence spaces. Under the
  /// compact layout the checkpoint image is an incremental manifest
  /// record instead of a checkpoint.db rewrite; the shard-log truncation
  /// protocol is unchanged (the manifest sync is the commit point, so
  /// truncation still strictly follows a durable covering checkpoint).
  Status Checkpoint();

  /// Online segment vacuum (compact layout only): like Checkpoint, but
  /// rewrites every segment at a fresh generation and swaps a one-record
  /// full manifest over the chain. Reader sessions are untouched.
  Status CompactStorage();

  /// The compact store backing the layout (nullptr when legacy).
  CompactStore* compact_store() const { return compact_.get(); }

  bool healthy() const;
  bool degraded() const;
  Status degraded_reason() const;

  const std::string& dir() const { return dir_; }
  /// Effective shard count (MANIFEST-adopted after Start()).
  size_t shards() const { return shard_count_; }

  /// What the last Start() found.
  struct RecoveryInfo {
    TransactionNumber checkpoint_txn = 0;
    size_t shards = 0;
    size_t replayed_batches = 0;
    size_t replayed_sentences = 0;
    /// Prepared-but-uncommitted batches plus committed batches stranded
    /// beyond the first base-txn gap — all provably unacknowledged.
    size_t dropped_in_doubt = 0;
    size_t torn_tails = 0;  ///< shard/coordinator logs with a torn tail
  };
  RecoveryInfo last_recovery() const;

  struct ShardStats {
    uint64_t batches = 0;         ///< group commits homed on this shard
    uint64_t commits = 0;         ///< sentences committed (or refused)
    uint64_t cross_prepares = 0;  ///< kCrossPrepare markers written here
    WalWriter::Stats wal;         ///< physical I/O (syncs!)
  };

  struct Stats {
    uint64_t commits = 0;
    uint64_t batches = 0;
    uint64_t max_batch = 0;
    uint64_t cross_shard_batches = 0;  ///< batches touching >1 shard
    uint64_t rejected_read_only = 0;
    bool degraded = false;
    uint64_t coordinator_records = 0;
    uint64_t coordinator_syncs = 0;
    uint64_t transient_retries = 0;
    uint64_t retry_successes = 0;
    Status last_write_error;
    std::vector<ShardStats> per_shard;
  };
  Stats stats() const;

 private:
  struct Pending {
    std::vector<Command> sentence;
    bool atomic = false;
    std::promise<Result<TransactionNumber>> promise;
  };

  /// One writer shard: queue, WAL, thread, shard-local sequence space.
  struct Shard {
    std::unique_ptr<BoundedQueue<Pending>> queue;
    ttra::Thread writer;
    Mutex wal_mutex;
    std::unique_ptr<WalWriter> wal TTRA_GUARDED_BY(wal_mutex);
    uint64_t next_seq TTRA_GUARDED_BY(wal_mutex) = 1;
    uint64_t commits_since_sync TTRA_GUARDED_BY(wal_mutex) = 0;
    ShardStats stats TTRA_GUARDED_BY(wal_mutex);
  };

  /// A batch between commit (transaction numbers assigned, chain tip
  /// advanced) and acknowledgement (durable + watermark passed).
  struct Inflight {
    uint64_t commit_index = 0;
    TransactionNumber base = 0;
    TransactionNumber post = 0;
    std::shared_ptr<const Database> snapshot;
    std::vector<Result<TransactionNumber>> results;
    std::vector<std::promise<Result<TransactionNumber>>> promises;
    bool marked = false;   ///< durability outcome known
    Status io;             ///< OK = durable; error = commit write failed
  };

  void WriterLoop(size_t shard_index);
  void ProcessBatch(size_t shard_index, std::vector<Pending>& batch)
      TTRA_EXCLUDES(commit_mutex_);
  /// Appends (with retry) + syncs the kCrossPrepare markers for a
  /// cross-shard batch; returns the first failure.
  Status WriteCrossPrepares(size_t home, uint64_t home_seq,
                            const std::string& entries_blob,
                            const std::vector<bool>& touched);
  /// Records the durability outcome of `commit_index` and advances the
  /// watermark: publishes snapshots and resolves promises, in commit
  /// order, for every leading marked batch.
  void MarkBatch(uint64_t commit_index, Status io)
      TTRA_EXCLUDES(commit_mutex_);
  void RefuseBatch(std::vector<Pending>& batch, const Status& reason)
      TTRA_EXCLUDES(commit_mutex_);
  void EnterDegraded(const Status& reason) TTRA_EXCLUDES(commit_mutex_);
  void EnterDegradedLocked(const Status& reason) TTRA_REQUIRES(commit_mutex_);
  /// Fsyncs the advisory coordinator log with no executor mutex held and
  /// books the outcome under commit_mutex_. Callers must either hold the
  /// checkpoint gate (shared) or have quiesced the writers, so the log
  /// cannot be rotated underneath; concurrent appends are fine — fsync
  /// then covers a prefix, which is all lazy sync ever promised.
  void SyncCoordinatorUnlocked() TTRA_EXCLUDES(commit_mutex_);
  Status RetryShardWalOp(Shard& shard, const std::function<Status()>& op,
                         bool reset_tail) TTRA_REQUIRES(shard.wal_mutex);

  /// Recovery: merge shard WALs + coordinator into one database.
  Status Recover(Database& db) TTRA_EXCLUDES(commit_mutex_);

  Env* env_;
  std::string dir_;
  ShardedOptions options_;
  /// Non-null iff the compact layout is active; set by Start() before any
  /// writer runs, internally synchronized (see DurableExecutor::compact_).
  std::unique_ptr<CompactStore> compact_;
  size_t shard_count_ = 0;  ///< effective count (MANIFEST-adopted)
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;

  /// Writers hold this shared across prepare → commit → mark, so holding
  /// it exclusively (Checkpoint) means no batch is in flight anywhere and
  /// the watermark equals the chain tip.
  SharedMutex checkpoint_gate_;

  /// The global order lock: transaction-number assignment, the chain tip,
  /// the in-flight deque and the coordinator log live under it. Shard WAL
  /// I/O deliberately does not — that is the parallel part.
  mutable Mutex commit_mutex_;
  std::shared_ptr<const Database> tip_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t next_commit_index_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  std::deque<Inflight> inflight_ TTRA_GUARDED_BY(commit_mutex_);
  std::unique_ptr<WalWriter> coordinator_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t coordinator_unsynced_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t coordinator_syncs_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  bool coordinator_good_ TTRA_GUARDED_BY(commit_mutex_) = true;
  /// Set once a committed batch failed to become durable: every later
  /// batch builds on unreplayable state, so all of them resolve with an
  /// error (the executor is degraded by then).
  bool poisoned_ TTRA_GUARDED_BY(commit_mutex_) = false;
  uint64_t submitted_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t completed_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  CondVar drained_;
  bool degraded_ TTRA_GUARDED_BY(commit_mutex_) = false;
  Status degraded_reason_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t commits_since_checkpoint_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  /// Atomic (not commit_mutex_-guarded): bumped under a shard's wal_mutex,
  /// and wal_mutex → commit_mutex_ would invert the checkpoint order.
  std::atomic<uint64_t> transient_retries_{0};
  std::atomic<uint64_t> retry_successes_{0};
  Status last_write_error_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t stat_commits_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_batches_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_max_batch_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_cross_shard_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_rejected_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  RecoveryInfo last_recovery_ TTRA_GUARDED_BY(commit_mutex_);

  /// Readers touch only this: OpenSession/transaction_number never contend
  /// with the order lock.
  mutable Mutex publish_mutex_;
  std::shared_ptr<const Database> published_ TTRA_GUARDED_BY(publish_mutex_);
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_SHARDED_EXECUTOR_H_
