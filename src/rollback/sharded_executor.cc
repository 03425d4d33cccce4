#include "rollback/sharded_executor.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "rollback/persistence.h"

namespace ttra {

namespace {

constexpr char kManifestMagic[] = "ttra-shards";
constexpr int kManifestVersion = 1;

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

const std::string& CommandName(const Command& command) {
  return std::visit(
      [](const auto& cmd) -> const std::string& { return cmd.name; }, command);
}

/// The batch-entry encoding of the sharded protocol:
/// [u8 atomic][u64 n][n commands]. Unlike the single-writer group format
/// it carries NO pre-commit transaction number — positions are assigned at
/// commit, after prepare is already on disk.
void EncodeShardEntry(const GroupEntry& entry, std::string& out) {
  out.push_back(static_cast<char>(entry.atomic ? 1 : 0));
  PutU64(entry.sentence.size(), out);
  for (const Command& command : entry.sentence) EncodeCommand(command, out);
}

Result<GroupEntry> DecodeShardEntry(ByteReader& reader) {
  GroupEntry entry;
  TTRA_ASSIGN_OR_RETURN(uint8_t atomic, reader.ReadByte());
  if (atomic > 1) return CorruptionError("invalid shard entry mode");
  entry.atomic = atomic != 0;
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  entry.sentence.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Command command, DecodeCommand(reader));
    entry.sentence.push_back(std::move(command));
  }
  return entry;
}

/// [u64 count][count × entry] — the payload shared by prepare and
/// cross-prepare records.
std::string EncodeEntriesBlob(const std::vector<GroupEntry>& entries) {
  std::string out;
  PutU64(entries.size(), out);
  for (const GroupEntry& entry : entries) EncodeShardEntry(entry, out);
  return out;
}

Status DecodeEntriesBlob(ByteReader& reader, ShardRecord& record) {
  TTRA_ASSIGN_OR_RETURN(record.count, reader.ReadU64());
  record.entries.reserve(record.count);
  for (uint64_t i = 0; i < record.count; ++i) {
    TTRA_ASSIGN_OR_RETURN(GroupEntry entry, DecodeShardEntry(reader));
    record.entries.push_back(std::move(entry));
  }
  return Status::Ok();
}

std::string EncodePrepare(uint64_t seq, const std::string& entries_blob) {
  std::string out;
  out.push_back(static_cast<char>(ShardRecordKind::kPrepare));
  PutU64(seq, out);
  out += entries_blob;
  return out;
}

std::string EncodeCommit(uint64_t seq, TransactionNumber base,
                         TransactionNumber post) {
  std::string out;
  out.push_back(static_cast<char>(ShardRecordKind::kCommit));
  PutU64(seq, out);
  PutU64(base, out);
  PutU64(post, out);
  return out;
}

std::string EncodeCrossPrepare(uint64_t home_shard, uint64_t home_seq,
                               const std::string& entries_blob) {
  std::string out;
  out.push_back(static_cast<char>(ShardRecordKind::kCrossPrepare));
  PutU64(home_shard, out);
  PutU64(home_seq, out);
  out += entries_blob;
  return out;
}

std::string EncodeCoordCommit(uint64_t shard, uint64_t seq,
                              TransactionNumber base, TransactionNumber post,
                              uint64_t count) {
  std::string out;
  out.push_back(static_cast<char>(ShardRecordKind::kCoordCommit));
  PutU64(shard, out);
  PutU64(seq, out);
  PutU64(base, out);
  PutU64(post, out);
  PutU64(count, out);
  return out;
}

/// Deterministic re-execution of one batch entry, mirroring the live
/// apply (paper sequencing vs all-or-nothing) — shared by the commit path
/// and recovery so they cannot diverge. An atomic entry runs on a clone
/// (O(#relations)) and copies each relation it touches once more, since
/// `db` still shares them with the clone.
void ApplyEntry(Database& db, const GroupEntry& entry,
                Result<TransactionNumber>* result) {
  Status applied;
  if (entry.atomic) {
    Database scratch = db.Clone();
    applied = ApplySentence(scratch, entry.sentence);
    if (applied.ok()) db = std::move(scratch);
  } else {
    applied = ApplySentence(db, entry.sentence);
  }
  if (result != nullptr) {
    if (applied.ok()) {
      *result = db.transaction_number();
    } else {
      *result = applied;
    }
  }
}

Status MidLogCorruption(const std::string& path, const WalReadResult& wal) {
  return CorruptionError(
      path + " has mid-log corruption at byte " +
      std::to_string(wal.invalid_offset) + " (" +
      std::string(WalCorruptionCauseName(wal.cause)) + ") with " +
      std::to_string(wal.records_after_hole) +
      " intact record(s) stranded after it; refusing to recover — run "
      "`ttra fsck --repair` to quarantine the damage");
}

}  // namespace

Result<SnapshotState> Session::Rollback(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  if (txn.has_value() && *txn > epoch_) {
    return InvalidRollbackError("transaction " + std::to_string(*txn) +
                                " is beyond this session's epoch " +
                                std::to_string(epoch_));
  }
  return snapshot_->Rollback(name, txn);
}

Result<HistoricalState> Session::RollbackHistorical(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  if (txn.has_value() && *txn > epoch_) {
    return InvalidRollbackError("transaction " + std::to_string(*txn) +
                                " is beyond this session's epoch " +
                                std::to_string(epoch_));
  }
  return snapshot_->RollbackHistorical(name, txn);
}

std::string ShardWalFile(size_t shard) {
  return "shard-" + std::to_string(shard) + ".wal";
}

bool IsShardedDir(const Env& env, const std::string& dir) {
  return env.Exists(dir + "/" + kShardManifestFile);
}

Result<uint32_t> ReadShardManifest(const Env& env, const std::string& dir) {
  TTRA_ASSIGN_OR_RETURN(std::string text,
                        env.Read(dir + "/" + kShardManifestFile));
  // Expected exactly: "ttra-shards <version>\nshards <N>\n".
  const std::string header =
      std::string(kManifestMagic) + " " + std::to_string(kManifestVersion) +
      "\nshards ";
  if (text.rfind(header, 0) != 0 || text.empty() || text.back() != '\n') {
    return CorruptionError("malformed shard MANIFEST in " + dir);
  }
  const std::string number = text.substr(header.size(),
                                         text.size() - header.size() - 1);
  if (number.empty() ||
      number.find_first_not_of("0123456789") != std::string::npos) {
    return CorruptionError("malformed shard count in " + dir + "/MANIFEST");
  }
  const unsigned long shards = std::stoul(number);
  if (shards == 0 || shards > kMaxShards) {
    return CorruptionError("implausible shard count " + number + " in " +
                           dir + "/MANIFEST");
  }
  return static_cast<uint32_t>(shards);
}

size_t ShardOfName(const std::string& name, size_t shards) {
  if (shards <= 1) return 0;
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a prime
  }
  return static_cast<size_t>(hash % shards);
}

std::string_view ShardRecordKindName(ShardRecordKind kind) {
  switch (kind) {
    case ShardRecordKind::kPrepare:
      return "prepare";
    case ShardRecordKind::kCommit:
      return "commit";
    case ShardRecordKind::kCrossPrepare:
      return "cross-prepare";
    case ShardRecordKind::kCoordCommit:
      return "coordinator-commit";
  }
  return "unknown";
}

Result<ShardRecord> DecodeShardRecord(std::string_view payload) {
  ByteReader reader(payload);
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  ShardRecord record;
  switch (kind) {
    case static_cast<uint8_t>(ShardRecordKind::kPrepare): {
      record.kind = ShardRecordKind::kPrepare;
      TTRA_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
      TTRA_RETURN_IF_ERROR(DecodeEntriesBlob(reader, record));
      break;
    }
    case static_cast<uint8_t>(ShardRecordKind::kCommit): {
      record.kind = ShardRecordKind::kCommit;
      TTRA_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.base_txn, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.post_txn, reader.ReadU64());
      break;
    }
    case static_cast<uint8_t>(ShardRecordKind::kCrossPrepare): {
      record.kind = ShardRecordKind::kCrossPrepare;
      TTRA_ASSIGN_OR_RETURN(record.home_shard, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.home_seq, reader.ReadU64());
      TTRA_RETURN_IF_ERROR(DecodeEntriesBlob(reader, record));
      break;
    }
    case static_cast<uint8_t>(ShardRecordKind::kCoordCommit): {
      record.kind = ShardRecordKind::kCoordCommit;
      TTRA_ASSIGN_OR_RETURN(record.shard, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.base_txn, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.post_txn, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.count, reader.ReadU64());
      break;
    }
    default:
      return CorruptionError("invalid sharded wal record kind " +
                             std::to_string(kind));
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes in sharded wal record");
  }
  return record;
}

ShardedExecutor::ShardedExecutor(Env* env, std::string dir,
                                 ShardedOptions options)
    : env_(env), dir_(std::move(dir)), options_(options) {
  options_.shards = std::max<size_t>(1, options_.shards);
}

ShardedExecutor::~ShardedExecutor() { Stop(); }

Status ShardedExecutor::Start() {
  if (started_) return Status::Ok();
  TTRA_RETURN_IF_ERROR(env_->CreateDir(dir_));

  // Layout detection. A single-writer directory (wal.log, no MANIFEST)
  // must not be silently adopted: its log would be ignored and every
  // commit in it dropped.
  const std::string manifest_path = dir_ + "/" + kShardManifestFile;
  if (!env_->Exists(manifest_path) && env_->Exists(dir_ + "/wal.log")) {
    return InvalidArgumentError(
        dir_ + " holds a single-writer log (wal.log); recover it with "
        "`ttra recover` (unsharded) or start the sharded executor in a "
        "fresh directory");
  }
  size_t shards = options_.shards;
  if (env_->Exists(manifest_path)) {
    // The directory remembers its own shard count: records are already
    // routed by hash-mod-N, so reopening with a different N would misfile
    // every future commit. The MANIFEST wins.
    TTRA_ASSIGN_OR_RETURN(uint32_t manifest_shards,
                          ReadShardManifest(*env_, dir_));
    shards = manifest_shards;
  } else {
    // Checked before the MANIFEST exists: ReadShardManifest would refuse
    // the directory on every later Start().
    if (shards > kMaxShards) {
      return InvalidArgumentError(
          std::to_string(shards) + " shards requested; at most " +
          std::to_string(kMaxShards) + " are supported");
    }
    const std::string text = std::string(kManifestMagic) + " " +
                             std::to_string(kManifestVersion) + "\nshards " +
                             std::to_string(shards) + "\n";
    TTRA_RETURN_IF_ERROR(env_->Truncate(manifest_path));
    TTRA_RETURN_IF_ERROR(env_->Append(manifest_path, text));
    TTRA_RETURN_IF_ERROR(env_->Sync(manifest_path));
  }
  shard_count_ = shards;

  shards_.clear();
  for (size_t k = 0; k < shard_count_; ++k) {
    auto shard = std::make_unique<Shard>();
    MutexLock lock(shard->wal_mutex);
    shard->wal =
        std::make_unique<WalWriter>(env_, dir_ + "/" + ShardWalFile(k));
    shards_.push_back(std::move(shard));
  }

  // Compact layout: adopted when present, enabled by option otherwise
  // (a legacy checkpoint.db is migrated on the first compact Start()).
  if (compact_ == nullptr &&
      (options_.durable.compact_storage ||
       CompactStore::IsCompactDir(*env_, dir_))) {
    compact_ =
        std::make_unique<CompactStore>(env_, dir_, options_.durable.compact);
  }

  // Merged recovery: checkpoint, then every shard WAL + the coordinator
  // log re-establish one total order.
  Database db(options_.durable.db);
  const std::string checkpoint_path = dir_ + "/checkpoint.db";
  if (compact_ != nullptr && compact_->Exists()) {
    TTRA_ASSIGN_OR_RETURN(db, compact_->Load(options_.durable.db));
  } else if (env_->Exists(checkpoint_path)) {
    TTRA_ASSIGN_OR_RETURN(
        db, LoadDatabase(checkpoint_path, options_.durable.db, env_));
  }
  const TransactionNumber checkpoint_txn = db.transaction_number();
  TTRA_RETURN_IF_ERROR(Recover(db));
  {
    MutexLock lock(commit_mutex_);
    last_recovery_.checkpoint_txn = checkpoint_txn;
    last_recovery_.shards = shard_count_;
  }

  // Re-establish the on-disk invariant: one checkpoint covering the
  // merged replay, fresh logs, sequence spaces reset.
  if (compact_ != nullptr) {
    TTRA_RETURN_IF_ERROR(compact_->WriteCheckpoint(db));
    if (env_->Exists(checkpoint_path)) {
      // Migration committed by the manifest write above.
      env_->Remove(checkpoint_path).IgnoreError();
    }
    if (env_->Exists(checkpoint_path + ".tmp")) {
      env_->Remove(checkpoint_path + ".tmp").IgnoreError();
    }
  } else {
    TTRA_RETURN_IF_ERROR(SaveDatabase(db, checkpoint_path, env_));
  }
  for (size_t k = 0; k < shard_count_; ++k) {
    MutexLock lock(shards_[k]->wal_mutex);
    TTRA_RETURN_IF_ERROR(shards_[k]->wal->Create());
    shards_[k]->next_seq = 1;
    shards_[k]->commits_since_sync = 0;
  }
  {
    MutexLock lock(commit_mutex_);
    coordinator_ = std::make_unique<WalWriter>(
        env_, dir_ + "/" + kCoordinatorLogFile);
    TTRA_RETURN_IF_ERROR(coordinator_->Create());
    coordinator_unsynced_ = 0;
    coordinator_good_ = true;
    next_commit_index_ = 0;
    inflight_.clear();
    poisoned_ = false;
    submitted_ = 0;
    completed_ = 0;
    degraded_ = false;
    degraded_reason_ = Status::Ok();
    commits_since_checkpoint_ = 0;
    last_write_error_ = Status::Ok();
    tip_ = std::make_shared<const Database>(std::move(db));
    MutexLock publish(publish_mutex_);
    published_ = tip_;
  }

  for (size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->queue = std::make_unique<BoundedQueue<Pending>>(
        options_.group_commit.queue_capacity);
  }
  for (size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->writer = ttra::Thread(&ShardedExecutor::WriterLoop, this, k);
  }
  started_ = true;
  return Status::Ok();
}

Status ShardedExecutor::Recover(Database& db) {
  // Single-threaded (Start(), before any writer exists), so the lock here
  // is only for the annotations' benefit.
  MutexLock lock(commit_mutex_);
  last_recovery_ = RecoveryInfo{};

  // Coordinator log first: advisory cross-check material. A torn tail is
  // the expected crash shape (it is synced lazily); mid-log corruption is
  // real damage and recovery refuses, like any other log here.
  std::map<std::pair<uint64_t, uint64_t>, ShardRecord> coord;
  const std::string coord_path = dir_ + "/" + kCoordinatorLogFile;
  if (env_->Exists(coord_path)) {
    TTRA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(*env_, coord_path));
    if (wal.records_after_hole > 0) return MidLogCorruption(coord_path, wal);
    if (wal.torn_tail) ++last_recovery_.torn_tails;
    for (const std::string& payload : wal.records) {
      TTRA_ASSIGN_OR_RETURN(ShardRecord record, DecodeShardRecord(payload));
      if (record.kind != ShardRecordKind::kCoordCommit) {
        return CorruptionError("non-coordinator record in " + coord_path);
      }
      if (!coord.emplace(std::make_pair(record.shard, record.seq), record)
               .second) {
        return CorruptionError("duplicate coordinator record for shard " +
                               std::to_string(record.shard) + " seq " +
                               std::to_string(record.seq));
      }
    }
  }

  // Shard WALs: prepares carry the payloads, commits carry the positions.
  std::map<std::pair<uint64_t, uint64_t>, ShardRecord> prepares;
  struct Commit {
    uint64_t shard;
    uint64_t seq;
    TransactionNumber base;
    TransactionNumber post;
  };
  std::vector<Commit> commits;
  for (size_t k = 0; k < shard_count_; ++k) {
    const std::string path = dir_ + "/" + ShardWalFile(k);
    if (!env_->Exists(path)) continue;
    TTRA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(*env_, path));
    if (wal.records_after_hole > 0) return MidLogCorruption(path, wal);
    if (wal.torn_tail) ++last_recovery_.torn_tails;
    for (const std::string& payload : wal.records) {
      TTRA_ASSIGN_OR_RETURN(ShardRecord record, DecodeShardRecord(payload));
      switch (record.kind) {
        case ShardRecordKind::kPrepare: {
          if (!prepares
                   .emplace(std::pair<uint64_t, uint64_t>(k, record.seq),
                            std::move(record))
                   .second) {
            return CorruptionError("duplicate prepare in " + path);
          }
          break;
        }
        case ShardRecordKind::kCommit: {
          // Prepare precedes commit in the same file, so a durable commit
          // record implies a durable prepare record.
          if (prepares.find({k, record.seq}) == prepares.end()) {
            return CorruptionError("commit without prepare in " + path +
                                   " (seq " + std::to_string(record.seq) +
                                   ")");
          }
          commits.push_back(
              Commit{k, record.seq, record.base_txn, record.post_txn});
          break;
        }
        case ShardRecordKind::kCrossPrepare:
          // Forensic marker; the home shard's prepare is authoritative.
          break;
        case ShardRecordKind::kCoordCommit:
          return CorruptionError("coordinator record in shard wal " + path);
      }
    }
  }

  // One total order: committed batches sorted by base transaction number.
  // Bases are NOT unique: a batch whose every sentence fails consumes no
  // transaction numbers (a failed command leaves the database unchanged,
  // txn included), so base == post and the next batch reuses the base.
  // Such no-op batches sort before the advancing batch at the same base;
  // any other base collision is two batches claiming the same position.
  std::sort(commits.begin(), commits.end(),
            [](const Commit& a, const Commit& b) {
              return a.base != b.base ? a.base < b.base : a.post < b.post;
            });
  for (size_t i = 0; i + 1 < commits.size(); ++i) {
    if (commits[i].base == commits[i + 1].base &&
        commits[i].post != commits[i].base) {
      return CorruptionError(
          "two committed batches claim base transaction " +
          std::to_string(commits[i].base));
    }
  }

  const size_t committed = commits.size();
  for (size_t i = 0; i < commits.size(); ++i) {
    const Commit& commit = commits[i];
    const auto prepared = prepares.find({commit.shard, commit.seq});
    const std::vector<GroupEntry>& entries = prepared->second.entries;
    const auto cross_check = coord.find({commit.shard, commit.seq});
    if (cross_check != coord.end()) {
      const ShardRecord& c = cross_check->second;
      if (c.base_txn != commit.base || c.post_txn != commit.post ||
          c.count != entries.size()) {
        return CorruptionError(
            "coordinator record disagrees with shard " +
            std::to_string(commit.shard) + " seq " +
            std::to_string(commit.seq));
      }
    }
    const TransactionNumber current = db.transaction_number();
    if (commit.post <= current) {
      // Covered by the checkpoint (crash between checkpoint publication
      // and WAL truncation); the batch boundary must still line up.
      if (commit.base > current) {
        return CorruptionError("committed batch overlaps the checkpoint");
      }
      continue;
    }
    if (commit.base > current) {
      // First gap. The durability watermark acknowledged nothing at or
      // beyond a missing predecessor, so everything from here on is
      // provably unacknowledged: drop it atomically.
      last_recovery_.dropped_in_doubt += committed - i;
      break;
    }
    if (commit.base < current) {
      return CorruptionError("committed batch straddles transaction " +
                             std::to_string(current));
    }
    for (const GroupEntry& entry : entries) {
      ApplyEntry(db, entry, nullptr);
      ++last_recovery_.replayed_sentences;
    }
    if (db.transaction_number() != commit.post) {
      return CorruptionError(
          "replay diverged: batch promised transaction " +
          std::to_string(commit.post) + ", replay reached " +
          std::to_string(db.transaction_number()));
    }
    ++last_recovery_.replayed_batches;
  }

  // Prepares that never committed are the in-doubt crash window between
  // shard prepare and commit: never acknowledged, atomically dropped.
  for (const auto& [key, record] : prepares) {
    const bool has_commit =
        std::any_of(commits.begin(), commits.end(), [&](const Commit& c) {
          return c.shard == key.first && c.seq == key.second;
        });
    if (!has_commit) ++last_recovery_.dropped_in_doubt;
  }
  return Status::Ok();
}

void ShardedExecutor::Stop() {
  if (!started_) return;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->queue->Close();
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->writer.joinable()) shard->writer.join();
  }
  // Final opportunistic coordinator sync: the log is advisory, but a
  // clean shutdown should leave it complete. The fsync itself runs with
  // no executor mutex held (the writers are already joined).
  bool sync_coordinator = false;
  {
    MutexLock lock(commit_mutex_);
    if (coordinator_ != nullptr && coordinator_good_ &&
        coordinator_unsynced_ > 0) {
      coordinator_unsynced_ = 0;
      sync_coordinator = true;
    }
  }
  if (sync_coordinator) SyncCoordinatorUnlocked();
  started_ = false;
}

std::future<Result<TransactionNumber>> ShardedExecutor::SubmitAsync(
    std::vector<Command> sentence, bool atomic) {
  {
    MutexLock lock(commit_mutex_);
    if (degraded_) {
      ++stat_rejected_;
      std::promise<Result<TransactionNumber>> refused;
      refused.set_value(ReadOnlyError(
          "executor is in read-only degraded mode (" +
          degraded_reason_.ToString() + "); repair storage and reopen"));
      return refused.get_future();
    }
  }
  const size_t home =
      sentence.empty() ? 0 : ShardOfName(CommandName(sentence.front()),
                                         shard_count_);
  Pending pending;
  pending.sentence = std::move(sentence);
  pending.atomic = atomic;
  std::future<Result<TransactionNumber>> future =
      pending.promise.get_future();
  BoundedQueue<Pending>* queue =
      started_ ? shards_[home]->queue.get() : nullptr;
  if (queue == nullptr || !queue->Push(std::move(pending))) {
    std::promise<Result<TransactionNumber>> refused;
    future = refused.get_future();
    refused.set_value(UnavailableError("sharded executor is not running"));
    return future;
  }
  MutexLock lock(commit_mutex_);
  ++submitted_;
  return future;
}

Result<TransactionNumber> ShardedExecutor::Submit(
    std::vector<Command> sentence) {
  return SubmitAsync(std::move(sentence), /*atomic=*/false).get();
}

Result<TransactionNumber> ShardedExecutor::Submit(Command command) {
  std::vector<Command> sentence;
  sentence.push_back(std::move(command));
  return Submit(std::move(sentence));
}

Result<TransactionNumber> ShardedExecutor::SubmitAtomic(
    std::vector<Command> sentence) {
  return SubmitAsync(std::move(sentence), /*atomic=*/true).get();
}

Status ShardedExecutor::Drain() {
  MutexLock lock(commit_mutex_);
  const uint64_t target = submitted_;
  drained_.Wait(commit_mutex_, [this, target]() TTRA_REQUIRES(
                                   commit_mutex_) {
    return completed_ >= target;
  });
  return Status::Ok();
}

Session ShardedExecutor::OpenSession() const {
  MutexLock lock(publish_mutex_);
  return Session(published_, published_->transaction_number());
}

TransactionNumber ShardedExecutor::transaction_number() const {
  MutexLock lock(publish_mutex_);
  return published_ == nullptr ? 0 : published_->transaction_number();
}

Database ShardedExecutor::Snapshot() const {
  std::shared_ptr<const Database> snapshot;
  {
    MutexLock lock(publish_mutex_);
    snapshot = published_;
  }
  return snapshot->Clone();
}

Status ShardedExecutor::Checkpoint() {
  // Exclusive gate: every writer holds the gate shared from prepare to
  // durability marking, so owning it exclusively proves no batch is in
  // flight anywhere — the watermark equals the chain tip and all sequence
  // spaces may be reset together with the logs.
  WriterMutexLock gate(checkpoint_gate_);
  std::shared_ptr<const Database> tip;
  {
    MutexLock lock(commit_mutex_);
    if (!started_ || tip_ == nullptr) {
      return UnavailableError("sharded executor is not running");
    }
    if (degraded_) {
      return UnavailableError("sharded executor is degraded (" +
                              degraded_reason_.ToString() +
                              "); repair storage and reopen");
    }
    tip = tip_;
  }
  // Write the checkpoint image with no executor mutex held: the exclusive
  // gate already quiesces every writer (nothing can move the tip), the
  // copy-on-write snapshot is immutable, and this is by far the longest
  // I/O in the system — stats()/healthy() probes must not stall behind it.
  if (compact_ != nullptr) {
    Status status = compact_->WriteCheckpoint(*tip);
    if (!status.ok()) {
      // The manifest writer may hold a torn tail; only a re-Start()
      // re-arms it from the validated prefix.
      MutexLock lock(commit_mutex_);
      EnterDegradedLocked(status);
      return status;
    }
  } else {
    TTRA_RETURN_IF_ERROR(SaveDatabase(*tip, dir_ + "/checkpoint.db", env_));
  }
  MutexLock lock(commit_mutex_);
  // Checkpoint durable and it covers every commit: the logs may restart.
  for (size_t k = 0; k < shard_count_; ++k) {
    MutexLock wal_lock(shards_[k]->wal_mutex);
    Status status = shards_[k]->wal->Create();
    if (!status.ok()) {
      EnterDegradedLocked(status);
      return status;
    }
    shards_[k]->next_seq = 1;
    shards_[k]->commits_since_sync = 0;
  }
  Status status = coordinator_->Create();
  if (!status.ok()) {
    EnterDegradedLocked(status);
    return status;
  }
  coordinator_unsynced_ = 0;
  coordinator_good_ = true;
  commits_since_checkpoint_ = 0;
  return Status::Ok();
}

Status ShardedExecutor::CompactStorage() {
  // Same quiesce-then-truncate protocol as Checkpoint, with the image
  // write replaced by a full segment rewrite + manifest swap.
  WriterMutexLock gate(checkpoint_gate_);
  std::shared_ptr<const Database> tip;
  {
    MutexLock lock(commit_mutex_);
    if (!started_ || tip_ == nullptr) {
      return UnavailableError("sharded executor is not running");
    }
    if (degraded_) {
      return UnavailableError("sharded executor is degraded (" +
                              degraded_reason_.ToString() +
                              "); repair storage and reopen");
    }
    tip = tip_;
  }
  if (compact_ == nullptr) {
    return InvalidArgumentError(
        "compact storage is not enabled for this executor (start with "
        "compact_storage = true)");
  }
  {
    Status status = compact_->Compact(*tip);
    if (!status.ok()) {
      MutexLock lock(commit_mutex_);
      EnterDegradedLocked(status);
      return status;
    }
  }
  MutexLock lock(commit_mutex_);
  // The swapped-in full manifest covers every commit: the logs may
  // restart (a crash in between replays records the manifest skips).
  for (size_t k = 0; k < shard_count_; ++k) {
    MutexLock wal_lock(shards_[k]->wal_mutex);
    Status status = shards_[k]->wal->Create();
    if (!status.ok()) {
      EnterDegradedLocked(status);
      return status;
    }
    shards_[k]->next_seq = 1;
    shards_[k]->commits_since_sync = 0;
  }
  Status status = coordinator_->Create();
  if (!status.ok()) {
    EnterDegradedLocked(status);
    return status;
  }
  coordinator_unsynced_ = 0;
  coordinator_good_ = true;
  commits_since_checkpoint_ = 0;
  return Status::Ok();
}

bool ShardedExecutor::healthy() const {
  MutexLock lock(commit_mutex_);
  return started_ && !degraded_;
}

bool ShardedExecutor::degraded() const {
  MutexLock lock(commit_mutex_);
  return degraded_;
}

Status ShardedExecutor::degraded_reason() const {
  MutexLock lock(commit_mutex_);
  return degraded_reason_;
}

void ShardedExecutor::EnterDegraded(const Status& reason) {
  MutexLock lock(commit_mutex_);
  EnterDegradedLocked(reason);
}

void ShardedExecutor::EnterDegradedLocked(const Status& reason) {
  if (degraded_) return;
  degraded_ = true;
  degraded_reason_ = reason;
  last_write_error_ = reason;
}

void ShardedExecutor::SyncCoordinatorUnlocked() {
  // Env is internally synchronized, so the fsync runs lock-free here and
  // committers on other shards keep appending meanwhile. WalWriter::Sync
  // is NOT used: it mutates its stats under no lock of its own, and the
  // appender owns it under commit_mutex_ — the executor books syncs in
  // coordinator_syncs_ instead.
  const Status status = env_->Sync(dir_ + "/" + kCoordinatorLogFile);
  MutexLock lock(commit_mutex_);
  if (status.ok()) {
    ++coordinator_syncs_;
  } else {
    // Advisory log only: stop writing it, durability is untouched.
    coordinator_good_ = false;
  }
}

ShardedExecutor::RecoveryInfo ShardedExecutor::last_recovery() const {
  MutexLock lock(commit_mutex_);
  return last_recovery_;
}

ShardedExecutor::Stats ShardedExecutor::stats() const {
  Stats stats;
  {
    MutexLock lock(commit_mutex_);
    stats.commits = stat_commits_;
    stats.batches = stat_batches_;
    stats.max_batch = stat_max_batch_;
    stats.cross_shard_batches = stat_cross_shard_;
    stats.rejected_read_only = stat_rejected_;
    stats.degraded = degraded_;
    stats.coordinator_records =
        coordinator_ == nullptr ? 0 : coordinator_->stats().records;
    stats.coordinator_syncs = coordinator_syncs_;
    stats.last_write_error = last_write_error_;
  }
  stats.transient_retries = transient_retries_.load();
  stats.retry_successes = retry_successes_.load();
  stats.per_shard.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->wal_mutex);
    ShardStats per = shard->stats;
    if (shard->wal != nullptr) per.wal = shard->wal->stats();
    stats.per_shard.push_back(per);
  }
  return stats;
}

Status ShardedExecutor::RetryShardWalOp(Shard& shard,
                                        const std::function<Status()>& op,
                                        bool reset_tail) {
  const RetryOptions& retry = options_.durable.retry;
  const size_t max_attempts = std::max<size_t>(1, retry.max_attempts);
  std::chrono::microseconds backoff = retry.initial_backoff;
  bool retried = false;
  Status status = op();
  for (size_t attempt = 1; attempt < max_attempts; ++attempt) {
    if (status.ok()) break;
    if (status.code() != ErrorCode::kIoError) return status;
    transient_retries_.fetch_add(1);
    retried = true;
    if (retry.sleeper) {
      retry.sleeper(backoff);
    } else {
      std::this_thread::sleep_for(backoff);
    }
    backoff = std::min(backoff * 2, retry.max_backoff);
    if (reset_tail) {
      if (!shard.wal->ResetTail().ok()) continue;
    }
    status = op();
  }
  if (status.ok() && retried) retry_successes_.fetch_add(1);
  return status;
}

void ShardedExecutor::RefuseBatch(std::vector<Pending>& batch,
                                  const Status& reason) {
  // Count the refusals before resolving them: a caller whose refusal has
  // resolved must find it in stats().
  if (reason.code() == ErrorCode::kReadOnly) {
    MutexLock lock(commit_mutex_);
    stat_rejected_ += batch.size();
  }
  for (Pending& pending : batch) {
    pending.promise.set_value(reason);
  }
  MutexLock lock(commit_mutex_);
  completed_ += batch.size();
  drained_.SignalAll();
}

Status ShardedExecutor::WriteCrossPrepares(size_t home, uint64_t home_seq,
                                           const std::string& entries_blob,
                                           const std::vector<bool>& touched) {
  const std::string payload =
      EncodeCrossPrepare(home, home_seq, entries_blob);
  for (size_t t = 0; t < shard_count_; ++t) {
    if (t == home || !touched[t]) continue;
    Shard& other = *shards_[t];
    // One participant WAL lock at a time — two home shards cross-preparing
    // into each other can never hold-and-wait.
    MutexLock lock(other.wal_mutex);
    Status status = RetryShardWalOp(
        other,
        [&other, &payload]() TTRA_REQUIRES(other.wal_mutex) {
          return other.wal->AddRecord(payload);
        },
        /*reset_tail=*/true);
    if (status.ok() && options_.durable.sync_policy == SyncPolicy::kAlways) {
      // Two-phase: under kAlways every participant durably holds the
      // payload before any commit record can exist. The weaker policies
      // keep their bounded-loss contract instead.
      status = RetryShardWalOp(
          other,
          [&other]() TTRA_REQUIRES(other.wal_mutex) {
            return other.wal->Sync();
          },
          /*reset_tail=*/false);
    }
    if (!status.ok()) return status;
    ++other.stats.cross_prepares;
  }
  return Status::Ok();
}

void ShardedExecutor::MarkBatch(uint64_t commit_index, Status io) {
  MutexLock lock(commit_mutex_);
  for (Inflight& batch : inflight_) {
    if (batch.commit_index == commit_index) {
      batch.marked = true;
      batch.io = std::move(io);
      break;
    }
  }
  if (options_.test_faults.ack_out_of_order) {
    // Seeded protocol bug (tests/model checker only): publish and resolve
    // the just-marked batch right here, wherever it sits in the commit
    // order, instead of waiting for the watermark to reach it. Under any
    // schedule where a later-ordered batch becomes durable first, the
    // published snapshot regresses — which the explorer must catch.
    for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
      if (it->commit_index != commit_index) continue;
      Inflight batch = std::move(*it);
      inflight_.erase(it);
      if (batch.io.ok()) {
        {
          MutexLock publish(publish_mutex_);
          published_ = batch.snapshot;
        }
        for (size_t i = 0; i < batch.promises.size(); ++i) {
          batch.promises[i].set_value(std::move(batch.results[i]));
        }
      } else {
        for (auto& promise : batch.promises) {
          promise.set_value(batch.io);
        }
      }
      completed_ += batch.promises.size();
      break;
    }
    drained_.SignalAll();
    return;
  }
  // Advance the durability watermark: acknowledge leading marked batches
  // in commit order. Publishing before resolving preserves
  // read-your-writes; a durability failure poisons everything after it —
  // those batches build on state recovery cannot reproduce.
  while (!inflight_.empty() && inflight_.front().marked) {
    Inflight batch = std::move(inflight_.front());
    inflight_.pop_front();
    if (!batch.io.ok()) poisoned_ = true;
    if (poisoned_) {
      const Status lost =
          batch.io.ok()
              ? UnavailableError(
                    "commit lost: an earlier batch failed to become "
                    "durable; the executor is read-only until reopened")
              : batch.io;
      for (auto& promise : batch.promises) {
        promise.set_value(lost);
      }
    } else {
      {
        MutexLock publish(publish_mutex_);
        published_ = batch.snapshot;
      }
      for (size_t i = 0; i < batch.promises.size(); ++i) {
        batch.promises[i].set_value(std::move(batch.results[i]));
      }
    }
    completed_ += batch.promises.size();
  }
  drained_.SignalAll();
}

void ShardedExecutor::ProcessBatch(size_t shard_index,
                                   std::vector<Pending>& batch) {
  Shard& shard = *shards_[shard_index];

  // Entries + the set of shards any sentence touches. The whole batch is
  // the commit unit, so the touched set is computed across all of it.
  std::vector<GroupEntry> entries;
  entries.reserve(batch.size());
  std::vector<bool> touched(shard_count_, false);
  for (Pending& pending : batch) {
    for (const Command& command : pending.sentence) {
      touched[ShardOfName(CommandName(command), shard_count_)] = true;
    }
    entries.push_back(GroupEntry{std::move(pending.sentence), pending.atomic});
  }
  bool cross = false;
  for (size_t t = 0; t < shard_count_; ++t) {
    if (touched[t] && t != shard_index) cross = true;
  }
  const std::string entries_blob = EncodeEntriesBlob(entries);

  // Phase 1 — prepare: the payload lands in this shard's own WAL under a
  // shard-local sequence number. Parallel across shards; no global lock.
  uint64_t seq = 0;
  Status io;
  {
    MutexLock lock(shard.wal_mutex);
    seq = shard.next_seq++;
    const std::string payload = EncodePrepare(seq, entries_blob);
    io = RetryShardWalOp(
        shard,
        [&shard, &payload]() TTRA_REQUIRES(shard.wal_mutex) {
          return shard.wal->AddRecord(payload);
        },
        /*reset_tail=*/true);
  }
  if (!io.ok()) {
    EnterDegraded(io);
    RefuseBatch(batch, io);
    return;
  }
  if (cross) {
    io = WriteCrossPrepares(shard_index, seq, entries_blob, touched);
    if (!io.ok()) {
      // The orphaned prepare is in-doubt; recovery drops it. The batch
      // fails cleanly here, before any transaction number existed.
      EnterDegraded(io);
      RefuseBatch(batch, io);
      return;
    }
  }

  // Phase 2 — order: transaction numbers are data-dependent (a failed
  // command consumes none), so positions cannot be pre-reserved; the
  // global section is exactly the apply + coordinator append, nothing
  // else. The batch applies to a clone of the tip that shares every
  // relation with it; a relation is copied on the batch's first write to
  // it (entry pointers, never rows), so the section costs what the batch
  // touches, not the length of the history.
  uint64_t commit_index = 0;
  TransactionNumber base = 0;
  TransactionNumber post = 0;
  bool sync_coordinator = false;
  {
    MutexLock lock(commit_mutex_);
    if (degraded_) {
      const Status refusal = ReadOnlyError(
          "executor is in read-only degraded mode (" +
          degraded_reason_.ToString() + "); repair storage and reopen");
      stat_rejected_ += batch.size();
      completed_ += batch.size();
      for (Pending& pending : batch) {
        pending.promise.set_value(refusal);
      }
      drained_.SignalAll();
      return;
    }
    base = tip_->transaction_number();
    auto next = std::make_shared<Database>(tip_->Clone());
    std::vector<Result<TransactionNumber>> results;
    results.reserve(entries.size());
    for (const GroupEntry& entry : entries) {
      Result<TransactionNumber> result(0);
      ApplyEntry(*next, entry, &result);
      results.push_back(std::move(result));
    }
    post = next->transaction_number();

    // Coordinator record: the global order as it happens. Advisory —
    // appended under the order lock (its order IS the commit order) but
    // synced lazily, so the ack path pays exactly one fsync (the shard's).
    if (coordinator_good_) {
      const std::string coord =
          EncodeCoordCommit(shard_index, seq, base, post, entries.size());
      if (!coordinator_->AddRecord(coord).ok()) {
        // Best effort: cut any torn frame and stop writing the advisory
        // log. Durability is untouched; recovery works without it, and
        // tolerates the torn frame if even the cut fails.
        coordinator_->ResetTail().IgnoreError();
        coordinator_good_ = false;
      } else if (++coordinator_unsynced_ >=
                 options_.coordinator_sync_every) {
        // The fsync itself happens after the batch is acked (end of this
        // function, still under the shared checkpoint gate): a disk flush
        // of the advisory log must not sit inside the global order lock.
        coordinator_unsynced_ = 0;
        sync_coordinator = true;
      }
    }

    commit_index = next_commit_index_++;
    Inflight inflight;
    inflight.commit_index = commit_index;
    inflight.base = base;
    inflight.post = post;
    inflight.snapshot = next;
    inflight.results = std::move(results);
    inflight.promises.reserve(batch.size());
    for (Pending& pending : batch) {
      inflight.promises.push_back(std::move(pending.promise));
    }
    inflight_.push_back(std::move(inflight));
    tip_ = std::move(next);
    stat_commits_ += batch.size();
    stat_batches_ += 1;
    stat_max_batch_ = std::max<uint64_t>(stat_max_batch_, batch.size());
    if (cross) ++stat_cross_shard_;
    commits_since_checkpoint_ += batch.size();
  }

  // Phase 3 — commit: [seq, base, post] into this shard's own WAL, then
  // one sync covering prepare + commit together. Parallel across shards —
  // this is the fsync stream the sharding multiplies.
  {
    MutexLock lock(shard.wal_mutex);
    const std::string payload = EncodeCommit(seq, base, post);
    io = RetryShardWalOp(
        shard,
        [&shard, &payload]() TTRA_REQUIRES(shard.wal_mutex) {
          return shard.wal->AddRecord(payload);
        },
        /*reset_tail=*/true);
    if (io.ok()) {
      shard.commits_since_sync += batch.size();
      const bool sync_now =
          options_.durable.sync_policy == SyncPolicy::kAlways ||
          (options_.durable.sync_policy == SyncPolicy::kBatch &&
           shard.commits_since_sync >= options_.durable.batch_size);
      if (sync_now) {
        io = RetryShardWalOp(
            shard,
            [&shard]() TTRA_REQUIRES(shard.wal_mutex) {
              return shard.wal->Sync();
            },
            /*reset_tail=*/false);
        if (io.ok()) shard.commits_since_sync = 0;
      }
    }
    shard.stats.batches += 1;
    shard.stats.commits += batch.size();
  }
  if (!io.ok()) EnterDegraded(io);

  // Phase 4 — ack behind the durability watermark.
  MarkBatch(commit_index, io);

  // Lazy coordinator flush, after the ack so it adds no commit latency.
  // Still under the caller's shared checkpoint gate, so Checkpoint()
  // cannot rotate the log out from under the fsync.
  if (sync_coordinator) SyncCoordinatorUnlocked();
}

void ShardedExecutor::WriterLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::vector<Pending> batch = shard.queue->PopBatch(
        options_.group_commit.max_batch, options_.group_commit.max_latency);
    if (batch.empty()) return;  // closed and fully drained

    if (degraded()) {
      RefuseBatch(batch, ReadOnlyError(
          "executor is in read-only degraded mode (" +
          degraded_reason().ToString() + "); repair storage and reopen"));
      continue;
    }

    {
      // Writers ride the gate shared for the whole prepare → commit →
      // mark protocol; Checkpoint() takes it exclusively to quiesce.
      ReaderMutexLock gate(checkpoint_gate_);
      ProcessBatch(shard_index, batch);
    }

    if (options_.durable.checkpoint_every != 0) {
      bool checkpoint_now = false;
      {
        MutexLock lock(commit_mutex_);
        checkpoint_now = !degraded_ && commits_since_checkpoint_ >=
                                           options_.durable.checkpoint_every;
      }
      // Outside the gate (Checkpoint takes it exclusively). Best effort:
      // failures flip degraded mode inside.
      if (checkpoint_now) Checkpoint().IgnoreError();
    }
  }
}

}  // namespace ttra
