#ifndef TTRA_STORAGE_LAYOUT_H_
#define TTRA_STORAGE_LAYOUT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/env.h"

namespace ttra {

/// File names of a durable directory, shared by both engines and the
/// salvage scan (`ttra fsck`); the layouts are described in
/// rollback/durable_executor.h and rollback/sharded_executor.h, the
/// compact checkpoint's names live in storage/segment.h.
inline constexpr char kWalFile[] = "wal.log";
inline constexpr char kShardManifestFile[] = "MANIFEST";

/// The log files of a sharded directory come in generations: a checkpoint
/// switches every log to the next generation and deletes the older ones
/// once its image is durable. Generation 0 keeps the names a directory has
/// always had; generation g > 0 puts g before the extension.

/// "shard-<k>.wal" (generation 0) or "shard-<k>.<g>.wal".
std::string ShardWalFile(size_t shard, uint64_t generation = 0);

/// "coordinator.log" (generation 0) or "coordinator.<g>.log".
std::string CoordinatorLogFile(uint64_t generation = 0);

/// One log file of a sharded directory, as named by the two functions
/// above.
struct ShardedLogName {
  std::string file;          ///< the file name, without the directory
  bool coordinator = false;  ///< the coordinator log, else a shard log
  size_t shard = 0;          ///< the shard of a shard log
  uint64_t generation = 0;

  /// Shard logs by shard, then the coordinator log; each by generation.
  bool operator<(const ShardedLogName& other) const;
};

/// The one predicate over log names: a shard log or the coordinator log,
/// of any generation. nullopt for every other name, quarantined remains
/// ("<log>.quarantine") included.
std::optional<ShardedLogName> ParseShardedLogName(std::string_view name);

/// Every log file in `dir` whose shard is below `shards` (plus the
/// coordinator's), sorted: each log's generations in the order they were
/// written.
Result<std::vector<ShardedLogName>> ListShardedLogs(const Env& env,
                                                    const std::string& dir,
                                                    size_t shards);

/// Largest shard count a MANIFEST may record. ShardedExecutor::Start()
/// refuses to create a directory beyond it; ParseShardManifest treats a
/// larger count as corruption.
inline constexpr size_t kMaxShards = 1024;

/// The MANIFEST text for `shards` shards: "ttra-shards 1\nshards <N>\n".
std::string FormatShardManifest(size_t shards);

/// The one MANIFEST parser, behind ShardedExecutor::Start() and the
/// salvage scan: kCorruption on anything but FormatShardManifest's exact
/// shape with a shard count in [1, kMaxShards].
Result<uint32_t> ParseShardManifest(std::string_view text);

/// Reads and parses dir/MANIFEST.
Result<uint32_t> ReadShardManifest(const Env& env, const std::string& dir);

}  // namespace ttra

#endif  // TTRA_STORAGE_LAYOUT_H_
