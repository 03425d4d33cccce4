#ifndef TTRA_STORAGE_LAYOUT_H_
#define TTRA_STORAGE_LAYOUT_H_

#include <string>
#include <string_view>

#include "storage/env.h"

namespace ttra {

/// File names of a durable directory, shared by both engines and the
/// salvage scan (`ttra fsck`); the layouts are described in
/// rollback/durable_executor.h and rollback/sharded_executor.h, the
/// compact checkpoint's names live in storage/segment.h.
inline constexpr char kWalFile[] = "wal.log";
inline constexpr char kShardManifestFile[] = "MANIFEST";
inline constexpr char kCoordinatorLogFile[] = "coordinator.log";

/// "shard-<k>.wal".
std::string ShardWalFile(size_t shard);

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
