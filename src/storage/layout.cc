#include "storage/layout.h"

namespace ttra {

namespace {

constexpr std::string_view kManifestHeader = "ttra-shards 1\nshards ";

}  // namespace

std::string ShardWalFile(size_t shard) {
  return "shard-" + std::to_string(shard) + ".wal";
}

std::string FormatShardManifest(size_t shards) {
  return std::string(kManifestHeader) + std::to_string(shards) + "\n";
}

Result<uint32_t> ParseShardManifest(std::string_view text) {
  if (!text.starts_with(kManifestHeader) || !text.ends_with('\n')) {
    return CorruptionError("malformed shard MANIFEST");
  }
  const std::string number(text.substr(
      kManifestHeader.size(), text.size() - kManifestHeader.size() - 1));
  if (number.empty() || number.find_first_not_of("0123456789") !=
                            std::string::npos) {
    return CorruptionError("malformed shard count in MANIFEST");
  }
  // More digits than kMaxShards has is beyond it (and maybe stoul's range).
  const size_t shards = number.size() > std::to_string(kMaxShards).size()
                            ? kMaxShards + 1
                            : std::stoul(number);
  if (shards == 0 || shards > kMaxShards) {
    return CorruptionError("implausible shard count " + number +
                           " in MANIFEST (at most " +
                           std::to_string(kMaxShards) + ")");
  }
  return static_cast<uint32_t>(shards);
}

Result<uint32_t> ReadShardManifest(const Env& env, const std::string& dir) {
  TTRA_ASSIGN_OR_RETURN(std::string text,
                        env.Read(dir + "/" + kShardManifestFile));
  Result<uint32_t> shards = ParseShardManifest(text);
  if (!shards.ok()) {
    return CorruptionError(shards.status().message() + " of " + dir);
  }
  return shards;
}

}  // namespace ttra
