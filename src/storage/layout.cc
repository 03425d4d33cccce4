#include "storage/layout.h"

#include <algorithm>
#include <charconv>
#include <tuple>

namespace ttra {

namespace {

constexpr std::string_view kManifestHeader = "ttra-shards 1\nshards ";

/// "<stem>.<ext>" at generation 0, "<stem>.<g>.<ext>" after.
std::string GenerationName(std::string stem, uint64_t generation,
                           std::string_view ext) {
  if (generation != 0) stem += "." + std::to_string(generation);
  return stem + "." + std::string(ext);
}

/// Reads a decimal number off the front of `text`.
std::optional<uint64_t> TakeNumber(std::string_view& text) {
  uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end == text.data()) return std::nullopt;
  text.remove_prefix(static_cast<size_t>(end - text.data()));
  return value;
}

}  // namespace

std::string ShardWalFile(size_t shard, uint64_t generation) {
  return GenerationName("shard-" + std::to_string(shard), generation, "wal");
}

std::string CoordinatorLogFile(uint64_t generation) {
  return GenerationName("coordinator", generation, "log");
}

bool ShardedLogName::operator<(const ShardedLogName& other) const {
  return std::tie(coordinator, shard, generation) <
         std::tie(other.coordinator, other.shard, other.generation);
}

std::optional<ShardedLogName> ParseShardedLogName(std::string_view name) {
  ShardedLogName log;
  std::string_view rest = name;
  log.coordinator = rest.starts_with("coordinator");
  if (log.coordinator) {
    rest.remove_prefix(std::string_view("coordinator").size());
  } else if (rest.starts_with("shard-")) {
    rest.remove_prefix(std::string_view("shard-").size());
    const std::optional<uint64_t> shard = TakeNumber(rest);
    if (!shard.has_value() || *shard >= kMaxShards) return std::nullopt;
    log.shard = static_cast<size_t>(*shard);
  } else {
    return std::nullopt;
  }
  if (rest.size() > 1 && rest[0] == '.' && rest[1] >= '0' && rest[1] <= '9') {
    rest.remove_prefix(1);
    const std::optional<uint64_t> generation = TakeNumber(rest);
    if (!generation.has_value()) return std::nullopt;
    log.generation = *generation;
  }
  // Only the names the two functions above write: the round trip rejects
  // leading zeros, an explicit generation 0 and anything after the
  // extension (".quarantine" remains, say) in one comparison.
  log.file = log.coordinator ? CoordinatorLogFile(log.generation)
                             : ShardWalFile(log.shard, log.generation);
  if (log.file != name) return std::nullopt;
  return log;
}

Result<std::vector<ShardedLogName>> ListShardedLogs(const Env& env,
                                                    const std::string& dir,
                                                    size_t shards) {
  TTRA_ASSIGN_OR_RETURN(std::vector<std::string> names, env.List(dir));
  std::vector<ShardedLogName> logs;
  for (const std::string& name : names) {
    std::optional<ShardedLogName> log = ParseShardedLogName(name);
    if (log.has_value() && (log->coordinator || log->shard < shards)) {
      logs.push_back(*std::move(log));
    }
  }
  std::sort(logs.begin(), logs.end());
  return logs;
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
